//! The shared worker pool: a bounded work queue multiplexing every
//! job's cache-miss cells onto `std::thread` workers.
//!
//! The queue is a [`std::sync::mpsc::sync_channel`] with capacity
//! [`DaemonConfig::queue_capacity`](crate::DaemonConfig): the actor
//! dispatches with [`WorkerPool::try_dispatch`] and treats a full queue
//! as backpressure (it simply stops dispatching until a completion
//! event frees a slot — the actor thread never blocks). Workers catch
//! panics, so one malformed cell cannot take a worker down.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{Sender, SyncSender, TrySendError};
use std::thread::JoinHandle;

use ringdeploy_analysis::key::InstanceKey;
use ringdeploy_json::Json;

use crate::daemon::{CellDone, Event};
use crate::engine;

/// Deliberate fault injection for the chaos CI drill: when
/// `RINGDEPLOYD_CHAOS_PANIC` is set (non-empty), any work item holding
/// a key whose label contains the value panics mid-compute. The panic
/// is caught by the worker like any other, counted in
/// [`StatsReport::panics`](crate::protocol::StatsReport) once per cell
/// of the item, and surfaced to the client as a normal cell error — the
/// drill proves one poisoned cell cannot take a worker (or the daemon)
/// down.
fn chaos_panic_hook(key: &InstanceKey) {
    if let Ok(needle) = std::env::var("RINGDEPLOYD_CHAOS_PANIC") {
        if !needle.is_empty() && key.label().contains(&needle) {
            panic!("chaos: injected worker panic for {}", key.label());
        }
    }
}

/// One unit of work: compute the reports of `keys` for cells `cells`
/// (one per key) of job `job` (the daemon's internal job id). The keys
/// are one cell's, or several keys of one search that differ only in
/// objective, computed together by the engine's `compute_group`.
pub struct WorkItem {
    /// Internal job id.
    pub job: u64,
    /// Cell indices within the job, one per key.
    pub cells: Vec<usize>,
    /// What to compute.
    pub keys: Vec<InstanceKey>,
}

/// Computes one work item: one `(cell, result, panicked)` per key. A
/// panic anywhere in the item fails every cell of it.
fn compute_item(item: WorkItem) -> Vec<(usize, Result<Json, String>, bool)> {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        item.keys.iter().for_each(chaos_panic_hook);
        engine::compute_group(&item.keys)
    }));
    match outcome {
        Ok(results) => item
            .cells
            .into_iter()
            .zip(results)
            .map(|(cell, result)| (cell, result, false))
            .collect(),
        Err(_) => item
            .cells
            .into_iter()
            .map(|cell| {
                (
                    cell,
                    Err("worker panicked computing cell".to_string()),
                    true,
                )
            })
            .collect(),
    }
}

/// The worker threads plus the bounded dispatch queue.
pub struct WorkerPool {
    tx: Option<SyncSender<WorkItem>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads consuming a queue of `queue_capacity`
    /// slots; completions are posted to `events`.
    pub fn spawn(workers: usize, queue_capacity: usize, events: Sender<Event>) -> WorkerPool {
        let (tx, rx) = std::sync::mpsc::sync_channel::<WorkItem>(queue_capacity.max(1));
        let rx = std::sync::Arc::new(std::sync::Mutex::new(rx));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                let events = events.clone();
                std::thread::Builder::new()
                    .name(format!("ringdeployd-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only for the receive: workers
                        // compute concurrently.
                        let item = match rx.lock().expect("queue lock").recv() {
                            Ok(item) => item,
                            Err(_) => break, // queue closed: shutdown
                        };
                        let job = item.job;
                        for (cell, result, panicked) in compute_item(item) {
                            let done = CellDone {
                                job,
                                cell,
                                result,
                                panicked,
                            };
                            if events.send(Event::CellDone(done)).is_err() {
                                return; // actor gone: shutdown
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            handles,
        }
    }

    /// Attempts to enqueue `item`; hands it back when the queue is full
    /// (the actor retries after the next completion event).
    pub fn try_dispatch(&self, item: WorkItem) -> Result<(), WorkItem> {
        let tx = self.tx.as_ref().expect("pool not shut down");
        match tx.try_send(item) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(item)) => Err(item),
            Err(TrySendError::Disconnected(_)) => {
                unreachable!("workers outlive the dispatch side")
            }
        }
    }

    /// Closes the queue and joins every worker — the no-thread-leak
    /// guarantee of graceful shutdown. Callers must have drained their
    /// in-flight items' completion events first (or be prepared for the
    /// events channel to be dropped).
    pub fn shutdown(mut self) {
        drop(self.tx.take());
        for handle in self.handles.drain(..) {
            handle.join().expect("worker thread panicked");
        }
    }
}
