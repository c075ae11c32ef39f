//! The timed passes of each workload and their end-to-end metrics.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ringdeploy_analysis::key::InstanceKey;
use ringdeploy_service::{Client, DaemonConfig, Response, StatsReport};

use crate::drive::{self, ClientTrace, Expect, JobSample, Live};
use crate::pinned::PinTable;
use crate::plan::{self, PlannedJob, WarmDraws, Workload, DECK};
use crate::stats::{hd_quantile, median};

/// Extra bind-and-stop cycles of `cold-campaign` and `large-sweep` before
/// the timed phase, so the reported set-up median rests on enough samples.
pub const EXTRA_SETUPS: usize = 99;

/// Set-ups of `warm-mix` (each prewarms the whole catalogue).
pub const WARM_SETUPS: usize = 5;

/// Options of one benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Small instances (the benchmark's own tests).
    pub smoke: bool,
}

/// One timed pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every job's timings.
    pub samples: Vec<JobSample>,
    /// Wall time of the timed phase (summed over rounds).
    pub timed: Duration,
    /// Set-up samples.
    pub setups: Vec<Duration>,
    /// Final stats of every daemon the pass stopped.
    pub stats: Vec<StatsReport>,
    /// Correctness-gate mismatches.
    pub problems: Vec<String>,
    /// Rounds of the job list (`cold-campaign`, `large-sweep`).
    pub rounds: usize,
    /// Rows per second of each round.
    pub round_rates: Vec<f64>,
    /// Keys of rows the daemon computed (not cached) in the timed phase.
    pub computed: Vec<InstanceKey>,
    /// Client-side layer timings (traced passes only).
    pub trace: Option<ClientTrace>,
    /// `VmHWM` (MiB) once set-up and a fixed amount of work are done:
    /// the first round, or each `warm-mix` client's first deck of draws.
    /// Read there rather than at the end, so that a faster program, which
    /// fits more work into the timed phase, is compared at equal work.
    pub rss_mb: Option<f64>,
}

impl Pass {
    fn absorb_job(
        &mut self,
        job: &PlannedJob,
        sample: JobSample,
        problems: Vec<String>,
        frames: &[Response],
    ) {
        for frame in frames {
            if let Response::Row(row) = frame {
                if !row.cached {
                    self.computed.push(job.keys[row.seq].clone());
                }
            }
        }
        self.samples.push(sample);
        self.problems.extend(problems);
    }

    /// Jobs attempted.
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    /// Jobs whose outcome differed from the pinned one.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// Rows delivered in the timed phase.
    pub fn rows(&self) -> usize {
        self.samples.iter().map(|s| s.rows).sum()
    }

    /// Sum of the stopped daemons' counters (`cache.bytes`: the largest).
    pub fn stats_total(&self) -> StatsReport {
        let mut total = StatsReport::default();
        for s in &self.stats {
            total.cache.hits += s.cache.hits;
            total.cache.misses += s.cache.misses;
            total.cache.evictions += s.cache.evictions;
            total.cache.entries = total.cache.entries.max(s.cache.entries);
            total.cache.bytes = total.cache.bytes.max(s.cache.bytes);
            total.completed_jobs += s.completed_jobs;
            total.rejected_jobs += s.rejected_jobs;
            total.cells_computed += s.cells_computed;
            total.panics += s.panics;
            total.timeouts += s.timeouts;
        }
        total
    }

    /// The end-to-end metrics of this pass.
    pub fn end_to_end(&self, workload: Workload) -> EndToEnd {
        let latencies: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        let setups: Vec<f64> = self.setups.iter().map(Duration::as_secs_f64).collect();
        EndToEnd {
            setup_s: median(&setups),
            rows_per_s: if self.round_rates.is_empty() {
                self.rows() as f64 / self.timed.as_secs_f64().max(1e-9)
            } else {
                median(&self.round_rates)
            },
            job_p50_ms: hd_quantile(&latencies, 0.5),
            job_p99_ms: hd_quantile(&latencies, workload.tail_quantile()),
            failed_ops: self.failed() as f64 / self.attempted().max(1) as f64,
        }
    }
}

/// The end-to-end metrics a pass yields (peak RSS is read separately).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up time.
    pub setup_s: f64,
    /// Rows delivered per second of the timed phase.
    pub rows_per_s: f64,
    /// Median job latency (Harrell–Davis estimate).
    pub job_p50_ms: f64,
    /// Job latency at the workload's tail quantile (Harrell–Davis estimate).
    pub job_p99_ms: f64,
    /// Share of jobs whose outcome differed from the pinned one.
    pub failed_ops: f64,
}

fn config() -> DaemonConfig {
    DaemonConfig::default()
}

/// Rounds of the workload's job list until the timed phase reaches
/// `seconds` (at least one round; rounds are never cut short). Round `r`
/// submits `jobs(r)`; with `fresh_daemon`, each round gets a new daemon,
/// otherwise one daemon serves them all.
fn rounds_pass(
    jobs: impl Fn(u64) -> Vec<PlannedJob>,
    fresh_daemon: bool,
    seconds: f64,
    table: &PinTable,
    traced: bool,
) -> io::Result<Pass> {
    let mut pass = Pass {
        trace: traced.then(ClientTrace::default),
        ..Pass::default()
    };
    for _ in 0..EXTRA_SETUPS {
        let (live, client, setup) = drive::start(config())?;
        pass.setups.push(setup);
        drop(client);
        live.stop()?;
    }
    let expect = Expect {
        table,
        cached: Some(false),
        exact: None,
    };
    let mut daemon = None;
    loop {
        let (live, client) = match daemon.take() {
            Some(running) => running,
            None => {
                let (live, client, setup) = drive::start(config())?;
                pass.setups.push(setup);
                (live, client)
            }
        };
        let mut client = client;
        let round = jobs(pass.rounds as u64);
        let rows_before = pass.rows();
        let begin = Instant::now();
        for (id, job) in round.iter().enumerate() {
            let (sample, problems, frames) =
                drive::run_checked(&mut client, id as u64, job, &expect, pass.trace.as_mut())?;
            pass.absorb_job(job, sample, problems, &frames);
            if let Some(trace) = pass.trace.as_mut() {
                record_sequence(trace, job, &frames);
            }
        }
        let elapsed = begin.elapsed();
        pass.timed += elapsed;
        pass.round_rates
            .push((pass.rows() - rows_before) as f64 / elapsed.as_secs_f64());
        pass.rounds += 1;
        pass.rss_mb.get_or_insert_with(peak_rss_mb);
        let done = pass.timed.as_secs_f64() >= seconds;
        if fresh_daemon || done {
            drop(client);
            pass.stats.push(live.stop()?);
        } else {
            daemon = Some((live, client));
        }
        if done {
            return Ok(pass);
        }
    }
}

fn record_sequence(trace: &mut ClientTrace, job: &PlannedJob, frames: &[Response]) {
    for frame in frames {
        if let Response::Row(row) = frame {
            trace
                .sequence
                .push((job.keys[row.seq].canonical(), row.payload.clone()));
        }
    }
}

/// A prewarmed `warm-mix` daemon.
pub struct Warm {
    /// The daemon.
    pub live: Live,
    /// The catalogue.
    pub catalogue: Vec<PlannedJob>,
    /// Each catalogue job's row payloads, as setup computed them.
    pub rows: Vec<Vec<String>>,
    /// One connection per client, opened during set-up.
    pub clients: Vec<Client>,
    /// Each client's draw stream; it continues across passes, so a later
    /// pass never repeats an earlier pass's fresh keys.
    pub draws: Vec<WarmDraws>,
}

/// Binds a daemon, prewarms the catalogue through it and opens the
/// workload's client connections; returns the set-up time. The prewarm
/// rows are checked against the pinned outcomes (and, when `reference`
/// is given, against an earlier set-up's bytes) after the clock stops.
fn warm_setup(
    seed: u64,
    smoke: bool,
    table: &PinTable,
    reference: Option<&[Vec<String>]>,
    problems: &mut Vec<String>,
) -> io::Result<(Warm, Duration)> {
    let catalogue = plan::warm_catalogue(smoke);
    let begin = Instant::now();
    let (live, mut client, _) = drive::start(config())?;
    let frames = drive::pipeline(&mut client, &catalogue)?;
    let clients = (0..Workload::WarmMix.clients())
        .map(|_| Client::connect(&live.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let setup = begin.elapsed();
    let mut rows = Vec::with_capacity(catalogue.len());
    for (id, (job, frames)) in catalogue.iter().zip(&frames).enumerate() {
        let expect = Expect {
            table,
            cached: None,
            exact: reference.map(|r| &r[id][..]),
        };
        problems.extend(drive::check(job, id as u64, frames, &expect));
        rows.push(
            frames
                .iter()
                .filter_map(|f| match f {
                    Response::Row(row) => Some(row.payload.to_string()),
                    _ => None,
                })
                .collect(),
        );
    }
    let draws = (0..clients.len())
        .map(|client| WarmDraws::new(seed, client, &catalogue))
        .collect();
    let warm = Warm {
        live,
        catalogue,
        rows,
        clients,
        draws,
    };
    Ok((warm, setup))
}

/// Set-up of `warm-mix`: [`WARM_SETUPS`] prewarmed daemons, all but the
/// last stopped again.
pub fn warm_setups(seed: u64, smoke: bool, table: &PinTable, pass: &mut Pass) -> io::Result<Warm> {
    let mut reference: Option<Vec<Vec<String>>> = None;
    let mut kept = None;
    for round in 0..WARM_SETUPS {
        let (warm, setup) =
            warm_setup(seed, smoke, table, reference.as_deref(), &mut pass.problems)?;
        pass.setups.push(setup);
        reference.get_or_insert_with(|| warm.rows.clone());
        if round + 1 == WARM_SETUPS {
            kept = Some(warm);
        } else {
            drop(warm.clients);
            pass.stats.push(warm.live.stop()?);
        }
    }
    Ok(kept.expect("at least one warm set-up"))
}

/// The closed-loop `warm-mix` clients, each on its own connection and
/// draw stream, until `seconds` have passed; their jobs are added to
/// `pass`.
pub fn warm_pass(
    warm: &mut Warm,
    seconds: f64,
    table: &PinTable,
    traced: bool,
    mut pass: Pass,
) -> io::Result<Pass> {
    pass.trace = traced.then(ClientTrace::default);
    let deadline = Duration::from_secs_f64(seconds);
    let catalogue = &warm.catalogue;
    let rows = &warm.rows;
    let clients = warm.clients.len();
    let decks_done = AtomicUsize::new(0);
    let rss = OnceLock::new();
    let (decks_done, rss) = (&decks_done, &rss);
    let begin = Instant::now();
    let results: Vec<io::Result<Pass>> = std::thread::scope(|scope| {
        let handles: Vec<_> = warm
            .clients
            .iter_mut()
            .zip(warm.draws.iter_mut())
            .map(|(client, draws)| {
                scope.spawn(move || {
                    let mut local = Pass {
                        trace: traced.then(ClientTrace::default),
                        ..Pass::default()
                    };
                    let mut id = 0u64;
                    while begin.elapsed() < deadline || id == 0 {
                        let job = draws.next(catalogue);
                        let entry = job.catalogue.expect("warm jobs come from the catalogue");
                        let expect = Expect {
                            table,
                            cached: Some(!job.fresh),
                            exact: (!job.fresh).then(|| &rows[entry][..]),
                        };
                        let (sample, problems, frames) =
                            drive::run_checked(client, id, &job, &expect, local.trace.as_mut())?;
                        local.absorb_job(&job, sample, problems, &frames);
                        if let Some(trace) = local.trace.as_mut() {
                            record_sequence(trace, &job, &frames);
                        }
                        id += 1;
                        if id == DECK as u64
                            && decks_done.fetch_add(1, Ordering::SeqCst) + 1 == clients
                        {
                            let _ = rss.set(peak_rss_mb());
                        }
                    }
                    Ok(local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    pass.timed += begin.elapsed();
    if pass.rss_mb.is_none() {
        pass.rss_mb = rss.get().copied();
    }
    for local in results {
        let local = local?;
        pass.samples.extend(local.samples);
        pass.problems.extend(local.problems);
        pass.computed.extend(local.computed);
        if let (Some(mine), Some(theirs)) = (pass.trace.as_mut(), local.trace) {
            mine.absorb(theirs);
        }
    }
    Ok(pass)
}

/// One pass of `cold-campaign` (one daemon, every round under fresh key
/// seeds) or `large-sweep` (a fresh daemon per round).
pub fn rounds_workload_pass(options: &Options, table: &PinTable, traced: bool) -> io::Result<Pass> {
    let Options { seed, smoke, .. } = *options;
    match options.workload {
        Workload::ColdCampaign => rounds_pass(
            |round| plan::cold_campaign(seed, round, smoke),
            false,
            options.seconds,
            table,
            traced,
        ),
        Workload::LargeSweep => rounds_pass(
            |round| plan::large_sweep(seed, round, smoke),
            true,
            options.seconds,
            table,
            traced,
        ),
        Workload::WarmMix => unreachable!("warm-mix runs on a prewarmed daemon"),
    }
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
