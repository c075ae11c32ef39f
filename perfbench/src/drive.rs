//! Driving `ringdeployd`: an in-process daemon, closed-loop clients over
//! loopback TCP, and the correctness gate every answer passes through.

use std::collections::BTreeMap;
use std::io;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ringdeploy_json::Json;
use ringdeploy_service::{
    parse_response, Backpressure, Client, DaemonConfig, Request, Response, Server, StatsReport,
};

use crate::pinned::{fnv1a, normalized, PinTable, Pinned};
use crate::plan::PlannedJob;

/// A daemon serving on an ephemeral loopback port from its own thread.
pub struct Live {
    /// `host:port` of the listener.
    pub addr: String,
    server: JoinHandle<StatsReport>,
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn next_frame(client: &mut Client) -> io::Result<Response> {
    client
        .recv()?
        .ok_or_else(|| invalid("daemon hung up mid-conversation".to_string()))
}

/// Binds a daemon with `config`, connects one client and waits for its
/// first `stats` answer. Returns the daemon, the client and the time that
/// took — one set-up sample.
pub fn start(config: DaemonConfig) -> io::Result<(Live, Client, Duration)> {
    let begin = Instant::now();
    let server = Server::bind("127.0.0.1:0", config)?;
    let addr = server.local_addr()?.to_string();
    let server = std::thread::Builder::new()
        .name("perfbench-daemon".to_string())
        .spawn(move || server.run())?;
    let live = Live { addr, server };
    let mut client = Client::connect(&live.addr)?;
    client.send(&Request::Stats)?;
    match next_frame(&mut client)? {
        Response::Stats(_) => Ok((live, client, begin.elapsed())),
        other => Err(invalid(format!("expected a stats frame, got {other:?}"))),
    }
}

impl Live {
    /// A current [`StatsReport`], over a fresh connection.
    pub fn stats(&self) -> io::Result<StatsReport> {
        let mut client = Client::connect(&self.addr)?;
        client.send(&Request::Stats)?;
        match next_frame(&mut client)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(invalid(format!("expected a stats frame, got {other:?}"))),
        }
    }

    /// Shuts the daemon down and joins it; returns its final stats.
    pub fn stop(self) -> io::Result<StatsReport> {
        let mut client = Client::connect(&self.addr)?;
        client.send(&Request::Shutdown)?;
        while client.recv()?.is_some() {}
        self.server
            .join()
            .map_err(|_| invalid("daemon thread panicked".to_string()))
    }
}

/// Client-side timings of one job.
#[derive(Debug, Clone, Copy)]
pub struct JobSample {
    /// `submit` written → terminal frame read.
    pub latency: Duration,
    /// `submit` written → `accepted` read.
    pub accept: Duration,
    /// `submit` written → first `row` read, when the job has rows.
    pub first_row: Option<Duration>,
    /// Rows delivered.
    pub rows: usize,
    /// Rows served from the cache.
    pub cached_rows: usize,
    /// The job matched its pinned outcome.
    pub ok: bool,
}

/// What the traced client loop measures around its calls into the
/// protocol, JSON and key layers.
#[derive(Debug, Default)]
pub struct ClientTrace {
    /// Time in `parse_response` for row frames.
    pub parse: Duration,
    /// Time re-encoding row payloads (`Json::to_string`).
    pub encode: Duration,
    /// Row frames parsed.
    pub rows: u64,
    /// Bytes of row frames (newline included).
    pub row_bytes: u64,
    /// Bytes of every frame received (newline included).
    pub frame_bytes: u64,
    /// Jobs traced.
    pub jobs: u64,
    /// Time in `JobSpec::keys`.
    pub keys: Duration,
    /// Time in `InstanceKey::canonical`.
    pub canonical: Duration,
    /// Cells whose key was canonicalized.
    pub cells: u64,
    /// `(canonical key, payload)` of every row, in arrival order: the
    /// key sequence the cache replay re-runs.
    pub sequence: Vec<(String, Json)>,
}

impl ClientTrace {
    /// Adds `other`'s counts to `self`.
    pub fn absorb(&mut self, other: ClientTrace) {
        self.parse += other.parse;
        self.encode += other.encode;
        self.rows += other.rows;
        self.row_bytes += other.row_bytes;
        self.frame_bytes += other.frame_bytes;
        self.jobs += other.jobs;
        self.keys += other.keys;
        self.canonical += other.canonical;
        self.cells += other.cells;
        self.sequence.extend(other.sequence);
    }
}

fn recv_traced(client: &mut Client, trace: &mut ClientTrace) -> io::Result<Response> {
    let line = client
        .recv_line()?
        .ok_or_else(|| invalid("daemon hung up mid-job".to_string()))?;
    let bytes = line.len() as u64 + 1;
    trace.frame_bytes += bytes;
    let begin = Instant::now();
    let frame = parse_response(&line).map_err(invalid)?;
    let parsed = begin.elapsed();
    if let Response::Row(row) = &frame {
        trace.parse += parsed;
        trace.rows += 1;
        trace.row_bytes += bytes;
        let begin = Instant::now();
        std::hint::black_box(row.payload.to_string());
        trace.encode += begin.elapsed();
    }
    Ok(frame)
}

/// Submits `job` as `id` and reads its frames up to the terminal one
/// (`done`, `error`, `rejected` or `timeout`).
pub fn run_job(
    client: &mut Client,
    id: u64,
    job: &PlannedJob,
    mut trace: Option<&mut ClientTrace>,
) -> io::Result<(Duration, Duration, Option<Duration>, Vec<Response>)> {
    if let Some(trace) = trace.as_deref_mut() {
        let begin = Instant::now();
        let keys = job.spec.keys().map_err(invalid)?;
        trace.keys += begin.elapsed();
        trace.jobs += 1;
        let begin = Instant::now();
        let canonical: Vec<String> = keys.iter().map(|k| k.canonical()).collect();
        trace.canonical += begin.elapsed();
        trace.cells += keys.len() as u64;
        std::hint::black_box(canonical);
    }
    let begin = Instant::now();
    client.send(&Request::Submit {
        id,
        backpressure: Backpressure::Block,
        job: job.spec.clone(),
    })?;
    let mut accept = Duration::ZERO;
    let mut first_row = None;
    let mut frames = Vec::new();
    loop {
        let frame = match trace.as_deref_mut() {
            Some(trace) => recv_traced(client, trace)?,
            None => next_frame(client)?,
        };
        match &frame {
            Response::Accepted { .. } => accept = begin.elapsed(),
            Response::Row(_) if first_row.is_none() => first_row = Some(begin.elapsed()),
            _ => {}
        }
        let terminal = matches!(
            frame,
            Response::Done { .. }
                | Response::Error { .. }
                | Response::Rejected { .. }
                | Response::Timeout { .. }
        );
        frames.push(frame);
        if terminal {
            return Ok((begin.elapsed(), accept, first_row, frames));
        }
    }
}

/// What a job's frames must be.
pub struct Expect<'a> {
    /// The pinned outcomes.
    pub table: &'a PinTable,
    /// Whether every row must be (`Some(true)`) or must not be
    /// (`Some(false)`) served from the cache.
    pub cached: Option<bool>,
    /// Exact payload encodings every row must reproduce (`warm-mix`
    /// catalogue rows, as setup computed them).
    pub exact: Option<&'a [String]>,
}

/// Checks one job's frames against its pinned outcome. Returns every
/// mismatch found.
pub fn check(job: &PlannedJob, id: u64, frames: &[Response], expect: &Expect<'_>) -> Vec<String> {
    let mut problems = Vec::new();
    let mut digests = Vec::new();
    let mut error = None;
    for key in &job.keys {
        match expect.table.get(key) {
            Some(Pinned::Row { digest }) => digests.push(*digest),
            Some(Pinned::Error(message)) => {
                error = Some(format!("{}: {message}", key.label()));
                break;
            }
            None => {
                problems.push(format!("{}: no pinned outcome", key.label()));
                return problems;
            }
        }
    }
    let cells = job.keys.len();
    let mut rows = 0usize;
    let mut cached_rows = 0usize;
    let mut terminal = false;
    for frame in frames {
        match frame {
            Response::Accepted { id: got, cells: n } if *got == id && *n == cells => {}
            Response::Row(row) if row.id == id && !terminal => {
                let seq = row.seq;
                if seq != rows || seq >= digests.len() {
                    problems.push(format!("job {id}: unexpected row seq {seq}"));
                    break;
                }
                let key = &job.keys[seq];
                rows += 1;
                cached_rows += usize::from(row.cached);
                if row.key != *key || row.fingerprint != key.fingerprint() {
                    problems.push(format!("{}: row carries another key", key.label()));
                }
                match normalized(key, &row.payload) {
                    Ok(text) if fnv1a(text.as_bytes()) == digests[seq] => {}
                    Ok(_) => problems.push(format!("{}: payload differs from pin", key.label())),
                    Err(message) => problems.push(message),
                }
                if expect.cached.is_some_and(|c| c != row.cached) {
                    problems.push(format!("{}: cached = {}", key.label(), row.cached));
                }
                if let Some(exact) = expect.exact {
                    if exact.get(seq).map(String::as_str) != Some(&row.payload.to_string()) {
                        problems.push(format!("{}: not byte-identical to setup", key.label()));
                    }
                }
            }
            Response::Done {
                id: got,
                rows: n,
                cache_hits,
            } if *got == id && !terminal => {
                terminal = true;
                if error.is_some()
                    || *n != digests.len()
                    || rows != *n
                    || *cache_hits != cached_rows
                {
                    problems.push(format!(
                        "job {id}: done with {n} rows ({cache_hits} cached), expected {} rows",
                        digests.len()
                    ));
                }
            }
            Response::Error {
                id: Some(got),
                message,
            } if *got == id && !terminal => {
                terminal = true;
                if error.as_deref() != Some(message.as_str()) || rows != digests.len() {
                    problems.push(format!("job {id}: unexpected error `{message}`"));
                }
            }
            other => problems.push(format!("job {id}: unexpected frame {other:?}")),
        }
    }
    if !terminal {
        problems.push(format!("job {id}: no terminal frame"));
    }
    problems
}

/// Runs one job and checks it; returns the sample and the mismatches.
pub fn run_checked(
    client: &mut Client,
    id: u64,
    job: &PlannedJob,
    expect: &Expect<'_>,
    trace: Option<&mut ClientTrace>,
) -> io::Result<(JobSample, Vec<String>, Vec<Response>)> {
    let (latency, accept, first_row, frames) = run_job(client, id, job, trace)?;
    let problems = check(job, id, &frames, expect);
    let mut rows = 0;
    let mut cached_rows = 0;
    for frame in &frames {
        if let Response::Row(row) = frame {
            rows += 1;
            cached_rows += usize::from(row.cached);
        }
    }
    let sample = JobSample {
        latency,
        accept,
        first_row,
        rows,
        cached_rows,
        ok: problems.is_empty(),
    };
    Ok((sample, problems, frames))
}

/// Submits every job at once on `client` (no closed loop) and collects
/// each job's frames, keyed by position. Used to prewarm a catalogue.
pub fn pipeline(client: &mut Client, jobs: &[PlannedJob]) -> io::Result<Vec<Vec<Response>>> {
    for (id, job) in jobs.iter().enumerate() {
        client.send(&Request::Submit {
            id: id as u64,
            backpressure: Backpressure::Block,
            job: job.spec.clone(),
        })?;
    }
    let mut frames: BTreeMap<u64, Vec<Response>> = BTreeMap::new();
    let mut open = jobs.len();
    while open > 0 {
        let frame = next_frame(client)?;
        let id = match &frame {
            Response::Accepted { id, .. }
            | Response::Rejected { id, .. }
            | Response::Done { id, .. }
            | Response::Timeout { id, .. }
            | Response::Error { id: Some(id), .. } => *id,
            Response::Row(row) => row.id,
            other => return Err(invalid(format!("unexpected frame {other:?}"))),
        };
        if !matches!(frame, Response::Accepted { .. } | Response::Row(_)) {
            open -= 1;
        }
        frames.entry(id).or_default().push(frame);
    }
    Ok((0..jobs.len() as u64)
        .map(|id| frames.remove(&id).unwrap_or_default())
        .collect())
}

/// Round-trip times of `count` `stats` requests on one persistent
/// connection, then of `count` requests each on a fresh connection.
pub fn stats_round_trips(addr: &str, count: usize) -> io::Result<(Vec<Duration>, Vec<Duration>)> {
    let mut persistent = Vec::with_capacity(count);
    let mut client = Client::connect(addr)?;
    for _ in 0..count {
        let begin = Instant::now();
        client.send(&Request::Stats)?;
        next_frame(&mut client)?;
        persistent.push(begin.elapsed());
    }
    drop(client);
    let mut fresh = Vec::with_capacity(count);
    for _ in 0..count {
        let begin = Instant::now();
        let mut client = Client::connect(addr)?;
        client.send(&Request::Stats)?;
        next_frame(&mut client)?;
        fresh.push(begin.elapsed());
    }
    Ok((persistent, fresh))
}
