//! One invocation: the passes a mode runs, the metrics it reports and the
//! run record printed with them.

use std::io;
use std::time::Duration;

use ringdeploy_analysis::key::JobKind;
use ringdeploy_json::{Json, ToJson};
use ringdeploy_service::{DaemonConfig, StatsReport};

use crate::drive;
use crate::layers;
use crate::pinned::PinTable;
use crate::plan::{self, Workload};
use crate::run::{self, EndToEnd, Options, Pass};
use crate::stats::{median, per};

/// The end-to-end metrics, as `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rows_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, as `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("service.server.stats_rtt_ms", "ms"),
    ("service.server.stats_rtt_fresh_ms", "ms"),
    ("service.client.bytes_per_job", "bytes"),
    ("json.encode_us_per_row", "us"),
    ("json.parse_us_per_row", "us"),
    ("json.bytes_per_row", "bytes"),
    ("service.protocol.keys_us_per_job", "us"),
    ("analysis.key.canonical_us_per_cell", "us"),
    ("service.daemon.accept_ms", "ms"),
    ("service.daemon.first_row_ms", "ms"),
    ("service.daemon.cells_computed", "count"),
    ("service.daemon.cache_misses_reported", "count"),
    ("service.daemon.rejected_jobs", "count"),
    ("service.daemon.timeouts", "count"),
    ("service.daemon.panics", "count"),
    ("service.cache.hit_ratio", "share"),
    ("service.cache.get_us", "us"),
    ("service.cache.insert_us", "us"),
    ("service.cache.evictions", "count"),
    ("service.cache.bytes", "bytes"),
    ("service.pool.busy_share", "share"),
    ("service.engine.explore_ms", "ms"),
    ("service.engine.adversary_ms", "ms"),
    ("service.engine.certify_ms", "ms"),
    ("service.engine.sweep_ms", "ms"),
    ("analysis.instantiate_us", "us"),
    ("sim.explore.states", "count"),
    ("sim.explore.edges", "count"),
    ("sim.explore.states_per_s", "1/s"),
    ("sim.adversary.expansions", "count"),
    ("sim.adversary.dominance_prunes", "count"),
    ("sim.adversary.bound_prunes", "count"),
    ("sim.adversary.states_per_s", "1/s"),
    ("sim.visited.inserts", "count"),
    ("sim.visited.hits", "count"),
    ("sim.visited.hit_ratio", "share"),
    ("sim.canonical.plain_ns", "ns"),
    ("sim.canonical.rotation_ns", "ns"),
    ("sim.canonical.dihedral_ns", "ns"),
    ("sim.engine.apply_undo_ns", "ns"),
    ("sim.engine.step_ns", "ns"),
    ("sim.engine.steps", "count"),
    ("trace.overhead_share", "share"),
];

/// Round trips in each `stats` probe.
pub const RTT_SAMPLES: usize = 25;

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// `(name, value, unit)` of every reported metric, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that failed the correctness gate.
    pub failed: usize,
    /// Correctness-gate mismatches (daemon panics included).
    pub problems: Vec<String>,
    /// The run record.
    pub record: Json,
}

impl Outcome {
    /// Whether every answer passed the gate.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The last line of the benchmark's output.
    pub fn summary(&self) -> Json {
        let metrics: Vec<(&str, Json)> = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name,
                    Json::object([("value", Json::Number(value)), ("unit", unit.to_json())]),
                )
            })
            .collect();
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", Json::object(metrics)),
        ])
    }
}

fn stats_json(stats: &StatsReport) -> Json {
    Json::object([
        ("cells_computed", stats.cells_computed.to_json()),
        ("cache_misses_reported", stats.cache.misses.to_json()),
        ("cache_hits", stats.cache.hits.to_json()),
        ("cache_evictions", stats.cache.evictions.to_json()),
        ("cache_bytes", stats.cache.bytes.to_json()),
        ("completed_jobs", stats.completed_jobs.to_json()),
        ("rejected_jobs", stats.rejected_jobs.to_json()),
        ("timeouts", stats.timeouts.to_json()),
        ("panics", stats.panics.to_json()),
    ])
}

fn e2e_json(e2e: &EndToEnd, rss: Option<f64>) -> Json {
    let mut fields = vec![
        ("setup_s", e2e.setup_s.to_json()),
        ("rows_per_s", e2e.rows_per_s.to_json()),
        ("job_p50_ms", e2e.job_p50_ms.to_json()),
        ("job_p99_ms", e2e.job_p99_ms.to_json()),
        ("failed_ops", e2e.failed_ops.to_json()),
    ];
    if let Some(rss) = rss {
        fields.push(("peak_rss_mb", rss.to_json()));
    }
    Json::object(fields)
}

fn samples_json(pass: &Pass, workload: Workload) -> Json {
    let q = workload.tail_quantile();
    Json::object([
        ("jobs", pass.attempted().to_json()),
        ("rows", pass.rows().to_json()),
        ("setups", pass.setups.len().to_json()),
        ("rounds", pass.rounds.to_json()),
        ("timed_s", pass.timed.as_secs_f64().to_json()),
        ("tail_quantile", q.to_json()),
        (
            "samples_beyond_tail",
            ((pass.attempted() as f64 * (1.0 - q)).floor() as u64).to_json(),
        ),
    ])
}

/// The checked-out commit, when run from a git working tree.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({reference})")),
        None => head.to_string(),
    }
}

fn host_json(options: &Options, traced: bool) -> Vec<(&'static str, Json)> {
    let config = DaemonConfig::default();
    vec![
        ("workload", options.workload.name().to_json()),
        ("seed", options.seed.to_json()),
        ("seconds", options.seconds.to_json()),
        ("trace", traced.to_json()),
        ("smoke", options.smoke.to_json()),
        ("clients", options.workload.clients().to_json()),
        ("model", "closed-loop".to_json()),
        (
            "cores",
            std::thread::available_parallelism()
                .map_or(0, std::num::NonZeroUsize::get)
                .to_json(),
        ),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string())
                .to_json(),
        ),
        ("rustc", env!("PERFBENCH_RUSTC").to_json()),
        ("commit", commit().to_json()),
        (
            "daemon",
            Json::object([
                ("workers", config.workers.to_json()),
                ("queue_capacity", config.queue_capacity.to_json()),
                ("cache_bytes", config.cache_bytes.to_json()),
                ("max_jobs", config.max_jobs.to_json()),
            ]),
        ),
    ]
}

fn gate(pass: &Pass, stats: &StatsReport) -> Vec<String> {
    let mut problems = pass.problems.clone();
    if stats.panics > 0 {
        problems.push(format!("daemon caught {} worker panics", stats.panics));
    }
    problems
}

/// Runs the untraced mode: end-to-end metrics.
pub fn untraced(options: &Options) -> io::Result<Outcome> {
    let table = PinTable::compiled();
    let (result, stats) = if options.workload == Workload::WarmMix {
        let mut setup = Pass::default();
        let mut warm = run::warm_setups(options.seed, options.smoke, &table, &mut setup)?;
        let mut result = run::warm_pass(&mut warm, options.seconds, &table, false, setup)?;
        drop(std::mem::take(&mut warm.clients));
        result.stats.push(warm.live.stop()?);
        let stats = result.stats_total();
        (result, stats)
    } else {
        let result = run::rounds_workload_pass(options, &table, false)?;
        let stats = result.stats_total();
        (result, stats)
    };
    let e2e = result.end_to_end(options.workload);
    let rss = result.rss_mb.unwrap_or_else(run::peak_rss_mb);
    let metrics = vec![
        ("setup_s", e2e.setup_s, "s"),
        ("rows_per_s", e2e.rows_per_s, "1/s"),
        ("job_p50_ms", e2e.job_p50_ms, "ms"),
        ("job_p99_ms", e2e.job_p99_ms, "ms"),
        ("peak_rss_mb", rss, "MB"),
    ];
    let mut record = host_json(options, false);
    record.push(("end_to_end", e2e_json(&e2e, Some(rss))));
    record.push(("samples", samples_json(&result, options.workload)));
    record.push(("daemon_stats", stats_json(&stats)));
    Ok(Outcome {
        metrics,
        attempted: result.attempted(),
        failed: result.failed(),
        problems: gate(&result, &stats),
        record: Json::object(record),
    })
}

fn delta(after: &StatsReport, before: &StatsReport) -> StatsReport {
    let mut d = *after;
    d.cache.hits -= before.cache.hits;
    d.cache.misses -= before.cache.misses;
    d.cache.evictions -= before.cache.evictions;
    d.cells_computed -= before.cells_computed;
    d.rejected_jobs -= before.rejected_jobs;
    d.timeouts -= before.timeouts;
    d.panics -= before.panics;
    d.completed_jobs -= before.completed_jobs;
    d
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us_per(d: Duration, count: u64) -> f64 {
    per(d.as_secs_f64() * 1e6, count)
}

/// Runs the traced mode: an untraced and a traced pass of half the time
/// each, then the per-layer probes.
pub fn traced(options: &Options) -> io::Result<Outcome> {
    let table = PinTable::compiled();
    let half = Options {
        seconds: options.seconds / 2.0,
        ..*options
    };
    let config = DaemonConfig::default();
    let mut problems = Vec::new();
    let (plain, traced, layer_stats, rtt, preload, probe_keys) =
        if options.workload == Workload::WarmMix {
            let mut setup = Pass::default();
            let mut warm = run::warm_setups(options.seed, options.smoke, &table, &mut setup)?;
            let plain = run::warm_pass(&mut warm, half.seconds, &table, false, setup)?;
            let before = warm.live.stats()?;
            let traced = run::warm_pass(&mut warm, half.seconds, &table, true, Pass::default())?;
            let after = warm.live.stats()?;
            let rtt = drive::stats_round_trips(&warm.live.addr, RTT_SAMPLES)?;
            drop(std::mem::take(&mut warm.clients));
            let last = warm.live.stop()?;
            if last.panics > 0 {
                problems.push(format!("daemon caught {} worker panics", last.panics));
            }
            let mut preload = Vec::new();
            for (job, rows) in warm.catalogue.iter().zip(&warm.rows) {
                for (key, row) in job.keys.iter().zip(rows) {
                    let payload = Json::parse(row)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    preload.push((key.canonical(), payload));
                }
            }
            let probe_keys: Vec<_> = warm.catalogue.iter().flat_map(|j| j.keys.clone()).collect();
            (
                plain,
                traced,
                delta(&after, &before),
                rtt,
                preload,
                probe_keys,
            )
        } else {
            let plain = run::rounds_workload_pass(&half, &table, false)?;
            let traced = run::rounds_workload_pass(&half, &table, true)?;
            let (live, client, _) = drive::start(config)?;
            drop(client);
            let rtt = drive::stats_round_trips(&live.addr, RTT_SAMPLES)?;
            live.stop()?;
            let stats = traced.stats_total();
            let probe_keys = match options.workload {
                Workload::ColdCampaign => plan::cold_campaign(options.seed, 0, options.smoke),
                _ => plan::large_sweep(options.seed, 0, options.smoke),
            }
            .into_iter()
            .flat_map(|j| j.keys)
            .collect();
            (plain, traced, stats, rtt, Vec::new(), probe_keys)
        };
    problems.extend(gate(&plain, &plain.stats_total()));
    problems.extend(gate(&traced, &layer_stats));

    let e2e_plain = plain.end_to_end(options.workload);
    let e2e_traced = traced.end_to_end(options.workload);
    let overhead = 1.0 - e2e_traced.rows_per_s / e2e_plain.rows_per_s;
    let trace = traced.trace.as_ref().expect("traced pass carries a trace");
    let (get_us, insert_us) = layers::cache_replay(&preload, &trace.sequence, config.cache_bytes);
    let replay = layers::engine_replay(&traced.computed);
    let probe = layers::canonical_probe(&probe_keys, options.seed);
    let rows: usize = traced.rows();
    let cached: usize = traced.samples.iter().map(|s| s.cached_rows).sum();
    let accepts: Vec<f64> = traced.samples.iter().map(|s| ms(s.accept)).collect();
    let first_rows: Vec<f64> = traced
        .samples
        .iter()
        .filter_map(|s| s.first_row.map(ms))
        .collect();
    let rtt_ms = |v: &[Duration]| median(&v.iter().copied().map(ms).collect::<Vec<_>>());
    let states = replay.explore_states;
    let merges = replay.explore_merges;
    // One value per `PER_LAYER` row, in its order (the array length is
    // checked against the table's at compile time).
    let values: [f64; PER_LAYER.len()] = [
        rtt_ms(&rtt.0),
        rtt_ms(&rtt.1),
        per(trace.frame_bytes as f64, trace.jobs),
        us_per(trace.encode, trace.rows),
        us_per(trace.parse, trace.rows),
        per(trace.row_bytes as f64, trace.rows),
        us_per(trace.keys, trace.jobs),
        us_per(trace.canonical, trace.cells),
        median(&accepts),
        median(&first_rows),
        layer_stats.cells_computed as f64,
        layer_stats.cache.misses as f64,
        layer_stats.rejected_jobs as f64,
        layer_stats.timeouts as f64,
        layer_stats.panics as f64,
        per(cached as f64, rows as u64),
        get_us,
        insert_us,
        layer_stats.cache.evictions as f64,
        layer_stats.cache.bytes as f64,
        replay.busy_s / (config.workers as f64 * traced.timed.as_secs_f64()),
        replay.p50_ms(JobKind::Explore),
        replay.p50_ms(JobKind::Adversary),
        replay.p50_ms(JobKind::Certify),
        replay.p50_ms(JobKind::Sweep),
        us_per(replay.instantiate, replay.instantiated),
        states as f64,
        (states + merges).saturating_sub(replay.explore_cells) as f64,
        states as f64 / replay.explore_s.max(1e-12),
        replay.adversary_expansions as f64,
        replay.adversary_dominance as f64,
        replay.adversary_bound as f64,
        replay.adversary_states as f64 / replay.adversary_s.max(1e-12),
        states as f64,
        merges as f64,
        per(merges as f64, states + merges),
        probe.ns(probe.plain),
        probe.ns(probe.rotation),
        probe.ns(probe.dihedral),
        probe.ns(probe.apply_undo),
        per(replay.run_preset.as_secs_f64() * 1e9, replay.steps),
        replay.steps as f64,
        overhead,
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    let mut record = host_json(options, true);
    record.push(("trace.overhead_share", overhead.to_json()));
    record.push(("untraced_half", e2e_json(&e2e_plain, None)));
    record.push(("traced_half", e2e_json(&e2e_traced, None)));
    record.push(("samples", samples_json(&traced, options.workload)));
    record.push(("daemon_stats", stats_json(&layer_stats)));
    record.push(("replayed_cells", replay.instantiated.to_json()));
    record.push(("probe_calls", probe.calls.to_json()));
    Ok(Outcome {
        metrics,
        attempted: plain.attempted() + traced.attempted(),
        failed: plain.failed() + traced.failed(),
        problems,
        record: Json::object(record),
    })
}
