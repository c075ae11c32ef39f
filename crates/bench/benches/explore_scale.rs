//! Exploration-engine benchmark: expansion throughput of the reversible
//! clone-free engines, rotation-symmetry reduction, frontier memory and
//! work-stealing parallel speedup of the exhaustive model checker.
//!
//! Four measurements per instance, all exploring the *same* state space:
//!
//! * **reference** — the retained clone-based serial DFS
//!   (`Explorer::run_serial_reference`, the 0.4 engine): one deep ring
//!   clone per child expansion, full `O(n)` symbol rebuild per
//!   fingerprint;
//! * **plain** — the clone-free serial DFS without a symmetry quotient
//!   (`SymmetryMode::Off`);
//! * **serial** — the clone-free serial DFS over the rotation quotient:
//!   reversible `apply`/`undo` expansion, incremental canonical
//!   fingerprints (≤ 2 symbols re-derived per child);
//! * **parallel** — the work-stealing engine over the rotation quotient
//!   (per-worker clone-free DFS, delta-encoded `PackedState` steal
//!   handoffs, striped visited map) with one worker per available core.
//!
//! Parallel numbers are **honest about the host**: the timed parallel
//! run uses exactly `cores()` workers, and on hosts with fewer than two
//! cores no parallel timing is published at all — `parallel_ms` and
//! `speedup` are `null` in the JSON (a multi-worker run on one core
//! measures oversubscription, not speedup; an untimed two-worker pass
//! still checks report identity).
//!
//! Gates enforced by the bench itself:
//!
//! * **expansion throughput**: on the symmetry-degree-4 instances the
//!   clone-free serial engine must run ≥ 5× the 0.4 engine's recorded
//!   states/sec (the 0.5 acceptance bar, measured in-run so the gate is
//!   host-independent). Reference and serial runs alternate
//!   [`PAIRED_RUNS`] times, so host drift hits both alike, and the gate
//!   reads the median of the per-pair time ratios. The published
//!   `reference_ms`/`serial_ms` and the parallel-speedup denominator
//!   stay the fastest run of each engine;
//! * **frontier memory**: a packed state must undercut half a deep clone;
//! * **symmetry reduction**: ≥ 3× state cut on the `l = 4` instances;
//! * **parallel speedup**: ≥ 2× over the clone-free serial engine on
//!   **every** `l = 4` instance **when the host has ≥ 4 cores** (skipped
//!   below that).
//!
//! Besides the table on stdout it writes `BENCH_explore.json` at the
//! workspace root (published as a CI artifact), including per-instance
//! `states_per_sec` and the peak frontier memory `peak_states_bytes`
//! (packed) vs `peak_states_bytes_clone` (what the 0.4 boxed-clone
//! frontier would have held at the same peak width).
//!
//! Run with `cargo bench -p ringdeploy-bench --bench explore_scale`.

use std::time::{Duration, Instant};

use ringdeploy_core::{Algorithm, ExploreEngine, FullKnowledge, LogSpace, NoKnowledge};
use ringdeploy_sim::explore::{ExploreLimits, ExploreReport, Explorer, SymmetryMode};
use ringdeploy_sim::packed::{ring_heap_bytes, PackedState};
use ringdeploy_sim::{InitialConfig, Ring};

/// How many alternating reference/serial pairs each instance times.
const PAIRED_RUNS: usize = 7;

struct Sample {
    algo: &'static str,
    n: usize,
    k: usize,
    symmetry_degree: usize,
    states_plain: usize,
    states_reduced: usize,
    /// Fastest reference time over the paired runs.
    reference: Duration,
    plain: Duration,
    /// Fastest serial time over the paired runs.
    reduced: Duration,
    /// Reference time ÷ serial time of each pair, sorted.
    vs_ref: Vec<f64>,
    /// Timed work-stealing run at `cores()` workers; `None` on hosts with
    /// fewer than two cores (no honest parallel measurement exists
    /// there — see the module docs).
    parallel: Option<Duration>,
    /// Peak outstanding steal tasks of the parallel sweep (the states
    /// held as packed snapshots at once).
    peak_frontier: usize,
    /// Per-state heap bytes: packed snapshot vs deep ring clone.
    packed_bytes: usize,
    clone_bytes: usize,
}

impl Sample {
    fn reduction(&self) -> f64 {
        self.states_plain as f64 / self.states_reduced as f64
    }

    fn speedup(&self) -> Option<f64> {
        self.parallel
            .map(|parallel| self.reduced.as_secs_f64() / parallel.as_secs_f64())
    }

    fn states_per_sec(&self) -> f64 {
        self.states_reduced as f64 / self.reduced.as_secs_f64()
    }

    fn ref_states_per_sec(&self) -> f64 {
        self.states_reduced as f64 / self.reference.as_secs_f64()
    }

    /// In-run throughput gate: clone-free serial vs clone-based reference
    /// on the identical exploration — the median of the per-pair ratios.
    fn speedup_vs_reference(&self) -> f64 {
        median(&self.vs_ref)
    }

    /// The gated figure: serial throughput over the 0.4 engine's recorded
    /// one, scaled to this host through the reference engine (see
    /// [`THROUGHPUT_BASELINES`]). With `recorded` and `calibration` the
    /// two baseline columns, `states_per_sec / (recorded ×
    /// ref_states_per_sec / calibration)` reduces to `vs_ref ×
    /// calibration / recorded`.
    fn speedup_vs_baseline(&self) -> Option<f64> {
        baseline_for(self.algo, self.n, self.symmetry_degree)
            .map(|(recorded, calibration)| self.speedup_vs_reference() * calibration / recorded)
    }

    fn peak_states_bytes(&self) -> usize {
        self.peak_frontier * self.packed_bytes
    }

    fn peak_states_bytes_clone(&self) -> usize {
        self.peak_frontier * self.clone_bytes
    }
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The PR 3 throughput baselines the ≥5× gate compares against:
/// `(algo, n, pr3_states_per_sec, ref_calibration_states_per_sec)`.
///
/// * `pr3_states_per_sec` — the 0.4 serial engine's throughput from the
///   `BENCH_explore.json` committed by PR 3 (`states_reduced /
///   serial_ms`), measured in the repository's build container.
/// * `ref_calibration_states_per_sec` — the retained clone-based
///   reference engine's throughput measured in the *same container* at
///   0.5 calibration time. The reference runs the exact 0.4 expansion
///   algorithm (clone per child, full symbol rebuild), so on any host
///   `live_ref / ref_calibration` estimates the host's speed relative to
///   the calibration container, making the gate
///   `states_per_sec ≥ 5 × pr3 × host_scale` host-independent. (The
///   reference is somewhat faster than the recorded PR 3 numbers even at
///   scale 1 because the shared fingerprint internals — min-rotation and
///   sealing — got cheaper in 0.5; the gate deliberately compares against
///   the PR 3 engine as it actually shipped.)
const THROUGHPUT_BASELINES: &[(&str, usize, f64, f64)] = &[
    ("algo1-full-knowledge", 12, 195_222.0, 269_064.0),
    ("algo2-log-space", 12, 174_034.0, 242_493.0),
    ("algo4-relaxed", 12, 161_294.0, 230_933.0),
    ("algo1-full-knowledge", 16, 154_810.0, 213_818.0),
];

/// `(pr3_states_per_sec, ref_calibration_states_per_sec)` for a gated
/// instance, `None` for instances without a PR 3 baseline.
fn baseline_for(algo: &str, n: usize, l: usize) -> Option<(f64, f64)> {
    THROUGHPUT_BASELINES
        .iter()
        .find(|&&(a, bn, _, _)| a == algo && bn == n && l == 4)
        .map(|&(_, _, pr3, calib)| (pr3, calib))
}

/// Per-state heap footprint of this instance's root configuration:
/// (packed snapshot bytes, deep-clone bytes). Mid-run states have the
/// same shape (the packed layout is size-stable in `n` and `k`), so the
/// root is a fair per-state representative.
fn state_bytes(algorithm: Algorithm, init: &InitialConfig) -> (usize, usize) {
    fn of<B>(ring: &Ring<B>) -> (usize, usize)
    where
        B: ringdeploy_sim::Behavior + Clone,
        B::Message: Clone,
    {
        (PackedState::pack(ring).heap_bytes(), ring_heap_bytes(ring))
    }
    let k = init.agent_count();
    if algorithm == Algorithm::FullKnowledge {
        of(&Ring::new(init, |_| FullKnowledge::new(k)))
    } else if algorithm == Algorithm::LogSpace {
        of(&Ring::new(init, |_| LogSpace::new(k)))
    } else {
        of(&Ring::new(init, |_| NoKnowledge::new()))
    }
}

fn explorer_for(init: &InitialConfig, symmetry: SymmetryMode, threads: usize) -> Explorer {
    Explorer::new()
        .limits(ExploreLimits::for_instance(
            init.ring_size(),
            init.agent_count(),
        ))
        .symmetry(symmetry)
        .threads(threads)
}

/// The median of a sorted, non-empty slice.
fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn timed(run: impl FnOnce() -> ExploreReport) -> (ExploreReport, Duration) {
    let start = Instant::now();
    let report = run();
    (report, start.elapsed())
}

fn best_of(repeats: usize, mut run: impl FnMut() -> ExploreReport) -> (ExploreReport, Duration) {
    let mut best = Duration::MAX;
    let mut report = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let r = run();
        best = best.min(start.elapsed());
        report = Some(r);
    }
    (report.expect("at least one repeat"), best)
}

fn measure(algorithm: Algorithm, n: usize, homes: &[usize], repeats: usize) -> Sample {
    let algo = algorithm.name();
    let init = InitialConfig::new(n, homes.to_vec()).expect("valid homes");
    let rotation = explorer_for(&init, SymmetryMode::Rotation, 1);
    let mut pairs = Vec::with_capacity(PAIRED_RUNS);
    for _ in 0..PAIRED_RUNS {
        let reference = timed(|| {
            algorithm
                .explore(&init, &rotation, ExploreEngine::Reference)
                .expect("reference exploration succeeds")
        });
        let reduced = timed(|| {
            algorithm
                .explore(&init, &rotation, ExploreEngine::Serial)
                .expect("serial exploration succeeds")
        });
        pairs.push((reference, reduced));
    }
    let mut vs_ref: Vec<f64> = pairs
        .iter()
        .map(|((_, reference), (_, reduced))| reference.as_secs_f64() / reduced.as_secs_f64())
        .collect();
    vs_ref.sort_by(f64::total_cmp);
    // Only the throughput gate reads the paired ratios; the times kept
    // are each engine's fastest, as every other timing here is.
    let reference = pairs.iter().map(|((_, t), _)| *t).min().expect("pairs");
    let reduced = pairs.iter().map(|(_, (_, t))| *t).min().expect("pairs");
    let ((reference_report, _), (reduced_report, _)) = pairs.pop().expect("at least one pair");
    let (plain_report, plain) = best_of(repeats, || {
        let plain = explorer_for(&init, SymmetryMode::Off, 1);
        algorithm
            .explore(&init, &plain, ExploreEngine::Serial)
            .expect("plain exploration succeeds")
    });
    // Timed parallel run only where an honest measurement exists (≥ 2
    // cores, exactly one worker per core); on single-core hosts an
    // *untimed* two-worker pass still exercises the work-stealing engine
    // so the report-identity assertions below hold everywhere.
    let (parallel_report, parallel) = if cores() >= 2 {
        let (report, elapsed) = best_of(repeats, || {
            let parallel = explorer_for(&init, SymmetryMode::Rotation, cores());
            algorithm
                .explore(&init, &parallel, ExploreEngine::Stealing)
                .expect("parallel exploration succeeds")
        });
        (report, Some(elapsed))
    } else {
        let report = algorithm
            .explore(
                &init,
                &explorer_for(&init, SymmetryMode::Rotation, 2),
                ExploreEngine::Stealing,
            )
            .expect("parallel exploration succeeds");
        (report, None)
    };
    assert_eq!(
        reduced_report.states, reference_report.states,
        "clone-free serial must agree with the clone-based reference"
    );
    assert_eq!(
        reduced_report.terminal_fingerprints, reference_report.terminal_fingerprints,
        "clone-free serial must agree with the clone-based reference"
    );
    assert_eq!(
        reduced_report.merge_edges, reference_report.merge_edges,
        "clone-free serial must agree with the clone-based reference"
    );
    assert_eq!(
        reduced_report.states, parallel_report.states,
        "parallel engine must agree with the serial engine"
    );
    assert_eq!(
        reduced_report.terminal_fingerprints, parallel_report.terminal_fingerprints,
        "parallel engine must agree with the serial engine"
    );
    assert_eq!(
        reduced_report.merge_edges, parallel_report.merge_edges,
        "parallel engine must agree with the serial engine"
    );
    let (packed_bytes, clone_bytes) = state_bytes(algorithm, &init);
    Sample {
        algo,
        n,
        k: init.agent_count(),
        symmetry_degree: init.symmetry_degree(),
        states_plain: plain_report.states,
        states_reduced: reduced_report.states,
        reference,
        plain,
        reduced,
        vs_ref,
        parallel,
        peak_frontier: parallel_report.peak_frontier,
        packed_bytes,
        clone_bytes,
    }
}

fn main() {
    let repeats = 3;
    let samples = vec![
        // Symmetric instances (l = 4): the quotient's best case.
        measure(Algorithm::FullKnowledge, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::LogSpace, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::Relaxed, 12, &[0, 3, 6, 9], repeats),
        measure(Algorithm::FullKnowledge, 16, &[0, 4, 8, 12], repeats),
        // l = 6, six agents: large state space AND the deepest quotient.
        measure(Algorithm::FullKnowledge, 12, &[0, 2, 4, 6, 8, 10], repeats),
        // Aperiodic worst case (l = 1): no rotation to exploit, but the
        // largest per-state work — the parallel-speedup workload.
        measure(Algorithm::Relaxed, 12, &[0, 1, 2, 3], repeats),
    ];

    println!(
        "{:>8} {:>4} {:>3} {:>3} {:>9} {:>9} {:>6} {:>9} {:>9} {:>9} {:>8} {:>8} {:>10} {:>9}",
        "algo",
        "n",
        "k",
        "l",
        "plain",
        "reduced",
        "cut",
        "ref_ms",
        "serial_ms",
        "par_ms",
        "vs_ref",
        "speedup",
        "kstates/s",
        "peak_KiB"
    );
    for s in &samples {
        let par_ms = s
            .parallel
            .map_or("-".to_string(), |p| format!("{:.2}", p.as_secs_f64() * 1e3));
        let speedup = s.speedup().map_or("-".to_string(), |x| format!("{x:.2}x"));
        println!(
            "{:>8} {:>4} {:>3} {:>3} {:>9} {:>9} {:>5.2}x {:>9.2} {:>9.2} {:>9} {:>7.2}x {:>8} {:>10.1} {:>9.1}",
            s.algo,
            s.n,
            s.k,
            s.symmetry_degree,
            s.states_plain,
            s.states_reduced,
            s.reduction(),
            s.reference.as_secs_f64() * 1e3,
            s.reduced.as_secs_f64() * 1e3,
            par_ms,
            s.speedup_vs_reference(),
            speedup,
            s.states_per_sec() / 1e3,
            s.peak_states_bytes() as f64 / 1024.0
        );
    }

    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            let vs_pr3 = s
                .speedup_vs_baseline()
                .map_or("null".to_string(), |x| format!("{x:.2}"));
            // 1-core hosts publish `null` for the parallel columns: a
            // multi-worker timing there would be a measurement of
            // oversubscription, not of the engine.
            let parallel_ms = s.parallel.map_or("null".to_string(), |p| {
                format!("{:.3}", p.as_secs_f64() * 1e3)
            });
            let speedup = s
                .speedup()
                .map_or("null".to_string(), |x| format!("{x:.2}"));
            format!(
                "    {{\"algo\": \"{}\", \"n\": {}, \"k\": {}, \"symmetry_degree\": {}, \
                 \"states_plain\": {}, \"states_reduced\": {}, \"reduction\": {:.2}, \
                 \"reference_ms\": {:.3}, \"plain_ms\": {:.3}, \"serial_ms\": {:.3}, \
                 \"parallel_ms\": {parallel_ms}, \"speedup\": {speedup}, \
                 \"states_per_sec\": {:.0}, \"ref_states_per_sec\": {:.0}, \
                 \"serial_speedup_vs_ref\": {:.2}, \"serial_speedup_vs_pr3\": {vs_pr3}, \
                 \"paired_runs\": {}, \"serial_speedup_vs_ref_min\": {:.2}, \
                 \"serial_speedup_vs_ref_max\": {:.2}, \
                 \"peak_frontier\": {}, \
                 \"packed_state_bytes\": {}, \"clone_state_bytes\": {}, \
                 \"peak_states_bytes\": {}, \"peak_states_bytes_clone\": {}}}",
                s.algo,
                s.n,
                s.k,
                s.symmetry_degree,
                s.states_plain,
                s.states_reduced,
                s.reduction(),
                s.reference.as_secs_f64() * 1e3,
                s.plain.as_secs_f64() * 1e3,
                s.reduced.as_secs_f64() * 1e3,
                s.states_per_sec(),
                s.ref_states_per_sec(),
                s.speedup_vs_reference(),
                PAIRED_RUNS,
                s.vs_ref[0],
                s.vs_ref[s.vs_ref.len() - 1],
                s.peak_frontier,
                s.packed_bytes,
                s.clone_bytes,
                s.peak_states_bytes(),
                s.peak_states_bytes_clone(),
            )
        })
        .collect();
    // The honest thread count: the workers the *timed* parallel runs
    // actually used, `null` when no parallel timing was taken.
    let parallel_threads = if cores() >= 2 {
        cores().to_string()
    } else {
        "null".to_string()
    };
    let json = format!(
        "{{\n  \"benchmark\": \"explore_scale\",\n  \"cores\": {},\n  \
         \"parallel_threads\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        cores(),
        parallel_threads,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    std::fs::write(path, &json).expect("write BENCH_explore.json");
    println!("\nwrote {path}");

    // Expansion throughput: the clone-free serial engine must deliver ≥5×
    // the PR 3 engine's states/sec on every l = 4 instance — the 0.5
    // acceptance gate. The PR 3 baseline is scaled to this host via the
    // retained reference engine (see `THROUGHPUT_BASELINES`), and the
    // ratio is the median over alternating pairs (see `PAIRED_RUNS`).
    for s in samples.iter() {
        let Some(gated) = s.speedup_vs_baseline() else {
            continue;
        };
        assert!(
            gated >= 5.0,
            "expected ≥5× serial states/sec vs the PR 3 baseline on {} n={} (l={}): got \
             {:.2}x (median of {PAIRED_RUNS} paired serial/reference ratios; \
             vs reference {:.2}x, pairs {:.2}–{:.2}x)",
            s.algo,
            s.n,
            s.symmetry_degree,
            gated,
            s.speedup_vs_reference(),
            s.vs_ref[0],
            s.vs_ref[s.vs_ref.len() - 1],
        );
    }
    // Packed frontier memory: a packed state must be well under half a
    // deep clone on every instance (measured ~5–10× smaller).
    for s in &samples {
        assert!(
            s.packed_bytes * 2 < s.clone_bytes,
            "packed state ({} B) must undercut a deep clone ({} B) on {} n={}",
            s.packed_bytes,
            s.clone_bytes,
            s.algo,
            s.n
        );
    }
    // Symmetry reduction: ≥3× on every l = 4 instance.
    for s in samples.iter().filter(|s| s.symmetry_degree >= 4) {
        assert!(
            s.reduction() >= 3.0,
            "expected ≥3× state reduction on {} n={} (l={}): got {:.2}x",
            s.algo,
            s.n,
            s.symmetry_degree,
            s.reduction()
        );
    }
    // Parallel speedup: ≥2× over the serial reference, enforced only on
    // hosts with enough cores for the claim to be meaningful.
    if cores() >= 4 {
        for s in samples.iter().filter(|s| s.symmetry_degree >= 4) {
            let speedup = s
                .speedup()
                .expect("timed parallel run exists on multi-core hosts");
            assert!(
                speedup >= 2.0,
                "expected ≥2× parallel speedup on ≥4 cores for n={} l={} (got {speedup:.2}x)",
                s.n,
                s.symmetry_degree
            );
        }
    } else {
        println!(
            "note: {} core(s) available — the ≥2× parallel-speedup gate needs ≥4 and was skipped",
            cores()
        );
    }
}
