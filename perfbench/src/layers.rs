//! The per-layer split of a traced run, measured by calling each layer's
//! public functions from the benchmark's own code. Nothing inside the
//! program is instrumented.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ringdeploy_analysis::key::{InstanceKey, JobKind};
use ringdeploy_analysis::Workload as Shape;
use ringdeploy_core::{
    Algorithm, Deployment, FullKnowledge, LogSpace, NoKnowledge, PartialGathering,
};
use ringdeploy_json::Json;
use ringdeploy_service::ResultCache;
use ringdeploy_sim::canonical::{canonical_fingerprint, dihedral_fingerprint, plain_fingerprint};
use ringdeploy_sim::{Behavior, InitialConfig, Ring};

use crate::pinned::class_of;
use crate::plan::reference_keys;
use crate::rng::Rng;
use crate::stats::median;

/// Mean `get` and `insert` times (µs) of a standalone [`ResultCache`] with
/// `budget` bytes, replaying `preload` (inserted first) and then the run's
/// `(canonical key, payload)` sequence: a lookup per row, and an insert
/// per lookup that missed.
pub fn cache_replay(
    preload: &[(String, Json)],
    sequence: &[(String, Json)],
    budget: usize,
) -> (f64, f64) {
    let mut cache = ResultCache::new(budget);
    let mut gets = Duration::ZERO;
    let mut inserts = Duration::ZERO;
    let mut get_count = 0u64;
    let mut insert_count = 0u64;
    let mut insert = |cache: &mut ResultCache, key: &str, payload: &Json| {
        let begin = Instant::now();
        cache.insert(key.to_string(), payload.clone());
        inserts += begin.elapsed();
        insert_count += 1;
    };
    for (key, payload) in preload {
        insert(&mut cache, key, payload);
    }
    for (key, payload) in sequence {
        let begin = Instant::now();
        let hit = black_box(cache.get(key)).is_some();
        gets += begin.elapsed();
        get_count += 1;
        if !hit {
            insert(&mut cache, key, payload);
        }
    }
    (
        crate::stats::per(gets.as_secs_f64() * 1e6, get_count),
        crate::stats::per(inserts.as_secs_f64() * 1e6, insert_count),
    )
}

/// What re-running the computed cells through `engine::compute` shows.
#[derive(Debug, Default)]
pub struct EngineReplay {
    /// Per-cell `engine::compute` times (ms) by kind.
    pub cell_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Σ compute time of the timed phase's computed cells, weighted by how
    /// often the phase computed each.
    pub busy_s: f64,
    /// Time in `Workload::instantiate`.
    pub instantiate: Duration,
    /// Instances built.
    pub instantiated: u64,
    /// Explore cells that succeeded.
    pub explore_cells: u64,
    /// Σ explore `states`.
    pub explore_states: u64,
    /// Σ explore `merge_edges`.
    pub explore_merges: u64,
    /// Σ compute time of explore cells (s).
    pub explore_s: f64,
    /// Σ adversary `distinct_states`.
    pub adversary_states: u64,
    /// Σ adversary `expansions`.
    pub adversary_expansions: u64,
    /// Σ adversary `dominance_prunes`.
    pub adversary_dominance: u64,
    /// Σ adversary `bound_prunes`.
    pub adversary_bound: u64,
    /// Σ compute time of adversary cells (s).
    pub adversary_s: f64,
    /// Time in `Deployment::run_preset` for sweep cells.
    pub run_preset: Duration,
    /// Σ report `steps` of those runs.
    pub steps: u64,
}

fn count(payload: &Json, field: &str) -> u64 {
    payload.field::<u64>(field).unwrap_or(0)
}

impl EngineReplay {
    fn replay(&mut self, key: &InstanceKey, weight: usize) {
        let begin = Instant::now();
        let init = black_box(key.workload.instantiate(key.seed));
        self.instantiate += begin.elapsed();
        self.instantiated += 1;
        let begin = Instant::now();
        let payload = ringdeploy_service::engine::compute(key);
        let seconds = begin.elapsed().as_secs_f64();
        self.busy_s += seconds * weight as f64;
        self.cell_ms
            .entry(key.kind.name())
            .or_default()
            .push(seconds * 1e3);
        let Ok(payload) = payload else { return };
        match key.kind {
            JobKind::Explore => {
                self.explore_cells += 1;
                self.explore_states += count(&payload, "states");
                self.explore_merges += count(&payload, "merge_edges");
                self.explore_s += seconds;
            }
            JobKind::Adversary => {
                self.adversary_states += count(&payload, "distinct_states");
                self.adversary_expansions += count(&payload, "expansions");
                self.adversary_dominance += count(&payload, "dominance_prunes");
                self.adversary_bound += count(&payload, "bound_prunes");
                self.adversary_s += seconds;
            }
            JobKind::Sweep => {
                let schedule = key.schedule.expect("sweep keys carry a schedule");
                let begin = Instant::now();
                let report = Deployment::of(&init)
                    .algorithm(key.algorithm)
                    .run_preset(schedule);
                self.run_preset += begin.elapsed();
                if let Ok(report) = report {
                    self.steps += report.steps;
                }
            }
            JobKind::Certify => {}
        }
    }

    /// Median per-cell time (ms) of `kind`.
    pub fn p50_ms(&self, kind: JobKind) -> f64 {
        self.cell_ms.get(kind.name()).map_or(0.0, |v| median(v))
    }
}

/// Re-runs one key of every computed cell class (keys that differ only
/// in a seed label are one computation), weighted by how often the timed
/// phase computed the class, plus the reference cells of each kind the
/// workload lacks, so every per-kind timing has samples.
pub fn engine_replay(computed: &[InstanceKey]) -> EngineReplay {
    let mut distinct: BTreeMap<String, (InstanceKey, usize)> = BTreeMap::new();
    for key in computed {
        distinct.entry(class_of(key)).or_insert((key.clone(), 0)).1 += 1;
    }
    let mut replay = EngineReplay::default();
    for (key, weight) in distinct.values() {
        replay.replay(key, *weight);
    }
    for kind in JobKind::ALL {
        if !replay.cell_ms.contains_key(kind.name()) {
            for key in reference_keys(kind) {
                replay.replay(&key, 0);
            }
        }
    }
    replay
}

/// Per-call times (ns) of the fingerprint functions and of an
/// `apply` + `undo` pair, over configurations on seeded walks.
#[derive(Debug, Default)]
pub struct CanonicalProbe {
    /// Σ time in `plain_fingerprint`.
    pub plain: Duration,
    /// Σ time in `canonical_fingerprint` (rotation class).
    pub rotation: Duration,
    /// Σ time in `dihedral_fingerprint`.
    pub dihedral: Duration,
    /// Σ time in `Ring::apply` followed by `Ring::undo`.
    pub apply_undo: Duration,
    /// Calls of each timed function.
    pub calls: u64,
}

/// Configurations sampled per instance.
pub const PROBE_CONFIGURATIONS: usize = 300;

impl CanonicalProbe {
    fn walk<B>(&mut self, fresh: impl Fn() -> Ring<B>, rng: &mut Rng)
    where
        B: Behavior + Hash + Clone,
        B::Message: Hash,
    {
        let mut ring = fresh();
        let reps = (2048 / ring.ring_size()).clamp(1, 32);
        let mut restarts = 0;
        let mut taken = 0;
        while taken < PROBE_CONFIGURATIONS {
            let enabled = ring.enabled_activations();
            if enabled.is_empty() {
                restarts += 1;
                if restarts > PROBE_CONFIGURATIONS {
                    return; // a ring that starts quiescent
                }
                ring = fresh();
                continue;
            }
            let activation = enabled[rng.below(enabled.len())];
            let begin = Instant::now();
            for _ in 0..reps {
                black_box(plain_fingerprint(black_box(&ring)));
            }
            self.plain += begin.elapsed();
            let begin = Instant::now();
            for _ in 0..reps {
                black_box(canonical_fingerprint(black_box(&ring)));
            }
            self.rotation += begin.elapsed();
            let begin = Instant::now();
            for _ in 0..reps {
                black_box(dihedral_fingerprint(black_box(&ring)));
            }
            self.dihedral += begin.elapsed();
            let begin = Instant::now();
            for _ in 0..reps {
                let undo = ring.apply(black_box(activation));
                ring.undo(undo);
            }
            self.apply_undo += begin.elapsed();
            self.calls += reps as u64;
            let _ = ring.apply(activation);
            taken += 1;
        }
    }

    /// Probes one instance of `family`.
    pub fn instance(&mut self, family: Algorithm, init: &InitialConfig, rng: &mut Rng) {
        let k = init.agent_count();
        match family.name() {
            "algo1-full-knowledge" => self.walk(|| Ring::new(init, |_| FullKnowledge::new(k)), rng),
            "algo2-log-space" => self.walk(|| Ring::new(init, |_| LogSpace::new(k)), rng),
            "algo4-relaxed" => self.walk(|| Ring::new(init, |_| NoKnowledge::new()), rng),
            _ => self.walk(|| Ring::new(init, |_| PartialGathering::new(k)), rng),
        }
    }

    /// Mean ns per call of a timed function's total.
    pub fn ns(&self, total: Duration) -> f64 {
        crate::stats::per(total.as_secs_f64() * 1e9, self.calls)
    }
}

/// Probes each distinct instance of `keys` along walks seeded by `seed`.
pub fn canonical_probe(keys: &[InstanceKey], seed: u64) -> CanonicalProbe {
    let mut instances: BTreeMap<String, &InstanceKey> = BTreeMap::new();
    for key in keys {
        let mut name = format!("{}:{}", key.algorithm, key.workload.label());
        if matches!(
            key.workload,
            Shape::Random { .. } | Shape::RandomAperiodic { .. }
        ) {
            name.push_str(&format!(":{}", key.seed));
        }
        instances.entry(name).or_insert(key);
    }
    let mut rng = Rng::new(seed ^ 0xCA11);
    let mut probe = CanonicalProbe::default();
    for key in instances.values() {
        let init = key.workload.instantiate(key.seed);
        probe.instance(key.algorithm, &init, &mut rng);
    }
    probe
}
