//! Workload generators: the job lists each workload submits, built only
//! from the seed.
//!
//! Every workload keeps the *set of computations* fixed and lets the seed
//! vary the order of jobs, the key seeds that label seed-independent
//! instances, and (in `warm-mix`) the draw sequence. Runs on different
//! seeds are therefore comparable: they do the same work in a different
//! order under different cache keys.

use ringdeploy_analysis::key::{InstanceKey, JobKind};
use ringdeploy_analysis::{EvidenceTier, Objective, SweepSchedule, Workload as Shape};
use ringdeploy_core::{Algorithm, Schedule};
use ringdeploy_service::JobSpec;

use crate::rng::{zipf_counts, Rng};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh daemon per round; every cell misses the cache.
    ColdCampaign,
    /// Two clients replaying a prewarmed catalogue; the cache serves.
    WarmMix,
    /// Sweeps on `n ≥ 1024` rings; the engine's step loop does the work.
    LargeSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdCampaign,
        Workload::WarmMix,
        Workload::LargeSweep,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCampaign => "cold-campaign",
            Workload::WarmMix => "warm-mix",
            Workload::LargeSweep => "large-sweep",
        }
    }

    /// Parses [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections.
    pub fn clients(self) -> usize {
        match self {
            Workload::WarmMix => 2,
            _ => 1,
        }
    }

    /// The quantile reported as `job_p99_ms`: p99, or a lower quantile with
    /// at least ten samples beyond it in a 30-second run on two cores.
    /// Fixed per workload, so that a faster program is compared at the same
    /// quantile; the run record states it and the sample count.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::ColdCampaign => 0.8,
            Workload::WarmMix => 0.975,
            Workload::LargeSweep => 0.9,
        }
    }
}

/// One job a client submits, with its expanded cells.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    /// The submit payload.
    pub spec: JobSpec,
    /// `spec.keys()`, in row order.
    pub keys: Vec<InstanceKey>,
    /// `warm-mix` only: the catalogue entry this job replays.
    pub catalogue: Option<usize>,
    /// `warm-mix` only: the job carries fresh key seeds, so its cells miss.
    pub fresh: bool,
}

impl PlannedJob {
    fn new(spec: JobSpec) -> PlannedJob {
        let keys = spec.keys().expect("generated job specs expand");
        PlannedJob {
            spec,
            keys,
            catalogue: None,
            fresh: false,
        }
    }
}

/// The four problem families, in registry order.
pub fn families() -> [Algorithm; 4] {
    [
        Algorithm::FullKnowledge,
        Algorithm::LogSpace,
        Algorithm::Relaxed,
        Algorithm::partial_gathering(2),
    ]
}

fn periodic(n: usize, k: usize, l: usize) -> Shape {
    Shape::Periodic { n, k, l }
}

fn spec(
    kind: JobKind,
    algorithms: Vec<Algorithm>,
    workloads: Vec<Shape>,
    seeds: Vec<u64>,
) -> JobSpec {
    JobSpec {
        algorithms,
        workloads,
        seeds,
        ..JobSpec::new(kind, Algorithm::FullKnowledge, periodic(8, 4, 1))
    }
}

fn search_spec(
    kind: JobKind,
    algorithms: Vec<Algorithm>,
    workloads: Vec<Shape>,
    objectives: Vec<Objective>,
    seeds: Vec<u64>,
) -> JobSpec {
    JobSpec {
        objectives,
        tier: EvidenceTier::Adversarial,
        ..spec(kind, algorithms, workloads, seeds)
    }
}

fn sweep_spec(
    algorithms: Vec<Algorithm>,
    workloads: Vec<Shape>,
    schedules: Vec<SweepSchedule>,
    seeds: Vec<u64>,
) -> JobSpec {
    JobSpec {
        schedules,
        ..spec(JobKind::Sweep, algorithms, workloads, seeds)
    }
}

/// The `cold-campaign` ring shapes, in two halves of four. The `l = 4`
/// shape closes each half, so the one cell pinned to fail (partial
/// gathering, registered last, on an `l = 4` ring) ends its explore job and
/// the error frame never cancels cells after it.
fn cold_halves(smoke: bool) -> [Vec<Shape>; 2] {
    if smoke {
        [
            vec![periodic(8, 4, 1), periodic(8, 4, 4)],
            vec![periodic(8, 4, 2), periodic(8, 4, 4)],
        ]
    } else {
        [
            vec![
                periodic(12, 4, 1),
                periodic(14, 4, 2),
                periodic(16, 4, 1),
                periodic(12, 4, 4),
            ],
            vec![
                periodic(12, 4, 2),
                periodic(14, 4, 1),
                periodic(16, 4, 2),
                periodic(16, 4, 4),
            ],
        ]
    }
}

/// The generator stream of round `round` under `seed`.
fn round_rng(seed: u64, round: u64) -> Rng {
    Rng::new(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Round `round` of `cold-campaign`: explore jobs over all four families
/// and adversary/certify jobs per family × half × all three objectives —
/// 18 jobs, 224 cells (smoke: 18 jobs over `n = 8`). Every round shuffles
/// the jobs and labels them with key seeds of its own, so rounds on one
/// daemon never hit each other's cache entries.
pub fn cold_campaign(seed: u64, round: u64, smoke: bool) -> Vec<PlannedJob> {
    let mut rng = round_rng(seed, round);
    let mut label = || vec![(round << 32) | rng.below(1 << 20) as u64];
    let mut jobs = Vec::new();
    for half in cold_halves(smoke) {
        jobs.push(PlannedJob::new(spec(
            JobKind::Explore,
            families().to_vec(),
            half.clone(),
            label(),
        )));
        for kind in [JobKind::Adversary, JobKind::Certify] {
            for family in families() {
                jobs.push(PlannedJob::new(search_spec(
                    kind,
                    vec![family],
                    half.clone(),
                    Objective::ALL.to_vec(),
                    label(),
                )));
            }
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// Random-per-seed sweeps draw their schedule seeds from `0..LARGE_SEED_POOL`,
/// whose outcomes are pinned.
pub const LARGE_SEED_POOL: u64 = 16;

/// The `large-sweep` ring shapes.
pub fn large_shapes(smoke: bool) -> Vec<Shape> {
    let shape = |n, k| Shape::LargeRing { n, k };
    if smoke {
        vec![shape(1024, 16)]
    } else {
        vec![
            shape(1024, 16),
            shape(2048, 32),
            shape(4096, 16),
            shape(1024, 64),
        ]
    }
}

/// The two sweep schedules of `large-sweep`.
pub fn large_schedules() -> [SweepSchedule; 2] {
    [
        SweepSchedule::RandomPerSeed,
        SweepSchedule::Preset(Schedule::RoundRobin),
    ]
}

/// Round `round` of `large-sweep`: per shape × schedule, one pool seed,
/// split into two jobs of two families — 16 jobs, 32 cells (smoke: 2
/// jobs). Each round runs on a fresh daemon, so rounds may share keys.
/// Rounds are short (about 3.4 s on 2 cores), so a timed phase holds many
/// of them and overshoots its length by little.
pub fn large_sweep(seed: u64, round: u64, smoke: bool) -> Vec<PlannedJob> {
    let mut rng = round_rng(seed, round);
    let mut jobs = Vec::new();
    for shape in large_shapes(smoke) {
        for schedule in large_schedules() {
            let pool_seed = rng.below(LARGE_SEED_POOL as usize) as u64;
            let mut algorithms = families().to_vec();
            rng.shuffle(&mut algorithms);
            for pair in algorithms.chunks(2) {
                jobs.push(PlannedJob::new(sweep_spec(
                    pair.to_vec(),
                    vec![shape],
                    vec![schedule],
                    vec![pool_seed],
                )));
            }
        }
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// The fixed `warm-mix` catalogue: per family, nine small jobs (1–6
/// cells, `n ≤ 14`) of all four kinds. Setup computes it once.
pub fn warm_catalogue(smoke: bool) -> Vec<PlannedJob> {
    use Objective::{PeakMemoryBits, TotalActivations, TotalMoves};
    let rr = SweepSchedule::Preset(Schedule::RoundRobin);
    let one = SweepSchedule::Preset(Schedule::OneAtATime);
    let random = Shape::Random { n: 12, k: 4 };
    let quarter = Shape::QuarterRing { n: 12, k: 3 };
    let uniform = Shape::Uniform { n: 12, k: 4 };
    let mut catalogue = Vec::new();
    for family in families() {
        let f = vec![family];
        let specs = if smoke {
            vec![
                sweep_spec(f.clone(), vec![random], vec![], vec![1, 2]),
                spec(
                    JobKind::Explore,
                    f.clone(),
                    vec![periodic(8, 4, 2)],
                    vec![0],
                ),
                search_spec(
                    JobKind::Certify,
                    f,
                    vec![periodic(8, 4, 1)],
                    vec![TotalMoves],
                    vec![0],
                ),
            ]
        } else {
            // The relaxed family's l = 1 searches cost ~100× the others';
            // it searches smaller rings so no fresh draw stalls a worker.
            let (l1, explore_ring) = if family == Algorithm::Relaxed {
                (periodic(8, 4, 1), periodic(8, 2, 1))
            } else {
                (periodic(10, 2, 1), periodic(12, 4, 1))
            };
            vec![
                sweep_spec(f.clone(), vec![random], vec![], vec![1, 2, 3]),
                sweep_spec(
                    f.clone(),
                    vec![periodic(12, 4, 2), quarter],
                    vec![rr],
                    vec![0],
                ),
                spec(
                    JobKind::Explore,
                    f.clone(),
                    vec![periodic(12, 4, 2), l1, periodic(14, 2, 1)],
                    vec![0],
                ),
                search_spec(
                    JobKind::Adversary,
                    f.clone(),
                    vec![periodic(12, 4, 2)],
                    Objective::ALL.to_vec(),
                    vec![0],
                ),
                search_spec(
                    JobKind::Adversary,
                    f.clone(),
                    vec![periodic(12, 4, 4), l1],
                    vec![TotalMoves],
                    vec![0],
                ),
                search_spec(
                    JobKind::Certify,
                    f.clone(),
                    vec![l1],
                    Objective::ALL.to_vec(),
                    vec![0],
                ),
                search_spec(
                    JobKind::Certify,
                    f.clone(),
                    vec![periodic(12, 4, 2), uniform],
                    vec![TotalActivations, PeakMemoryBits],
                    vec![0],
                ),
                spec(JobKind::Explore, f.clone(), vec![explore_ring], vec![0]),
                sweep_spec(
                    f,
                    vec![periodic(14, 2, 2), uniform, periodic(10, 2, 1)],
                    vec![rr, one],
                    vec![0],
                ),
            ]
        };
        catalogue.extend(specs.into_iter().map(PlannedJob::new));
    }
    for (index, job) in catalogue.iter_mut().enumerate() {
        job.catalogue = Some(index);
    }
    catalogue
}

/// Draws per deck of a `warm-mix` client (see [`WarmDraws`]).
pub const DECK: usize = 200;

/// Cards per deck that carry fresh key seeds: 5% of draws.
pub const FRESH_PER_DECK: usize = DECK / 20;

/// One `warm-mix` client's draw stream. Draws come in shuffled decks of
/// [`DECK`] cards: catalogue entries in Zipf(1) proportions over a fixed
/// popularity ranking, plus [`FRESH_PER_DECK`] cards that replay a
/// seed-independent entry under fresh key seeds no other client uses (two
/// clients never submit the same uncached key at once: the daemon does not
/// coalesce in-flight keys, which makes such races unsteady to time).
/// Decks, and a fixed rotation of the entries fresh cards replay, keep each
/// run's mix the same while the seed sets the order.
#[derive(Debug, Clone)]
pub struct WarmDraws {
    rng: Rng,
    /// One deck: `Some(catalogue index)` or `None` for a fresh card.
    deck: Vec<Option<usize>>,
    next: usize,
    /// Catalogue entries whose cells do not depend on the key seed.
    relabelable: Vec<usize>,
    /// Fresh cards dealt so far (offset per client); the n-th replays
    /// `relabelable[n % len]`, so every run computes the same fresh cells.
    fresh: usize,
    next_label: u64,
}

impl WarmDraws {
    /// Client `client`'s stream for `seed` over `catalogue`.
    pub fn new(seed: u64, client: usize, catalogue: &[PlannedJob]) -> WarmDraws {
        let mut ranked: Vec<usize> = (0..catalogue.len()).collect();
        Rng::new(0x0CA7_A106).shuffle(&mut ranked);
        let mut deck = vec![None; FRESH_PER_DECK];
        for (rank, count) in zipf_counts(catalogue.len(), DECK - FRESH_PER_DECK)
            .into_iter()
            .enumerate()
        {
            deck.extend(std::iter::repeat_n(Some(ranked[rank]), count));
        }
        let relabelable = catalogue
            .iter()
            .enumerate()
            .filter(|(_, job)| !job.keys.iter().any(crate::pinned::seed_matters))
            .map(|(index, _)| index)
            .collect();
        WarmDraws {
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(client as u64 + 1)),
            next: deck.len(),
            deck,
            relabelable,
            fresh: client * FRESH_PER_DECK,
            next_label: (client as u64 + 1) << 40,
        }
    }

    /// The next job.
    pub fn next(&mut self, catalogue: &[PlannedJob]) -> PlannedJob {
        if self.next == self.deck.len() {
            self.rng.shuffle(&mut self.deck);
            self.next = 0;
        }
        let card = self.deck[self.next];
        self.next += 1;
        match card {
            Some(index) => catalogue[index].clone(),
            None => {
                let index = self.relabelable[self.fresh % self.relabelable.len()];
                self.fresh += 1;
                let label = self.next_label;
                self.next_label += 1;
                let mut job = PlannedJob::new(JobSpec {
                    seeds: vec![label],
                    ..catalogue[index].spec.clone()
                });
                job.catalogue = Some(index);
                job.fresh = true;
                job
            }
        }
    }
}

/// Small instances of every kind, used for a per-kind engine timing on a
/// workload that has no cell of that kind (e.g. searches on `large-sweep`).
pub fn reference_keys(kind: JobKind) -> Vec<InstanceKey> {
    let shape = periodic(12, 4, 2);
    let spec = match kind {
        JobKind::Sweep => sweep_spec(
            families().to_vec(),
            vec![shape],
            vec![SweepSchedule::Preset(Schedule::RoundRobin)],
            vec![0],
        ),
        JobKind::Explore => spec(kind, families().to_vec(), vec![shape], vec![0]),
        JobKind::Adversary | JobKind::Certify => search_spec(
            kind,
            families().to_vec(),
            vec![shape],
            vec![Objective::TotalMoves],
            vec![0],
        ),
    };
    spec.keys().expect("reference specs expand")
}

/// Every key any workload can submit, up to seed labels on seed-independent
/// cells: the universe whose outcomes `pinned.tsv` records.
pub fn universe() -> Vec<InstanceKey> {
    let mut keys = Vec::new();
    for smoke in [false, true] {
        keys.extend(cold_campaign(0, 0, smoke).into_iter().flat_map(|j| j.keys));
        keys.extend(warm_catalogue(smoke).into_iter().flat_map(|j| j.keys));
        for shape in large_shapes(smoke) {
            let job = PlannedJob::new(sweep_spec(
                families().to_vec(),
                vec![shape],
                large_schedules().to_vec(),
                (0..LARGE_SEED_POOL).collect(),
            ));
            keys.extend(job.keys);
        }
    }
    keys
}
