//! Property tests for the reversible engine: `Ring::apply` followed by
//! `Ring::undo` is the **identity** on every observable of the ring —
//! plain and canonical fingerprints, the full schedule-state hash, the
//! enabled-activation slice, metrics, phase tallies and the step counter
//! — across FIFO and LIFO link disciplines, the paper's three algorithm
//! families plus g-partial gathering, and fault plans with crash-stops
//! and edge outages; and `apply` drives the ring through **bit-exactly
//! the same** trajectory as `step`, traced or not. Both entry points run
//! one shared transition, so these twins check it from both callers.
//!
//! These are the invariants the clone-free exhaustive explorer stands on:
//! its serial DFS revisits a parent by undoing, never by cloning, so any
//! residue an undo left behind would silently corrupt every sibling
//! subtree explored after it.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ringdeploy::sim::canonical::{canonical_fingerprint, plain_fingerprint};
use ringdeploy::sim::scheduler::{Activation, Random};
use ringdeploy::sim::{Behavior, LinkDiscipline, Metrics, PhaseTally, Ring, Scheduler};
use ringdeploy::{
    AgentId, FaultPlan, FullKnowledge, InitialConfig, LogSpace, NoKnowledge, PartialGathering,
};

/// Everything a round-trip must restore bit-exactly.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    plain_fp: u64,
    canonical_fp: u64,
    schedule_hash: u64,
    enabled: Vec<Activation>,
    steps: u64,
    metrics: Metrics,
    phases: Vec<PhaseTally>,
}

fn snapshot<B>(ring: &Ring<B>) -> Snapshot
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let mut h = DefaultHasher::new();
    ring.hash_schedule_state(&mut h);
    Snapshot {
        plain_fp: plain_fingerprint(ring),
        canonical_fp: canonical_fingerprint(ring),
        schedule_hash: h.finish(),
        enabled: ring.enabled_activations().to_vec(),
        steps: ring.steps(),
        metrics: ring.metrics().clone(),
        phases: ring.phase_tallies().to_vec(),
    }
}

/// A random small instance: distinct homes on a ring of 4..=8 nodes.
fn random_instance(seed: u64) -> InitialConfig {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n: usize = rng.gen_range(4..=8);
    let k = rng.gen_range(2..=n.min(4));
    let mut homes: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        homes.swap(i, j);
    }
    homes.truncate(k);
    InitialConfig::new(n, homes).expect("distinct homes in range")
}

/// Drives one instance to quiescence (bounded), asserting at every state:
///
/// * apply→undo of **every** enabled activation is the identity on the
///   [`Snapshot`];
/// * advancing via `apply` matches twins advanced via `step` bit-exactly,
///   one untraced and one with tracing enabled;
/// * undoing the whole recorded run restores the initial snapshot.
fn check_reversible<B>(
    make: &dyn Fn() -> Ring<B>,
    discipline: LinkDiscipline,
    seed: u64,
    label: &str,
) -> Result<(), TestCaseError>
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let prepare = || {
        let mut ring = make();
        ring.set_link_discipline(discipline);
        ring
    };
    let mut ring = prepare();
    let mut twin = prepare();
    let mut traced_twin = prepare();
    traced_twin.enable_trace(64);
    let initial = snapshot(&ring);
    let mut undos = Vec::new();
    let mut scheduler = Random::seeded(seed ^ 0x5bd1_e995);
    // Generous bound: the paper's algorithms finish well within it on
    // these instances; LIFO ablations may livelock, which the bound cuts.
    for _ in 0..600 {
        if ring.enabled_activations().is_empty() {
            break;
        }
        let before = snapshot(&ring);
        let acts: Vec<Activation> = ring.enabled_activations().to_vec();
        for &act in &acts {
            let undo = ring.apply(act);
            ring.undo(undo);
            let after = snapshot(&ring);
            prop_assert_eq!(
                &before,
                &after,
                "{}: apply/undo of {:?} is not the identity",
                label,
                act
            );
        }
        let chosen = scheduler.select(ring.enabled_activations());
        let act = ring.enabled_activations()[chosen];
        undos.push(ring.apply(act));
        twin.step(act);
        traced_twin.step(act);
        prop_assert_eq!(
            snapshot(&ring),
            snapshot(&twin),
            "{}: apply diverged from step after {:?}",
            label,
            act
        );
        prop_assert_eq!(
            snapshot(&ring),
            snapshot(&traced_twin),
            "{}: apply diverged from traced step after {:?}",
            label,
            act
        );
    }
    while let Some(undo) = undos.pop() {
        ring.undo(undo);
    }
    prop_assert_eq!(
        snapshot(&ring),
        initial,
        "{}: unwinding the whole run did not restore the initial state",
        label
    );
    Ok(())
}

/// The plans every instance is checked under: fault-free, a crash-stop,
/// dynamic-edge outages, and both at once.
fn fault_plans(seed: u64, k: usize) -> [FaultPlan; 4] {
    let crash = FaultPlan::none().with_crash(AgentId(seed as usize % k), seed % 3);
    [
        FaultPlan::none(),
        crash.clone(),
        FaultPlan::none().with_edge_outages(2),
        crash.with_edge_outages(2),
    ]
}

fn check_all_families(seed: u64, discipline: LinkDiscipline) -> Result<(), TestCaseError> {
    let base = random_instance(seed);
    let k = base.agent_count();
    for plan in fault_plans(seed, k) {
        let init = base.clone().with_faults(plan);
        let label = format!(
            "n={} k={} {:?} {:?}",
            init.ring_size(),
            k,
            discipline,
            init.faults()
        );
        check_reversible(
            &|| Ring::new(&init, |_| FullKnowledge::new(k)),
            discipline,
            seed,
            &format!("algo1 {label}"),
        )?;
        check_reversible(
            &|| Ring::new(&init, |_| LogSpace::new(k)),
            discipline,
            seed,
            &format!("algo2 {label}"),
        )?;
        check_reversible(
            &|| Ring::new(&init, |_| NoKnowledge::new()),
            discipline,
            seed,
            &format!("relaxed {label}"),
        )?;
        check_reversible(
            &|| Ring::new(&init, |_| PartialGathering::new(k)),
            discipline,
            seed,
            &format!("gathering {label}"),
        )?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FIFO (the paper's model): every family, every fault plan.
    #[test]
    fn apply_undo_is_identity_under_fifo(seed in 0u64..1_000_000) {
        check_all_families(seed, LinkDiscipline::Fifo)?;
    }

    /// LIFO ablation: overtaking pushes displace queue heads, exercising
    /// the displacement bookkeeping `StepUndo` must reverse.
    #[test]
    fn apply_undo_is_identity_under_lifo(seed in 0u64..1_000_000) {
        check_all_families(seed, LinkDiscipline::Lifo)?;
    }
}

/// Broadcast deliveries that wake suspended receivers are the subtlest
/// enabled-set edit; make sure the suite genuinely exercises them:
/// Algorithm 2's leader election broadcasts on every run of a clustered
/// instance, and every step of every run must round-trip exactly.
#[test]
fn undo_reverses_broadcast_wakeups() {
    let mut broadcasts_seen = 0u64;
    let init = InitialConfig::new(8, vec![0, 1, 2]).expect("valid");
    for seed in 0..10u64 {
        let mut ring = Ring::new(&init, |_| LogSpace::new(3));
        let mut scheduler = Random::seeded(seed);
        for _ in 0..600 {
            if ring.enabled_activations().is_empty() {
                break;
            }
            let before = snapshot(&ring);
            let chosen = scheduler.select(ring.enabled_activations());
            let act = ring.enabled_activations()[chosen];
            let undo = ring.apply(act);
            ring.undo(undo);
            assert_eq!(before, snapshot(&ring), "seed {seed}");
            ring.step(act);
        }
        broadcasts_seen += ring.metrics().messages_sent();
    }
    assert!(
        broadcasts_seen > 0,
        "Algorithm 2 must broadcast somewhere in 10 clustered runs for this test to bite"
    );
}
