//! Exactness of the one-walk, every-objective worst-case search:
//! `Adversary::run_all` (and the family, analysis and certification
//! forms built on it) must answer each objective byte for byte as the
//! one-objective search does — value, witness, terminal fingerprint,
//! every counter, and every error.
//!
//! Covered: every built-in family × {Rotation, Off} × fault plans
//! {none, crash-stop, edge outage} × every objective subset (plus a
//! reordered and a repeated list); algo1 under FIFO, whose move-bound
//! prune fires and makes `TotalMoves` leave the fused walk; a hinted
//! test behaviour that prunes the same way; a cycling behaviour, whose
//! error every objective shares; and certification at the sweep,
//! exhaustive and adversarial tiers.

#![cfg(feature = "serde")]

use ringdeploy::analysis::certify::{certify_all, certify_one, CertifySettings, EvidenceTier};
use ringdeploy::json::ToJson;
use ringdeploy::sim::adversary::{Adversary, AdversaryError, Objective, WorstCase};
use ringdeploy::sim::explore::{ExploreLimits, SymmetryMode};
use ringdeploy::sim::{Action, Behavior, Idle, LinkDiscipline, Observation, Ring};
use ringdeploy::{AgentId, Algorithm, FaultPlan, InitialConfig};

use Objective::{PeakMemoryBits, TotalActivations, TotalMoves};

/// Every non-empty objective subset in `Objective::ALL` order, then one
/// reordered list and one with a repeat.
fn objective_sets() -> Vec<Vec<Objective>> {
    let mut sets: Vec<Vec<Objective>> = (1u8..8)
        .map(|mask| {
            Objective::ALL
                .into_iter()
                .enumerate()
                .filter(|(bit, _)| mask >> bit & 1 == 1)
                .map(|(_, objective)| objective)
                .collect()
        })
        .collect();
    sets.push(vec![PeakMemoryBits, TotalMoves, TotalActivations]);
    sets.push(vec![TotalActivations, TotalMoves, TotalActivations]);
    sets
}

fn families() -> [Algorithm; 4] {
    [
        Algorithm::FullKnowledge,
        Algorithm::LogSpace,
        Algorithm::Relaxed,
        Algorithm::partial_gathering(2),
    ]
}

/// The fault plans every instance runs under.
fn fault_plans() -> [(&'static str, FaultPlan); 3] {
    [
        ("none", FaultPlan::none()),
        ("crash-stop", FaultPlan::none().with_crash(AgentId(0), 1)),
        ("edge outage", FaultPlan::none().with_edge_outages(1)),
    ]
}

/// Small instances: one clustered (aperiodic, the prune's home ground)
/// and one periodic.
const INSTANCES: &[(usize, &[usize])] = &[(5, &[0, 1, 2]), (8, &[0, 4])];

/// The answer as the wire sees it: the report's JSON, or the error.
fn render(answer: &Result<WorstCase, AdversaryError>) -> String {
    match answer {
        Ok(worst) => worst.to_json().to_string(),
        Err(error) => format!("error: {error:?}"),
    }
}

/// Asserts that every objective set's fused answers equal the
/// one-objective answers, objective by objective.
fn assert_fused_matches(
    label: &str,
    alone: impl Fn(Objective) -> Result<WorstCase, AdversaryError>,
    fused: impl Fn(&[Objective]) -> Vec<Result<WorstCase, AdversaryError>>,
) {
    let alone: Vec<String> = Objective::ALL
        .into_iter()
        .map(|o| render(&alone(o)))
        .collect();
    for set in objective_sets() {
        let answers = fused(&set);
        assert_eq!(answers.len(), set.len(), "{label} {set:?}");
        for (objective, answer) in set.iter().zip(&answers) {
            let slot = Objective::ALL.iter().position(|o| o == objective).unwrap();
            assert_eq!(
                render(answer),
                alone[slot],
                "{label}: {objective} within {set:?}"
            );
        }
    }
}

fn adversary(init: &InitialConfig, symmetry: SymmetryMode) -> Adversary {
    Adversary::new()
        .limits(ExploreLimits::for_instance(
            init.ring_size(),
            init.agent_count(),
        ))
        .symmetry(symmetry)
}

#[test]
fn fused_search_matches_one_objective_search_on_every_family() {
    for algorithm in families() {
        for &(n, homes) in INSTANCES {
            for (plan_label, plan) in fault_plans() {
                let init = InitialConfig::new(n, homes.to_vec())
                    .expect("valid")
                    .with_faults(plan);
                for symmetry in [SymmetryMode::Rotation, SymmetryMode::Off] {
                    let engine = adversary(&init, symmetry);
                    let label = format!("{algorithm} n={n} {homes:?} {plan_label} {symmetry:?}");
                    assert_fused_matches(
                        &label,
                        |objective| algorithm.worst_case(&init, &engine, objective),
                        |objectives| algorithm.worst_case_all(&init, &engine, objectives),
                    );
                }
            }
        }
    }
}

#[test]
fn algo1_moves_leave_the_walk_where_the_bound_prune_fires() {
    // Algorithm 1 under FIFO is the one family with move hints: its
    // moves-only search prunes, so inside a fused walk `TotalMoves`
    // leaves at the first cut and is searched alone.
    let init = InitialConfig::new(8, vec![0, 1, 2]).expect("valid");
    for symmetry in [SymmetryMode::Rotation, SymmetryMode::Off] {
        let engine = adversary(&init, symmetry);
        let moves = Algorithm::FullKnowledge
            .worst_case(&init, &engine, TotalMoves)
            .expect("search succeeds");
        assert!(moves.bound_prunes > 0, "{symmetry:?}: the prune must fire");
        let fused = Algorithm::FullKnowledge.worst_case_all(&init, &engine, &Objective::ALL);
        assert_eq!(render(&fused[0]), render(&Ok(moves)), "{symmetry:?}");
        for answer in &fused[1..] {
            let worst = answer.as_ref().expect("search succeeds");
            assert_eq!(worst.bound_prunes, 0, "{symmetry:?}: only moves prune");
        }
        assert_fused_matches(
            &format!("algo1 {symmetry:?}"),
            |objective| Algorithm::FullKnowledge.worst_case(&init, &engine, objective),
            |objectives| Algorithm::FullKnowledge.worst_case_all(&init, &engine, objectives),
        );
    }
}

/// Stops early if it ever observes another staying agent at its node,
/// so the schedule changes the move count. When `hinted`, it reports
/// its remaining hop budget as a move bound, arming the bound prune.
#[derive(Clone, Hash, PartialEq, Eq)]
struct Shy {
    hops: usize,
    released: bool,
    hinted: bool,
}

impl Behavior for Shy {
    type Message = ();
    fn act(&mut self, obs: &Observation<'_, ()>) -> Action<()> {
        let release = !std::mem::replace(&mut self.released, true);
        if self.hops > 0 && obs.staying_agents == 0 {
            self.hops -= 1;
            Action::moving().with_token_release(release)
        } else {
            Action::halting().with_token_release(release)
        }
    }
    fn memory_bits(&self) -> usize {
        8 + self.hops
    }
    fn max_remaining_moves(&self, _n: usize, _discipline: LinkDiscipline) -> Option<u64> {
        self.hinted.then_some(self.hops as u64)
    }
}

#[test]
fn hinted_behaviour_prunes_alone_and_matches_when_fused() {
    let init = InitialConfig::new(5, vec![0, 1, 3]).expect("valid");
    for hinted in [true, false] {
        let ring = Ring::new(&init, |_| Shy {
            hops: 4,
            released: false,
            hinted,
        });
        for symmetry in [
            SymmetryMode::Off,
            SymmetryMode::Rotation,
            SymmetryMode::Dihedral,
        ] {
            let engine = Adversary::new().symmetry(symmetry);
            let moves = engine.run(&ring, TotalMoves).expect("search succeeds");
            assert_eq!(moves.bound_prunes > 0, hinted, "{symmetry:?}");
            assert!(engine.run_all(&ring, &[]).is_empty());
            assert_fused_matches(
                &format!("shy hinted={hinted} {symmetry:?}"),
                |objective| engine.run(&ring, objective),
                |objectives| engine.run_all(&ring, objectives),
            );
        }
    }
}

/// Ping-pongs between ready-stay states forever.
#[derive(Clone, Hash, PartialEq, Eq)]
struct Spinner;

impl Behavior for Spinner {
    type Message = ();
    fn act(&mut self, _obs: &Observation<'_, ()>) -> Action<()> {
        Action::staying(Idle::Ready)
    }
    fn memory_bits(&self) -> usize {
        1
    }
}

#[test]
fn a_cycle_is_the_same_error_for_every_objective() {
    let init = InitialConfig::new(3, vec![0, 1]).expect("valid");
    let ring = Ring::new(&init, |_| Spinner);
    let engine = Adversary::new();
    for objective in Objective::ALL {
        let error = engine.run(&ring, objective).unwrap_err();
        assert!(
            matches!(error, AdversaryError::CycleDetected { .. }),
            "{error}"
        );
    }
    assert_fused_matches(
        "spinner",
        |objective| engine.run(&ring, objective),
        |objectives| engine.run_all(&ring, objectives),
    );
    // Limits are the walk's too: one tiny budget fails every objective
    // alike, the pruning one included.
    let init = InitialConfig::new(8, vec![0, 1, 2]).expect("valid");
    let tight = Adversary::new().limits(ExploreLimits::new(40, 10_000));
    assert_fused_matches(
        "algo1 under a tight state budget",
        |objective| Algorithm::FullKnowledge.worst_case(&init, &tight, objective),
        |objectives| Algorithm::FullKnowledge.worst_case_all(&init, &tight, objectives),
    );
}

#[test]
fn certify_all_matches_certify_one_at_every_tier() {
    let settings = CertifySettings {
        sweep_seeds: 8,
        limits: None,
    };
    for algorithm in families() {
        for (plan_label, plan) in [fault_plans()[0].clone(), fault_plans()[1].clone()] {
            let init = InitialConfig::new(6, vec![0, 1, 2])
                .expect("valid")
                .with_faults(plan);
            for tier in EvidenceTier::ALL {
                let alone: Vec<String> = Objective::ALL
                    .into_iter()
                    .map(|objective| {
                        let cert = certify_one(algorithm, &init, objective, tier, &settings)
                            .expect("certification runs");
                        cert.to_json().to_string()
                    })
                    .collect();
                for set in objective_sets() {
                    let certs = certify_all(algorithm, &init, &set, tier, &settings);
                    for (objective, cert) in set.iter().zip(certs) {
                        let slot = Objective::ALL.iter().position(|o| o == objective).unwrap();
                        let cert = cert.expect("certification runs");
                        assert_eq!(
                            cert.to_json().to_string(),
                            alone[slot],
                            "{algorithm} {plan_label} {tier}: {objective} within {set:?}"
                        );
                    }
                }
            }
        }
    }
}
