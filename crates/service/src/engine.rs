//! The compute kernel: [`InstanceKey`]s in, one rendered report per key
//! out.
//!
//! The crate-private `compute_group` answers several keys of one search
//! — adversary or certify keys of one instance that differ only in
//! `objective` — from one walk
//! ([`ProblemFamily::worst_case_all`](ringdeploy_core::ProblemFamily::worst_case_all),
//! [`certify_all`]; DESIGN.md §0.13). Each report is byte-identical to
//! the one-key [`compute`], so grouping never changes a cached payload.
//!
//! This is the *only* place the service invokes the verification
//! engines, and it deliberately pins every free parameter so the result
//! is a pure function of the key (the cache-soundness requirement):
//!
//! * exploration runs the **clone-free serial DFS**
//!   ([`ExploreEngine::Serial`]) — the work-stealing engine is
//!   deterministic at one worker too, but its `peak_frontier` metric
//!   (peak outstanding steal tasks) differs from the serial engine's
//!   (peak DFS path depth), and the serial engine keeps cached results
//!   byte-identical with every pre-0.9 cache;
//! * search limits are always [`ExploreLimits::for_instance`];
//! * certification always uses [`CertifySettings::default`].
//!
//! Reports that carry an `instance_fingerprint` field (`DeployReport`,
//! `ExploreReport`, `BoundCertificate`) are stamped with the key's
//! fingerprint before rendering, so cache identity is auditable from
//! any payload a client receives.

use ringdeploy_analysis::key::{InstanceKey, JobKind};
use ringdeploy_analysis::{certify_all, CertifySettings, Objective};
use ringdeploy_core::{Deployment, ExploreEngine};
use ringdeploy_json::{Json, ToJson};
use ringdeploy_sim::adversary::Adversary;
use ringdeploy_sim::explore::{ExploreLimits, Explorer, SymmetryMode};
use ringdeploy_sim::InitialConfig;

/// Computes the report for `key`. Deterministic: equal keys produce
/// byte-identical rendered payloads. The one-key case of the
/// crate-private `compute_group`.
///
/// # Errors
///
/// Returns a human-readable message for invalid workload parameters or
/// engine failures; the daemon turns it into an `error` frame.
pub fn compute(key: &InstanceKey) -> Result<Json, String> {
    compute_group(std::slice::from_ref(key))
        .pop()
        .expect("one key, one report")
}

/// The search `key` shares with the job's other objectives: the key
/// with its objective cleared, for adversary and certify keys; `None`
/// for the kinds that run no objective search. Keys with equal searches
/// form one [`compute_group`].
pub(crate) fn search_of(key: &InstanceKey) -> Option<InstanceKey> {
    // Destructured in full, so a new key field must decide here whether
    // it splits a search.
    let InstanceKey {
        kind,
        algorithm,
        workload,
        schedule,
        seed,
        objective: _,
        tier,
        faults,
    } = key;
    matches!(kind, JobKind::Adversary | JobKind::Certify).then(|| InstanceKey {
        kind: *kind,
        algorithm: *algorithm,
        workload: *workload,
        schedule: *schedule,
        seed: *seed,
        objective: None,
        tier: *tier,
        faults: faults.clone(),
    })
}

/// Computes the reports of `keys`, in order, with one search for the
/// whole group:
/// [`ProblemFamily::worst_case_all`](ringdeploy_core::ProblemFamily::worst_case_all)
/// for adversary keys, [`certify_all`] for certify keys. Report `i` is byte-identical to
/// [`compute`]`(&keys[i])`.
///
/// # Panics
///
/// If two keys differ in their [`search_of`] (a group of one is always
/// fine).
pub(crate) fn compute_group(keys: &[InstanceKey]) -> Vec<Result<Json, String>> {
    let Some(first) = keys.first() else {
        return Vec::new();
    };
    let search = search_of(first);
    assert!(
        keys.len() == 1 || (search.is_some() && keys.iter().all(|key| search_of(key) == search)),
        "a compute group must differ in objective only"
    );
    let labelled = |result: Result<Json, String>, key: &InstanceKey| {
        result.map_err(|e| format!("{}: {e}", key.label()))
    };
    let init = match instantiate(first) {
        Ok(init) => init,
        Err(e) => {
            return keys
                .iter()
                .map(|key| labelled(Err(e.clone()), key))
                .collect()
        }
    };
    let n = init.ring_size();
    let k = init.agent_count();
    let fingerprint = first.fingerprint();
    let reports: Vec<Result<Json, String>> = match first.kind {
        JobKind::Sweep => vec![first
            .schedule
            .ok_or_else(|| "sweep key has no schedule".to_string())
            .and_then(|schedule| {
                Deployment::of(&init)
                    .algorithm(first.algorithm)
                    .run_preset(schedule)
                    .map_err(|e| e.to_string())
            })
            .map(|mut report| {
                report.instance_fingerprint = Some(fingerprint);
                report.to_json()
            })],
        JobKind::Explore => {
            let explorer = Explorer::new().limits(ExploreLimits::for_instance(n, k));
            vec![first
                .algorithm
                .explore(&init, &explorer, ExploreEngine::Serial)
                .map_err(|e| e.to_string())
                .map(|mut report| {
                    report.instance_fingerprint = Some(fingerprint);
                    report.to_json()
                })]
        }
        JobKind::Adversary => match objectives(keys, "adversary") {
            Err(e) => vec![Err(e); keys.len()],
            Ok(objectives) => {
                let adversary = Adversary::new()
                    .limits(ExploreLimits::for_instance(n, k))
                    .symmetry(SymmetryMode::Rotation);
                first
                    .algorithm
                    .worst_case_all(&init, &adversary, &objectives)
                    .into_iter()
                    // `WorstCase` has no instance_fingerprint field; the
                    // row frame carries the fingerprint alongside the
                    // payload.
                    .map(|worst| {
                        worst
                            .map(|worst| worst.to_json())
                            .map_err(|e| e.to_string())
                    })
                    .collect()
            }
        },
        JobKind::Certify => match (objectives(keys, "certify"), first.tier) {
            (Err(e), _) => vec![Err(e); keys.len()],
            (Ok(_), None) => vec![Err("certify key has no tier".to_string()); keys.len()],
            (Ok(objectives), Some(tier)) => certify_all(
                first.algorithm,
                &init,
                &objectives,
                tier,
                &CertifySettings::default(),
            )
            .into_iter()
            .zip(keys)
            .map(|(cert, key)| {
                cert.map_err(|e| e.to_string()).map(|mut cert| {
                    cert.instance_fingerprint = Some(key.fingerprint());
                    cert.to_json()
                })
            })
            .collect(),
        },
    };
    reports
        .into_iter()
        .zip(keys)
        .map(|(report, key)| labelled(report, key))
        .collect()
}

/// The objectives of a search group's keys, in order; an error if one
/// of the (`kind`) keys has none.
fn objectives(keys: &[InstanceKey], kind: &str) -> Result<Vec<Objective>, String> {
    keys.iter()
        .map(|key| key.objective)
        .collect::<Option<_>>()
        .ok_or_else(|| format!("{kind} key has no objective"))
}

/// Instantiates the key's workload, converting generator panics (the
/// generators `assert!` their parameters) into errors — a daemon must
/// survive a malformed job.
fn instantiate(key: &InstanceKey) -> Result<InitialConfig, String> {
    let workload = key.workload;
    let seed = key.seed;
    std::panic::catch_unwind(move || workload.instantiate(seed))
        .map(|init| init.with_faults(key.faults.clone()))
        .map_err(|panic| {
            let detail = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("invalid parameters");
            format!("workload rejected: {detail}")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringdeploy_analysis::Workload;
    use ringdeploy_core::{Algorithm, Schedule};

    fn sweep_key() -> InstanceKey {
        InstanceKey {
            kind: JobKind::Sweep,
            algorithm: Algorithm::FullKnowledge,
            workload: Workload::Random { n: 24, k: 4 },
            schedule: Some(Schedule::Random(3)),
            seed: 3,
            objective: None,
            tier: None,
            faults: ringdeploy_sim::FaultPlan::none(),
        }
    }

    #[test]
    fn equal_keys_render_byte_identical_payloads() {
        let a = compute(&sweep_key()).unwrap().to_string();
        let b = compute(&sweep_key()).unwrap().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn payload_carries_the_key_fingerprint() {
        let key = sweep_key();
        let payload = compute(&key).unwrap();
        let hex: String = payload.field("instance_fingerprint").unwrap();
        assert_eq!(hex, format!("{:016x}", key.fingerprint()));
    }

    #[test]
    fn invalid_workloads_become_errors_not_panics() {
        let key = InstanceKey {
            workload: Workload::Random { n: 4, k: 9 }, // k > n
            ..sweep_key()
        };
        let err = compute(&key).unwrap_err();
        assert!(err.contains("workload rejected"), "{err}");
    }

    #[test]
    fn every_kind_computes_on_a_small_instance() {
        use ringdeploy_analysis::key::JobKind;
        use ringdeploy_analysis::{EvidenceTier, Objective};
        let base = InstanceKey {
            kind: JobKind::Explore,
            algorithm: Algorithm::FullKnowledge,
            workload: Workload::Uniform { n: 8, k: 2 },
            schedule: None,
            seed: 0,
            objective: None,
            tier: None,
            faults: ringdeploy_sim::FaultPlan::none(),
        };
        assert!(compute(&base).is_ok());
        let adversary = InstanceKey {
            kind: JobKind::Adversary,
            objective: Some(Objective::TotalMoves),
            ..base.clone()
        };
        assert!(compute(&adversary).is_ok());
        let certify = InstanceKey {
            kind: JobKind::Certify,
            objective: Some(Objective::TotalMoves),
            tier: Some(EvidenceTier::Adversarial),
            ..base
        };
        let payload = compute(&certify).unwrap();
        let holds: bool = payload.field("holds").unwrap();
        assert!(holds);
    }
}
