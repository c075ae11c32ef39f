//! The benchmark's own tests: seeded generators are deterministic, every
//! key they can produce has a pinned outcome, a smoke-sized run of each
//! workload passes the correctness gate and reports every named metric in
//! both modes, and the metric tables agree with `BENCHMARK.json`.

use std::collections::BTreeSet;

use ringdeploy_json::Json;
use ringdeploy_perfbench::pinned::{self, PinTable};
use ringdeploy_perfbench::plan::{self, WarmDraws, Workload};
use ringdeploy_perfbench::report::{self, END_TO_END, PER_LAYER};
use ringdeploy_perfbench::run::Options;

fn specs(jobs: &[plan::PlannedJob]) -> Vec<String> {
    jobs.iter().map(|job| format!("{:?}", job.spec)).collect()
}

fn draws(seed: u64, client: usize, count: usize) -> Vec<plan::PlannedJob> {
    let catalogue = plan::warm_catalogue(false);
    let mut draws = WarmDraws::new(seed, client, &catalogue);
    (0..count).map(|_| draws.next(&catalogue)).collect()
}

#[test]
fn a_fixed_seed_yields_an_identical_job_list() {
    for smoke in [false, true] {
        assert_eq!(
            specs(&plan::cold_campaign(7, 3, smoke)),
            specs(&plan::cold_campaign(7, 3, smoke))
        );
        assert_eq!(
            specs(&plan::large_sweep(7, 3, smoke)),
            specs(&plan::large_sweep(7, 3, smoke))
        );
        assert_eq!(
            specs(&plan::warm_catalogue(smoke)),
            specs(&plan::warm_catalogue(smoke))
        );
    }
    assert_eq!(draws(7, 0, 500), draws(7, 0, 500));
    assert_ne!(
        specs(&plan::cold_campaign(7, 0, false)),
        specs(&plan::cold_campaign(8, 0, false))
    );
    assert_ne!(draws(7, 0, 200), draws(8, 0, 200));
}

#[test]
fn seeds_reorder_the_same_cells() {
    let cells = |jobs: Vec<plan::PlannedJob>| -> BTreeSet<String> {
        jobs.into_iter()
            .flat_map(|job| job.keys)
            .map(|key| pinned::class_of(&key))
            .collect()
    };
    assert_eq!(
        cells(plan::cold_campaign(1, 0, false)),
        cells(plan::cold_campaign(2, 5, false))
    );
    let round = plan::cold_campaign(1, 0, false);
    assert_eq!(round.len(), 18);
    assert_eq!(round.iter().map(|j| j.keys.len()).sum::<usize>(), 224);
    let large = plan::large_sweep(1, 0, false);
    assert_eq!(
        (
            large.len(),
            large.iter().map(|j| j.keys.len()).sum::<usize>()
        ),
        (16, 32)
    );
}

#[test]
fn cold_rounds_never_share_a_key_and_warm_fresh_keys_are_disjoint() {
    let mut seen = BTreeSet::new();
    for round in 0..4 {
        for key in plan::cold_campaign(3, round, false)
            .into_iter()
            .flat_map(|j| j.keys)
        {
            assert!(seen.insert(key.canonical()), "{} repeats", key.label());
        }
    }
    let fresh = |client| -> BTreeSet<String> {
        draws(3, client, 2000)
            .into_iter()
            .filter(|job| job.fresh)
            .flat_map(|job| job.keys)
            .map(|key| key.canonical())
            .collect()
    };
    let (a, b) = (fresh(0), fresh(1));
    assert!(!a.is_empty() && !b.is_empty());
    assert!(a.is_disjoint(&b));
}

#[test]
fn every_generated_key_has_a_pinned_outcome() {
    let table = PinTable::compiled();
    let mut keys = plan::universe();
    for seed in 0..4 {
        for round in 0..3 {
            keys.extend(
                plan::cold_campaign(seed, round, false)
                    .into_iter()
                    .flat_map(|j| j.keys),
            );
            keys.extend(
                plan::large_sweep(seed, round, false)
                    .into_iter()
                    .flat_map(|j| j.keys),
            );
        }
        for client in 0..2 {
            keys.extend(draws(seed, client, 300).into_iter().flat_map(|j| j.keys));
        }
    }
    for key in &keys {
        assert!(table.get(key).is_some(), "{} is not pinned", key.label());
    }
}

#[test]
fn pinned_outcomes_match_the_engine_on_small_cells() {
    let table = PinTable::compiled();
    let mut checked = 0;
    for job in plan::cold_campaign(0, 0, true) {
        for key in job.keys {
            let outcome = pinned::outcome(&key).expect("labelled outcome");
            assert_eq!(table.get(&key), Some(&outcome), "{}", key.label());
            checked += 1;
        }
    }
    assert!(checked > 0);
}

fn names(outcome: &report::Outcome) -> Vec<&str> {
    outcome.metrics.iter().map(|&(name, _, _)| name).collect()
}

#[test]
fn a_smoke_run_of_every_workload_passes_the_gate_and_reports_every_metric() {
    for workload in Workload::ALL {
        let options = Options {
            workload,
            seed: 11,
            seconds: 0.0,
            smoke: true,
        };
        let untraced = report::untraced(&options).expect("untraced smoke run");
        assert!(
            untraced.correct(),
            "{}: {:?}",
            workload.name(),
            untraced.problems
        );
        assert!(untraced.attempted > 0);
        let expected: Vec<&str> = END_TO_END.iter().map(|&(name, _)| name).collect();
        assert_eq!(names(&untraced), expected);
        assert!(untraced
            .metrics
            .iter()
            .all(|&(_, v, _)| v.is_finite() && v > 0.0));

        let traced = report::traced(&options).expect("traced smoke run");
        assert!(
            traced.correct(),
            "{}: {:?}",
            workload.name(),
            traced.problems
        );
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(name, _)| name).collect();
        assert_eq!(names(&traced), expected);
        assert!(traced.metrics.iter().all(|&(_, v, _)| v.is_finite()));

        let summary = traced.summary();
        let keys: Vec<&String> = match &summary {
            Json::Object(map) => map.keys().collect(),
            other => panic!("summary is not an object: {other}"),
        };
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let section = |name: &str| -> Vec<Json> {
        match &json {
            Json::Object(map) => map[name].as_array().expect("an array").to_vec(),
            other => panic!("BENCHMARK.json is not an object: {other}"),
        }
    };
    let listed = |name: &str| -> Vec<(String, String)> {
        section(name)
            .iter()
            .map(|m| (m.field("name").unwrap(), m.field("unit").unwrap()))
            .collect()
    };
    let table = |rows: &[(&str, &str)]| -> Vec<(String, String)> {
        rows.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(&END_TO_END));
    assert_eq!(listed("per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = section("workloads")
        .iter()
        .map(|w| w.field("name").unwrap())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
