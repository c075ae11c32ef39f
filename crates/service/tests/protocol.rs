//! Wire-protocol pinning tests: every frame round-trips through its
//! JSON encoding, and every encoding's field-name set is pinned so an
//! accidental rename breaks loudly (clients parse these names).

use ringdeploy_analysis::key::{InstanceKey, JobKind};
use ringdeploy_analysis::{EvidenceTier, Objective, SweepSchedule, Workload};
use ringdeploy_core::{Algorithm, Schedule};
use ringdeploy_json::{FromJson, Json, ToJson};
use ringdeploy_service::{
    parse_request, parse_response, Backpressure, CacheStats, JobSpec, Request, Response, RowFrame,
    StatsReport,
};
use ringdeploy_sim::{AgentId, FaultPlan};

fn keys(json: &Json) -> Vec<String> {
    let Json::Object(map) = json else {
        panic!("expected object, found {json}");
    };
    map.keys().cloned().collect()
}

fn round_trip_request(request: &Request) -> Request {
    let line = request.to_json().to_string();
    parse_request(&line).expect("round-trip")
}

fn round_trip_response(response: &Response) -> Response {
    let line = response.to_json().to_string();
    parse_response(&line).expect("round-trip")
}

fn spec() -> JobSpec {
    JobSpec {
        kind: JobKind::Certify,
        algorithms: vec![Algorithm::FullKnowledge, Algorithm::LogSpace],
        workloads: vec![
            Workload::Random { n: 16, k: 4 },
            Workload::Periodic { n: 12, k: 4, l: 2 },
        ],
        schedules: vec![
            SweepSchedule::Preset(Schedule::Random(9)),
            SweepSchedule::RandomPerSeed,
        ],
        objectives: vec![Objective::TotalMoves],
        tier: EvidenceTier::Adversarial,
        seeds: vec![0, 7],
        faults: FaultPlan::none(),
        timeout_ms: None,
    }
}

fn key() -> InstanceKey {
    InstanceKey {
        kind: JobKind::Sweep,
        algorithm: Algorithm::FullKnowledge,
        workload: Workload::Random { n: 32, k: 8 },
        schedule: Some(Schedule::Random(7)),
        seed: 7,
        objective: None,
        tier: None,
        faults: FaultPlan::none(),
    }
}

#[test]
fn every_request_round_trips() {
    let requests = [
        Request::Submit {
            id: 3,
            backpressure: Backpressure::Reject,
            job: spec(),
        },
        Request::Stats,
        Request::Shutdown,
    ];
    for request in &requests {
        assert_eq!(&round_trip_request(request), request);
    }
}

#[test]
fn every_response_round_trips() {
    let stats = StatsReport {
        cache: CacheStats {
            hits: 5,
            misses: 7,
            evictions: 1,
            entries: 6,
            bytes: 4096,
        },
        active_jobs: 2,
        waiting_jobs: 1,
        completed_jobs: 9,
        rejected_jobs: 3,
        cells_computed: 41,
        panics: 1,
        timeouts: 2,
    };
    let responses = [
        Response::Accepted { id: 3, cells: 12 },
        Response::Rejected {
            id: 3,
            reason: "at capacity".to_string(),
        },
        Response::Row(RowFrame {
            id: 3,
            seq: 4,
            cached: true,
            fingerprint: 0xdfa0_b50a_9791_74b7,
            key: key(),
            payload: Json::object([("check", Json::String("ok".to_string()))]),
        }),
        Response::Done {
            id: 3,
            rows: 12,
            cache_hits: 4,
        },
        Response::Error {
            id: Some(3),
            message: "boom".to_string(),
        },
        Response::Error {
            id: None,
            message: "bad frame".to_string(),
        },
        Response::Timeout { id: 3, rows: 5 },
        Response::Stats(stats),
        Response::Bye,
    ];
    for response in &responses {
        assert_eq!(&round_trip_response(response), response);
    }
}

#[test]
fn frame_field_sets_are_pinned() {
    let submit = Request::Submit {
        id: 1,
        backpressure: Backpressure::Block,
        job: spec(),
    };
    assert_eq!(
        keys(&submit.to_json()),
        ["backpressure", "id", "job", "type"]
    );
    assert_eq!(
        keys(&spec().to_json()),
        [
            "algorithms",
            "kind",
            "objectives",
            "schedules",
            "seeds",
            "tier",
            "workloads",
        ]
    );
    let row = Response::Row(RowFrame {
        id: 1,
        seq: 0,
        cached: false,
        fingerprint: 1,
        key: key(),
        payload: Json::Null,
    });
    assert_eq!(
        keys(&row.to_json()),
        [
            "cached",
            "fingerprint",
            "id",
            "key",
            "payload",
            "seq",
            "type"
        ]
    );
    assert_eq!(
        keys(&Response::Accepted { id: 1, cells: 2 }.to_json()),
        ["cells", "id", "type"]
    );
    assert_eq!(
        keys(
            &Response::Done {
                id: 1,
                rows: 2,
                cache_hits: 1
            }
            .to_json()
        ),
        ["cache_hits", "id", "rows", "type"]
    );
    assert_eq!(
        keys(&Response::Timeout { id: 1, rows: 2 }.to_json()),
        ["id", "rows", "type"]
    );
    assert_eq!(
        keys(&Response::Stats(StatsReport::default()).to_json()),
        [
            "active_jobs",
            "cache",
            "cells_computed",
            "completed_jobs",
            "panics",
            "rejected_jobs",
            "timeouts",
            "type",
            "waiting_jobs",
        ]
    );
    assert_eq!(
        keys(&CacheStats::default().to_json()),
        ["bytes", "entries", "evictions", "hits", "misses"]
    );
}

/// The fingerprint crosses the wire as 16 hex digits — JSON numbers only
/// round-trip 53 bits.
#[test]
fn row_fingerprint_is_hex_encoded_full_width() {
    let row = Response::Row(RowFrame {
        id: 1,
        seq: 0,
        cached: false,
        fingerprint: u64::MAX,
        key: key(),
        payload: Json::Null,
    });
    let json = row.to_json();
    let hex: String = json.field("fingerprint").expect("fingerprint field");
    assert_eq!(hex, "ffffffffffffffff");
    let Response::Row(back) = Response::from_json(&json).expect("decode") else {
        panic!("expected row frame");
    };
    assert_eq!(back.fingerprint, u64::MAX);
}

/// Submit defaults: backpressure, tier and seeds may be omitted.
#[test]
fn submit_defaults_are_applied_on_decode() {
    let line = r#"{"type":"submit","id":9,"job":{"kind":"sweep",
        "algorithms":["algo1-full-knowledge"],
        "workloads":[{"family":"random","n":16,"k":4}]}}"#
        .replace('\n', " ");
    let Request::Submit {
        id,
        backpressure,
        job,
    } = parse_request(&line).expect("decode")
    else {
        panic!("expected submit");
    };
    assert_eq!(id, 9);
    assert_eq!(backpressure, Backpressure::Block);
    assert_eq!(job.kind, JobKind::Sweep);
    assert_eq!(job.tier, EvidenceTier::Adversarial);
    assert_eq!(job.seeds, vec![0]);
    assert!(job.schedules.is_empty());
    assert!(job.objectives.is_empty());
}

#[test]
fn malformed_frames_are_errors_not_panics() {
    assert!(parse_request("not json").is_err());
    assert!(parse_request("{\"type\":\"warp\"}").is_err());
    assert!(parse_request("{\"no\":\"type\"}").is_err());
    assert!(parse_response("{\"type\":\"warp\"}").is_err());
}

/// The canonical wire encoding of a frame is deterministic (sorted
/// keys, no whitespace) — the cache byte-identity guarantee needs this.
#[test]
fn frame_encoding_is_deterministic() {
    let frame = Response::Row(RowFrame {
        id: 2,
        seq: 1,
        cached: true,
        fingerprint: 0xdfa0_b50a_9791_74b7,
        key: key(),
        payload: Json::object([("b", 1u64.to_json()), ("a", 2u64.to_json())]),
    });
    let first = frame.to_json().to_string();
    let second = frame.to_json().to_string();
    assert_eq!(first, second);
    assert!(first.contains(r#""a":2,"b":1"#), "keys sorted: {first}");
    assert!(!first.contains('\n'));
}

/// Fault-plan and deadline plumbing: a faulty spec round-trips, emits
/// the two extra fields, and every expanded key carries the plan — while
/// the fault-free spec's encoding stays byte-identical to the pre-fault
/// protocol (pinned by `frame_field_sets_are_pinned` above).
#[test]
fn fault_plans_and_deadlines_ride_the_job_spec() {
    let plan = FaultPlan::none()
        .with_crash(AgentId(2), 3)
        .with_edge_outages(1);
    let job = JobSpec {
        kind: JobKind::Sweep,
        objectives: Vec::new(),
        schedules: Vec::new(),
        ..spec()
    }
    .faults(plan.clone())
    .timeout_ms(1500);
    assert_eq!(
        keys(&job.to_json()),
        [
            "algorithms",
            "faults",
            "kind",
            "objectives",
            "schedules",
            "seeds",
            "tier",
            "timeout_ms",
            "workloads",
        ]
    );
    let line = Request::Submit {
        id: 4,
        backpressure: Backpressure::Block,
        job: job.clone(),
    }
    .to_json()
    .to_string();
    let Request::Submit { job: back, .. } = parse_request(&line).expect("decode") else {
        panic!("expected submit");
    };
    assert_eq!(back, job);
    let expanded = job.keys().expect("expansion");
    assert!(!expanded.is_empty());
    assert!(expanded.iter().all(|k| k.faults == plan));
    // Same spec without faults expands to fault-free keys whose
    // canonical encodings never mention the field.
    let bare = JobSpec {
        faults: FaultPlan::none(),
        ..job
    };
    for key in bare.keys().expect("expansion") {
        assert!(key.faults.is_empty());
        assert!(!key.canonical().contains("faults"));
    }
}

/// Cache-identity separation across problem families: two keys that
/// agree on every dimension except the family must produce distinct
/// canonical encodings *and* distinct FNV fingerprints — otherwise the
/// daemon would serve a uniform-deployment result for a gathering
/// request (or a g=2 result for a g=3 one) straight from the cache.
#[test]
fn cache_keys_never_collide_across_families() {
    let families = [
        Algorithm::FullKnowledge,
        Algorithm::LogSpace,
        Algorithm::Relaxed,
        Algorithm::partial_gathering(2),
        Algorithm::partial_gathering(3),
    ];
    let keys: Vec<InstanceKey> = families
        .iter()
        .map(|&algorithm| InstanceKey { algorithm, ..key() })
        .collect();
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(
                a.canonical(),
                b.canonical(),
                "canonical encodings must differ: {} vs {}",
                a.label(),
                b.label()
            );
            assert_ne!(
                a.fingerprint(),
                b.fingerprint(),
                "fingerprints must differ: {} vs {}",
                a.label(),
                b.label()
            );
        }
    }
}

/// The gathering family name survives the wire: an `InstanceKey`
/// carrying `partial-gathering-g3` round-trips through its canonical
/// JSON back to the *same interned* family handle.
#[test]
fn gathering_family_round_trips_through_the_wire_encoding() {
    let original = InstanceKey {
        algorithm: Algorithm::partial_gathering(3),
        ..key()
    };
    let encoded = original.to_json();
    assert!(
        encoded
            .to_string()
            .contains(r#""algorithm":"partial-gathering-g3""#),
        "canonical name on the wire: {encoded}"
    );
    let decoded = InstanceKey::from_json(&encoded).expect("round-trip");
    assert_eq!(decoded, original);
    assert_eq!(decoded.fingerprint(), original.fingerprint());
}

/// Pins the exact key order of every kind: algorithms → workloads →
/// {schedules | objectives | one empty slot} → seeds, with
/// `RandomPerSeed` resolved to the cell's seed and the defaulted
/// schedule, objective and seed dimensions filled in. Rows stream in
/// this order and cache keys are built from it, so it must not drift.
#[test]
fn job_spec_keys_are_pinned_for_every_kind() {
    let labels = |job: &JobSpec| -> Vec<String> {
        job.keys()
            .expect("expansion")
            .iter()
            .map(InstanceKey::label)
            .collect()
    };
    let grid = |kind| JobSpec {
        kind,
        objectives: vec![Objective::TotalMoves, Objective::PeakMemoryBits],
        ..spec()
    };
    // One algorithm × one workload with every defaultable dimension empty.
    let defaulted = |kind| JobSpec {
        kind,
        algorithms: vec![Algorithm::Relaxed],
        workloads: vec![Workload::Uniform { n: 8, k: 4 }],
        schedules: Vec::new(),
        objectives: Vec::new(),
        seeds: Vec::new(),
        tier: EvidenceTier::Sweep,
        ..spec()
    };

    assert_eq!(
        labels(&grid(JobKind::Sweep)),
        [
            "sweep:algo1-full-knowledge:random(n=16,k=4):seed0:random(9)",
            "sweep:algo1-full-knowledge:random(n=16,k=4):seed7:random(9)",
            "sweep:algo1-full-knowledge:random(n=16,k=4):seed0:random(0)",
            "sweep:algo1-full-knowledge:random(n=16,k=4):seed7:random(7)",
            "sweep:algo1-full-knowledge:periodic(n=12,k=4,l=2):seed0:random(9)",
            "sweep:algo1-full-knowledge:periodic(n=12,k=4,l=2):seed7:random(9)",
            "sweep:algo1-full-knowledge:periodic(n=12,k=4,l=2):seed0:random(0)",
            "sweep:algo1-full-knowledge:periodic(n=12,k=4,l=2):seed7:random(7)",
            "sweep:algo2-log-space:random(n=16,k=4):seed0:random(9)",
            "sweep:algo2-log-space:random(n=16,k=4):seed7:random(9)",
            "sweep:algo2-log-space:random(n=16,k=4):seed0:random(0)",
            "sweep:algo2-log-space:random(n=16,k=4):seed7:random(7)",
            "sweep:algo2-log-space:periodic(n=12,k=4,l=2):seed0:random(9)",
            "sweep:algo2-log-space:periodic(n=12,k=4,l=2):seed7:random(9)",
            "sweep:algo2-log-space:periodic(n=12,k=4,l=2):seed0:random(0)",
            "sweep:algo2-log-space:periodic(n=12,k=4,l=2):seed7:random(7)",
        ]
    );
    assert_eq!(
        labels(&grid(JobKind::Explore)),
        [
            "explore:algo1-full-knowledge:random(n=16,k=4):seed0",
            "explore:algo1-full-knowledge:random(n=16,k=4):seed7",
            "explore:algo1-full-knowledge:periodic(n=12,k=4,l=2):seed0",
            "explore:algo1-full-knowledge:periodic(n=12,k=4,l=2):seed7",
            "explore:algo2-log-space:random(n=16,k=4):seed0",
            "explore:algo2-log-space:random(n=16,k=4):seed7",
            "explore:algo2-log-space:periodic(n=12,k=4,l=2):seed0",
            "explore:algo2-log-space:periodic(n=12,k=4,l=2):seed7",
        ]
    );
    let objective_grid = [
        "algo1-full-knowledge:random(n=16,k=4):seed0:total-moves",
        "algo1-full-knowledge:random(n=16,k=4):seed7:total-moves",
        "algo1-full-knowledge:random(n=16,k=4):seed0:peak-memory-bits",
        "algo1-full-knowledge:random(n=16,k=4):seed7:peak-memory-bits",
        "algo1-full-knowledge:periodic(n=12,k=4,l=2):seed0:total-moves",
        "algo1-full-knowledge:periodic(n=12,k=4,l=2):seed7:total-moves",
        "algo1-full-knowledge:periodic(n=12,k=4,l=2):seed0:peak-memory-bits",
        "algo1-full-knowledge:periodic(n=12,k=4,l=2):seed7:peak-memory-bits",
        "algo2-log-space:random(n=16,k=4):seed0:total-moves",
        "algo2-log-space:random(n=16,k=4):seed7:total-moves",
        "algo2-log-space:random(n=16,k=4):seed0:peak-memory-bits",
        "algo2-log-space:random(n=16,k=4):seed7:peak-memory-bits",
        "algo2-log-space:periodic(n=12,k=4,l=2):seed0:total-moves",
        "algo2-log-space:periodic(n=12,k=4,l=2):seed7:total-moves",
        "algo2-log-space:periodic(n=12,k=4,l=2):seed0:peak-memory-bits",
        "algo2-log-space:periodic(n=12,k=4,l=2):seed7:peak-memory-bits",
    ];
    assert_eq!(
        labels(&grid(JobKind::Adversary)),
        objective_grid.map(|cell| format!("adversary:{cell}"))
    );
    assert_eq!(
        labels(&grid(JobKind::Certify)),
        objective_grid.map(|cell| format!("certify:{cell}:adversarial"))
    );

    assert_eq!(
        labels(&defaulted(JobKind::Sweep)),
        ["sweep:algo4-relaxed:uniform(n=8,k=4):seed0:random(0)"]
    );
    assert_eq!(
        labels(&defaulted(JobKind::Explore)),
        ["explore:algo4-relaxed:uniform(n=8,k=4):seed0"]
    );
    assert_eq!(
        labels(&defaulted(JobKind::Adversary)),
        [
            "adversary:algo4-relaxed:uniform(n=8,k=4):seed0:total-moves",
            "adversary:algo4-relaxed:uniform(n=8,k=4):seed0:total-activations",
            "adversary:algo4-relaxed:uniform(n=8,k=4):seed0:peak-memory-bits",
        ]
    );
    assert_eq!(
        labels(&defaulted(JobKind::Certify)),
        [
            "certify:algo4-relaxed:uniform(n=8,k=4):seed0:total-moves:sweep",
            "certify:algo4-relaxed:uniform(n=8,k=4):seed0:total-activations:sweep",
            "certify:algo4-relaxed:uniform(n=8,k=4):seed0:peak-memory-bits:sweep",
        ]
    );

    for kind in JobKind::ALL {
        let no_algorithms = JobSpec {
            algorithms: Vec::new(),
            ..grid(kind)
        };
        assert!(
            no_algorithms.keys().is_err(),
            "{kind}: empty algorithm list"
        );
        let no_workloads = JobSpec {
            workloads: Vec::new(),
            ..grid(kind)
        };
        assert!(no_workloads.keys().is_err(), "{kind}: empty workload list");
    }
}
