//! CLI `--json` schema round-trip coverage: every JSON report the
//! `ringdeploy` binary emits — deploy, explore, adversary and certify —
//! must parse back through `ringdeploy-json::FromJson` into the typed
//! report it came from, and the field-name sets are pinned so the JSON
//! surface cannot silently drift (downstream consumers parse these by
//! key).

use std::process::Command;

use ringdeploy::json::{FromJson, Json};
use ringdeploy::sim::adversary::WorstCase;
use ringdeploy::sim::explore::ExploreReport;
use ringdeploy::sim::scheduler::Replay;
use ringdeploy::sim::{Ring, RunLimits};
use ringdeploy::{Algorithm, BoundCertificate, DeployReport, FullKnowledge, InitialConfig};

/// Runs the CLI binary and returns the parsed JSON report line (the
/// human "ring n = …" banner precedes it).
fn run_cli(args: &[&str], expect_success: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_ringdeploy"))
        .args(args)
        .output()
        .expect("spawn ringdeploy");
    assert_eq!(
        output.status.success(),
        expect_success,
        "ringdeploy {args:?}: status {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let json_line = stdout
        .lines()
        .find(|line| line.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON line in output:\n{stdout}"));
    Json::parse(json_line).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json_line}"))
}

/// The exact key set of a JSON object — the schema pin.
fn keys(json: &Json) -> Vec<String> {
    let Json::Object(map) = json else {
        panic!("expected object, found {json}");
    };
    map.keys().cloned().collect()
}

fn field<'a>(json: &'a Json, name: &str) -> &'a Json {
    let Json::Object(map) = json else {
        panic!("expected object, found {json}");
    };
    map.get(name)
        .unwrap_or_else(|| panic!("missing field `{name}` in {json}"))
}

#[test]
fn deploy_report_round_trips_with_pinned_fields() {
    let json = run_cli(
        &[
            "--n", "12", "--homes", "0,1,2,3", "--algo", "algo2", "--json",
        ],
        true,
    );
    assert_eq!(
        keys(&json),
        [
            "algorithm",
            "check",
            "ideal_time",
            "instance_fingerprint",
            "k",
            "metrics",
            "n",
            "phases",
            "positions",
            "scheduler",
            "steps",
            "symmetry_degree",
        ],
        "DeployReport JSON schema drifted"
    );
    assert_eq!(
        keys(field(&json, "metrics")),
        [
            "activations",
            "message_receipts",
            "messages_sent",
            "moves",
            "peak_memory_bits",
            "token_releases",
        ],
        "Metrics JSON schema drifted"
    );
    let report = DeployReport::from_json(&json).expect("DeployReport decodes");
    assert_eq!(report.algorithm, Algorithm::LogSpace);
    assert_eq!((report.n, report.k), (12, 4));
    assert!(report.succeeded());
    assert_eq!(report.steps, report.metrics.total_activations());
}

#[test]
fn explore_report_round_trips_with_pinned_fields() {
    let json = run_cli(
        &[
            "--n",
            "8",
            "--homes",
            "0,4",
            "--algo",
            "algo1",
            "--explore",
            "--json",
        ],
        true,
    );
    assert_eq!(
        keys(&json),
        ["algorithm", "k", "mode", "n", "report", "symmetry_degree"],
        "explore envelope schema drifted"
    );
    assert_eq!(field(&json, "mode"), &Json::String("explore".into()));
    assert_eq!(
        keys(field(&json, "report")),
        [
            "instance_fingerprint",
            "max_depth_seen",
            "merge_edges",
            "peak_frontier",
            "states",
            "terminals"
        ],
        "ExploreReport JSON schema drifted"
    );
    let report = ExploreReport::from_json(field(&json, "report")).expect("ExploreReport decodes");
    assert!(report.states > report.terminals);
    assert!(report.terminals >= 1);
}

#[test]
fn adversary_report_round_trips_and_the_decoded_witness_replays() {
    let json = run_cli(
        &[
            "--n",
            "6",
            "--homes",
            "0,3",
            "--algo",
            "algo1",
            "--adversary",
            "moves",
            "--json",
        ],
        true,
    );
    assert_eq!(
        keys(&json),
        ["algorithm", "k", "mode", "n", "report", "symmetry_degree"],
        "adversary envelope schema drifted"
    );
    assert_eq!(field(&json, "mode"), &Json::String("adversary".into()));
    assert_eq!(
        keys(field(&json, "report")),
        [
            "bound_prunes",
            "distinct_states",
            "dominance_prunes",
            "expansions",
            "max_depth_seen",
            "objective",
            "terminal_fingerprint",
            "terminal_hits",
            "value",
            "witness",
        ],
        "WorstCase JSON schema drifted"
    );
    let worst = WorstCase::from_json(field(&json, "report")).expect("WorstCase decodes");
    // The decoded witness is a complete, replayable schedule: drive a
    // fresh ring with it and reproduce the claimed worst case — the
    // JSON surface carries real evidence, not a summary.
    let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
    let mut ring = Ring::new(&init, |_| FullKnowledge::new(2));
    let outcome = ring
        .run(
            &mut Replay::new(worst.witness.clone()),
            RunLimits::default(),
        )
        .expect("decoded witness replays");
    assert!(outcome.quiescent);
    assert_eq!(outcome.metrics.total_moves(), worst.value);
}

#[test]
fn certify_report_round_trips_with_pinned_fields() {
    let json = run_cli(
        &[
            "--n",
            "8",
            "--homes",
            "0,4",
            "--algo",
            "relaxed",
            "--certify",
            "--json",
        ],
        true,
    );
    assert_eq!(
        keys(&json),
        [
            "algorithm",
            "certificates",
            "k",
            "mode",
            "n",
            "symmetry_degree",
            "tier"
        ],
        "certify envelope schema drifted"
    );
    assert_eq!(field(&json, "mode"), &Json::String("certify".into()));
    let certificates = field(&json, "certificates")
        .as_array()
        .expect("certificates is an array");
    assert_eq!(certificates.len(), 3, "one certificate per objective");
    for cert_json in certificates {
        assert_eq!(
            keys(cert_json),
            [
                "algorithm",
                "bound",
                "competitive_ratio",
                "holds",
                "instance_fingerprint",
                "k",
                "n",
                "objective",
                "oracle_moves",
                "search",
                "symmetry_degree",
                "terminal_fingerprint",
                "tier",
                "witness",
                "worst_value",
            ],
            "BoundCertificate JSON schema drifted"
        );
        assert_eq!(
            keys(field(cert_json, "bound")),
            ["constant", "formula", "value"],
            "PaperBound JSON schema drifted"
        );
        let cert = BoundCertificate::from_json(cert_json).expect("BoundCertificate decodes");
        assert_eq!(cert.algorithm, Algorithm::Relaxed);
        assert!(cert.holds(), "{}: bound violated", cert.objective);
        assert!(cert.witness.is_some(), "adversarial tier carries evidence");
        // The emitted `holds` flag must agree with the decoded
        // certificate's own arithmetic.
        assert_eq!(field(cert_json, "holds"), &Json::Bool(cert.holds()));
    }
}

/// Success-path pin for the CI gate: on a real instance every emitted
/// `holds` flag is true and the process exits 0. The *violation* half
/// of the gate — non-zero exit when any certificate fails — cannot be
/// reached from the CLI with a real instance (no recorded bound is
/// violated; that is what the CI `adversary` job asserts), so it is
/// covered by the `violation_error_fires_exactly_on_violated_bounds`
/// unit test inside `src/bin/ringdeploy.rs`, which feeds the decision
/// function a fabricated violated certificate.
#[test]
fn certify_succeeds_with_all_holds_flags_true_on_a_real_instance() {
    let json = run_cli(
        &[
            "--n",
            "6",
            "--homes",
            "0,1",
            "--algo",
            "algo1",
            "--certify",
            "--json",
        ],
        true,
    );
    for cert_json in field(&json, "certificates").as_array().expect("array") {
        assert_eq!(field(cert_json, "holds"), &Json::Bool(true));
    }
}

/// `--g 0` names no group size. Both the single-instance parser and the
/// `--connect` parser refuse it as a usage error (exit 2) instead of
/// silently running `partial-gathering-g1`; the `--connect` case fails
/// before any connection is attempted.
#[test]
fn group_size_zero_is_a_usage_error() {
    let local: &[&str] = &[
        "--n",
        "8",
        "--homes",
        "0,1",
        "--algo",
        "partial-gathering",
        "--g",
        "0",
        "--json",
    ];
    let remote: &[&str] = &[
        "--connect",
        "127.0.0.1:1",
        "--job",
        "certify",
        "--workload",
        "quarter",
        "--n",
        "16",
        "--k",
        "4",
        "--algo",
        "partial-gathering",
        "--g",
        "0",
    ];
    for args in [local, remote] {
        let output = Command::new(env!("CARGO_BIN_EXE_ringdeploy"))
            .args(args)
            .output()
            .expect("spawn ringdeploy");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("--g must be at least 1"),
            "{args:?}: {stderr}"
        );
    }
}

/// Rings past the engine's packed-word limits (n > 65536 or k > 65535)
/// are refused as a usage error (exit 2) before any ring is built,
/// instead of panicking in the engine.
#[test]
fn oversized_rings_are_a_usage_error() {
    let cases: &[&[&str]] = &[
        &["--n", "65537", "--homes", "0,1"],
        &["--n", "100000", "--k", "4", "--adversary", "moves"],
        &["--n", "18446744073709551615", "--homes", "0", "--certify"],
    ];
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_ringdeploy"))
            .args(*args)
            .output()
            .expect("spawn ringdeploy");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("exceed the engine's limits"),
            "{args:?}: {stderr}"
        );
    }
}
