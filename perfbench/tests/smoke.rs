//! Runs every workload at toy size, untraced and traced, and checks
//! each result line against `BENCHMARK.json`: every declared metric is
//! present, finite and carries its declared unit, nothing undeclared is
//! printed, and the workload's correctness gates ran and passed. A
//! change that drops or renames a metric fails here.

use std::path::Path;
use std::process::{Command, Output};

use tsvr_obs::json::Json;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(manifest: &Json, list: &str) -> Vec<(String, String)> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn perfbench")
}

/// Runs one toy workload; returns the report line and the result line.
fn run(workload: &str, trace: bool) -> (Json, Json) {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
        "--toy",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected report + result lines"
    );
    let report = Json::parse(lines[lines.len() - 2]).expect("report line parses");
    let result = Json::parse(lines[lines.len() - 1]).expect("result line parses");
    (report.get("report").expect("report object").clone(), result)
}

/// Layers a traced run of each workload must measure as nonzero.
fn exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "ingest" => &[
            "vision.",
            "trajectory.",
            "core.",
            "viddb.put_clip",
            "viddb.sync",
        ],
        "session" => &[
            "mil.",
            "viddb.checkpoint",
            "serve.decode",
            "serve.handle_ms.feedback",
        ],
        _ => &[
            "query.parse",
            "query.plan",
            "viddb.load_",
            "serve.transport_ms.query",
        ],
    }
}

fn check(workload: &str, trace: bool) {
    let manifest = manifest();
    let (report, result) = run(workload, trace);
    let list = if trace { "per_layer" } else { "end_to_end" };
    let want = declared(&manifest, list);

    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {report}"
    );
    let attempted = result
        .get("attempted")
        .and_then(Json::as_u64)
        .expect("attempted");
    assert!(attempted >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let gates = report.get("gates").and_then(Json::as_arr).expect("gates");
    assert!(!gates.is_empty(), "{workload}: no correctness gate ran");
    assert_eq!(
        report.get("gate_failures").and_then(Json::as_arr),
        Some(&[][..])
    );

    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        got, names,
        "{workload} ({list}): metric names differ from BENCHMARK.json"
    );
    for ((name, unit), (_, m)) in want.iter().zip(metrics) {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} is not a finite number: {m}"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        if !trace {
            assert!(value != Some(0.0), "{workload}: end-to-end {name} reads 0");
        } else if exercised(workload).iter().any(|p| name.starts_with(p)) {
            assert!(
                value > Some(0.0),
                "{workload}: layer {name} was not measured"
            );
        }
    }
    if trace {
        let file = report
            .get("trace_file")
            .and_then(Json::as_str)
            .expect("trace file");
        let spans = std::fs::read_to_string(Path::new(env!("CARGO_TARGET_TMPDIR")).join(file))
            .expect("read trace file");
        assert!(spans.lines().count() > 0, "{workload}: empty trace");
    }
}

#[test]
fn ingest_reports_every_metric() {
    check("ingest", false);
    check("ingest", true);
}

#[test]
fn session_reports_every_metric() {
    check("session", false);
    check("session", true);
}

#[test]
fn query_reports_every_metric() {
    check("query", false);
    check("query", true);
}

#[test]
fn manifest_lists_exactly_the_workloads() {
    let manifest = manifest();
    let names: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, ["ingest", "session", "query"]);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "ingest", "--seed", "1", "--trace", "0"],
        &[
            "--workload",
            "ingest",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
