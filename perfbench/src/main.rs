//! End-to-end and per-layer benchmark of the tsvr workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|session|query --seed N --seconds S --trace 0|1 [--toy]
//! ```
//!
//! Run from the repository root: scratch archives go to
//! `.perfbench/tmp-<pid>/` (removed on exit) and traced runs write their
//! spans to `.perfbench/out/`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics when untraced, the per-layer metrics when traced.
//! The line before it is a report with the run environment, the
//! correctness gates, sample counts and the workload's own metric names.
//! `perfbench/README.md` describes the workloads and metrics.

mod ingest;
mod net;
mod query;
mod session;
mod trace;
mod util;

use std::path::PathBuf;

use tsvr_obs::json::Json;
use util::{median, peak_rss_mb, Counts, Latency, Metrics, Stopwatch};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Every end-to-end metric, printed by untraced runs of every workload.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mb",
    "ok_frac",
    "throughput_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "stored_bytes_per_frame",
];

// Which end-to-end metric each per-layer metric should move, and on
// which workload.
const INGEST: &str = "throughput_per_s, latency_p50_ms on ingest";
const INGEST_STORE: &str = "throughput_per_s, latency_p50_ms, stored_bytes_per_frame on ingest";
const FEEDBACK: &str = "latency_p50_ms, latency_tail_ms on session (feedback requests)";
const QUERY: &str = "latency_p50_ms, throughput_per_s on query";
const LEARNER: &str =
    "latency_p50_ms, latency_tail_ms on session (feedback requests); nothing on query";
const SERVE: &str = "latency_p50_ms, throughput_per_s on session and query";
const TRANSPORT: &str =
    "latency_p50_ms, latency_tail_ms, throughput_per_s on session and query (open: connect)";
const ACCOUNTING: &str = "none: whether the breakdown accounts for the end-to-end time";

/// A per-layer metric: name, unit, and what it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer { name, unit, moves }
}

/// Every per-layer metric, printed by traced runs of every workload; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [Layer; 39] = [
    layer("vision.render_ns_per_frame", "ns", INGEST),
    layer("vision.bg_ns_per_frame", "ns", INGEST),
    layer("vision.spcpe_ns_per_frame", "ns", INGEST),
    layer("vision.spcpe_iters_per_frame", "count", INGEST),
    layer("vision.blob_ns_per_frame", "ns", INGEST),
    layer("vision.track_ns_per_frame", "ns", INGEST),
    layer("vision.blobs_per_frame", "count", INGEST),
    layer("trajectory.dataset_ms_per_clip", "ms", INGEST),
    layer("core.bags_ms_per_clip", "ms", INGEST),
    layer("core.bundle_ms_per_clip", "ms", INGEST),
    layer("core.index_build_ms_per_clip", "ms", INGEST),
    layer("viddb.put_clip_ms", "ms", INGEST_STORE),
    layer("viddb.sync_ms", "ms", INGEST_STORE),
    layer("viddb.bytes_written_per_clip", "B", INGEST_STORE),
    layer("viddb.checkpoint_ms", "ms", FEEDBACK),
    layer("viddb.load_index_us", "us", QUERY),
    layer("viddb.load_clip_us", "us", QUERY),
    layer("viddb.cache_hit_frac", "frac", QUERY),
    layer("mil.learn_ms", "ms", LEARNER),
    layer("mil.score_all_ms", "ms", LEARNER),
    layer("serve.decode_us", "us", SERVE),
    layer("serve.encode_us", "us", SERVE),
    layer("serve.handle_ms.open", "ms", SERVE),
    layer("serve.handle_ms.page", "ms", SERVE),
    layer("serve.handle_ms.feedback", "ms", SERVE),
    layer("serve.handle_ms.close", "ms", SERVE),
    layer("serve.handle_ms.query", "ms", SERVE),
    layer("serve.transport_ms.open", "ms", TRANSPORT),
    layer("serve.transport_ms.page", "ms", TRANSPORT),
    layer("serve.transport_ms.feedback", "ms", TRANSPORT),
    layer("serve.transport_ms.close", "ms", TRANSPORT),
    layer("serve.transport_ms.query", "ms", TRANSPORT),
    layer("query.parse_us", "us", QUERY),
    layer("query.plan_ms", "ms", QUERY),
    layer("query.shards_pruned_frac", "frac", QUERY),
    layer("query.windows_prefiltered_frac", "frac", QUERY),
    layer("query.windows_ranked_per_query", "count", QUERY),
    layer("layer_sum_frac", "frac", ACCOUNTING),
    layer("trace_overhead_frac", "frac", ACCOUNTING),
];

pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the smoke test.
    pub toy: bool,
    /// Closed-loop client threads (the host's parallelism).
    pub clients: usize,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub layers: Metrics,
    pub counts: Counts,
    /// Correctness gates that ran.
    pub gates: Vec<&'static str>,
    pub gate_failures: Vec<String>,
    /// The first operation errors, for the report.
    pub errors: Vec<String>,
    /// Workload-specific figures for the report line.
    pub report: Metrics,
    pub spans: Vec<trace::Span>,
}

const MAX_MESSAGES: usize = 16;

impl Outcome {
    pub fn fail(&mut self, msg: &str) {
        if self.errors.len() < MAX_MESSAGES {
            eprintln!("perfbench: operation failed: {msg}");
            self.errors.push(msg.to_string());
        }
    }

    pub fn gate_failed(&mut self, msg: &str) {
        if self.gate_failures.len() < MAX_MESSAGES {
            eprintln!("perfbench: correctness gate failed: {msg}");
            self.gate_failures.push(msg.to_string());
        }
    }

    pub fn report(&mut self, name: &str, value: f64, unit: &'static str) {
        self.report.set(name, value, unit);
    }

    pub fn note_latency(&mut self, what: &str, lat: &Latency) {
        self.report(&format!("{what}_samples"), lat.samples as f64, "count");
        self.report(&format!("{what}_tail_pct"), f64::from(lat.tail_pct), "pct");
    }

    /// Merges another outcome's messages (clients, phases).
    pub fn absorb(&mut self, other: Outcome) {
        for e in other.errors {
            self.fail(&e);
        }
        for g in other.gate_failures {
            self.gate_failed(&g);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload ingest|session|query --seed N \
         --seconds S --trace 0|1 [--toy]"
    );
    std::process::exit(2)
}

fn parse_args() -> (String, RunCfg) {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut toy = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--toy" {
            toy = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("missing --workload"));
    if !["ingest", "session", "query"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunCfg {
        seed: seed.unwrap_or_else(|| usage("missing or bad --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing or bad --seconds")),
        trace,
        toy,
        clients,
    };
    (workload, cfg)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn environment(workload: &str, cfg: &RunCfg, steal_frac: f64) -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    let n = |v: f64| Json::Num(v);
    Json::Obj(vec![
        ("workload".into(), s(workload)),
        ("seed".into(), n(cfg.seed as f64)),
        ("seconds".into(), n(cfg.seconds)),
        ("traced".into(), Json::Bool(cfg.trace)),
        ("toy".into(), Json::Bool(cfg.toy)),
        (
            "available_parallelism".into(),
            n(std::thread::available_parallelism().map_or(0, |p| p.get()) as f64),
        ),
        ("par_threads".into(), n(tsvr_par::current_threads() as f64)),
        ("clients".into(), n(cfg.clients as f64)),
        ("cpu_model".into(), s(&cpu_model())),
        ("host_steal_frac".into(), n(steal_frac)),
        ("os".into(), s(std::env::consts::OS)),
        ("arch".into(), s(std::env::consts::ARCH)),
        (
            "profile".into(),
            s(if cfg!(debug_assertions) { "debug" } else { "release" }),
        ),
        (
            "features".into(),
            s("default (obs probes compiled in, as the tsvr CLI ships)"),
        ),
        ("obs_enabled".into(), Json::Bool(tsvr_obs::is_enabled())),
        (
            "fsync_policy".into(),
            s("file-backed ShardedDb in a directory under the checkout; sync before every ingest \
               return and every feedback ack, as `tsvr serve` does"),
        ),
        (
            "transport".into(),
            s("loopback TCP 127.0.0.1, NDJSON, ServerConfig::default(), client TCP_NODELAY, \
               closed loop"),
        ),
    ])
}

fn metrics_json(m: &Metrics) -> Json {
    Json::Obj(
        m.0.iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Median set-up time: on the CPU time the process was given (see
/// [`Stopwatch`]) and on the wall clock.
struct SetupTime {
    available_s: f64,
    wall_s: f64,
}

/// Runs set-up `SETUP_REPS` times (tearing down all but the last) and
/// returns the last one with the median set-up time.
fn timed_setups<S>(
    mut make: impl FnMut(usize) -> S,
    mut teardown: impl FnMut(S),
) -> (S, SetupTime) {
    let (mut available, mut wall) = (Vec::new(), Vec::new());
    let mut last = None;
    for k in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Stopwatch::start();
        last = Some(make(k));
        available.push(t.available_s());
        wall.push(t.wall_s());
    }
    let time = SetupTime {
        available_s: median(&available),
        wall_s: median(&wall),
    };
    (last.expect("at least one set-up"), time)
}

fn main() {
    let (workload, cfg) = parse_args();
    let whole_run = Stopwatch::start();
    let tmp = PathBuf::from(".perfbench").join(format!("tmp-{}", std::process::id()));
    let dir = |k: usize| tmp.join(format!("{workload}-{k}"));
    let (mut out, setup) = match workload.as_str() {
        "ingest" => {
            let (s, t) = timed_setups(|k| ingest::setup(&cfg, &dir(k)), drop);
            trace::enable(cfg.trace);
            let out = ingest::run(&cfg, s);
            trace::enable(false);
            (out, t)
        }
        "session" => {
            let (s, t) = timed_setups(|k| session::setup(&cfg, &dir(k)), session::Setup::teardown);
            (session::run(&cfg, s), t)
        }
        _ => {
            let (s, t) = timed_setups(|k| query::setup(&cfg, &dir(k)), query::Setup::teardown);
            (query::run(&cfg, s), t)
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);

    let mut e2e = Metrics::default();
    e2e.set("setup_s", setup.available_s, "s");
    e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
    e2e.set("ok_frac", out.counts.ok_frac(), "frac");
    for (name, value, unit) in std::mem::take(&mut out.metrics.0) {
        e2e.set(&name, value, unit);
    }
    out.report("failed_frac", 1.0 - out.counts.ok_frac(), "frac");
    out.report("setup_wall_s", setup.wall_s, "s");
    let mut layers = Metrics::default();
    for l in &PER_LAYER {
        layers.set(l.name, out.layers.get(l.name).unwrap_or(0.0), l.unit);
    }
    for name in END_TO_END {
        assert!(e2e.get(name).is_some(), "workload did not measure {name}");
    }

    let trace_file = cfg.trace.then(|| {
        let path = PathBuf::from(".perfbench")
            .join("out")
            .join(format!("trace-{workload}-{}.ndjson", cfg.seed));
        if let Err(e) = trace::write(&path, &out.spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        path.display().to_string()
    });

    let correct = out.gate_failures.is_empty() && !out.gates.is_empty() && out.counts.attempted > 0;
    let report = Json::Obj(vec![
        (
            "environment".into(),
            environment(&workload, &cfg, whole_run.steal_share()),
        ),
        (
            "gates".into(),
            Json::Arr(out.gates.iter().map(|g| Json::Str(g.to_string())).collect()),
        ),
        (
            "gate_failures".into(),
            Json::Arr(
                out.gate_failures
                    .iter()
                    .map(|g| Json::Str(g.clone()))
                    .collect(),
            ),
        ),
        (
            "errors".into(),
            Json::Arr(out.errors.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
        ("workload_metrics".into(), metrics_json(&out.report)),
        (
            "trace_file".into(),
            trace_file.map_or(Json::Null, Json::Str),
        ),
        (
            "layer_moves".into(),
            Json::Obj(
                PER_LAYER
                    .iter()
                    .map(|l| (l.name.to_string(), Json::Str(l.moves.to_string())))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", Json::Obj(vec![("report".into(), report)]));
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.counts.attempted as f64)),
        ("failed".into(), Json::Num(out.counts.failed as f64)),
        (
            "metrics".into(),
            metrics_json(if cfg.trace { &layers } else { &e2e }),
        ),
    ]);
    println!("{result}");
}
