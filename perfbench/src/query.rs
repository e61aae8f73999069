//! The `query` workload: seeded query-language expressions sent as
//! `{"op":"query"}` over loopback TCP by a closed loop of clients,
//! against an archive with one shard larger than the per-shard bundle
//! cache, so event predicates that load bundles miss it.
//!
//! The traced run times the same request on an in-process twin
//! `Service`, runs `parse` and `Planner::run` in process on another
//! copy of the archive, and probes `load_index` / `load_clip` on a
//! third.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tsvr_core::{
    build_index, bundle_from_clip, parse_query, prepare_clip, ClipArtifacts, PipelineOptions,
    PlanStats, Planner, Scorer,
};
use tsvr_serve::{
    decode_request, encode_response, Request, Response, Server, ServerConfig, Service,
    ServiceConfig,
};
use tsvr_sim::Scenario;
use tsvr_viddb::{AnyDb, CacheStats, ClipMeta, ShardedDb};

use crate::net::{
    closed_loop, handle_span, op_index, rtt_span, serve_layers, ClientLog, Conn, Phase, RttLog,
};
use crate::trace::{self, span};
use crate::util::{copy_dir, dir_bytes, latency, median, Rng, CONTENT_SEED};
use crate::{Outcome, RunCfg};

const TOP_K: usize = 20;
const HOUR: u64 = 3600;
/// Distinct expressions generated per seed.
const EXPRESSIONS: usize = 48;

/// Archive shape: `cameras × hours` shards of `small` clips each,
/// except `(cam-00, hour 0)`, which holds `big` clips — more than the
/// per-shard bundle cache (`viddb::db::DEFAULT_CACHE_CAPACITY` = 8).
struct Shape {
    cameras: u64,
    hours: u64,
    small: u64,
    big: u64,
}

fn shape(toy: bool) -> Shape {
    if toy {
        Shape {
            cameras: 2,
            hours: 1,
            small: 2,
            big: 10,
        }
    } else {
        Shape {
            cameras: 4,
            hours: 3,
            small: 2,
            big: 12,
        }
    }
}

pub struct Setup {
    dir: PathBuf,
    server: Option<Server>,
    exprs: Vec<String>,
    /// The byte-exact reply line `Planner::run` implies per expression.
    expected: Vec<String>,
    clip_ids: Vec<u64>,
    /// Clips of the shard larger than the bundle cache.
    big_shard: Vec<u64>,
    frames: u64,
    stored_bytes_per_frame: f64,
    twin: Option<Twin>,
}

/// Traced-run copies of the archive.
struct Twin {
    service: Arc<Service>,
    plan_db: Mutex<AnyDb>,
    probe_db: Mutex<AnyDb>,
}

impl Setup {
    pub fn teardown(mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        drop(self.twin.take());
        for suffix in ["", "twin", "plan", "probe"] {
            let _ = std::fs::remove_dir_all(self.dir.with_extension(suffix));
        }
    }
}

/// The expression mix: the same number of each kind — unfiltered,
/// camera, camera + time, two α-range forms and event predicates (which
/// load bundles) — with seeded parameters, in seeded order.
fn expressions(rng: &mut Rng, shape: &Shape) -> Vec<String> {
    const KINDS: usize = 6;
    let cam = |rng: &mut Rng| format!("cam-{:02}", rng.below(shape.cameras));
    let mut exprs: Vec<String> = (0..EXPRESSIONS)
        .map(|i| match i % KINDS {
            0 => "all".to_string(),
            1 => format!("camera = {}", cam(rng)),
            2 => {
                let from = rng.below(shape.hours) * HOUR;
                let len = 600 + rng.below(3) * 1200;
                format!("camera = {} and time in [{from}, {}]", cam(rng), from + len)
            }
            3 => format!("vdiff >= {}", [0.25, 0.5, 1.0][rng.below(3) as usize]),
            4 => format!("theta in [0.1, {}]", [0.5, 1.0, 2.0][rng.below(3) as usize]),
            _ => match rng.below(3) {
                0 => "event = accident".to_string(),
                1 => "event = accident and camera = cam-00".to_string(),
                _ => format!("event = speeding and camera in (cam-00, {})", cam(rng)),
            },
        })
        .collect();
    rng.shuffle(&mut exprs);
    exprs
}

fn pool(toy: bool) -> Vec<ClipArtifacts> {
    let mut tunnel = Scenario::tunnel_small(CONTENT_SEED);
    let mut crossing = Scenario::intersection_paper(CONTENT_SEED);
    if toy {
        tunnel.total_frames = 150;
        crossing.total_frames = 150;
    }
    [tunnel, crossing]
        .iter()
        .map(|s| prepare_clip(s, &PipelineOptions::default()))
        .collect()
}

fn query_line(expr: &str) -> Request {
    Request::Query {
        expr: expr.to_string(),
        k: Some(TOP_K),
    }
}

pub fn setup(cfg: &RunCfg, dir: &Path) -> Setup {
    let mut rng = Rng::new(cfg.seed ^ 0x0E_4E47);
    let shape = shape(cfg.toy);
    let pool = pool(cfg.toy);
    let _ = std::fs::remove_dir_all(dir);
    let mut db = ShardedDb::open(dir).expect("open query archive");
    let mut clip_ids = Vec::new();
    let mut big_shard = Vec::new();
    let mut frames = 0u64;
    for cam in 0..shape.cameras {
        for hour in 0..shape.hours {
            let n = if cam == 0 && hour == 0 {
                shape.big
            } else {
                shape.small
            };
            for k in 0..n {
                let clip_id = clip_ids.len() as u64 + 1;
                let art = &pool[clip_id as usize % pool.len()];
                let meta = ClipMeta {
                    clip_id,
                    name: format!("q-{clip_id}"),
                    location: "query".into(),
                    camera: format!("cam-{cam:02}"),
                    start_time: hour * HOUR + 60 + k * 240,
                    frame_count: art.sim.frames.len() as u32,
                    width: art.sim.width,
                    height: art.sim.height,
                };
                frames += art.sim.frames.len() as u64;
                db.put_clip(&bundle_from_clip(art, meta))
                    .expect("store clip");
                let shard = db.shard_for_clip_mut(clip_id).expect("shard for clip");
                build_index(shard, clip_id, &art.dataset).expect("build index");
                clip_ids.push(clip_id);
                if cam == 0 && hour == 0 {
                    big_shard.push(clip_id);
                }
            }
        }
    }
    db.sync().expect("sync archive");
    let stored_bytes_per_frame = dir_bytes(dir) as f64 / frames as f64;

    let exprs = expressions(&mut rng, &shape);
    let mut db: AnyDb = db.into();
    let expected: Vec<String> = exprs
        .iter()
        .map(|e| {
            let q = parse_query(e).expect("generated expressions parse");
            let out = Planner::new(TOP_K)
                .run(&mut db, &q, Scorer::Heuristic)
                .expect("planner reference");
            encode_response(&Response::QueryResult {
                ranking: out.ranking,
                stats: out.stats,
                degraded: out.degraded,
            })
        })
        .collect();
    drop(db);

    let twin = cfg.trace.then(|| {
        let copy = |suffix: &str| {
            let to = dir.with_extension(suffix);
            let _ = std::fs::remove_dir_all(&to);
            copy_dir(dir, &to).expect("copy archive");
            AnyDb::open(&to).expect("open archive copy")
        };
        Twin {
            service: Arc::new(Service::new(copy("twin"), ServiceConfig::default())),
            plan_db: Mutex::new(copy("plan")),
            probe_db: Mutex::new(copy("probe")),
        }
    });
    let service = Arc::new(Service::new(
        AnyDb::open(dir).expect("reopen archive"),
        ServiceConfig::default(),
    ));
    let server =
        Server::start(service, "127.0.0.1:0", ServerConfig::default()).expect("start server");
    let setup = Setup {
        dir: dir.to_path_buf(),
        server: Some(server),
        exprs,
        expected,
        clip_ids,
        big_shard,
        frames,
        stored_bytes_per_frame,
        twin,
    };
    // Warm-up: the unfiltered query and an event query read every
    // stored index and bundle once.
    let warm: Vec<usize> = ["all", "event = accident"]
        .iter()
        .filter_map(|w| setup.exprs.iter().position(|e| e == w))
        .collect();
    let c = client(
        &setup,
        &warm,
        Instant::now(),
        f64::INFINITY,
        Some(warm.len()),
    );
    if let Some(e) = c.out.gate_failures.first().or(c.out.errors.first()) {
        panic!("query warm-up failed: {e}");
    }
    setup
}

/// Traced-run aggregates across clients.
#[derive(Default)]
struct PlanTotals {
    stats: Vec<PlanStats>,
    cache: CacheStats,
    probe: usize,
}

/// One closed-loop client: sends `order` round-robin until `secs` have
/// passed since `started` (or `limit` requests), checking every reply
/// byte for byte.
fn client(
    setup: &Setup,
    order: &[usize],
    started: Instant,
    secs: f64,
    limit: Option<usize>,
) -> ClientLog<PlanTotals> {
    let addr = setup.server.as_ref().expect("server running").addr();
    let op = op_index("query");
    let mut c = ClientLog::<PlanTotals>::default();
    let ClientLog {
        log,
        counts,
        out,
        extra: totals,
    } = &mut c;
    let mut conn: Option<Conn> = None;
    let mut sent = 0usize;
    while started.elapsed().as_secs_f64() < secs && limit.is_none_or(|l| sent < l) {
        let e = order[sent % order.len()];
        sent += 1;
        trace::set_request(sent as u64);
        counts.attempted += 1;
        if conn.is_none() {
            match Conn::connect(addr) {
                Ok(c) => conn = Some(c),
                Err(err) => {
                    counts.failed += 1;
                    out.fail(&format!("connect: {err}"));
                    continue;
                }
            }
        }
        let result = {
            let _s = span(rtt_span(op));
            conn.as_mut()
                .expect("connected above")
                .call(query_line(&setup.exprs[e]))
        };
        let (line, reply) = match result {
            Ok(r) => r,
            Err(err) => {
                counts.failed += 1;
                out.fail(&err);
                conn = None;
                continue;
            }
        };
        if let Response::Error(err) = &reply.resp {
            counts.failed += 1;
            out.fail(&format!("query {:?}: {err:?}", setup.exprs[e]));
            continue;
        }
        if reply.line != setup.expected[e] {
            counts.failed += 1;
            out.gate_failed(&format!(
                "query {:?}: TCP reply differs from in-process Planner::run",
                setup.exprs[e]
            ));
            continue;
        }
        log.record(op, reply.rtt_ns);
        if trace::enabled() {
            traced_twin(setup, e, &line, &reply, op, log, totals, out);
        }
    }
    c
}

#[allow(clippy::too_many_arguments)]
fn traced_twin(
    setup: &Setup,
    e: usize,
    line: &str,
    reply: &crate::net::Reply,
    op: usize,
    log: &mut RttLog,
    totals: &mut PlanTotals,
    out: &mut Outcome,
) {
    let twin = setup.twin.as_ref().expect("traced runs have twins");
    let (env, decode_ns) = trace::timed("serve.decode", || decode_request(line));
    let env = env.expect("the server accepted this request line");
    let (resp, handle_ns) = trace::timed(handle_span(op), || twin.service.handle(&env));
    let (twin_line, encode_ns) = trace::timed("serve.encode", || encode_response(&resp));
    log.traced.push((
        op,
        [
            reply.rtt_ns,
            reply.parse_ns,
            decode_ns,
            handle_ns,
            encode_ns,
        ],
    ));
    if twin_line != reply.line {
        out.gate_failed("twin service reply differs from TCP");
    }

    let (q, _) = trace::timed("query.parse", || parse_query(&setup.exprs[e]));
    let q = q.expect("generated expressions parse");
    {
        let mut db = twin.plan_db.lock().expect("plan archive lock poisoned");
        let before = cache_stats(&db);
        let (plan, _) = trace::timed("query.plan", || {
            Planner::new(TOP_K).run(&mut db, &q, Scorer::Heuristic)
        });
        let after = cache_stats(&db);
        totals.cache.hits += after.hits - before.hits;
        totals.cache.misses += after.misses - before.misses;
        match plan {
            Ok(p) => {
                let planned = encode_response(&Response::QueryResult {
                    ranking: p.ranking,
                    stats: p.stats,
                    degraded: p.degraded,
                });
                if planned != reply.line {
                    out.gate_failed("in-process Planner::run differs from TCP");
                }
                totals.stats.push(p.stats);
            }
            Err(err) => out.gate_failed(&format!("in-process plan: {err}")),
        }
    }

    // Raw storage reads, cycling over the shard larger than its bundle
    // cache, so every `load_clip` decodes from the log.
    let id = setup.big_shard[totals.probe % setup.big_shard.len()];
    totals.probe += 1;
    let mut db = twin.probe_db.lock().expect("probe archive lock poisoned");
    let (idx, _) = trace::timed("viddb.load_index", || db.load_index(id));
    if !matches!(idx, Ok(Some(_))) {
        out.gate_failed(&format!("load_index({id}) found no index"));
    }
    let (clip, _) = trace::timed("viddb.load_clip", || db.load_clip(id));
    if clip.is_err() {
        out.gate_failed(&format!("load_clip({id}) failed"));
    }
}

fn cache_stats(db: &AnyDb) -> CacheStats {
    match db {
        AnyDb::Sharded(s) => s.cache_stats(),
        AnyDb::Single(s) => s.cache_stats(),
    }
}

/// Runs the closed loop for `secs`; each client sends the expressions
/// in its own seeded order.
fn queries(setup: &Setup, cfg: &RunCfg, secs: f64, salt: u64) -> Phase<PlanTotals> {
    closed_loop(cfg.clients, |t, started| {
        let mut rng = Rng::new(cfg.seed ^ salt ^ ((t as u64 + 1) << 32));
        let mut order: Vec<usize> = (0..setup.exprs.len()).collect();
        rng.shuffle(&mut order);
        client(setup, &order, started, secs, None)
    })
}

pub fn run(cfg: &RunCfg, setup: Setup) -> Outcome {
    // Traced runs measure an untraced half first, for the overhead.
    let plain_secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut plain = queries(&setup, cfg, plain_secs, 1);
    let lat = latency(&plain.log.all_ms());
    let mut out = Outcome {
        counts: plain.counts,
        ..Outcome::default()
    };
    out.absorb(std::mem::take(&mut plain.out));
    out.gates.push("query.tcp_reply_matches_planner");
    let m = &mut out.metrics;
    m.set("throughput_per_s", plain.rate, "1/s");
    m.set("latency_p50_ms", lat.p50, "ms");
    m.set("latency_tail_ms", lat.tail, "ms");
    m.set("stored_bytes_per_frame", setup.stored_bytes_per_frame, "B");
    out.note_latency("rtt", &lat);
    let requests = plain.log.rtt.len();
    out.report("requests_per_s", requests as f64 / plain.wall_s, "1/s");
    out.report("rtt_p50_ms", lat.p50, "ms");
    out.report("archive_clips", setup.clip_ids.len() as f64, "count");
    out.report("archive_frames", setup.frames as f64, "count");
    out.report("expressions", setup.exprs.len() as f64, "count");
    out.report("clients", cfg.clients as f64, "count");

    if cfg.trace {
        trace::enable(true);
        let mut traced = queries(&setup, cfg, cfg.seconds - plain_secs, 2);
        trace::enable(false);
        out.counts.add(traced.counts);
        out.absorb(std::mem::take(&mut traced.out));
        out.gates.push("query.twin_and_planner_match_tcp");
        let stats: Vec<PlanStats> = traced.extras.iter().flat_map(|t| t.stats.clone()).collect();
        let mut cache = CacheStats::default();
        for t in &traced.extras {
            cache.hits += t.cache.hits;
            cache.misses += t.cache.misses;
        }
        let spans = trace::drain();
        let med = |name: &str, scale: f64| {
            let v: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / scale)
                .collect();
            median(&v)
        };
        let l = &mut out.layers;
        l.set("query.parse_us", med("query.parse", 1e3), "us");
        l.set("query.plan_ms", med("query.plan", 1e6), "ms");
        l.set("viddb.load_index_us", med("viddb.load_index", 1e3), "us");
        l.set("viddb.load_clip_us", med("viddb.load_clip", 1e3), "us");
        l.set("viddb.cache_hit_frac", cache.hit_rate(), "frac");
        let sum = |f: fn(&PlanStats) -> usize| stats.iter().map(f).sum::<usize>() as f64;
        l.set(
            "query.shards_pruned_frac",
            sum(|s| s.shards_pruned) / sum(|s| s.shards_total).max(1.0),
            "frac",
        );
        l.set(
            "query.windows_prefiltered_frac",
            sum(|s| s.windows_prefiltered) / sum(|s| s.windows_scanned).max(1.0),
            "frac",
        );
        l.set(
            "query.windows_ranked_per_query",
            sum(|s| s.windows_ranked) / stats.len().max(1) as f64,
            "count",
        );
        let covered = serve_layers(&traced.log, l);
        l.set("layer_sum_frac", covered, "frac");
        let overhead = traced.wall_per_request() / plain.wall_per_request() - 1.0;
        l.set("trace_overhead_frac", overhead, "frac");
        out.spans = spans;
    }
    setup.teardown();
    out
}
