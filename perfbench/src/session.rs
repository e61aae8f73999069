//! The `session` workload: the paper's relevance-feedback protocol over
//! loopback TCP against an in-process `Server` with the default
//! configuration. A closed loop of clients; each scripted session opens
//! its own connection and sends `open` (OC-SVM), four rounds of `page`
//! (top 20) + `feedback` (ground-truth labels), a final `page` and
//! `close`.
//!
//! The traced run sends every request a second time to an in-process
//! twin `Service` over a copy of the archive and times the twin's
//! decode, handle and encode; the learner rounds and checkpoints are
//! replayed through the public `mil` and `viddb` calls.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tsvr_core::{
    bags_from_dataset, build_index, bundle_from_clip, labels_from_bundle, load_index, prepare_clip,
    EventQuery, LearnerKind, PipelineOptions,
};
use tsvr_mil::session::rank_scores;
use tsvr_mil::{Bag, Learner};
use tsvr_serve::{
    decode_request, encode_response, Envelope, Request, Response, Server, ServerConfig, Service,
    ServiceConfig,
};
use tsvr_sim::Scenario;
use tsvr_trajectory::WindowConfig;
use tsvr_viddb::{AnyDb, ClipMeta, SessionRow, ShardedDb};

use crate::net::{
    closed_loop, handle_span, op_index, rtt_span, serve_layers, ClientLog, Conn, Phase, RttLog,
};
use crate::trace::{self, span};
use crate::util::{copy_dir, dir_bytes, latency, median, Counts, CONTENT_SEED};
use crate::{Outcome, RunCfg};

const TOP_N: usize = 20;
const ROUNDS: usize = 4;
const QUERY: &str = "accident";
const LEARNER: &str = "ocsvm";

struct Clip {
    clip_id: u64,
    labels: Vec<bool>,
    /// The clip's bags as the service builds them (index-served).
    bags: Vec<Bag>,
    /// Rankings of the scripted session run in process, as JSON arrays.
    reference: Vec<String>,
}

pub struct Setup {
    clips: Vec<Clip>,
    dir: PathBuf,
    server: Option<Server>,
    /// The in-process twin: the reference for every ranking and, in
    /// traced runs, the service whose `handle` is timed.
    twin: Arc<Service>,
    /// A third copy of the archive for the replayed checkpoints.
    ckpt: Option<Mutex<AnyDb>>,
    stored_bytes_per_frame: f64,
    frames: u64,
}

impl Setup {
    pub fn teardown(mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        drop(self.ckpt.take());
        for suffix in ["", "twin", "ckpt"] {
            let _ = std::fs::remove_dir_all(self.dir.with_extension(suffix));
        }
    }
}

fn ranking_json(ranking: &[u64]) -> String {
    let items: Vec<String> = ranking.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn with_session(req: &Request, sid: u64) -> Request {
    match req.clone() {
        Request::Page { n, .. } => Request::Page { session_id: sid, n },
        Request::Feedback { labels, .. } => Request::Feedback {
            session_id: sid,
            labels,
        },
        Request::Close { .. } => Request::Close { session_id: sid },
        other => other,
    }
}

/// The scripted session over any transport. Returns the served
/// rankings (JSON arrays) or `None` as soon as a step fails.
fn script(
    call: &mut dyn FnMut(Request) -> Option<Response>,
    clip_id: u64,
    labels: &[bool],
) -> Option<Vec<String>> {
    let Response::Opened { session_id, .. } = call(Request::Open {
        clip_id,
        query: QUERY.into(),
        learner: LEARNER.into(),
    })?
    else {
        return None;
    };
    let page = |call: &mut dyn FnMut(Request) -> Option<Response>| match call(Request::Page {
        session_id,
        n: Some(TOP_N),
    })? {
        Response::Page { ranking, .. } => Some(ranking),
        _ => None,
    };
    let mut rankings = Vec::new();
    for round in 1..=ROUNDS {
        let ranking = page(call)?;
        rankings.push(ranking_json(&ranking));
        let fb: Vec<(u32, bool)> = ranking
            .iter()
            .map(|&w| (w as u32, labels.get(w as usize).copied().unwrap_or(false)))
            .collect();
        match call(Request::Feedback {
            session_id,
            labels: fb,
        })? {
            Response::Learned { round: r, .. } if r == round => {}
            _ => return None,
        }
    }
    rankings.push(ranking_json(&page(call)?));
    match call(Request::Close { session_id })? {
        Response::Closed { .. } => Some(rankings),
        _ => None,
    }
}

/// The two pool clips, one per scene kind (toy mode: short ones).
fn pool(toy: bool) -> Vec<Scenario> {
    let mut tunnel = Scenario::tunnel_small(CONTENT_SEED);
    let mut crossing = Scenario::intersection_paper(CONTENT_SEED);
    if toy {
        tunnel.total_frames = 200;
        crossing.total_frames = 200;
    }
    vec![tunnel, crossing]
}

pub fn setup(cfg: &RunCfg, dir: &Path) -> Setup {
    let _ = std::fs::remove_dir_all(dir);
    let mut db = ShardedDb::open(dir).expect("open session archive");
    let mut bundles = Vec::new();
    let mut frames = 0u64;
    for (i, scenario) in pool(cfg.toy).iter().enumerate() {
        let clip_id = i as u64 + 1;
        let art = prepare_clip(scenario, &PipelineOptions::default());
        let meta = ClipMeta {
            clip_id,
            name: format!("session-{clip_id}"),
            location: "session".into(),
            camera: format!("cam-{i:02}"),
            start_time: 60,
            frame_count: art.sim.frames.len() as u32,
            width: art.sim.width,
            height: art.sim.height,
        };
        frames += art.sim.frames.len() as u64;
        let bundle = bundle_from_clip(&art, meta);
        db.put_clip(&bundle).expect("store session clip");
        let shard = db.shard_for_clip_mut(clip_id).expect("shard for clip");
        build_index(shard, clip_id, &art.dataset).expect("build index");
        bundles.push(bundle);
    }
    db.sync().expect("sync archive");
    let stored_bytes_per_frame = dir_bytes(dir) as f64 / frames as f64;

    let mut clips = Vec::new();
    for bundle in &bundles {
        let clip_id = bundle.meta.clip_id;
        let shard = db.shard_for_clip_mut(clip_id).expect("shard for clip");
        let ds = load_index(shard, clip_id, &WindowConfig::default())
            .expect("load index")
            .expect("fresh index");
        clips.push(Clip {
            clip_id,
            labels: labels_from_bundle(bundle, &EventQuery::accidents()),
            bags: bags_from_dataset(&ds),
            reference: Vec::new(),
        });
    }
    drop(db);

    let twin_dir = dir.with_extension("twin");
    let _ = std::fs::remove_dir_all(&twin_dir);
    copy_dir(dir, &twin_dir).expect("copy archive for the twin");
    let twin = Arc::new(Service::new(
        AnyDb::open(&twin_dir).expect("open twin archive"),
        ServiceConfig::default(),
    ));
    for clip in &mut clips {
        clip.reference = script(
            &mut |req| Some(twin.handle(&Envelope::new(req))),
            clip.clip_id,
            &clip.labels,
        )
        .expect("in-process reference session");
    }
    let ckpt = cfg.trace.then(|| {
        let ckpt_dir = dir.with_extension("ckpt");
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        copy_dir(dir, &ckpt_dir).expect("copy archive for checkpoints");
        Mutex::new(AnyDb::open(&ckpt_dir).expect("open checkpoint archive"))
    });

    let service = Arc::new(Service::new(
        AnyDb::open(dir).expect("reopen archive"),
        ServiceConfig::default(),
    ));
    let server =
        Server::start(service, "127.0.0.1:0", ServerConfig::default()).expect("start server");
    let setup = Setup {
        clips,
        dir: dir.to_path_buf(),
        server: Some(server),
        twin,
        ckpt,
        stored_bytes_per_frame,
        frames,
    };
    // Warm-up: opening a session on every clip loads the clip's bags
    // into the service's cache.
    let addr = setup.server.as_ref().expect("server running").addr();
    for clip in &setup.clips {
        let mut conn = Conn::connect(addr).expect("warm-up connect");
        let mut call = |req| conn.call(req).expect("warm-up request").1.resp;
        let Response::Opened { session_id, .. } = call(Request::Open {
            clip_id: clip.clip_id,
            query: QUERY.into(),
            learner: LEARNER.into(),
        }) else {
            panic!("warm-up open failed on clip {}", clip.clip_id);
        };
        call(Request::Close { session_id });
    }
    setup
}

/// Replays one session's learner rounds and checkpoints through the
/// public `mil` and `viddb` calls (traced runs only).
struct Replay {
    learner: Box<dyn Learner>,
    feedback: Vec<Vec<(u32, bool)>>,
    session_id: u64,
    expected_page: Option<Vec<u64>>,
}

/// One scripted session over TCP. Failed requests abort the session.
fn tcp_session(
    setup: &Setup,
    c: usize,
    log: &mut RttLog,
    out: &mut Outcome,
    replay_ids: &mut u64,
) -> Counts {
    let clip = &setup.clips[c];
    let addr = setup.server.as_ref().expect("server running").addr();
    let traced = trace::enabled();
    let mut counts = Counts::default();
    let t_connect = Instant::now();
    let _root = span("session");
    let mut conn = {
        let _s = span("serve.connect");
        match Conn::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                counts.attempted += 1;
                counts.failed += 1;
                out.fail(&format!("connect: {e}"));
                return counts;
            }
        }
    };
    let mut connect_ns = t_connect.elapsed().as_nanos() as u64;
    let mut twin_sid = 0u64;
    let mut replay: Option<Replay> = None;
    let mut call = |req: Request| -> Option<Response> {
        let op = op_index(req.op_name());
        counts.attempted += 1;
        let result = {
            let _s = span(rtt_span(op));
            conn.call(req.clone())
        };
        let (line, reply) = match result {
            Ok(r) => r,
            Err(e) => {
                counts.failed += 1;
                out.fail(&e);
                return None;
            }
        };
        if let Response::Error(e) = &reply.resp {
            counts.failed += 1;
            out.fail(&format!("{}: {e:?}", req.op_name()));
            return None;
        }
        let rtt_ns = reply.rtt_ns + std::mem::take(&mut connect_ns);
        log.record(op, rtt_ns);
        if traced {
            let (env, decode_ns) = trace::timed("serve.decode", || decode_request(&line));
            let env = env.expect("the server accepted this request line");
            let twin_env = Envelope::new(with_session(&env.req, twin_sid));
            let (twin_resp, handle_ns) =
                trace::timed(handle_span(op), || setup.twin.handle(&twin_env));
            let (_, encode_ns) = trace::timed("serve.encode", || encode_response(&twin_resp));
            log.traced.push((
                op,
                [rtt_ns, reply.parse_ns, decode_ns, handle_ns, encode_ns],
            ));
            match (&twin_resp, &reply.resp) {
                (Response::Opened { session_id, .. }, _) => twin_sid = *session_id,
                (Response::Page { ranking: a, .. }, Response::Page { ranking: b, .. })
                    if a != b =>
                {
                    out.gate_failed("twin page ranking differs from TCP")
                }
                _ => {}
            }
            replay_step(setup, clip, &req, &reply.resp, &mut replay, replay_ids, out);
        }
        Some(reply.resp)
    };
    match script(&mut call, clip.clip_id, &clip.labels) {
        Some(rankings) if rankings != clip.reference => {
            out.gate_failed(&format!(
                "clip {}: TCP rankings differ from in-process",
                clip.clip_id
            ));
        }
        Some(_) => {}
        None => {
            // A step that answered but with the wrong shape is a
            // failure not yet counted.
            if counts.failed == 0 {
                counts.failed += 1;
                out.fail("session script received an unexpected reply");
            }
        }
    }
    counts
}

fn replay_step(
    setup: &Setup,
    clip: &Clip,
    req: &Request,
    resp: &Response,
    replay: &mut Option<Replay>,
    replay_ids: &mut u64,
    out: &mut Outcome,
) {
    let bags = clip.bags.as_slice();
    match (req, resp) {
        (Request::Open { .. }, _) => {
            *replay_ids += 1;
            *replay = Some(Replay {
                learner: LearnerKind::paper_ocsvm().build_for(bags),
                feedback: Vec::new(),
                session_id: *replay_ids,
                expected_page: None,
            });
        }
        (Request::Page { .. }, Response::Page { ranking, .. }) => {
            if let Some(expected) = replay.as_mut().and_then(|r| r.expected_page.take()) {
                if &expected != ranking {
                    out.gate_failed("replayed learner ranking differs from TCP");
                }
            }
        }
        (Request::Feedback { labels, .. }, _) => {
            let Some(r) = replay.as_mut() else { return };
            let fb: Vec<(usize, bool)> = labels.iter().map(|&(w, l)| (w as usize, l)).collect();
            {
                let _s = span("mil.learn");
                r.learner.learn(bags, &fb);
            }
            let scores = {
                let _s = span("mil.score_all");
                r.learner.score_all(bags)
            };
            let ranking = rank_scores(bags, &scores);
            r.expected_page = Some(ranking.iter().take(TOP_N).map(|&w| w as u64).collect());
            r.feedback.push(labels.clone());
            let row = SessionRow {
                session_id: 1_000_000 + r.session_id,
                clip_id: clip.clip_id,
                query: QUERY.into(),
                learner: r.learner.name().into(),
                feedback: r.feedback.clone(),
                accuracies: Vec::new(),
            };
            let ckpt = setup
                .ckpt
                .as_ref()
                .expect("traced runs have a checkpoint archive");
            let mut db = ckpt.lock().expect("checkpoint archive lock poisoned");
            let _s = span("viddb.checkpoint");
            if let Err(e) = db.put_session(&row).and_then(|()| db.sync()) {
                out.gate_failed(&format!("replayed checkpoint: {e}"));
            }
        }
        _ => {}
    }
}

/// Runs the closed loop for `secs`; `salt` keeps replayed checkpoint
/// ids of different phases apart.
fn sessions(setup: &Setup, cfg: &RunCfg, secs: f64, salt: u64) -> Phase<u64> {
    closed_loop(cfg.clients, |t, started| {
        let mut c = ClientLog::default();
        // Replayed checkpoints get ids no other client uses.
        let mut replay_ids = (salt << 40) | ((t as u64) << 32);
        while started.elapsed().as_secs_f64() < secs {
            // Clients alternate clips from a seeded start, so both scene
            // kinds get the same share of sessions.
            let clip = (c.extra + t as u64 + cfg.seed) as usize % setup.clips.len();
            trace::set_request(c.extra);
            let counts = tcp_session(setup, clip, &mut c.log, &mut c.out, &mut replay_ids);
            c.counts.add(counts);
            c.extra += 1;
        }
        c
    })
}

pub fn run(cfg: &RunCfg, setup: Setup) -> Outcome {
    // Traced runs measure an untraced half first, for the overhead.
    let plain_secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut plain = sessions(&setup, cfg, plain_secs, 1);
    let lat = latency(&plain.log.all_ms());
    let mut out = Outcome {
        counts: plain.counts,
        ..Outcome::default()
    };
    out.absorb(std::mem::take(&mut plain.out));
    out.gates.push("session.tcp_rankings_match_in_process");
    let m = &mut out.metrics;
    m.set("throughput_per_s", plain.rate, "1/s");
    m.set("latency_p50_ms", lat.p50, "ms");
    m.set("latency_tail_ms", lat.tail, "ms");
    m.set("stored_bytes_per_frame", setup.stored_bytes_per_frame, "B");
    out.note_latency("rtt", &lat);
    let requests = plain.log.rtt.len();
    out.report("requests_per_s", requests as f64 / plain.wall_s, "1/s");
    out.report("rtt_p50_ms", lat.p50, "ms");
    out.report(
        "feedback_rtt_p50_ms",
        median(&plain.log.op_ms("feedback")),
        "ms",
    );
    out.report("open_rtt_p50_ms", median(&plain.log.op_ms("open")), "ms");
    out.report("sessions", plain.extras.iter().sum::<u64>() as f64, "count");
    out.report("archive_clips", setup.clips.len() as f64, "count");
    out.report("archive_frames", setup.frames as f64, "count");
    out.report("clients", cfg.clients as f64, "count");

    if cfg.trace {
        trace::enable(true);
        let mut traced = sessions(&setup, cfg, cfg.seconds - plain_secs, 2);
        trace::enable(false);
        out.counts.add(traced.counts);
        out.absorb(std::mem::take(&mut traced.out));
        out.gates.push("session.twin_rankings_match_tcp");
        out.gates.push("session.replayed_learner_matches_tcp");
        let spans = trace::drain();
        let med_ms = |name: &str| {
            let v: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .collect();
            median(&v)
        };
        let l = &mut out.layers;
        l.set("mil.learn_ms", med_ms("mil.learn"), "ms");
        l.set("mil.score_all_ms", med_ms("mil.score_all"), "ms");
        l.set("viddb.checkpoint_ms", med_ms("viddb.checkpoint"), "ms");
        let covered = serve_layers(&traced.log, l);
        l.set("layer_sum_frac", covered, "frac");
        let overhead = traced.wall_per_request() / plain.wall_per_request() - 1.0;
        l.set("trace_overhead_frac", overhead, "frac");
        out.spans = spans;
    }
    setup.teardown();
    out
}
