//! The `ingest` workload: pre-simulated clips go through the production
//! ingest path into a file-backed sharded archive, one clip at a time:
//! `prepare_sim` → `bundle_from_clip` → `put_clip` → `build_index` →
//! `sync`.
//!
//! The traced run also replays every clip stage by stage through the
//! public vision, trajectory, core and viddb calls, so each layer gets
//! its own span; the replay must reproduce `pipeline::process`
//! bit-for-bit.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tsvr_core::{
    bags_from_dataset, build_index, bundle_from_clip, load_index, prepare_sim, ClipArtifacts,
    PipelineOptions,
};
use tsvr_sim::world::SimOutput;
use tsvr_sim::{Scenario, ScenarioKind, World};
use tsvr_trajectory::{Dataset, WindowConfig};
use tsvr_viddb::{ClipMeta, ShardedDb};
use tsvr_vision::background::BackgroundModel;
use tsvr_vision::blob::{extract_blobs, Blob};
use tsvr_vision::frame::{GrayFrame, Mask};
use tsvr_vision::render::Renderer;
use tsvr_vision::tracker::Tracker;
use tsvr_vision::{spcpe, PipelineConfig, VisionOutput};

use crate::trace::{self, span};
use crate::util::{dir_bytes, latency, median, Counts, Rng, Stopwatch, CONTENT_SEED};
use crate::{Outcome, RunCfg};

/// One simulated recording of the pool.
struct PoolClip {
    name: String,
    kind: ScenarioKind,
    sim: SimOutput,
}

pub struct Setup {
    pool: Vec<PoolClip>,
    dir: PathBuf,
}

/// The pool: the paper's tunnel (2504 frames) and intersection (592)
/// clips plus every scenario-fleet member (480–520 frames). Toy mode
/// keeps two short clips, one per scene kind.
fn pool_scenarios(toy: bool) -> Vec<(String, Scenario)> {
    let seed = CONTENT_SEED;
    if toy {
        let mut tunnel = Scenario::tunnel_small(seed);
        tunnel.total_frames = 120;
        let mut crossing = Scenario::intersection_paper(seed);
        crossing.total_frames = 120;
        return vec![("tunnel".into(), tunnel), ("intersection".into(), crossing)];
    }
    let mut out = vec![
        ("tunnel_paper".to_string(), Scenario::tunnel_paper(seed)),
        (
            "intersection_paper".to_string(),
            Scenario::intersection_paper(seed),
        ),
    ];
    for m in tsvr_sim::fleet::members() {
        let s = tsvr_sim::fleet::scenario(m.name, seed).expect("fleet member builds");
        out.push((m.name.to_string(), s));
    }
    out
}

pub fn setup(cfg: &RunCfg, dir: &Path) -> Setup {
    let pool: Vec<PoolClip> = pool_scenarios(cfg.toy)
        .into_iter()
        .map(|(name, s)| PoolClip {
            name,
            kind: s.kind,
            sim: World::run(s),
        })
        .collect();
    // Warm-up: one pipeline pass over the shortest clip starts the
    // worker pool and faults in the code before the clock starts.
    let shortest = pool
        .iter()
        .min_by_key(|c| c.sim.frames.len())
        .expect("non-empty pool");
    prepare_sim(
        shortest.sim.clone(),
        shortest.kind,
        &PipelineOptions::default(),
    );
    let _ = std::fs::remove_dir_all(dir);
    Setup {
        pool,
        dir: dir.to_path_buf(),
    }
}

/// Where clip `id` of pool entry `p` is filed: one camera per pool
/// entry, consecutive two-minute clips, hour-bucketed shards.
fn meta_for(id: u64, p: usize, clip: &PoolClip) -> ClipMeta {
    ClipMeta {
        clip_id: id,
        name: format!("{}-{id}", clip.name),
        location: "ingest".into(),
        camera: format!("cam-{p:02}"),
        start_time: id * 120,
        frame_count: clip.sim.frames.len() as u32,
        width: clip.sim.width,
        height: clip.sim.height,
    }
}

/// One clip's ingest time: wall clock, and on the CPU time the process
/// was given (see [`Stopwatch`]).
#[derive(Clone, Copy)]
struct ClipTime {
    wall: f64,
    available: f64,
}

impl ClipTime {
    fn of(t: &Stopwatch) -> ClipTime {
        ClipTime {
            wall: t.wall_s(),
            available: t.available_s(),
        }
    }
}

/// The production path for one clip. Returns the artifacts (for the
/// gates) and the wall time.
fn ingest_clip(
    db: &mut ShardedDb,
    clip: &PoolClip,
    meta: ClipMeta,
    opts: &PipelineOptions,
) -> Result<(ClipArtifacts, ClipTime), String> {
    let id = meta.clip_id;
    let sim = clip.sim.clone();
    let t = Stopwatch::start();
    let art = prepare_sim(sim, clip.kind, opts);
    let bundle = bundle_from_clip(&art, meta);
    db.put_clip(&bundle)
        .map_err(|e| format!("put_clip {id}: {e}"))?;
    let shard = db
        .shard_for_clip_mut(id)
        .ok_or("stored clip has no shard")?;
    build_index(shard, id, &art.dataset).map_err(|e| format!("build_index {id}: {e}"))?;
    db.sync().map_err(|e| format!("sync: {e}"))?;
    Ok((art, ClipTime::of(&t)))
}

/// Per-stage counts of a staged vision replay.
#[derive(Default)]
struct StageCounts {
    frames: u64,
    spcpe_iters: u64,
    blobs: u64,
}

/// `pipeline::process` replayed stage by stage through the vision
/// crate's public API, with one span per stage per frame chunk. The
/// chunking and the order of the stateful stages (background update,
/// tracker) follow the production pipeline, so the tracks are
/// bit-identical to it at any thread count.
fn replay_vision(
    sim: &SimOutput,
    kind: ScenarioKind,
    cfg: &PipelineConfig,
    counts: &mut StageCounts,
) -> VisionOutput {
    let renderer = Renderer::new(kind, sim.width, sim.height);
    let mut bg = {
        let first = {
            let _s = span("vision.render");
            renderer.render(&[], u32::MAX)
        };
        let _s = span("vision.bg");
        BackgroundModel::from_frame(&first)
    };
    for i in 0..cfg.warmup_frames {
        let f = {
            let _s = span("vision.render");
            renderer.render(&[], u32::MAX - 1 - i)
        };
        let _s = span("vision.bg");
        bg.learn(std::slice::from_ref(&f));
    }

    let mut tracker = Tracker::new(cfg.tracker);
    let mut detections_per_frame = Vec::with_capacity(sim.frames.len());
    let chunk_len = tsvr_par::current_threads().max(1) * 4;
    for obs_chunk in sim.frames.chunks(chunk_len) {
        let frames: Vec<GrayFrame> = {
            let _s = span("vision.render");
            tsvr_par::par_map(obs_chunk, |_, obs| {
                renderer.render(&obs.vehicles, obs.frame)
            })
        };
        let masks: Vec<(Option<GrayFrame>, Mask)> = {
            let _s = span("vision.bg");
            frames
                .iter()
                .map(|frame| {
                    let bg_est = cfg.use_spcpe.then(|| bg.background());
                    (bg_est, bg.subtract_and_update(frame))
                })
                .collect()
        };
        let refined: Vec<(Mask, usize)> = {
            let _s = span("vision.spcpe");
            tsvr_par::par_map_index(frames.len(), |i| match &masks[i] {
                (Some(bg_est), mask0) => {
                    let diff = frames[i].abs_diff(bg_est);
                    let r = spcpe::refine(&diff, mask0);
                    (r.mask.majority_filter(4), r.iterations)
                }
                (None, mask0) => (mask0.clone(), 0),
            })
        };
        let chunk_blobs: Vec<Vec<Blob>> = {
            let _s = span("vision.blob");
            tsvr_par::par_map_index(frames.len(), |i| {
                extract_blobs(&refined[i].0, cfg.min_blob_area, Some(&frames[i]))
            })
        };
        let _s = span("vision.track");
        for ((obs, blobs), (_, iters)) in obs_chunk.iter().zip(&chunk_blobs).zip(&refined) {
            counts.frames += 1;
            counts.spcpe_iters += *iters as u64;
            counts.blobs += blobs.len() as u64;
            detections_per_frame.push(blobs.len());
            tracker.step(obs.frame, blobs);
        }
    }
    let tracks = {
        let _s = span("vision.track");
        tracker.finish()
    };
    VisionOutput {
        tracks,
        width: sim.width,
        height: sim.height,
        detections_per_frame,
    }
}

/// The staged twin of [`ingest_clip`]: the same work, one span per
/// public call. Returns the artifacts, the stored bytes and wall time.
fn ingest_clip_staged(
    db: &mut ShardedDb,
    clip: &PoolClip,
    meta: ClipMeta,
    opts: &PipelineOptions,
    counts: &mut StageCounts,
) -> Result<(ClipArtifacts, ClipTime), String> {
    let id = meta.clip_id;
    let sim = clip.sim.clone();
    let t = Stopwatch::start();
    let _root = span("ingest.clip");
    let vision = replay_vision(&sim, clip.kind, &opts.vision, counts);
    let dataset = {
        let _s = span("trajectory.dataset");
        Dataset::build(&vision.tracks, opts.window)
    };
    let bags = {
        let _s = span("core.bags");
        bags_from_dataset(&dataset)
    };
    let art = ClipArtifacts {
        kind: clip.kind,
        sim,
        vision,
        dataset,
        bags,
    };
    let bundle = {
        let _s = span("core.bundle");
        bundle_from_clip(&art, meta)
    };
    {
        let _s = span("viddb.put_clip");
        db.put_clip(&bundle)
            .map_err(|e| format!("put_clip {id}: {e}"))?;
    }
    {
        let _s = span("core.index_build");
        let shard = db
            .shard_for_clip_mut(id)
            .ok_or("stored clip has no shard")?;
        build_index(shard, id, &art.dataset).map_err(|e| format!("build_index {id}: {e}"))?;
    }
    {
        let _s = span("viddb.sync");
        db.sync().map_err(|e| format!("sync: {e}"))?;
    }
    Ok((art, ClipTime::of(&t)))
}

/// Gate: the stored index reloads to exactly the dataset that was built.
fn index_round_trips(db: &mut ShardedDb, id: u64, built: &Dataset) -> Result<(), String> {
    let shard = db
        .shard_for_clip_mut(id)
        .ok_or("stored clip has no shard")?;
    match load_index(shard, id, &WindowConfig::default()) {
        Ok(Some(ds)) if format!("{ds:?}") == format!("{built:?}") => Ok(()),
        Ok(Some(_)) => Err(format!(
            "clip {id}: reloaded index differs from the built dataset"
        )),
        Ok(None) => Err(format!("clip {id}: index missing or stale after build")),
        Err(e) => Err(format!("clip {id}: load_index: {e}")),
    }
}

fn same_tracks(a: &VisionOutput, b: &VisionOutput) -> bool {
    format!("{:?}", a.tracks) == format!("{:?}", b.tracks)
}

pub fn run(cfg: &RunCfg, setup: Setup) -> Outcome {
    let opts = PipelineOptions::default();
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed ^ 0x1A6E57);
    let mut db = ShardedDb::open(&setup.dir).expect("open ingest archive");
    let staged_dir = setup.dir.with_extension("staged");
    let mut staged_db = cfg
        .trace
        .then(|| ShardedDb::open(&staged_dir).expect("open staged archive"));

    let mut clip_times: Vec<ClipTime> = Vec::new();
    let mut staged_times: Vec<ClipTime> = Vec::new();
    let mut frames = 0u64;
    let mut counts = Counts::default();
    let mut stage_counts = StageCounts::default();
    let mut bytes_written = 0u64;
    let mut first: Option<(usize, VisionOutput)> = None;
    let mut next_id = 1u64;
    // Fastest ingest of each pool clip over the passes, on available
    // CPU time: contention from other tenants only ever slows a clip.
    let mut best_s = vec![f64::INFINITY; setup.pool.len()];
    let mut passes = 0;
    let started = Instant::now();
    // Whole passes over the pool, so every run ingests the same mix.
    while started.elapsed().as_secs_f64() < cfg.seconds {
        let mut order: Vec<usize> = (0..setup.pool.len()).collect();
        rng.shuffle(&mut order);
        for p in order {
            let clip = &setup.pool[p];
            let id = next_id;
            next_id += 1;
            counts.attempted += 1;
            let before = dir_bytes(&setup.dir);
            let (art, time) = match ingest_clip(&mut db, clip, meta_for(id, p, clip), &opts) {
                Ok(r) => r,
                Err(e) => {
                    counts.failed += 1;
                    out.fail(&e);
                    continue;
                }
            };
            bytes_written += dir_bytes(&setup.dir) - before;
            if let Err(e) = index_round_trips(&mut db, id, &art.dataset) {
                counts.failed += 1;
                out.gate_failed(&e);
                continue;
            }
            clip_times.push(time);
            best_s[p] = best_s[p].min(time.available);
            frames += clip.sim.frames.len() as u64;
            if let Some(sdb) = staged_db.as_mut() {
                trace::set_request(id);
                match ingest_clip_staged(sdb, clip, meta_for(id, p, clip), &opts, &mut stage_counts)
                {
                    Ok((staged, time)) => {
                        staged_times.push(time);
                        if !same_tracks(&staged.vision, &art.vision) {
                            out.gate_failed(&format!("clip {id}: staged tracks differ"));
                        }
                        if let Err(e) = index_round_trips(sdb, id, &staged.dataset) {
                            out.gate_failed(&e);
                        }
                    }
                    Err(e) => out.gate_failed(&e),
                }
            } else if first.is_none() {
                first = Some((p, art.vision));
            }
        }
        passes += 1;
    }
    out.gates.push("ingest.index_round_trip");
    out.gates.push("ingest.staged_tracks_identical");

    // Untraced runs replay one clip after the clock stops.
    if let Some((p, tracks)) = first {
        let clip = &setup.pool[p];
        let replay = replay_vision(
            &clip.sim,
            clip.kind,
            &opts.vision,
            &mut StageCounts::default(),
        );
        if !same_tracks(&replay, &tracks) {
            out.gate_failed("staged vision replay differs from pipeline::process");
        }
    }

    let total_s: f64 = clip_times.iter().map(|t| t.wall).sum();
    let lat = latency(&clip_times.iter().map(|t| t.wall * 1e3).collect::<Vec<_>>());
    let best_ms: Vec<f64> = best_s.iter().map(|s| s * 1e3).collect();
    let pool_frames: usize = setup.pool.iter().map(|c| c.sim.frames.len()).sum();
    let best_rate = pool_frames as f64 / best_s.iter().sum::<f64>();
    let stored = dir_bytes(&setup.dir);
    out.counts = counts;
    let m = &mut out.metrics;
    m.set("throughput_per_s", best_rate, "1/s");
    m.set("latency_p50_ms", median(&best_ms), "ms");
    m.set(
        "latency_tail_ms",
        best_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    m.set(
        "stored_bytes_per_frame",
        stored as f64 / frames.max(1) as f64,
        "B",
    );
    out.note_latency("clip", &lat);
    out.report("ingest_frames_per_s", frames as f64 / total_s, "1/s");
    out.report("passes", passes as f64, "count");
    out.report("clip_p50_ms", lat.p50, "ms");
    out.report(
        "stored_bytes_per_frame",
        stored as f64 / frames.max(1) as f64,
        "B",
    );
    out.report("clips_ingested", clip_times.len() as f64, "count");
    out.report("frames_ingested", frames as f64, "count");
    out.report("pool_clips", setup.pool.len() as f64, "count");
    out.report("pool_frames", pool_frames as f64, "count");

    if cfg.trace {
        let spans = trace::drain();
        let t = trace::totals(&spans);
        let clips = staged_times.len().max(1) as f64;
        let f = stage_counts.frames.max(1) as f64;
        let l = &mut out.layers;
        let ns = |name: &str| t.get(name).map_or(0.0, |x| x.dur_ns as f64);
        let calls = |name: &str| t.get(name).map_or(1.0, |x| x.count.max(1) as f64);
        l.set("vision.render_ns_per_frame", ns("vision.render") / f, "ns");
        l.set("vision.bg_ns_per_frame", ns("vision.bg") / f, "ns");
        l.set("vision.spcpe_ns_per_frame", ns("vision.spcpe") / f, "ns");
        l.set(
            "vision.spcpe_iters_per_frame",
            stage_counts.spcpe_iters as f64 / f,
            "count",
        );
        l.set("vision.blob_ns_per_frame", ns("vision.blob") / f, "ns");
        l.set("vision.track_ns_per_frame", ns("vision.track") / f, "ns");
        l.set(
            "vision.blobs_per_frame",
            stage_counts.blobs as f64 / f,
            "count",
        );
        l.set(
            "trajectory.dataset_ms_per_clip",
            ns("trajectory.dataset") / 1e6 / clips,
            "ms",
        );
        l.set("core.bags_ms_per_clip", ns("core.bags") / 1e6 / clips, "ms");
        l.set(
            "core.bundle_ms_per_clip",
            ns("core.bundle") / 1e6 / clips,
            "ms",
        );
        l.set(
            "core.index_build_ms_per_clip",
            ns("core.index_build") / 1e6 / clips,
            "ms",
        );
        l.set(
            "viddb.put_clip_ms",
            ns("viddb.put_clip") / 1e6 / calls("viddb.put_clip"),
            "ms",
        );
        l.set(
            "viddb.sync_ms",
            ns("viddb.sync") / 1e6 / calls("viddb.sync"),
            "ms",
        );
        l.set(
            "viddb.bytes_written_per_clip",
            bytes_written as f64 / clip_times.len().max(1) as f64,
            "B",
        );
        let root_ns = ns("ingest.clip");
        let layer_ns: f64 = t
            .iter()
            .filter(|(name, _)| **name != "ingest.clip")
            .map(|(_, x)| x.self_ns as f64)
            .sum();
        l.set("layer_sum_frac", layer_ns / root_ns.max(1.0), "frac");
        // Both paths on available CPU time, clip by clip.
        let sum = |t: &[ClipTime]| t.iter().map(|t| t.available).sum::<f64>();
        let (staged, plain) = (sum(&staged_times), sum(&clip_times));
        l.set(
            "trace_overhead_frac",
            staged / plain.max(1e-9) - 1.0,
            "frac",
        );
        out.spans = spans;
    }
    drop(db);
    drop(staged_db);
    let _ = std::fs::remove_dir_all(&staged_dir);
    out
}
