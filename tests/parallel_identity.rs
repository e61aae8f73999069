//! Integration: the `tsvr-par` determinism invariant — every
//! parallelized hot path (segmentation, the pass-2 neighbor loop, Gram
//! construction, batch bag scoring) produces output bit-identical to
//! the sequential run, at any thread count.

use std::sync::Mutex;
use tsvr::core::{prepare_clip, run_session, EventQuery, LearnerKind, PipelineOptions};
use tsvr::mil::SessionConfig;
use tsvr::sim::{Pcg32, Scenario, World};
use tsvr::svm::{FeatureBlock, Kernel};
use tsvr::trajectory::checkpoint::{build_series, FeatureConfig};
use tsvr::vision;

/// `set_threads` is process-global and the test binary runs tests on
/// multiple threads, so each test locks while it flips the override.
static THREADS: Mutex<()> = Mutex::new(());

/// Runs `f` once with the pool pinned to one worker and once with four,
/// restoring automatic selection after.
fn seq_vs_par<R>(f: impl Fn() -> R) -> (R, R) {
    let _g = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    tsvr::par::set_threads(1);
    let seq = f();
    tsvr::par::set_threads(4);
    let par = f();
    tsvr::par::set_threads(0);
    (seq, par)
}

#[test]
fn vision_pipeline_is_thread_count_invariant() {
    let scenario = Scenario::tunnel_small(41);
    let sim = World::run(scenario.clone());
    let cfg = vision::PipelineConfig::default();
    let (a, b) = seq_vs_par(|| vision::pipeline::process(&sim, scenario.kind, &cfg));
    assert_eq!(a.detections_per_frame, b.detections_per_frame);
    assert_eq!(a.tracks.len(), b.tracks.len());
    for (ta, tb) in a.tracks.iter().zip(&b.tracks) {
        assert_eq!(ta.id, tb.id);
        assert_eq!(ta.points.len(), tb.points.len());
        for (pa, pb) in ta.points.iter().zip(&tb.points) {
            assert_eq!(pa.frame, pb.frame);
            assert_eq!(pa.centroid.x.to_bits(), pb.centroid.x.to_bits());
            assert_eq!(pa.centroid.y.to_bits(), pb.centroid.y.to_bits());
        }
    }
}

#[test]
fn feature_extraction_is_thread_count_invariant() {
    let scenario = Scenario::tunnel_small(17);
    let sim = World::run(scenario.clone());
    let tracks = vision::pipeline::process(&sim, scenario.kind, &vision::PipelineConfig::default())
        .tracks;
    let cfg = FeatureConfig::default();
    let (a, b) = seq_vs_par(|| build_series(&tracks, &cfg));
    assert_eq!(a.len(), b.len());
    for (sa, sb) in a.iter().zip(&b) {
        assert_eq!(sa.track_id, sb.track_id);
        assert_eq!(sa.first_checkpoint, sb.first_checkpoint);
        assert_eq!(sa.alphas.len(), sb.alphas.len());
        for (aa, ab) in sa.alphas.iter().zip(&sb.alphas) {
            assert_eq!(aa.inv_mdist.to_bits(), ab.inv_mdist.to_bits());
            assert_eq!(aa.vdiff.to_bits(), ab.vdiff.to_bits());
            assert_eq!(aa.theta.to_bits(), ab.theta.to_bits());
        }
    }
}

#[test]
fn gram_matrix_is_thread_count_invariant() {
    let mut rng = Pcg32::seeded(7);
    let data: Vec<Vec<f64>> = (0..120)
        .map(|_| (0..6).map(|_| rng.uniform(-2.0, 2.0)).collect())
        .collect();
    let block = FeatureBlock::from_rows(&data).unwrap();
    for kernel in [
        Kernel::Rbf { gamma: 0.4 },
        Kernel::Laplacian { sigma: 1.5 },
        Kernel::Linear,
    ] {
        let (a, b) = seq_vs_par(|| kernel.gram(&block));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn full_retrieval_session_is_thread_count_invariant() {
    let (a, b) = seq_vs_par(|| {
        let clip = prepare_clip(&Scenario::tunnel_small(88), &PipelineOptions::default());
        let cfg = SessionConfig {
            top_n: 5,
            feedback_rounds: 2,
            ..SessionConfig::default()
        };
        run_session(
            &clip,
            &EventQuery::accidents(),
            LearnerKind::paper_ocsvm(),
            cfg,
        )
    });
    assert_eq!(a.rankings, b.rankings);
    assert_eq!(a.accuracies.len(), b.accuracies.len());
    for (x, y) in a.accuracies.iter().zip(&b.accuracies) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
