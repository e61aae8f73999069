//! Cross-clip retrieval — the capability the paper names as its main
//! limitation.
//!
//! §6.2: "Ideally, all the video clips in a transportation surveillance
//! video database shall be mined and retrieved as a whole. However … it
//! requires that we normalize all the video clips taken at different
//! locations with different camera parameters." The paper retrieves
//! per clip because its features are camera-relative. This library's
//! features are normalized by *physical* ranges (see
//! `tsvr_trajectory::checkpoint::Alpha::normalized`), so windows from
//! different clips live in the same feature space and one retrieval
//! session can rank the entire database.

use crate::query::{EventQuery, RankedWindow, TopK};
use std::collections::BTreeMap;
use tsvr_mil::{Bag, Instance, Learner};
use tsvr_trajectory::checkpoint::{Alpha, FeatureConfig};
use tsvr_viddb::ClipBundle;

/// A unified, cross-clip bag database.
#[derive(Debug, Clone)]
pub struct MultiClipIndex {
    /// Unified bags with dense ids 0..n.
    pub bags: Vec<Bag>,
    /// Ground-truth labels aligned with `bags` for the query used to
    /// build the index.
    pub labels: Vec<bool>,
    /// For each unified bag id: the `(clip_id, window_index)` it came
    /// from.
    pub origin: Vec<(u64, u64)>,
}

impl MultiClipIndex {
    /// Builds a unified index over several stored clips.
    pub fn build(
        bundles: &[&ClipBundle],
        query: &EventQuery,
        cfg: &FeatureConfig,
    ) -> MultiClipIndex {
        let mut bags = Vec::new();
        let mut labels = Vec::new();
        let mut origin = Vec::new();
        for bundle in bundles {
            let clip_labels = crate::ingest::labels_from_bundle(bundle, query);
            for (w, label) in bundle.windows.iter().zip(clip_labels) {
                let instances = w
                    .sequences
                    .iter()
                    .map(|ts| {
                        let rows: Vec<Vec<f64>> = ts
                            .alphas
                            .iter()
                            .map(|a| {
                                Alpha {
                                    inv_mdist: a[0],
                                    vdiff: a[1],
                                    theta: a[2],
                                }
                                .normalized(cfg)
                                .to_vec()
                            })
                            .collect();
                        Instance::new(ts.track_id, rows)
                    })
                    .collect();
                let id = bags.len();
                bags.push(Bag::new(id, instances));
                labels.push(label);
                origin.push((bundle.meta.clip_id, u64::from(w.window_index)));
            }
        }
        MultiClipIndex {
            bags,
            labels,
            origin,
        }
    }

    /// Number of unified windows.
    pub fn len(&self) -> usize {
        self.bags.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.bags.is_empty()
    }

    /// Resolves a unified bag id back to its clip and window.
    pub fn resolve(&self, bag_id: usize) -> Option<(u64, u64)> {
        self.origin.get(bag_id).copied()
    }

    /// Builds a unified index from already-converted per-clip parts —
    /// the index-served path, where bags come from stored feature
    /// segments instead of a fresh extraction. Each part is
    /// `(clip_id, bags, labels)` with `bags[i]` being window `i` of
    /// that clip; bag ids are re-densified across clips.
    pub fn from_parts(parts: Vec<(u64, Vec<Bag>, Vec<bool>)>) -> MultiClipIndex {
        let mut bags = Vec::new();
        let mut labels = Vec::new();
        let mut origin = Vec::new();
        for (clip_id, clip_bags, clip_labels) in parts {
            debug_assert_eq!(clip_bags.len(), clip_labels.len());
            for (bag, label) in clip_bags.into_iter().zip(clip_labels) {
                // usize → u64 is lossless on every supported platform;
                // the old `as u32` narrowing aliased windows past 2³².
                let window_index = bag.id as u64;
                let id = bags.len();
                bags.push(Bag::new(id, bag.instances));
                labels.push(label);
                origin.push((clip_id, window_index));
            }
        }
        MultiClipIndex {
            bags,
            labels,
            origin,
        }
    }
}

/// One clip's windows as MIL bags, ready for cross-clip scoring.
/// `bags[i].id` is the window index within the clip (the
/// [`crate::pipeline::bags_from_dataset`] convention).
#[derive(Debug, Clone)]
pub struct ClipWindows {
    /// The clip the bags came from.
    pub clip_id: u64,
    /// Per-window bags in window order.
    pub bags: Vec<Bag>,
}

/// How [`topk`] scores a window's bag.
pub enum Scorer<'a> {
    /// The stateless event heuristic ([`tsvr_mil::heuristic::bag_score`]).
    Heuristic,
    /// A trained session learner.
    Learner(&'a dyn Learner),
}

impl Scorer<'_> {
    /// The bag's score under this scorer. A learner's per-bag
    /// [`Learner::score`] is bit-identical to its batched
    /// [`Learner::score_all`].
    pub fn score(&self, bag: &Bag) -> f64 {
        match self {
            Scorer::Heuristic => tsvr_mil::heuristic::bag_score(bag),
            Scorer::Learner(l) => l.score(bag),
        }
    }
}

/// One shard's worth of clips, the unit of parallel scatter-gather:
/// the query layer builds one `ShardWindows` per healthy
/// [`tsvr_viddb::ShardedDb`] shard and ranks shards concurrently. A
/// flat list of clips is the one-shard case.
#[derive(Debug, Clone)]
pub struct ShardWindows {
    /// Shard file name (diagnostic only; never affects ranking).
    pub shard: String,
    /// The shard's clips, each with its windows as MIL bags.
    pub clips: Vec<ClipWindows>,
}

impl ShardWindows {
    /// Groups `(shard, clip)` pairs into one `ShardWindows` per
    /// distinct shard name, in name order; clips keep their given
    /// order within a shard.
    pub fn group(clips: impl IntoIterator<Item = (String, ClipWindows)>) -> Vec<ShardWindows> {
        let mut by_shard: BTreeMap<String, Vec<ClipWindows>> = BTreeMap::new();
        for (shard, cw) in clips {
            by_shard.entry(shard).or_default().push(cw);
        }
        by_shard
            .into_iter()
            .map(|(shard, clips)| ShardWindows { shard, clips })
            .collect()
    }
}

/// Ranks every window of every clip of every shard and keeps the best
/// `k`.
///
/// Shards scatter across threads via [`tsvr_par::par_map_est`]
/// (order-preserving); each computes its local top-k *sequentially*
/// with [`Scorer::score`], so shard-level parallelism is not nested
/// inside bag-level parallelism. The locals then gather through one
/// more bounded [`TopK`].
///
/// This is where the scatter-gather determinism argument lives: any
/// window in the *global* top `k` is necessarily in its own shard's
/// local top `k` (removing other shards' windows can only improve its
/// local rank), so merging locals loses nothing. And [`TopK`] is
/// insertion-order-insensitive — its tie-break covers the full window
/// identity `(score, clip_id, window_index)` — so the merge result
/// does not depend on which shard's list arrives first. Together: the
/// ranking is the same byte sequence at any thread count and any
/// partition of the clips into shards, a single shard included.
pub fn topk(shards: &[ShardWindows], scorer: &Scorer<'_>, k: usize) -> Vec<RankedWindow> {
    let _span = tsvr_obs::span!("query.multiclip");
    tsvr_obs::counter!("query.scatter.shards").add(shards.len() as u64);
    let locals = tsvr_par::par_map_est(shards, shard_cost_hint_ns(shards), |_, shard| {
        let mut topk = TopK::new(k);
        for clip in &shard.clips {
            for bag in &clip.bags {
                topk.push(scorer.score(bag), clip.clip_id, bag.id as u64);
            }
        }
        topk.into_sorted()
    });
    let mut topk = TopK::new(k);
    for r in locals.into_iter().flatten() {
        topk.push(r.score, r.clip_id, r.window_index);
    }
    topk.into_sorted()
}

/// Estimated nanoseconds to rank one shard: the average bag count per
/// shard at a couple of microseconds per bag (score + top-k push).
/// Coarse on purpose — it only needs to keep a handful of near-empty
/// shards off the fork-join path.
fn shard_cost_hint_ns(shards: &[ShardWindows]) -> u64 {
    let bags: usize = shards
        .iter()
        .map(|s| s.clips.iter().map(|c| c.bags.len()).sum::<usize>())
        .sum();
    let avg = bags as u64 / shards.len().max(1) as u64;
    avg.saturating_mul(2_000).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::bundle_from_clip;
    use crate::pipeline::{prepare_clip, LearnerKind, PipelineOptions};
    use tsvr_mil::{GroundTruthOracle, RetrievalSession, SessionConfig};
    use tsvr_sim::Scenario;
    use tsvr_viddb::ClipMeta;

    fn meta(clip_id: u64, location: &str) -> ClipMeta {
        ClipMeta {
            clip_id,
            name: format!("clip {clip_id}"),
            location: location.into(),
            camera: format!("cam-{clip_id}"),
            start_time: clip_id * 1000,
            frame_count: 400,
            width: 320,
            height: 240,
        }
    }

    fn two_bundles() -> (ClipBundle, ClipBundle) {
        let a = prepare_clip(&Scenario::tunnel_small(11), &PipelineOptions::default());
        let b = prepare_clip(&Scenario::tunnel_small(22), &PipelineOptions::default());
        (
            bundle_from_clip(&a, meta(1, "tunnel-a")),
            bundle_from_clip(&b, meta(2, "tunnel-b")),
        )
    }

    #[test]
    fn unified_index_covers_both_clips() {
        let (a, b) = two_bundles();
        let idx = MultiClipIndex::build(
            &[&a, &b],
            &EventQuery::accidents(),
            &FeatureConfig::default(),
        );
        assert_eq!(idx.len(), a.windows.len() + b.windows.len());
        assert_eq!(idx.labels.len(), idx.len());
        // Bag ids are dense and origin resolves to both clips.
        let clips: std::collections::HashSet<u64> = idx.origin.iter().map(|&(c, _)| c).collect();
        assert_eq!(clips.len(), 2);
        for (i, bag) in idx.bags.iter().enumerate() {
            assert_eq!(bag.id, i);
        }
        assert!(idx.resolve(0).is_some());
        assert!(idx.resolve(idx.len()).is_none());
    }

    #[test]
    fn relevant_windows_from_both_clips_exist() {
        let (a, b) = two_bundles();
        let idx = MultiClipIndex::build(
            &[&a, &b],
            &EventQuery::accidents(),
            &FeatureConfig::default(),
        );
        // Each tunnel_small clip scripts accidents; the unified labels
        // must contain relevant windows attributed to both clips.
        let relevant_clips: std::collections::HashSet<u64> = idx
            .labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l)
            .map(|(i, _)| idx.origin[i].0)
            .collect();
        assert_eq!(relevant_clips.len(), 2, "accidents from both clips");
    }

    #[test]
    fn one_session_retrieves_across_clips() {
        let (a, b) = two_bundles();
        let idx = MultiClipIndex::build(
            &[&a, &b],
            &EventQuery::accidents(),
            &FeatureConfig::default(),
        );
        let oracle = GroundTruthOracle::new(idx.labels.clone());
        let cfg = SessionConfig {
            top_n: 10,
            feedback_rounds: 3,
            ..SessionConfig::default()
        };
        let (report, _) = RetrievalSession::new(
            &idx.bags,
            LearnerKind::paper_ocsvm().build_for(&idx.bags),
            &oracle,
            cfg,
        )
        .run();
        // The final page draws results from more than one camera.
        let final_page: Vec<u64> = report
            .rankings
            .last()
            .unwrap()
            .iter()
            .take(10)
            .map(|&bag| idx.resolve(bag).unwrap().0)
            .collect();
        let distinct: std::collections::HashSet<u64> = final_page.iter().copied().collect();
        assert!(
            distinct.len() >= 2,
            "cross-clip session retrieved from one camera only: {final_page:?}"
        );
        // And retrieval quality beats the base rate.
        let base = idx.labels.iter().filter(|&&l| l).count() as f64 / idx.len() as f64;
        assert!(*report.accuracies.last().unwrap() > base);
    }

    #[test]
    fn empty_input_gives_empty_index() {
        let idx = MultiClipIndex::build(&[], &EventQuery::accidents(), &FeatureConfig::default());
        assert!(idx.is_empty());
    }

    fn two_clip_windows() -> Vec<ClipWindows> {
        let a = prepare_clip(&Scenario::tunnel_small(11), &PipelineOptions::default());
        let b = prepare_clip(&Scenario::tunnel_small(22), &PipelineOptions::default());
        vec![
            ClipWindows {
                clip_id: 1,
                bags: a.bags,
            },
            ClipWindows {
                clip_id: 2,
                bags: b.bags,
            },
        ]
    }

    /// The clips as the single shard a flat caller passes.
    fn one_shard(clips: &[ClipWindows]) -> [ShardWindows; 1] {
        [ShardWindows {
            shard: "all".into(),
            clips: clips.to_vec(),
        }]
    }

    #[test]
    fn topk_ranks_across_clips() {
        let clips = two_clip_windows();
        let total: usize = clips.iter().map(|c| c.bags.len()).sum();
        let k = 8.min(total);
        let top = topk(&one_shard(&clips), &Scorer::Heuristic, k);
        assert_eq!(top.len(), k);
        // Best-first, fully ordered.
        for pair in top.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        // Scores agree with scoring the bag directly.
        for r in &top {
            let clip = clips.iter().find(|c| c.clip_id == r.clip_id).unwrap();
            let bag = clip
                .bags
                .iter()
                .find(|b| b.id as u64 == r.window_index)
                .unwrap();
            assert_eq!(r.score.to_bits(), tsvr_mil::heuristic::bag_score(bag).to_bits());
        }
    }

    #[test]
    fn learner_scorer_matches_learner_scores() {
        let clips = two_clip_windows();
        let all_bags: Vec<tsvr_mil::Bag> = clips.iter().flat_map(|c| c.bags.clone()).collect();
        let learner = LearnerKind::paper_weighted_rf().build_for(&all_bags);
        let top = topk(&one_shard(&clips), &Scorer::Learner(&learner), 5);
        assert_eq!(top.len(), 5);
        for r in &top {
            let clip = clips.iter().find(|c| c.clip_id == r.clip_id).unwrap();
            let bag = clip
                .bags
                .iter()
                .find(|b| b.id as u64 == r.window_index)
                .unwrap();
            assert_eq!(r.score.to_bits(), learner.score(bag).to_bits());
        }
    }

    #[test]
    fn group_collects_clips_per_shard_in_name_order() {
        let clips = two_clip_windows();
        let shards = ShardWindows::group([
            ("b".to_string(), clips[0].clone()),
            ("a".to_string(), clips[1].clone()),
            ("b".to_string(), clips[1].clone()),
        ]);
        let layout: Vec<(&str, Vec<u64>)> = shards
            .iter()
            .map(|s| {
                (
                    s.shard.as_str(),
                    s.clips.iter().map(|c| c.clip_id).collect(),
                )
            })
            .collect();
        assert_eq!(layout, vec![("a", vec![2]), ("b", vec![1, 2])]);
        assert!(ShardWindows::group(Vec::new()).is_empty());
    }

    /// Byte-level equality of two rankings.
    fn assert_rankings_identical(a: &[RankedWindow], b: &[RankedWindow]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!((x.clip_id, x.window_index), (y.clip_id, y.window_index));
        }
    }

    /// Brute-force reference ranking: score every bag, map NaN to the
    /// lowest score, fully sort by [`RankedWindow`]'s order (best
    /// first) and cut at `k`. Shares only the scorer with [`topk`].
    fn brute_force(clips: &[ClipWindows], scorer: &Scorer<'_>, k: usize) -> Vec<RankedWindow> {
        let mut all: Vec<RankedWindow> = clips
            .iter()
            .flat_map(|c| {
                c.bags.iter().map(|bag| RankedWindow {
                    score: tsvr_mil::heuristic::nan_to_lowest(scorer.score(bag)),
                    clip_id: c.clip_id,
                    window_index: bag.id as u64,
                })
            })
            .collect();
        all.sort_by(|a, b| b.cmp(a));
        all.truncate(k);
        all
    }

    /// Every way to split the clips into shards must give the bytes of
    /// a brute-force full sort, at one thread and at many, for a
    /// truncating `k`, for `k = 0` and for `k` beyond the window count.
    #[test]
    fn sharded_topk_byte_identical_to_single_shard_at_any_thread_count() {
        let clips = two_clip_windows();
        let total: usize = clips.iter().map(|c| c.bags.len()).sum();
        let all_bags: Vec<tsvr_mil::Bag> = clips.iter().flat_map(|c| c.bags.clone()).collect();
        let learner = LearnerKind::paper_weighted_rf().build_for(&all_bags);
        let scorers = [Scorer::Heuristic, Scorer::Learner(&learner)];

        let partitions: Vec<Vec<ShardWindows>> = vec![
            // One shard holding everything (the degenerate case).
            one_shard(&clips).to_vec(),
            // One clip per shard.
            clips
                .iter()
                .map(|c| ShardWindows { shard: format!("s{}", c.clip_id), clips: vec![c.clone()] })
                .collect(),
            // Reversed shard order — merge must not care.
            clips
                .iter()
                .rev()
                .map(|c| ShardWindows { shard: format!("s{}", c.clip_id), clips: vec![c.clone()] })
                .collect(),
            // An empty shard mixed in.
            vec![
                ShardWindows { shard: "empty".into(), clips: vec![] },
                ShardWindows { shard: "all".into(), clips: clips.clone() },
            ],
        ];
        let saved = tsvr_par::current_threads();
        for k in [8, 0, total + 5] {
            for scorer in &scorers {
                let expected = brute_force(&clips, scorer, k);
                assert_eq!(expected.len(), k.min(total));
                for threads in [1, 4] {
                    tsvr_par::set_threads(threads);
                    for shards in &partitions {
                        assert_rankings_identical(&topk(shards, scorer, k), &expected);
                    }
                }
            }
        }
        tsvr_par::set_threads(saved);
    }

    #[test]
    fn sharded_topk_of_nothing_is_empty() {
        assert!(topk(&[], &Scorer::Heuristic, 5).is_empty());
        let shards = [ShardWindows {
            shard: "empty".into(),
            clips: vec![],
        }];
        assert!(topk(&shards, &Scorer::Heuristic, 5).is_empty());
    }

    #[test]
    fn from_parts_matches_build() {
        let (a, b) = two_bundles();
        let query = EventQuery::accidents();
        let cfg = FeatureConfig::default();
        let built = MultiClipIndex::build(&[&a, &b], &query, &cfg);
        let parts = [&a, &b]
            .iter()
            .map(|bundle| {
                (
                    bundle.meta.clip_id,
                    crate::ingest::bags_from_bundle(bundle, &cfg),
                    crate::ingest::labels_from_bundle(bundle, &query),
                )
            })
            .collect();
        let assembled = MultiClipIndex::from_parts(parts);
        assert_eq!(assembled.bags, built.bags);
        assert_eq!(assembled.labels, built.labels);
        assert_eq!(assembled.origin, built.origin);
    }
}
