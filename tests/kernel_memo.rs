//! Property test for the gram-memoization path (PR 9 satellite):
//! memoized gram blocks and decision values must be **bit-identical**
//! to full recomputation across feedback rounds, at one thread and at
//! four, and in the presence of NaN-bearing feature rows. This is the
//! invariant that lets `OcSvmMilLearner` reuse per-round gram blocks
//! at all: the cache is an optimization, never an approximation.

use tsvr_mil::{Bag, Instance, Learner, OcSvmMilLearner};
use tsvr_svm::{FeatureBlock, Kernel};

/// Deterministic xorshift so the test data is stable across runs.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn synth_rows(rng: &mut Rng, n: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.next_f64() * 4.0 - 2.0).collect())
        .collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: index {i} differs ({x} vs {y})"
        );
    }
}

/// `gram_extend` over incrementally grown data must reproduce the full
/// `gram` bit for bit, including when grown rows carry NaN.
#[test]
fn gram_extend_matches_full_gram_with_nan_rows() {
    let mut rng = Rng(0x9e3779b97f4a7c15);
    for kernel in [
        Kernel::Linear,
        Kernel::Rbf { gamma: 0.7 },
        Kernel::Laplacian { sigma: 1.3 },
    ] {
        let mut data = synth_rows(&mut rng, 6, 5);
        let mut cached = kernel.gram(&FeatureBlock::from_rows(&data).unwrap());
        let mut old_n = data.len();
        // Grow in uneven steps; step 2 introduces a NaN-poisoned row.
        for (step, grow) in [3usize, 1, 4, 2].into_iter().enumerate() {
            let mut fresh = synth_rows(&mut rng, grow, 5);
            if step == 2 {
                fresh[0][1] = f64::NAN;
            }
            data.extend(fresh);
            let block = FeatureBlock::from_rows(&data).unwrap();
            cached = kernel.gram_extend(&block, &cached, old_n);
            old_n = data.len();
            let full = kernel.gram(&block);
            assert_bits_eq(&cached, &full, "extended gram vs full recompute");
        }
    }
}

fn synth_bags(rng: &mut Rng, n_bags: usize, dim: usize) -> Vec<Bag> {
    (0..n_bags)
        .map(|b| {
            let instances = (0..2 + b % 3)
                .map(|i| {
                    let rows = synth_rows(rng, 3, dim);
                    Instance::new((b * 16 + i) as u64, rows)
                })
                .collect();
            Bag::new(b, instances)
        })
        .collect()
}

/// Drives four feedback rounds through a memoized learner and a
/// from-scratch learner and bit-compares every score of every round.
fn run_rounds(bags: &[Bag], adaptive: bool) {
    let make = || {
        let learner = OcSvmMilLearner::new(Kernel::Rbf { gamma: 0.5 });
        if adaptive {
            learner.with_adaptive_gamma(1.0)
        } else {
            learner
        }
    };
    let mut memo = make();
    let mut fresh = make().without_gram_memo();
    // Four rounds of growing feedback; round 3 labels the NaN bag.
    let schedule: [&[(usize, bool)]; 4] = [
        &[(0, true), (1, false), (2, true)],
        &[(3, true), (4, true)],
        &[(5, false), (6, true), (7, true)],
        &[(8, true), (9, false)],
    ];
    for (round, feedback) in schedule.iter().enumerate() {
        memo.learn(bags, feedback);
        fresh.learn(bags, feedback);
        let scores_memo = memo.score_all(bags);
        let scores_fresh = fresh.score_all(bags);
        assert_bits_eq(
            &scores_memo,
            &scores_fresh,
            &format!("round {round} scores, adaptive={adaptive}"),
        );
    }
}

/// Memoized scores equal from-scratch scores across 4 feedback rounds,
/// at 1 and 4 threads, with a NaN-bearing feature row in the training
/// set — for both the fixed-γ and adaptive-γ (cache-invalidating)
/// kernel configurations.
#[test]
fn memoized_scores_bit_identical_across_rounds_and_threads() {
    let mut rng = Rng(0x2545f4914f6cdd1d);
    let mut bags = synth_bags(&mut rng, 24, 6);
    // Poison one instance of a bag that round 3 labels relevant, so a
    // NaN row enters the training set mid-session.
    bags[8].instances[0].points[0][2] = f64::NAN;
    for threads in [1usize, 4] {
        tsvr_par::set_threads(threads);
        run_rounds(&bags, false);
        run_rounds(&bags, true);
    }
    tsvr_par::set_threads(0);
}
