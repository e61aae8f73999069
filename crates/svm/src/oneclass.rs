//! One-class ν-SVM (Schölkopf et al. \[18\]) trained by SMO.
//!
//! Primal (paper Eq. 7–8): separate the training data from the origin in
//! feature space with maximum margin, allowing a `ν` fraction of
//! outliers. Dual:
//!
//! ```text
//! min_α  ½ Σ_ij α_i α_j K(x_i, x_j)
//! s.t.   0 ≤ α_i ≤ 1/(νn),   Σ_i α_i = 1
//! ```
//!
//! The decision function is `f(x) = sign(Σ_i α_i K(x_i, x) − ρ)` and is
//! positive for "most examples contained in the training set" (paper
//! §5.2). The optimizer is Sequential Minimal Optimization with
//! maximal-violating-pair working-set selection and a dense kernel
//! cache — training sets in the retrieval loop are tens of vectors, so
//! the dense Gram matrix is the fastest cache.

// Indexed loops mirror the textbook formulations of these numeric
// kernels; iterator rewrites obscure the subscript structure.
#![allow(clippy::needless_range_loop)]

use crate::{FeatureBlock, Kernel, SvmError};

/// Trainer configuration for the one-class SVM.
#[derive(Debug, Clone, Copy)]
pub struct OneClassSvm {
    /// Kernel to use.
    pub kernel: Kernel,
    /// The ν parameter in `(0, 1)`: an upper bound on the fraction of
    /// outliers and a lower bound on the fraction of support vectors.
    /// This is the paper's `δ` from Eq. 9.
    pub nu: f64,
    /// KKT violation tolerance.
    pub tolerance: f64,
    /// Iteration budget for SMO.
    pub max_iterations: usize,
}

impl OneClassSvm {
    /// Creates a trainer with the given kernel and ν, using default
    /// optimizer settings.
    ///
    /// ```
    /// use tsvr_svm::{Kernel, OneClassSvm};
    ///
    /// // Learn the support of a cluster around the origin.
    /// let data: Vec<Vec<f64>> = (0..40)
    ///     .map(|i| vec![(i % 7) as f64 * 0.1, (i % 5) as f64 * 0.1])
    ///     .collect();
    /// let model = OneClassSvm::new(Kernel::Rbf { gamma: 1.0 }, 0.1)
    ///     .fit(&data)
    ///     .unwrap();
    /// assert!(model.is_inlier(&[0.3, 0.2]));
    /// assert!(!model.is_inlier(&[5.0, 5.0]));
    /// ```
    pub fn new(kernel: Kernel, nu: f64) -> OneClassSvm {
        OneClassSvm {
            kernel,
            nu,
            tolerance: 1e-6,
            max_iterations: 100_000,
        }
    }

    /// Validates the trainer parameters and packs the training set
    /// into a block (a ragged set is a [`SvmError::DimensionMismatch`]).
    fn validate(&self, data: &[Vec<f64>]) -> Result<FeatureBlock, SvmError> {
        if data.is_empty() {
            return Err(SvmError::EmptyTrainingSet);
        }
        if !(0.0..1.0).contains(&self.nu) || self.nu == 0.0 {
            return Err(SvmError::InvalidNu(self.nu));
        }
        self.kernel.validate()?;
        FeatureBlock::from_rows(data)
    }

    /// Trains on a set of (implicitly positive/"relevant") examples.
    pub fn fit(&self, data: &[Vec<f64>]) -> Result<OneClassModel, SvmError> {
        let block = self.validate(data)?;
        let gram = self.kernel.gram(&block);
        self.solve(data, &gram)
    }

    /// Trains with a caller-supplied Gram matrix — `gram` must be this
    /// trainer's kernel over `data` (row-major `n × n`), e.g. from
    /// [`Kernel::gram_extend`]'s incremental maintenance across
    /// relevance-feedback rounds. A wrong-sized matrix is a
    /// [`SvmError::DimensionMismatch`]; the values themselves are
    /// trusted, which is exactly what makes memoization across
    /// retrainings possible.
    pub fn fit_with_gram(&self, data: &[Vec<f64>], gram: &[f64]) -> Result<OneClassModel, SvmError> {
        self.validate(data)?;
        let n = data.len();
        if gram.len() != n * n {
            return Err(SvmError::DimensionMismatch {
                expected: n * n,
                got: gram.len(),
            });
        }
        self.solve(data, gram)
    }

    /// The SMO solve over a precomputed Gram matrix (shared by
    /// [`fit`](Self::fit) and [`fit_with_gram`](Self::fit_with_gram);
    /// inputs already validated).
    fn solve(&self, data: &[Vec<f64>], gram: &[f64]) -> Result<OneClassModel, SvmError> {
        let _span = tsvr_obs::tspan!("svm.train");
        let n = data.len();
        let c = 1.0 / (self.nu * n as f64); // upper bound per α
        let q = |i: usize, j: usize| gram[i * n + j];

        // Initialization (libsvm convention): fill α up to the bound
        // until the equality constraint Σα = 1 is met.
        let mut alpha = vec![0.0f64; n];
        let mut remaining = 1.0f64;
        for a in alpha.iter_mut() {
            let v = c.min(remaining);
            *a = v;
            remaining -= v;
            if remaining <= 0.0 {
                break;
            }
        }

        // Gradient of the dual objective: G = Qα.
        let mut grad = vec![0.0f64; n];
        for i in 0..n {
            let mut g = 0.0;
            for j in 0..n {
                if alpha[j] > 0.0 {
                    g += q(i, j) * alpha[j];
                }
            }
            grad[i] = g;
        }

        // SMO main loop: pick the maximal violating pair.
        // KKT for this problem: ∃ρ with  G_i ≥ ρ if α_i = 0,
        //                               G_i ≤ ρ if α_i = C,
        //                               G_i = ρ if 0 < α_i < C.
        let mut converged = false;
        let mut iterations = 0usize;
        let mut last_violation = f64::INFINITY;
        while iterations < self.max_iterations {
            iterations += 1;
            // i: index with α_i < C minimizing G (wants to grow);
            // j: index with α_j > 0 maximizing G (wants to shrink).
            let mut i_best: Option<usize> = None;
            let mut j_best: Option<usize> = None;
            for k in 0..n {
                if alpha[k] < c - 1e-15 && i_best.map(|i| grad[k] < grad[i]).unwrap_or(true) {
                    i_best = Some(k);
                }
                if alpha[k] > 1e-15 && j_best.map(|j| grad[k] > grad[j]).unwrap_or(true) {
                    j_best = Some(k);
                }
            }
            let (Some(i), Some(j)) = (i_best, j_best) else {
                converged = true;
                break;
            };
            last_violation = grad[j] - grad[i];
            if last_violation < self.tolerance {
                converged = true;
                break;
            }

            // Analytic step along e_i - e_j.
            let denom = (q(i, i) + q(j, j) - 2.0 * q(i, j)).max(1e-12);
            let mut delta = last_violation / denom;
            delta = delta.min(c - alpha[i]).min(alpha[j]);
            if delta <= 0.0 {
                converged = true;
                break;
            }
            alpha[i] += delta;
            alpha[j] -= delta;
            for k in 0..n {
                grad[k] += delta * (q(i, k) - q(j, k));
            }
        }
        if !converged {
            return Err(SvmError::NoConvergence {
                iterations,
                violation: last_violation,
            });
        }

        // ρ: average gradient over free support vectors; fall back to
        // the midpoint of the bound gradients.
        let mut free_sum = 0.0;
        let mut free_n = 0usize;
        let mut upper = f64::NEG_INFINITY; // max G over α = C
        let mut lower = f64::INFINITY; // min G over α = 0
        for k in 0..n {
            if alpha[k] > 1e-12 && alpha[k] < c - 1e-12 {
                free_sum += grad[k];
                free_n += 1;
            } else if alpha[k] >= c - 1e-12 {
                upper = upper.max(grad[k]);
            } else {
                lower = lower.min(grad[k]);
            }
        }
        // Without free SVs, ρ is only constrained to the interval
        // [max_{α=C} G, min_{α=0} G]; take its lower end — the smallest
        // KKT-consistent ρ — so boundary-bound support vectors sit *on*
        // the sphere rather than strictly outside (this is what keeps
        // the ν-property's outlier bound tight on small training sets).
        let rho = if free_n > 0 {
            free_sum / free_n as f64
        } else if upper.is_finite() {
            upper
        } else if lower.is_finite() {
            lower
        } else {
            0.0
        };

        // Keep only support vectors.
        let mut support = Vec::new();
        let mut coeffs = Vec::new();
        for k in 0..n {
            if alpha[k] > 1e-12 {
                support.push(data[k].clone());
                coeffs.push(alpha[k]);
            }
        }
        tsvr_obs::histogram!("svm.train.iterations").record(iterations as u64);
        tsvr_obs::histogram!("svm.train.support_vectors").record(support.len() as u64);
        Ok(OneClassModel::from_parts(
            self.kernel,
            self.nu,
            support,
            coeffs,
            rho,
            iterations,
        ))
    }
}

/// A trained one-class model.
#[derive(Debug, Clone)]
pub struct OneClassModel {
    /// Kernel the model was trained with.
    pub kernel: Kernel,
    /// Training ν.
    pub nu: f64,
    /// Support vectors.
    pub support: Vec<Vec<f64>>,
    /// Dual coefficients (same order as `support`).
    pub coeffs: Vec<f64>,
    /// Offset ρ.
    pub rho: f64,
    /// SMO iterations used in training.
    pub iterations: usize,
    /// The support vectors packed into one contiguous row-major block
    /// so decision loops stream them cache-linearly (same rows, same
    /// order as `support`).
    support_block: FeatureBlock,
}

impl OneClassModel {
    /// Assembles a model, packing the support vectors into the
    /// contiguous block the decision path reads.
    pub(crate) fn from_parts(
        kernel: Kernel,
        nu: f64,
        support: Vec<Vec<f64>>,
        coeffs: Vec<f64>,
        rho: f64,
        iterations: usize,
    ) -> OneClassModel {
        let support_block = FeatureBlock::from_rows(&support)
            .expect("support vectors come from a dimension-validated training set");
        OneClassModel {
            kernel,
            nu,
            support,
            coeffs,
            rho,
            iterations,
            support_block,
        }
    }

    /// The raw decision value `Σ_i α_i K(x_i, x) − ρ`; positive inside
    /// the learned region.
    pub fn decision(&self, x: &[f64]) -> f64 {
        tsvr_obs::counter!("svm.kernel.evals").add(self.support.len() as u64);
        self.decision_raw(x)
    }

    /// Batch [`decision`](Self::decision) over many vectors, fanned out
    /// on the [`tsvr_par`] runtime with a per-vector cost hint (one
    /// kernel row per probe) so small batches run inline instead of
    /// paying the fork cost. Each vector's value is computed by the
    /// same per-vector kernel loop, and results come back in input
    /// order, so the output is bit-identical to the sequential map —
    /// this is the scoring path the retrieval session uses to re-rank
    /// the whole database after each feedback round.
    pub fn decision_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        // Probes per parallel task: one kernel-row scratch buffer is
        // shared across a whole chunk, so the allocator is off the
        // per-probe path (it cost ~10% at small support counts).
        const PROBE_CHUNK: usize = 64;
        tsvr_obs::counter!("svm.kernel.evals")
            .add((self.support.len() * xs.len()) as u64);
        let per_probe = (self.support.len() as u64)
            .saturating_mul(self.kernel.est_eval_ns(self.support_block.dim()))
            + 20; // fold overhead
        let chunks: Vec<&[Vec<f64>]> = xs.chunks(PROBE_CHUNK).collect();
        let est = per_probe.saturating_mul(PROBE_CHUNK as u64);
        let parts = tsvr_par::par_map_est(&chunks, est, |_, chunk| {
            let mut row = vec![0.0; self.support_block.len()];
            let mut out = Vec::with_capacity(chunk.len());
            for x in chunk.iter() {
                self.kernel.eval_block(&self.support_block, x, &mut row);
                let mut s = 0.0;
                for (&a, &k) in self.coeffs.iter().zip(&row) {
                    s += a * k;
                }
                out.push(s - self.rho);
            }
            out
        });
        parts.into_iter().flatten().collect()
    }

    /// The kernel expansion without the obs probe (shared by
    /// [`decision`](Self::decision) and the batch path): one fused
    /// kernel row over the contiguous support block, then the dual-
    /// coefficient dot product in support order — the same adds and
    /// multiplies, in the same order, as the scalar
    /// `Σ a·eval(sv, x)` loop.
    fn decision_raw(&self, x: &[f64]) -> f64 {
        let mut row = vec![0.0; self.support_block.len()];
        self.kernel.eval_block(&self.support_block, x, &mut row);
        let mut s = 0.0;
        for (&a, &k) in self.coeffs.iter().zip(&row) {
            s += a * k;
        }
        s - self.rho
    }

    /// Whether `x` falls inside the learned ("relevant") region.
    pub fn is_inlier(&self, x: &[f64]) -> bool {
        self.decision(x) >= 0.0
    }

    /// Number of support vectors.
    pub fn support_count(&self) -> usize {
        self.support.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic cluster of points around a center.
    fn cluster(center: &[f64], n: usize, spread: f64, salt: u64) -> Vec<Vec<f64>> {
        let mut state = salt.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n)
            .map(|_| center.iter().map(|&c| c + spread * next()).collect())
            .collect()
    }

    fn default_model(data: &[Vec<f64>], nu: f64) -> OneClassModel {
        OneClassSvm::new(Kernel::Rbf { gamma: 0.5 }, nu)
            .fit(data)
            .unwrap()
    }

    #[test]
    fn accepts_training_region_rejects_far_points() {
        let data = cluster(&[0.0, 0.0], 60, 1.0, 1);
        let m = default_model(&data, 0.1);
        assert!(m.is_inlier(&[0.0, 0.0]));
        assert!(m.is_inlier(&[0.2, -0.1]));
        assert!(!m.is_inlier(&[8.0, 8.0]));
        assert!(!m.is_inlier(&[-10.0, 3.0]));
    }

    #[test]
    fn nu_bounds_outlier_and_sv_fractions() {
        // The ν-property: outlier fraction ≤ ν ≤ SV fraction.
        for &nu in &[0.05, 0.1, 0.3, 0.5] {
            let data = cluster(&[1.0, 2.0, 3.0], 100, 2.0, 7);
            let m = default_model(&data, nu);
            let outliers = data.iter().filter(|x| !m.is_inlier(x)).count();
            let n = data.len() as f64;
            assert!(
                outliers as f64 / n <= nu + 0.03,
                "nu {nu}: outlier fraction {}",
                outliers as f64 / n
            );
            assert!(
                m.support_count() as f64 / n >= nu - 0.03,
                "nu {nu}: SV fraction {}",
                m.support_count() as f64 / n
            );
        }
    }

    #[test]
    fn kkt_conditions_hold() {
        let data = cluster(&[0.0, 0.0], 50, 1.5, 3);
        let nu = 0.2;
        let m = default_model(&data, nu);
        // Recompute G_i = Σ_j α_j K(x_i, x_j) = decision(x_i) + ρ for SVs
        // and check the sign structure against ρ.
        let c = 1.0 / (nu * data.len() as f64);
        // Sum of alphas = 1.
        let total: f64 = m.coeffs.iter().sum();
        assert!((total - 1.0).abs() < 1e-8, "Σα = {total}");
        for (sv, &a) in m.support.iter().zip(&m.coeffs) {
            assert!(a > 0.0 && a <= c + 1e-9, "alpha {a} out of [0, {c}]");
            let g = m.decision(sv) + m.rho;
            if a < c - 1e-9 {
                // Free SV: G ≈ ρ.
                assert!(
                    (g - m.rho).abs() < 1e-4,
                    "free SV violates KKT: {g} vs {}",
                    m.rho
                );
            } else {
                // Bounded SV: G ≤ ρ (margin violator).
                assert!(g <= m.rho + 1e-4);
            }
        }
    }

    #[test]
    fn tighter_nu_shrinks_the_region() {
        let data = cluster(&[0.0, 0.0], 80, 2.0, 11);
        let loose = default_model(&data, 0.05);
        let tight = default_model(&data, 0.5);
        let probe: Vec<Vec<f64>> = (0..20).map(|i| vec![3.0 + i as f64 * 0.1, 0.0]).collect();
        let loose_in = probe.iter().filter(|p| loose.is_inlier(p)).count();
        let tight_in = probe.iter().filter(|p| tight.is_inlier(p)).count();
        assert!(
            tight_in <= loose_in,
            "tight ν admitted more boundary points ({tight_in} vs {loose_in})"
        );
    }

    #[test]
    fn single_sample_model() {
        let m = default_model(&[vec![1.0, 1.0]], 0.5);
        assert!(m.is_inlier(&[1.0, 1.0]));
        assert!(!m.is_inlier(&[6.0, 6.0]));
        assert_eq!(m.support_count(), 1);
    }

    #[test]
    fn errors_on_bad_input() {
        let svm = OneClassSvm::new(Kernel::Rbf { gamma: 0.5 }, 0.2);
        assert_eq!(svm.fit(&[]).unwrap_err(), SvmError::EmptyTrainingSet);
        let bad_dim = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(matches!(
            svm.fit(&bad_dim).unwrap_err(),
            SvmError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            OneClassSvm::new(Kernel::Rbf { gamma: 0.5 }, 0.0)
                .fit(&[vec![1.0]])
                .unwrap_err(),
            SvmError::InvalidNu(_)
        ));
        assert!(matches!(
            OneClassSvm::new(Kernel::Rbf { gamma: 0.5 }, 1.0)
                .fit(&[vec![1.0]])
                .unwrap_err(),
            SvmError::InvalidNu(_)
        ));
        assert!(matches!(
            OneClassSvm::new(Kernel::Rbf { gamma: -0.5 }, 0.3)
                .fit(&[vec![1.0]])
                .unwrap_err(),
            SvmError::InvalidKernelParam(_)
        ));
    }

    #[test]
    fn separates_two_clusters_trained_on_one() {
        let relevant = cluster(&[0.0, 0.0, 0.0], 50, 1.0, 5);
        let irrelevant = cluster(&[6.0, 6.0, 6.0], 50, 1.0, 6);
        let m = OneClassSvm::new(Kernel::Rbf { gamma: 0.3 }, 0.1)
            .fit(&relevant)
            .unwrap();
        let fp = irrelevant.iter().filter(|x| m.is_inlier(x)).count();
        let tp = relevant.iter().filter(|x| m.is_inlier(x)).count();
        assert!(tp >= 45, "tp {tp}");
        assert_eq!(fp, 0, "fp {fp}");
    }

    #[test]
    fn linear_kernel_works_too() {
        // With a linear kernel the region is a half-space; points in the
        // training direction stay inliers.
        let data: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![1.0 + (i % 5) as f64 * 0.1, 1.0])
            .collect();
        let m = OneClassSvm::new(Kernel::Linear, 0.2).fit(&data).unwrap();
        assert!(m.is_inlier(&[1.2, 1.0]));
        assert!(!m.is_inlier(&[-1.0, -1.0]));
    }

    #[test]
    fn decision_is_continuous_across_boundary() {
        let data = cluster(&[0.0, 0.0], 40, 1.0, 9);
        let m = default_model(&data, 0.1);
        // Walk outward from the center: decision decreases monotonically
        // modulo small kernel ripples.
        let d0 = m.decision(&[0.0, 0.0]);
        let d5 = m.decision(&[5.0, 0.0]);
        let d9 = m.decision(&[9.0, 0.0]);
        assert!(d0 > d5 && d5 > d9);
    }

    #[test]
    fn duplicated_points_do_not_break_training() {
        let data = vec![vec![1.0, 1.0]; 30];
        let m = default_model(&data, 0.3);
        assert!(m.is_inlier(&[1.0, 1.0]));
        assert!(!m.is_inlier(&[4.0, 4.0]));
    }

    #[test]
    fn decision_batch_is_bit_identical_to_single_calls() {
        let data = cluster(&[0.0, 0.0], 50, 1.5, 13);
        let m = default_model(&data, 0.2);
        let probes = cluster(&[1.0, -1.0], 200, 4.0, 17);
        let single: Vec<f64> = probes.iter().map(|x| m.decision(x)).collect();
        for threads in [1, 4] {
            tsvr_par::set_threads(threads);
            let batch = m.decision_batch(&probes);
            tsvr_par::set_threads(0);
            assert_eq!(batch.len(), single.len());
            for (a, b) in single.iter().zip(&batch) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }
}
