//! Binary soft-margin C-SVM (C-SVC) trained by SMO.
//!
//! Needed by the MI-SVM baseline (Andrews et al. \[16\] in the paper's
//! review): MI-SVM alternates between imputing instance labels and
//! training an ordinary two-class SVM. Solver structure mirrors
//! [`crate::oneclass`]: dense Gram cache and maximal-violating-pair
//! selection on the dual
//!
//! ```text
//! min_α  ½ Σ_ij α_i α_j y_i y_j K(x_i,x_j) − Σ_i α_i
//! s.t.   0 ≤ α_i ≤ C,   Σ_i α_i y_i = 0
//! ```

use crate::{FeatureBlock, Kernel, SvmError};

/// Trainer configuration for the binary SVM.
#[derive(Debug, Clone, Copy)]
pub struct Svc {
    /// Kernel.
    pub kernel: Kernel,
    /// Soft-margin penalty.
    pub c: f64,
    /// KKT violation tolerance.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
}

impl Svc {
    /// Creates a trainer with default optimizer settings.
    pub fn new(kernel: Kernel, c: f64) -> Svc {
        Svc {
            kernel,
            c,
            tolerance: 1e-6,
            max_iterations: 100_000,
        }
    }

    /// Trains on labeled examples (`labels[i]` = class of `data[i]`).
    ///
    /// Requires at least one example of each class.
    pub fn fit(&self, data: &[Vec<f64>], labels: &[bool]) -> Result<SvcModel, SvmError> {
        if data.is_empty() {
            return Err(SvmError::EmptyTrainingSet);
        }
        if data.len() != labels.len() {
            return Err(SvmError::DimensionMismatch {
                expected: data.len(),
                got: labels.len(),
            });
        }
        self.kernel.validate()?;
        if self.c <= 0.0 {
            return Err(SvmError::InvalidKernelParam(format!("C = {}", self.c)));
        }
        let block = FeatureBlock::from_rows(data)?;
        if labels.iter().all(|&l| l) || labels.iter().all(|&l| !l) {
            return Err(SvmError::InvalidKernelParam(
                "SVC needs both classes in the training set".into(),
            ));
        }

        let n = data.len();
        let y: Vec<f64> = labels.iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();
        let gram = self.kernel.gram(&block);
        let q = |i: usize, j: usize| y[i] * y[j] * gram[i * n + j];

        let mut alpha = vec![0.0f64; n];
        // Gradient of the dual objective: G_i = Σ_j α_j Q_ij − 1.
        let mut grad = vec![-1.0f64; n];

        let mut converged = false;
        let mut iterations = 0usize;
        let mut last_violation = f64::INFINITY;
        while iterations < self.max_iterations {
            iterations += 1;
            // Maximal violating pair (libsvm working set selection,
            // first order): i maximizes -y_i G_i over the "up" set,
            // j minimizes -y_j G_j over the "down" set.
            let mut i_best: Option<(usize, f64)> = None;
            let mut j_best: Option<(usize, f64)> = None;
            for k in 0..n {
                let up =
                    (y[k] > 0.0 && alpha[k] < self.c - 1e-15) || (y[k] < 0.0 && alpha[k] > 1e-15);
                let down =
                    (y[k] > 0.0 && alpha[k] > 1e-15) || (y[k] < 0.0 && alpha[k] < self.c - 1e-15);
                let v = -y[k] * grad[k];
                if up && i_best.map(|(_, bv)| v > bv).unwrap_or(true) {
                    i_best = Some((k, v));
                }
                if down && j_best.map(|(_, bv)| v < bv).unwrap_or(true) {
                    j_best = Some((k, v));
                }
            }
            let (Some((i, vi)), Some((j, vj))) = (i_best, j_best) else {
                converged = true;
                break;
            };
            last_violation = vi - vj;
            if last_violation < self.tolerance {
                converged = true;
                break;
            }

            // Analytic 2-variable subproblem (libsvm's update).
            let denom =
                (q(i, i) + q(j, j) - 2.0 * y[i] * y[j] * q(i, j) / (y[i] * y[j])).max(1e-12);
            // Note: q already folds in the labels; the plain form is
            // K_ii + K_jj - 2 K_ij.
            let kij = gram[i * n + j];
            let eta = (gram[i * n + i] + gram[j * n + j] - 2.0 * kij).max(1e-12);
            let _ = denom;
            let delta = (vi - vj) / eta;

            // Step along the feasible direction preserving Σ α y = 0.
            let (mut di, mut dj) = (y[i] * delta, -y[j] * delta);
            // Clip to the box.
            let clip = |a: f64, d: f64| -> f64 {
                if d > 0.0 {
                    d.min(self.c - a)
                } else {
                    d.max(-a)
                }
            };
            let ci = clip(alpha[i], di);
            let scale_i = if di.abs() > 1e-18 { ci / di } else { 0.0 };
            let cj = clip(alpha[j], dj);
            let scale_j = if dj.abs() > 1e-18 { cj / dj } else { 0.0 };
            let scale = scale_i.min(scale_j).max(0.0);
            di *= scale;
            dj *= scale;
            if di.abs() < 1e-18 && dj.abs() < 1e-18 {
                converged = true;
                break;
            }
            alpha[i] += di;
            alpha[j] += dj;
            for k in 0..n {
                grad[k] += di * y[i] * y[k] * gram[i * n + k] + dj * y[j] * y[k] * gram[j * n + k];
            }
        }
        if !converged {
            return Err(SvmError::NoConvergence {
                iterations,
                violation: last_violation,
            });
        }

        // Bias from free support vectors (y_i (Σ α_j y_j K_ij + b) = 1).
        let mut b_sum = 0.0;
        let mut b_n = 0usize;
        let mut lo = f64::NEG_INFINITY;
        let mut hi = f64::INFINITY;
        for k in 0..n {
            let wx: f64 = (0..n)
                .filter(|&j| alpha[j] > 1e-12)
                .map(|j| alpha[j] * y[j] * gram[j * n + k])
                .sum();
            let margin = y[k] - wx;
            if alpha[k] > 1e-12 && alpha[k] < self.c - 1e-12 {
                b_sum += margin;
                b_n += 1;
            } else if alpha[k] <= 1e-12 {
                if y[k] > 0.0 {
                    hi = hi.min(margin);
                } else {
                    lo = lo.max(margin);
                }
            }
        }
        let bias = if b_n > 0 {
            b_sum / b_n as f64
        } else if lo.is_finite() && hi.is_finite() {
            (lo + hi) / 2.0
        } else if lo.is_finite() {
            lo
        } else if hi.is_finite() {
            hi
        } else {
            0.0
        };

        let mut support = Vec::new();
        let mut coeffs = Vec::new();
        for k in 0..n {
            if alpha[k] > 1e-12 {
                support.push(data[k].clone());
                coeffs.push(alpha[k] * y[k]);
            }
        }
        let support_block = FeatureBlock::from_rows(&support)
            .expect("support vectors come from a dimension-validated training set");
        Ok(SvcModel {
            kernel: self.kernel,
            support,
            coeffs,
            bias,
            iterations,
            support_block,
        })
    }
}

/// A trained binary SVM.
#[derive(Debug, Clone)]
pub struct SvcModel {
    /// Kernel used in training.
    pub kernel: Kernel,
    /// Support vectors.
    pub support: Vec<Vec<f64>>,
    /// Signed dual coefficients `α_i y_i`.
    pub coeffs: Vec<f64>,
    /// Bias term.
    pub bias: f64,
    /// SMO iterations used.
    pub iterations: usize,
    /// Support vectors packed contiguously for the decision loop (same
    /// rows, same order as `support`).
    support_block: FeatureBlock,
}

impl SvcModel {
    /// Raw decision value; positive = the `true` class. Evaluated as a
    /// fused kernel row over the contiguous support block followed by
    /// the coefficient fold in support order — bit-identical to the
    /// scalar `bias + Σ a·eval(sv, x)` loop.
    pub fn decision(&self, x: &[f64]) -> f64 {
        let mut row = vec![0.0; self.support_block.len()];
        self.kernel.eval_block(&self.support_block, x, &mut row);
        let mut s = self.bias;
        for (&a, &k) in self.coeffs.iter().zip(&row) {
            s += a * k;
        }
        s
    }

    /// Predicted class.
    pub fn predict(&self, x: &[f64]) -> bool {
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

    fn two_cluster_data() -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut data = cluster(&[0.0, 0.0], 30, 1.0, 1);
        let neg = cluster(&[4.0, 4.0], 30, 1.0, 2);
        let mut labels = vec![true; 30];
        data.extend(neg);
        labels.extend(vec![false; 30]);
        (data, labels)
    }

    #[test]
    fn separates_two_clusters() {
        let (data, labels) = two_cluster_data();
        let m = Svc::new(Kernel::Rbf { gamma: 0.5 }, 10.0)
            .fit(&data, &labels)
            .unwrap();
        let correct = data
            .iter()
            .zip(&labels)
            .filter(|(x, &l)| m.predict(x) == l)
            .count();
        assert!(correct >= 58, "training accuracy {correct}/60");
        assert!(m.predict(&[0.2, -0.1]));
        assert!(!m.predict(&[4.2, 3.8]));
    }

    #[test]
    fn linear_kernel_on_linearly_separable() {
        let data = vec![
            vec![0.0, 0.0],
            vec![0.5, 0.2],
            vec![0.1, 0.6],
            vec![3.0, 3.0],
            vec![3.5, 2.8],
            vec![2.8, 3.4],
        ];
        let labels = vec![true, true, true, false, false, false];
        let m = Svc::new(Kernel::Linear, 10.0).fit(&data, &labels).unwrap();
        for (x, &l) in data.iter().zip(&labels) {
            assert_eq!(m.predict(x), l, "misclassified {x:?}");
        }
        // Margin structure: decision magnitude grows away from the
        // boundary.
        assert!(m.decision(&[-1.0, -1.0]) > m.decision(&[1.4, 1.4]));
    }

    #[test]
    fn soft_margin_tolerates_label_noise() {
        let (mut data, mut labels) = two_cluster_data();
        // Flip two labels.
        labels[0] = false;
        labels[35] = true;
        data.push(vec![0.1, 0.1]);
        labels.push(true);
        let m = Svc::new(Kernel::Rbf { gamma: 0.5 }, 1.0)
            .fit(&data, &labels)
            .unwrap();
        // Clean probes still classified correctly despite noise.
        assert!(m.predict(&[0.0, 0.2]));
        assert!(!m.predict(&[4.0, 4.1]));
    }

    #[test]
    fn dual_feasibility_holds() {
        let (data, labels) = two_cluster_data();
        let c = 5.0;
        let m = Svc::new(Kernel::Rbf { gamma: 0.5 }, c)
            .fit(&data, &labels)
            .unwrap();
        // Σ α_i y_i = 0 and 0 < |coeff| <= C.
        let sum: f64 = m.coeffs.iter().sum();
        assert!(sum.abs() < 1e-6, "Σ α y = {sum}");
        for &a in &m.coeffs {
            assert!(a.abs() > 0.0 && a.abs() <= c + 1e-9);
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let svc = Svc::new(Kernel::Linear, 1.0);
        assert!(matches!(
            svc.fit(&[], &[]).unwrap_err(),
            SvmError::EmptyTrainingSet
        ));
        assert!(svc.fit(&[vec![1.0], vec![2.0]], &[true]).is_err());
        // Single-class training set.
        assert!(svc.fit(&[vec![1.0], vec![2.0]], &[true, true]).is_err());
        assert!(Svc::new(Kernel::Linear, 0.0)
            .fit(&[vec![1.0], vec![2.0]], &[true, false])
            .is_err());
    }

    #[test]
    fn free_svs_sit_on_the_margin() {
        let (data, labels) = two_cluster_data();
        let c = 10.0;
        let m = Svc::new(Kernel::Rbf { gamma: 0.5 }, c)
            .fit(&data, &labels)
            .unwrap();
        for (sv, &a) in m.support.iter().zip(&m.coeffs) {
            if a.abs() < c - 1e-6 {
                // Free SV: |decision| ≈ 1.
                let d = m.decision(sv).abs();
                assert!((d - 1.0).abs() < 1e-3, "free SV margin {d}");
            }
        }
    }

    #[test]
    fn tiny_training_set() {
        let m = Svc::new(Kernel::Linear, 1.0)
            .fit(&[vec![0.0], vec![1.0]], &[false, true])
            .unwrap();
        assert!(m.predict(&[2.0]));
        assert!(!m.predict(&[-1.0]));
    }
}
