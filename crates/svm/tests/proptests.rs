//! Property-based tests for the SVM solvers, driven by the in-tree
//! seeded harness (`tsvr_sim::check`).

use tsvr_sim::check;
use tsvr_sim::Pcg32;
use tsvr_svm::{FeatureBlock, Kernel, OneClassSvm, Svc};

/// A cluster of 3-D points with coordinates uniform in `[lo, hi)`.
fn points(rng: &mut Pcg32, lo_n: usize, hi_n: usize, lo: f64, hi: f64) -> Vec<Vec<f64>> {
    let n = check::len_in(rng, lo_n, hi_n);
    (0..n).map(|_| check::vec_f64(rng, 3, lo, hi)).collect()
}

#[test]
fn oneclass_nu_property() {
    check::cases(40, |case, rng| {
        let data = points(rng, 10, 60, -1.0, 1.0);
        let nu = rng.uniform(0.05, 0.6);
        let model = OneClassSvm::new(Kernel::Rbf { gamma: 1.0 }, nu)
            .fit(&data)
            .unwrap();
        let n = data.len() as f64;
        // Count strict outliers with a tolerance above the solver's
        // KKT threshold: boundary SVs land within ±tolerance of zero.
        let outliers = data.iter().filter(|x| model.decision(x) < -1e-5).count() as f64;
        // ν-property with finite-sample slack (±2 points): the exact
        // statement is asymptotic.
        assert!(
            outliers / n <= nu + 2.0 / n + 1e-9,
            "case {case}: outliers {outliers}/{n} exceed nu {nu}"
        );
        assert!(
            model.support_count() as f64 / n >= nu - 2.0 / n - 1e-9,
            "case {case}: SVs {} below nu {nu}",
            model.support_count()
        );
    });
}

#[test]
fn oneclass_alphas_sum_to_one() {
    check::cases(40, |case, rng| {
        let data = points(rng, 5, 40, -2.0, 2.0);
        let nu = rng.uniform(0.1, 0.8);
        let model = OneClassSvm::new(Kernel::Rbf { gamma: 0.7 }, nu)
            .fit(&data)
            .unwrap();
        let sum: f64 = model.coeffs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-7, "case {case}: sum alpha = {sum}");
        let c = 1.0 / (nu * data.len() as f64);
        for &a in &model.coeffs {
            assert!(a > 0.0 && a <= c + 1e-9, "case {case}: alpha {a} out of box");
        }
    });
}

#[test]
fn oneclass_decision_invariant_to_duplication() {
    check::cases(40, |case, rng| {
        let data = points(rng, 5, 20, -1.0, 1.0);
        // Training on the same data twice over yields (approximately)
        // the same decision boundary: the dual is scale-structured.
        let m1 = OneClassSvm::new(Kernel::Rbf { gamma: 1.0 }, 0.3)
            .fit(&data)
            .unwrap();
        let doubled: Vec<Vec<f64>> = data.iter().chain(data.iter()).cloned().collect();
        let m2 = OneClassSvm::new(Kernel::Rbf { gamma: 1.0 }, 0.3)
            .fit(&doubled)
            .unwrap();
        for probe in data.iter().take(5) {
            let d1 = m1.decision(probe);
            let d2 = m2.decision(probe);
            assert!((d1 - d2).abs() < 0.05, "case {case}: {d1} vs {d2}");
        }
    });
}

#[test]
fn oneclass_fit_survives_duplicate_identical_vectors() {
    check::cases(64, |case, rng| {
        // Exact duplicates make every kernel row identical, so the SMO
        // step's denominator `q_ii + q_jj − 2 q_ij` collapses to zero —
        // the clamped degenerate path must still converge to a finite
        // model instead of producing NaN steps.
        let x = check::vec_f64(rng, 3, -1.0, 1.0);
        let n = check::len_in(rng, 2, 30);
        let mut data = vec![x.clone(); n];
        if rng.chance(0.5) {
            // Sometimes a second duplicated cluster.
            let y = check::vec_f64(rng, 3, -1.0, 1.0);
            for _ in 0..check::len_in(rng, 1, 6) {
                data.push(y.clone());
            }
        }
        let nu = rng.uniform(0.05, 0.8);
        let model = OneClassSvm::new(Kernel::Rbf { gamma: 1.0 }, nu)
            .fit(&data)
            .unwrap();
        assert!(model.rho.is_finite(), "case {case}: rho {}", model.rho);
        for &a in &model.coeffs {
            assert!(a.is_finite(), "case {case}: alpha {a}");
        }
        let d = model.decision(&x);
        assert!(d.is_finite(), "case {case}: decision {d}");
        // The ν-property still holds: at most ~ν·N strict outliers
        // (finite-sample slack as in `oneclass_nu_property`).
        let n_total = data.len() as f64;
        let outliers = data.iter().filter(|p| model.decision(p) < -1e-5).count() as f64;
        assert!(
            outliers / n_total <= nu + 2.0 / n_total + 1e-9,
            "case {case}: outliers {outliers}/{n_total} exceed nu {nu}"
        );
        // Batch scoring agrees bitwise with single calls.
        for (b, p) in model.decision_batch(&data).iter().zip(&data) {
            assert_eq!(b.to_bits(), model.decision(p).to_bits(), "case {case}");
        }
    });
}

#[test]
fn svc_separates_translated_clusters() {
    check::cases(40, |case, rng| {
        let base = points(rng, 6, 20, -0.8, 0.8);
        let shift = rng.uniform(3.0, 6.0);
        // Positive cluster = base; negative = base translated by shift.
        let mut data = base.clone();
        let mut labels = vec![true; base.len()];
        for p in &base {
            data.push(p.iter().map(|x| x + shift).collect());
            labels.push(false);
        }
        let model = Svc::new(Kernel::Rbf { gamma: 0.5 }, 10.0)
            .fit(&data, &labels)
            .unwrap();
        let correct = data
            .iter()
            .zip(&labels)
            .filter(|(x, &l)| model.predict(x) == l)
            .count();
        assert!(
            correct == data.len(),
            "case {case}: only {correct}/{} correct on separable data",
            data.len()
        );
    });
}

#[test]
fn svc_dual_constraint_holds() {
    check::cases(40, |case, rng| {
        let base = points(rng, 6, 16, -1.0, 1.0);
        let mut data = base.clone();
        let mut labels = vec![true; base.len()];
        for p in &base {
            data.push(p.iter().map(|x| x + 4.0).collect());
            labels.push(false);
        }
        let c = 5.0;
        let model = Svc::new(Kernel::Rbf { gamma: 0.5 }, c)
            .fit(&data, &labels)
            .unwrap();
        let sum: f64 = model.coeffs.iter().sum();
        assert!(sum.abs() < 1e-6, "case {case}: sum alpha*y = {sum}");
        for &a in &model.coeffs {
            assert!(a.abs() <= c + 1e-9, "case {case}: alpha {a} beyond C");
        }
    });
}

#[test]
fn kernels_are_symmetric_and_bounded() {
    check::cases(128, |case, rng| {
        let u = check::vec_f64(rng, 4, -5.0, 5.0);
        let v = check::vec_f64(rng, 4, -5.0, 5.0);
        for k in [
            Kernel::Rbf { gamma: 0.3 },
            Kernel::Laplacian { sigma: 2.0 },
            Kernel::Linear,
        ] {
            assert!(
                (k.eval(&u, &v) - k.eval(&v, &u)).abs() < 1e-12,
                "case {case}: kernel not symmetric"
            );
        }
        // RBF/Laplacian in (0, 1], self-similarity exactly 1.
        for k in [Kernel::Rbf { gamma: 0.3 }, Kernel::Laplacian { sigma: 2.0 }] {
            let kv = k.eval(&u, &v);
            assert!(kv > 0.0 && kv <= 1.0, "case {case}: k = {kv}");
            assert!(
                (k.eval(&u, &u) - 1.0).abs() < 1e-12,
                "case {case}: k(u,u) != 1"
            );
        }
    });
}

#[test]
fn rbf_gram_matrix_is_psd() {
    check::cases(64, |case, rng| {
        let data = points(rng, 2, 10, -2.0, 2.0);
        // Mercer check: x^T G x >= 0 for random x (probe with a few
        // deterministic vectors derived from the data).
        let k = Kernel::Rbf { gamma: 0.8 };
        let g = k.gram(&FeatureBlock::from_rows(&data).unwrap());
        let n = data.len();
        for probe_seed in 0..3u64 {
            let x: Vec<f64> = (0..n)
                .map(|i| (((i as u64 + 1) * (probe_seed + 3) * 2654435761) % 17) as f64 / 8.5 - 1.0)
                .collect();
            let mut quad = 0.0;
            for i in 0..n {
                for j in 0..n {
                    quad += x[i] * x[j] * g[i * n + j];
                }
            }
            assert!(quad >= -1e-8, "case {case}: x^T G x = {quad}");
        }
    });
}
