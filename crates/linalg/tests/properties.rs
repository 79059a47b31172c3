//! Property-based tests of the linear-algebra kernels.

use pieri_linalg::{
    adjugate, cofactor_matrix, det, det_via_minors, eigenvalues, CMat, DetCofactor, Lu, Qr,
};
use pieri_num::{random_complex, seeded_rng, Complex64};
use proptest::prelude::*;

fn random_mat(n: usize, seed: u64) -> CMat {
    let mut rng = seeded_rng(seed);
    CMat::random(n, n, &mut rng, random_complex)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// LU solve: ‖A·x − b‖ small for generic A.
    #[test]
    fn lu_solve_residual(n in 1usize..8, seed in 0u64..10_000) {
        let a = random_mat(n, seed);
        let mut rng = seeded_rng(seed ^ 0xABCD);
        let b: Vec<Complex64> = (0..n).map(|_| random_complex(&mut rng)).collect();
        let lu = Lu::factor(&a).expect("generic matrices are nonsingular");
        let x = lu.solve(&b);
        let ax = a.mul_vec(&x);
        for i in 0..n {
            prop_assert!(ax[i].dist(b[i]) < 1e-8 * (1.0 + b[i].norm()));
        }
    }

    /// det(A·B) = det(A)·det(B).
    #[test]
    fn det_multiplicative(n in 1usize..6, seed in 0u64..10_000) {
        let a = random_mat(n, seed);
        let b = random_mat(n, seed ^ 0x1111);
        let lhs = det(&(&a * &b));
        let rhs = det(&a) * det(&b);
        prop_assert!(lhs.dist(rhs) < 1e-8 * (1.0 + rhs.norm()));
    }

    /// det(Aᵀ) = det(A) and det(Aᴴ) = conj(det(A)).
    #[test]
    fn det_transpose_conjugate(n in 1usize..6, seed in 0u64..10_000) {
        let a = random_mat(n, seed);
        let d = det(&a);
        prop_assert!(det(&a.transpose()).dist(d) < 1e-9 * (1.0 + d.norm()));
        prop_assert!(det(&a.conj_transpose()).dist(d.conj()) < 1e-9 * (1.0 + d.norm()));
    }

    /// A·adj(A) = det(A)·I for all matrices (including near-singular).
    #[test]
    fn adjugate_identity(n in 2usize..6, seed in 0u64..10_000) {
        let a = random_mat(n, seed);
        let d = det(&a);
        let prod = &a * &adjugate(&a);
        let target = CMat::identity(n).scale(d);
        prop_assert!((&prod - &target).fro_norm() < 1e-7 * (1.0 + d.norm()));
    }

    /// The fused engine's cofactors match the minor expansion on the
    /// inputs a Pieri path feeds it: one column (at every position) a
    /// combination of the others — rank n − 1 — perturbed by ε.
    #[test]
    fn fused_cofactors_match_minors_near_rank_deficiency(
        n in 5usize..=8,
        eps_idx in 0usize..5,
        cols in 0usize..=8,
        seed in 0u64..10_000,
    ) {
        let cols = cols.min(n);
        let eps = [0.0, 1e-16, 1e-13, 1e-10, 1e-6][eps_idx];
        let mut rng = seeded_rng(seed);
        let mut engine = DetCofactor::new();
        for dep in 0..n {
            let mut a = CMat::random(n, n, &mut rng, random_complex);
            let w: Vec<Complex64> = (0..n).map(|_| random_complex(&mut rng)).collect();
            for i in 0..n {
                let mut v = random_complex(&mut rng).scale(eps);
                for j in (0..n).filter(|&j| j != dep) {
                    v += w[j] * a[(i, j)];
                }
                a[(i, dep)] = v;
            }
            let c_ref = cofactor_matrix(&a);
            let tol = 1e-12 * c_ref.max_norm();
            let mut full = CMat::zeros(n, n);
            engine.det_and_cofactor_into(&a, &mut full);
            prop_assert!(
                (&full - &c_ref).max_norm() <= tol,
                "n={} dep={} eps={:e}", n, dep, eps
            );
            let mut part = CMat::zeros(n, n);
            engine.det_and_cofactor_cols_into(&a, &mut part, cols);
            for r in 0..n {
                for c in 0..cols {
                    prop_assert!(
                        part[(r, c)].dist(c_ref[(r, c)]) <= tol,
                        "n={} dep={} eps={:e} cols={}: ({}, {})", n, dep, eps, cols, r, c
                    );
                }
            }
        }
    }

    /// Cofactor expansion agrees with LU determinants.
    #[test]
    fn minor_det_agrees(n in 1usize..6, seed in 0u64..10_000) {
        let a = random_mat(n, seed);
        let d1 = det(&a);
        let d2 = det_via_minors(&a);
        prop_assert!(d1.dist(d2) < 1e-8 * (1.0 + d1.norm()));
    }

    /// QR reconstruction and unitarity.
    #[test]
    fn qr_reconstruction(rows in 2usize..7, extra in 0usize..3, seed in 0u64..10_000) {
        let cols = rows.saturating_sub(extra).max(1);
        let mut rng = seeded_rng(seed);
        let a = CMat::random(rows, cols, &mut rng, random_complex);
        let qr = Qr::factor(&a);
        prop_assert!((&(qr.q() * qr.r()) - &a).fro_norm() < 1e-9);
        let qhq = &qr.q().conj_transpose() * qr.q();
        prop_assert!((&qhq - &CMat::identity(rows)).fro_norm() < 1e-9);
    }

    /// Eigenvalue sum = trace, product = determinant.
    #[test]
    fn eigen_trace_det(n in 1usize..8, seed in 0u64..10_000) {
        let a = random_mat(n, seed);
        let eigs = eigenvalues(&a).expect("QR converges");
        prop_assert_eq!(eigs.len(), n);
        let sum: Complex64 = eigs.iter().copied().sum();
        let prod: Complex64 = eigs.iter().copied().product();
        prop_assert!(sum.dist(a.trace()) < 1e-7 * (1.0 + a.trace().norm()));
        let d = det(&a);
        prop_assert!(prod.dist(d) < 1e-6 * (1.0 + d.norm()));
    }

    /// Shifting a matrix shifts its spectrum: eig(A + cI) = eig(A) + c.
    #[test]
    fn eigen_shift(n in 1usize..6, seed in 0u64..10_000) {
        let a = random_mat(n, seed);
        let mut rng = seeded_rng(seed ^ 0x5555);
        let c = random_complex(&mut rng);
        let shifted = &a + &CMat::identity(n).scale(c);
        let mut e1: Vec<Complex64> = eigenvalues(&a).unwrap().iter().map(|&z| z + c).collect();
        let e2 = eigenvalues(&shifted).unwrap();
        // Multiset match.
        for z in e2 {
            let (idx, d) = e1
                .iter()
                .enumerate()
                .map(|(i, w)| (i, w.dist(z)))
                .min_by(|x, y| x.1.total_cmp(&y.1))
                .expect("same length");
            prop_assert!(d < 1e-6 * (1.0 + z.norm()), "eigenvalue {z:?} unmatched ({d})");
            e1.swap_remove(idx);
        }
    }
}
