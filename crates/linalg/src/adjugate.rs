//! Cofactor and adjugate machinery for determinantal conditions.
//!
//! lint:hot-path — evaluation/Jacobian kernels run per Newton iteration
//! on reused buffers; only the one-time constructor allocates.
//!
//! The Pieri intersection conditions are determinants `det A(x,t)` of small
//! matrices whose entries are *affine* in the unknowns. By Jacobi's formula,
//!
//! ```text
//! ∂ det A / ∂ x_k  =  Σ_{r,c}  C_{r,c} · ∂A_{r,c}/∂x_k ,
//! ```
//!
//! where `C` is the cofactor matrix. Evaluating the cofactor matrix
//! numerically therefore differentiates every intersection condition exactly
//! — no symbolic determinant expansion is ever formed.
//!
//! Along a Pieri path every condition matrix is singular (each condition
//! *is* `det A = 0`), so `adj(A) = det(A)·A⁻¹` through an LU solve would
//! divide by a vanishing pivot exactly where the Jacobian matters most.
//! [`DetCofactor`] instead splits off the last pivot `μ` of `P·A = L·U`
//! and forms `adj(A)` from the leading block alone (rank-one tail, G. W.
//! Stewart, "On the adjugate matrix", LAA 283, 1998): `O(n³)`, exact for
//! rank `n − 1`. The per-entry minors of [`cofactor_matrix`] (`O(n⁵)`,
//! unconditionally stable) remain the reference and the engine's fallback
//! when an earlier pivot is tiny.

use crate::lu::{Lu, LuError};
use crate::matrix::CMat;
use pieri_num::Complex64;

/// Determinant computed by recursive cofactor expansion.
///
/// Exponential in `n`; intended for `n ≤ 4` cross-checks and for the bases
/// of the minor computations. Falls back to expansion along the first row.
pub fn det_via_minors(a: &CMat) -> Complex64 {
    assert!(a.is_square(), "det of non-square matrix");
    let n = a.rows();
    match n {
        0 => Complex64::ONE,
        1 => a[(0, 0)],
        2 => a[(0, 0)] * a[(1, 1)] - a[(0, 1)] * a[(1, 0)],
        3 => {
            let m = |i: usize, j: usize| a[(i, j)];
            m(0, 0) * (m(1, 1) * m(2, 2) - m(1, 2) * m(2, 1))
                - m(0, 1) * (m(1, 0) * m(2, 2) - m(1, 2) * m(2, 0))
                + m(0, 2) * (m(1, 0) * m(2, 1) - m(1, 1) * m(2, 0))
        }
        _ => {
            let mut acc = Complex64::ZERO;
            let mut sign = 1.0;
            for j in 0..n {
                let entry = a[(0, j)];
                if entry != Complex64::ZERO {
                    acc += entry.scale(sign) * det_via_minors(&a.minor(0, j));
                }
                sign = -sign;
            }
            acc
        }
    }
}

/// Determinant of an `(n−1)`-sized minor through LU, with a cofactor-
/// expansion fallback when the minor itself is singular (then its
/// determinant is simply zero, which LU reports as an error).
fn minor_det(a: &CMat, r: usize, c: usize) -> Complex64 {
    let m = a.minor(r, c);
    if m.rows() <= 3 {
        return det_via_minors(&m);
    }
    match Lu::factor(&m) {
        Ok(lu) => lu.det(),
        Err(LuError::Singular { .. }) => Complex64::ZERO,
        Err(LuError::NotSquare) => unreachable!("minor of square matrix is square"),
    }
}

/// Single cofactor `C_{r,c} = (−1)^{r+c} · det(minor(a, r, c))`.
pub fn cofactor(a: &CMat, r: usize, c: usize) -> Complex64 {
    let sign = if (r + c).is_multiple_of(2) { 1.0 } else { -1.0 };
    minor_det(a, r, c).scale(sign)
}

/// Full cofactor matrix `C` with `C_{r,c}` in position `(r, c)`.
///
/// The adjugate is its transpose: `adj(A) = Cᵀ`, and `A·adj(A) = det(A)·I`
/// holds for *all* square matrices, including singular ones — the property
/// the homotopy Jacobians rely on.
pub fn cofactor_matrix(a: &CMat) -> CMat {
    assert!(a.is_square(), "cofactor matrix of non-square matrix");
    let n = a.rows();
    CMat::from_fn(n, n, |r, c| cofactor(a, r, c))
}

/// Adjugate `adj(A) = Cᵀ` (classical adjoint).
pub fn adjugate(a: &CMat) -> CMat {
    cofactor_matrix(a).transpose()
}

/// Gradient of `det A` with respect to the matrix entries:
/// `∂ det A / ∂ A_{r,c} = C_{r,c}`, returned as the full cofactor matrix.
///
/// This is the quantity the Pieri homotopy evaluator contracts against
/// `∂A/∂x_k` (sparse: each unknown touches exactly one entry) and against
/// `∂A/∂t` (dense in the moving column block).
pub fn det_gradient(a: &CMat) -> CMat {
    cofactor_matrix(a)
}

/// Guard on the ratio of largest to smallest of the first `n − 1` LU
/// pivots, above which [`DetCofactor`] abandons the rank-one-tail route
/// for the unconditionally stable minor expansion. That route inverts
/// the leading block `U₁` and loses roughly `κ(U₁)·ε` relative accuracy,
/// so beyond this ratio fewer than ~4 significant digits would survive —
/// too few for a Newton Jacobian. The last pivot is not guarded: the
/// route never divides by it.
pub const FUSED_PIVOT_RATIO_LIMIT: f64 = 1e12;

/// Fused determinant + cofactor evaluation with reusable storage.
///
/// One LU factorisation `P·A = L·U`, `U = [U₁ u; 0 μ]`, yields the
/// determinant (product of pivots) *and* every cofactor entry through
/// `adj(A) = sign(P)·det(U₁)·[μ·U₁⁻¹, −U₁⁻¹·u; 0, 1]·L⁻¹·P` (Stewart
/// 1998): two triangular sweeps per column, `O(n³)` total versus the
/// `O(n⁵)` of [`cofactor_matrix`]'s per-entry minors. The formula never
/// divides by `μ`, so it is exact for rank `n − 1` — which, by
/// construction, is where every Pieri condition matrix sits along its
/// path — and equals `det(A)·A⁻ᵀ` for regular input. The minor
/// expansion (bitwise [`cofactor_matrix`]) runs only when LU meets a
/// tiny pivot *before* the last step, or the first `n − 1` pivots
/// exceed [`FUSED_PIVOT_RATIO_LIMIT`]: rank ≤ `n − 2` or an unlucky
/// pivot order. Matrices up to 4×4 use closed-form minors. Every buffer
/// is owned and reused, so steady-state calls perform no heap
/// allocation.
#[derive(Debug)]
pub struct DetCofactor {
    lu: Lu,
    col: Vec<Complex64>,
    minor: CMat,
    minor_lu: Lu,
}

impl Default for DetCofactor {
    fn default() -> Self {
        DetCofactor::new()
    }
}

impl DetCofactor {
    /// Creates an engine with empty buffers; they grow on first use and
    /// are reused afterwards.
    pub fn new() -> Self {
        DetCofactor {
            lu: Lu::default(),
            // lint:allow(hot-path-alloc) — empty-capacity constructor;
            // the buffer grows on first use and is reused afterwards.
            col: Vec::new(),
            minor: CMat::zeros(0, 0),
            minor_lu: Lu::default(),
        }
    }

    /// Computes `det(a)` and writes the full cofactor matrix into `cof`.
    ///
    /// The determinant follows the [`crate::try_det`] convention:
    /// numerically singular input reports `0`. The cofactor of a singular
    /// matrix is still well-defined and nonzero for rank `n−1`, which is
    /// what the homotopy Jacobians rely on.
    ///
    /// # Panics
    /// Panics when `a` is not square or `cof` has a different shape.
    pub fn det_and_cofactor_into(&mut self, a: &CMat, cof: &mut CMat) -> Complex64 {
        self.det_and_cofactor_cols_into(a, cof, a.rows())
    }

    /// [`DetCofactor::det_and_cofactor_into`] restricted to the leading
    /// `cols` cofactor columns; the remaining columns of `cof` are left
    /// untouched. The Newton-corrector kernel only ever contracts the
    /// `p` X-block columns of a condition matrix, so it skips the
    /// plane-block extraction entirely (`jacobian_and_dt` still needs
    /// every column for the `∂A/∂t` contraction).
    ///
    /// # Panics
    /// Panics when `a` is not square, `cof` has a different shape, or
    /// `cols > a.rows()`.
    pub fn det_and_cofactor_cols_into(
        &mut self,
        a: &CMat,
        cof: &mut CMat,
        cols: usize,
    ) -> Complex64 {
        assert!(a.is_square(), "det_and_cofactor_into: non-square matrix");
        assert_eq!(
            (cof.rows(), cof.cols()),
            (a.rows(), a.cols()),
            "det_and_cofactor_into: cofactor shape mismatch"
        );
        assert!(cols <= a.rows(), "det_and_cofactor_into: column range");
        let n = a.rows();
        // Up to 4×4 the closed-form minors beat the triangular-solve
        // route for the *cofactors* (no solves, unconditionally stable)
        // — and `m + p = 4` is the most common condition-matrix size in
        // the pole-placement workload. The determinant still comes from
        // the LU pivots: near a singularity (= near a solution, where
        // residual accuracy decides whether Newton converges) the pivot
        // product is markedly more accurate than a Laplace expansion,
        // whose four large terms cancel to the tiny value. This also
        // keeps the fused residual bitwise identical to [`crate::det`].
        if n <= 4 {
            self.cofactor_via_minors(a, cof, cols);
            return match Lu::factor_into(a, &mut self.lu) {
                Ok(()) => self.lu.det(),
                Err(LuError::Singular { .. }) => Complex64::ZERO,
                Err(LuError::NotSquare) => unreachable!("squareness asserted above"),
            };
        }
        // The determinant is the pivot product, or 0 when LU reports
        // singular — bitwise what `crate::det` returns.
        let d = match Lu::factor_into(a, &mut self.lu) {
            Ok(()) => self.lu.det(),
            Err(LuError::Singular { step }) if step == n - 1 => Complex64::ZERO,
            Err(LuError::Singular { .. }) => {
                self.cofactor_via_minors(a, cof, cols);
                return Complex64::ZERO;
            }
            Err(LuError::NotSquare) => unreachable!("squareness asserted above"),
        };
        if self.lu.leading_pivot_ratio() <= FUSED_PIVOT_RATIO_LIMIT {
            self.col.resize(n, Complex64::ZERO);
            self.lu.cofactor_cols_into(cof, cols, &mut self.col);
        } else {
            self.cofactor_via_minors(a, cof, cols);
        }
        d
    }

    /// Minor-expansion fallback writing the leading `cols` columns into
    /// `cof` — the same arithmetic as [`cofactor_matrix`] (bitwise
    /// identical entries), but against the engine's reusable minor/LU
    /// scratch.
    fn cofactor_via_minors(&mut self, a: &CMat, cof: &mut CMat, cols: usize) {
        let n = a.rows();
        if n == 0 {
            return;
        }
        if (self.minor.rows(), self.minor.cols()) != (n - 1, n - 1) {
            self.minor = CMat::zeros(n - 1, n - 1);
        }
        for r in 0..n {
            for c in 0..cols {
                a.minor_into(r, c, &mut self.minor);
                let d = if n - 1 <= 3 {
                    det_via_minors(&self.minor)
                } else {
                    match Lu::factor_into(&self.minor, &mut self.minor_lu) {
                        Ok(()) => self.minor_lu.det(),
                        Err(LuError::Singular { .. }) => Complex64::ZERO,
                        Err(LuError::NotSquare) => unreachable!("minor is square"),
                    }
                };
                let sign = if (r + c).is_multiple_of(2) { 1.0 } else { -1.0 };
                cof[(r, c)] = d.scale(sign);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu;
    use pieri_num::{random_complex, seeded_rng};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn det_via_minors_matches_lu() {
        let mut rng = seeded_rng(20);
        for n in 1..=6 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let d1 = det_via_minors(&a);
            let d2 = lu::det(&a);
            assert!(d1.dist(d2) < 1e-9 * (1.0 + d1.norm()), "n={n}");
        }
    }

    #[test]
    fn adjugate_identity_nonsingular() {
        let mut rng = seeded_rng(21);
        for n in 2..=6 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let adj = adjugate(&a);
            let d = lu::det(&a);
            let prod = &a * &adj;
            let target = CMat::identity(n).scale(d);
            let err = (&prod - &target).fro_norm();
            assert!(err < 1e-8 * (1.0 + d.norm()), "n={n} err={err}");
        }
    }

    #[test]
    fn adjugate_identity_holds_for_singular_matrices() {
        // Rank n−1 matrix: adj(A) is the rank-1 matrix spanning the null
        // space; A·adj(A) must be exactly det(A)·I = 0.
        let a = CMat::from_rows(&[
            vec![c(1.0, 0.0), c(2.0, 0.0), c(3.0, 0.0)],
            vec![c(4.0, 0.0), c(5.0, 0.0), c(6.0, 0.0)],
            vec![c(5.0, 0.0), c(7.0, 0.0), c(9.0, 0.0)], // row0 + row1
        ]);
        let adj = adjugate(&a);
        assert!(
            adj.fro_norm() > 1e-12,
            "adjugate of rank n−1 matrix is nonzero"
        );
        let prod = &a * &adj;
        assert!(prod.fro_norm() < 1e-10, "A·adj(A) = 0 for singular A");
    }

    #[test]
    fn cofactor_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(22);
        let a = CMat::random(5, 5, &mut rng, random_complex);
        let grad = det_gradient(&a);
        let d0 = det_via_minors(&a);
        let h = 1e-7;
        for r in 0..5 {
            for cidx in 0..5 {
                let mut ap = a.clone();
                ap[(r, cidx)] += Complex64::real(h);
                let d1 = det_via_minors(&ap);
                let fd = (d1 - d0) / h;
                assert!(
                    fd.dist(grad[(r, cidx)]) < 1e-5 * (1.0 + grad[(r, cidx)].norm()),
                    "entry ({r},{cidx}): fd={fd:?} grad={:?}",
                    grad[(r, cidx)]
                );
            }
        }
    }

    #[test]
    fn adjugate_of_2x2_closed_form() {
        let a = CMat::from_rows(&[
            vec![c(1.0, 1.0), c(2.0, 0.0)],
            vec![c(0.0, 3.0), c(4.0, -1.0)],
        ]);
        let adj = adjugate(&a);
        assert!(adj[(0, 0)].dist(a[(1, 1)]) < 1e-14);
        assert!(adj[(0, 1)].dist(-a[(0, 1)]) < 1e-14);
        assert!(adj[(1, 0)].dist(-a[(1, 0)]) < 1e-14);
        assert!(adj[(1, 1)].dist(a[(0, 0)]) < 1e-14);
    }

    #[test]
    fn fused_det_cofactor_matches_minors_on_generic_matrices() {
        let mut rng = seeded_rng(23);
        let mut engine = DetCofactor::new();
        for n in 1..=8 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let mut cof = CMat::zeros(n, n);
            let d = engine.det_and_cofactor_into(&a, &mut cof);
            let d_ref = lu::det(&a);
            assert!(d.dist(d_ref) < 1e-10 * (1.0 + d_ref.norm()), "n={n} det");
            let c_ref = cofactor_matrix(&a);
            let scale = c_ref.max_norm().max(1.0);
            for r in 0..n {
                for cc in 0..n {
                    assert!(
                        cof[(r, cc)].dist(c_ref[(r, cc)]) < 1e-12 * scale,
                        "n={n} ({r},{cc}): fused={:?} minors={:?}",
                        cof[(r, cc)],
                        c_ref[(r, cc)]
                    );
                }
            }
        }
    }

    /// `cof` agrees with the minor expansion to 1e-12 relative and
    /// satisfies `A·adj(A) = det(A)·I` with `adj(A) = cofᵀ`.
    fn assert_cofactor_identities(a: &CMat, cof: &CMat, d: Complex64) {
        let n = a.rows();
        let c_ref = cofactor_matrix(a);
        let scale = c_ref.max_norm();
        let err = (cof - &c_ref).max_norm();
        assert!(err <= 1e-12 * scale, "n={n}: |cof − minors| = {err:e}");
        let prod = a * &cof.transpose();
        let err = (&prod - &CMat::identity(n).scale(d)).max_norm();
        let tol = 1e-12 * a.max_norm() * scale * n as f64;
        assert!(err <= tol, "n={n}: |A·adj(A) − det·I| = {err:e}");
    }

    #[test]
    fn fused_engine_rank_one_tail_handles_singular_input() {
        // Rank n−1 at n = 5 (past the closed-form cutoff): LU stops at
        // the last pivot, det reports 0, and the rank-one-tail route
        // still yields the nonzero cofactors.
        let a = CMat::from_rows(&[
            vec![
                c(1.0, 0.0),
                c(2.0, 0.0),
                c(3.0, 0.0),
                c(0.5, 1.0),
                c(1.0, -1.0),
            ],
            vec![
                c(4.0, 0.0),
                c(5.0, 0.0),
                c(6.0, 0.0),
                c(-1.0, 0.25),
                c(0.0, 2.0),
            ],
            vec![
                c(5.0, 0.0),
                c(7.0, 0.0),
                c(9.0, 0.0),
                c(-0.5, 1.25),
                c(1.0, 1.0),
            ], // row0 + row1
            vec![
                c(0.0, 2.0),
                c(1.0, 1.0),
                c(2.0, 0.0),
                c(3.0, 0.0),
                c(-2.0, 0.5),
            ],
            vec![
                c(1.5, 0.0),
                c(0.0, -1.0),
                c(2.5, 2.0),
                c(1.0, 0.0),
                c(0.25, 0.0),
            ],
        ]);
        let mut engine = DetCofactor::new();
        let mut cof = CMat::zeros(5, 5);
        let d = engine.det_and_cofactor_into(&a, &mut cof);
        assert!(matches!(Lu::factor(&a), Err(LuError::Singular { step: 4 })));
        assert_eq!(d, Complex64::ZERO);
        assert_cofactor_identities(&a, &cof, d);
        assert!(cof.fro_norm() > 1e-10, "rank n−1 cofactor is nonzero");
    }

    #[test]
    fn fused_engine_small_matrices_use_closed_form_minors() {
        // n ≤ 4 takes the closed-form route for the *cofactors*
        // (bitwise the minor expansion) while the determinant still
        // comes from the LU pivots — Laplace expansion loses the
        // cancellation fight near singularity. Singular input reports
        // a zero det without error.
        let mut rng = seeded_rng(25);
        let mut engine = DetCofactor::new();
        for n in 1..=4 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let mut cof = CMat::zeros(n, n);
            let d = engine.det_and_cofactor_into(&a, &mut cof);
            assert_eq!(cof, cofactor_matrix(&a), "n={n}: bitwise minors");
            let d_ref = det_via_minors(&a);
            assert!(d.dist(d_ref) < 1e-12 * (1.0 + d_ref.norm()), "n={n}");
        }
        // Singular 3×3 (rank 1).
        let s = CMat::from_fn(3, 3, |i, j| c((i + 1) as f64 * (j + 1) as f64, 0.0));
        let mut cof = CMat::zeros(3, 3);
        let d = engine.det_and_cofactor_into(&s, &mut cof);
        assert!(d.norm() < 1e-12, "singular det ≈ 0, got {d:?}");
    }

    #[test]
    fn fused_engine_rank_one_tail_handles_tiny_last_pivot() {
        // diag(1, …, 1, 1e-13): the full pivot ratio exceeds the guard,
        // but only the last pivot is small, which the rank-one-tail
        // route never divides by.
        let n = 5;
        let a = CMat::from_fn(n, n, |i, j| {
            if i != j {
                Complex64::ZERO
            } else if i == n - 1 {
                c(1e-13, 0.0)
            } else {
                Complex64::ONE
            }
        });
        let mut engine = DetCofactor::new();
        let mut cof = CMat::zeros(n, n);
        let d = engine.det_and_cofactor_into(&a, &mut cof);
        assert_eq!(d, lu::det(&a), "LU det survives");
        assert_cofactor_identities(&a, &cof, d);
    }

    /// `a` reaches the minor fallback — a tiny pivot before the last
    /// step, or a wild ratio among the first `n − 1` pivots — and the
    /// engine returns bitwise [`cofactor_matrix`] with the LU det.
    fn assert_minor_fallback(engine: &mut DetCofactor, a: &CMat) {
        let n = a.rows();
        let early = matches!(Lu::factor(a), Err(LuError::Singular { step }) if step < n - 1);
        let wild = Lu::factor(a).is_ok_and(|f| f.leading_pivot_ratio() > FUSED_PIVOT_RATIO_LIMIT);
        assert!(early || wild, "input reaches the minor fallback");
        let mut cof = CMat::zeros(n, n);
        let d = engine.det_and_cofactor_into(a, &mut cof);
        assert_eq!(d, lu::det(a), "LU det (0 when singular)");
        assert_eq!(cof, cofactor_matrix(a), "bitwise the minors");
    }

    #[test]
    fn fused_engine_falls_back_on_singular_input() {
        // Singular input whose LU stops before the last step still takes
        // the minor expansion: rank n−2, and rank n−1 behind a zero
        // first pivot column.
        let mut rng = seeded_rng(27);
        let n = 6;
        let generic = CMat::random(n, n, &mut rng, random_complex);
        let rank_n_minus_2 = CMat::from_fn(n, n, |i, j| generic[(i % 4, j)]);
        let zero_first_col = CMat::from_fn(n, n, |i, j| {
            if j == 0 {
                Complex64::ZERO
            } else {
                generic[(i, j)]
            }
        });
        let mut engine = DetCofactor::new();
        assert_minor_fallback(&mut engine, &rank_n_minus_2);
        assert_minor_fallback(&mut engine, &zero_first_col);
        assert!(
            cofactor_matrix(&zero_first_col).fro_norm() > 1e-10,
            "rank n−1 cofactor is nonzero"
        );
    }

    #[test]
    fn fused_engine_falls_back_on_wild_pivot_ratio() {
        // diag(1e-13, 1, …, 1): regular, but the first n−1 pivots span
        // 1e13 — past the guard on the block the rank-one tail inverts.
        let n = 5;
        let a = CMat::from_fn(n, n, |i, j| match (i, j) {
            (0, 0) => c(1e-13, 0.0),
            _ if i == j => Complex64::ONE,
            _ => Complex64::ZERO,
        });
        assert_minor_fallback(&mut DetCofactor::new(), &a);
    }

    #[test]
    fn fused_engine_column_restriction_matches_full_run() {
        let mut rng = seeded_rng(26);
        let mut engine = DetCofactor::new();
        for n in 2..=7 {
            for cols in [0, 1, n / 2, n] {
                let a = CMat::random(n, n, &mut rng, random_complex);
                let mut full = CMat::zeros(n, n);
                let d_full = engine.det_and_cofactor_into(&a, &mut full);
                let mut part = CMat::zeros(n, n);
                let d_part = engine.det_and_cofactor_cols_into(&a, &mut part, cols);
                assert_eq!(d_full, d_part, "n={n} cols={cols}: same det");
                for r in 0..n {
                    for c in 0..cols {
                        assert_eq!(
                            part[(r, c)],
                            full[(r, c)],
                            "n={n} cols={cols} ({r},{c}): leading columns bitwise equal"
                        );
                    }
                    for c in cols..n {
                        assert_eq!(
                            part[(r, c)],
                            Complex64::ZERO,
                            "n={n} cols={cols}: trailing columns untouched"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_engine_storage_survives_shape_changes() {
        let mut rng = seeded_rng(24);
        let mut engine = DetCofactor::new();
        for &n in &[4usize, 6, 3, 6, 8, 4] {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let mut cof = CMat::zeros(n, n);
            engine.det_and_cofactor_into(&a, &mut cof);
            let c_ref = cofactor_matrix(&a);
            let scale = c_ref.max_norm().max(1.0);
            assert!(
                (&cof - &c_ref).max_norm() < 1e-11 * scale,
                "n={n} after resize"
            );
        }
    }

    #[test]
    fn empty_and_1x1_edge_cases() {
        assert_eq!(det_via_minors(&CMat::zeros(0, 0)), Complex64::ONE);
        let a = CMat::from_rows(&[vec![c(7.0, -2.0)]]);
        assert_eq!(det_via_minors(&a), c(7.0, -2.0));
        // adj of 1x1 is [1] (empty minor has det 1).
        assert_eq!(adjugate(&a)[(0, 0)], Complex64::ONE);
    }
}
