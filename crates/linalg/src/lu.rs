//! LU factorisation with partial pivoting.
//!
//! lint:hot-path — `factor_into`/`solve_in_place` run inside every
//! Newton iteration; steady state reuses caller buffers, and the
//! allocating constructors/wrappers below are individually justified.

use crate::matrix::CMat;
use pieri_num::Complex64;

/// Failure modes of [`Lu::factor`] and its solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuError {
    /// The matrix is not square.
    NotSquare,
    /// A pivot column was numerically zero: the matrix is singular to
    /// working precision.
    Singular {
        /// Elimination step at which no acceptable pivot was found.
        step: usize,
    },
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::NotSquare => write!(f, "LU factorisation requires a square matrix"),
            LuError::Singular { step } => {
                write!(f, "matrix is singular to working precision (step {step})")
            }
        }
    }
}

impl std::error::Error for LuError {}

/// Compact LU factorisation `P·A = L·U` with partial (row) pivoting.
///
/// `L` (unit lower triangular) and `U` are packed into a single matrix;
/// `ipiv` records the row swapped at each elimination step (LAPACK-style
/// swap replay, so permutations apply in place without a gather buffer)
/// and `sign` the permutation parity, so the determinant comes out of
/// [`Lu::det`] for free. The storage is reusable: [`Lu::factor_into`]
/// refactors a new matrix into an existing `Lu` without allocating.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: CMat,
    ipiv: Vec<usize>,
    sign: f64,
    /// Largest pivot modulus observed (for condition diagnostics).
    max_pivot: f64,
    /// Smallest pivot modulus observed.
    min_pivot: f64,
}

impl Default for Lu {
    /// An empty (0 × 0) factorisation slot for [`Lu::factor_into`] reuse.
    fn default() -> Self {
        Lu {
            lu: CMat::zeros(0, 0),
            // lint:allow(hot-path-alloc) — empty-capacity constructor in
            // a one-time Default impl; nothing is allocated until use.
            ipiv: Vec::new(),
            sign: 1.0,
            max_pivot: 0.0,
            min_pivot: f64::INFINITY,
        }
    }
}

impl Lu {
    /// Factors `A`; fails on non-square or exactly/numerically singular input.
    ///
    /// Singularity is detected against a threshold scaled by the largest
    /// entry of `A`, so the result does not depend on the overall scale of
    /// the matrix.
    pub fn factor(a: &CMat) -> Result<Lu, LuError> {
        let mut out = Lu::default();
        Lu::factor_into(a, &mut out)?;
        Ok(out)
    }

    /// Factors `A` into `into`, reusing its storage (no allocation once
    /// the slot has seen a matrix of this size).
    ///
    /// On error the contents of `into` are unspecified and must not be
    /// used for solves. (Within this crate, `Singular { step: n − 1 }`
    /// leaves the first `n − 1` elimination steps intact for the
    /// cofactor engine.)
    pub fn factor_into(a: &CMat, into: &mut Lu) -> Result<(), LuError> {
        let n = a.rows();
        if !a.is_square() {
            return Err(LuError::NotSquare);
        }
        if (into.lu.rows(), into.lu.cols()) == (n, n) {
            into.lu.copy_from(a);
        } else {
            // lint:allow(hot-path-alloc) — cold branch: first use (or a
            // dimension change) grows the slot; steady state copies.
            into.lu = a.clone();
        }
        into.ipiv.clear();
        into.ipiv.resize(n, 0);
        into.sign = 1.0;
        into.max_pivot = 0.0;
        into.min_pivot = f64::INFINITY;
        let lu = &mut into.lu;
        // Scale for the singularity threshold: one sqrt over the whole
        // matrix instead of `hypot` per entry; fall back to the
        // overflow/underflow-safe per-entry form when squaring leaves
        // the finite range.
        let scale_sq = lu
            .as_slice()
            .iter()
            .map(|z| z.norm_sqr())
            .fold(0.0f64, f64::max);
        let scale = if scale_sq > 0.0 && scale_sq.is_finite() {
            scale_sq.sqrt()
        } else {
            lu.max_norm().max(f64::MIN_POSITIVE)
        };
        let tol = scale * 1e-14 * n as f64;

        for k in 0..n {
            // Partial pivoting: pick the largest modulus in column k.
            // Squared moduli avoid a `hypot` per candidate; the sqrt-
            // based scan below handles the under/overflow regime where
            // squares leave the finite nonzero range.
            let mut best = k;
            let mut best_sq = lu[(k, k)].norm_sqr();
            for i in k + 1..n {
                let v = lu[(i, k)].norm_sqr();
                if v > best_sq {
                    best = i;
                    best_sq = v;
                }
            }
            let mut best_norm = best_sq.sqrt();
            if best_sq == 0.0 || !best_sq.is_finite() {
                best = k;
                best_norm = lu[(k, k)].norm();
                for i in k + 1..n {
                    let v = lu[(i, k)].norm();
                    if v > best_norm {
                        best = i;
                        best_norm = v;
                    }
                }
            }
            if best_norm <= tol {
                // Crate-private contract: steps `0..k` are complete and
                // no swap happens at `k`, so after `Singular { step: n − 1 }`
                // the packed factors hold `P·A = L·U` with the negligible
                // last pivot in place — the state `cofactor_cols_into`
                // reads.
                into.ipiv[k] = k;
                return Err(LuError::Singular { step: k });
            }
            into.ipiv[k] = best;
            if best != k {
                lu.swap_rows(k, best);
                into.sign = -into.sign;
            }
            into.max_pivot = into.max_pivot.max(best_norm);
            into.min_pivot = into.min_pivot.min(best_norm);
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m == Complex64::ZERO {
                    continue;
                }
                for j in k + 1..n {
                    let u = lu[(k, j)];
                    lu[(i, j)] -= m * u;
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> Complex64 {
        let mut d = Complex64::real(self.sign);
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Ratio of largest to smallest pivot — a cheap (crude) growth-factor
    /// proxy used by the tracker to notice ill-conditioned Jacobians.
    pub fn pivot_ratio(&self) -> f64 {
        if self.min_pivot == 0.0 {
            f64::INFINITY
        } else {
            self.max_pivot / self.min_pivot
        }
    }

    /// Solves `A·x = b`, overwriting and returning `x`.
    ///
    /// # Panics
    /// Panics when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[Complex64]) -> Vec<Complex64> {
        // lint:allow(hot-path-alloc) — allocating convenience wrapper;
        // hot callers use `solve_in_place` on their own buffer.
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A·x = b` in place: `b` enters as the right-hand side and
    /// leaves as the solution. No heap allocation.
    ///
    /// # Panics
    /// Panics when `b.len() != self.dim()`.
    pub fn solve_in_place(&self, b: &mut [Complex64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_in_place: rhs length mismatch");
        // Apply the permutation by replaying the elimination-step swaps.
        for k in 0..n {
            let p = self.ipiv[k];
            if p != k {
                b.swap(k, p);
            }
        }
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * b[j];
            }
            b[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut acc = b[i];
            for j in i + 1..n {
                acc -= self.lu[(i, j)] * b[j];
            }
            b[i] = acc / self.lu[(i, i)];
        }
    }

    /// Ratio of largest to smallest of the first `n − 1` pivots: the
    /// [`Lu::pivot_ratio`] of the leading block `U₁` that
    /// [`Lu::cofactor_cols_into`] inverts. Only meaningful after
    /// `Ok` or `Singular { step: n − 1 }`.
    pub(crate) fn leading_pivot_ratio(&self) -> f64 {
        let n = self.dim();
        let (lo, hi) = (0..n.saturating_sub(1))
            .map(|k| self.lu[(k, k)].norm())
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
        hi / lo
    }

    /// Writes the leading `cols` columns of the cofactor matrix
    /// `C = adj(A)ᵀ` into `cof` in `O(n²)` per column, without dividing
    /// by the last pivot `μ`.
    ///
    /// With `P·A = L·U` and `U = [U₁ u; 0 μ]`,
    /// `adj(A) = sign(P)·adj(U)·L⁻¹·P` and
    /// `adj(U) = det(U₁)·[μ·U₁⁻¹, −U₁⁻¹·u; 0, 1]`
    /// (G. W. Stewart, "On the adjugate matrix", LAA 283, 1998). Row `c`
    /// of `adj(U)` needs one forward sweep with `U₁ᵀ`; a backward sweep
    /// with `Lᵀ` and the swap replay in reverse turn it into column `c`
    /// of `C`. The result is exact for rank `n − 1` (`μ = 0`) and equals
    /// `det(A)·A⁻ᵀ` for regular `A`; its accuracy rests on `U₁` alone
    /// (see [`Lu::leading_pivot_ratio`]).
    ///
    /// Valid for `n ≥ 1` after `Ok` and after `Singular { step: n − 1 }`
    /// (see [`Lu::factor_into`]). `v` is caller scratch of length `n`.
    pub(crate) fn cofactor_cols_into(&self, cof: &mut CMat, cols: usize, v: &mut [Complex64]) {
        let n = self.dim();
        debug_assert_eq!(v.len(), n, "cofactor_cols_into: scratch length");
        let last = n - 1;
        // sign(P)·det(U₁), applied once per entry at the end.
        let mut s = Complex64::real(self.sign);
        for k in 0..last {
            s *= self.lu[(k, k)];
        }
        let mu = self.lu[(last, last)];
        for c in 0..cols {
            v.fill(Complex64::ZERO);
            v[c] = Complex64::ONE;
            if c < last {
                // z = U₁⁻ᵀ·e_c (zero above c), then
                // row c of adj(U)/det(U₁) = [μ·zᵀ, −zᵀ·u].
                let mut zu = Complex64::ZERO;
                for i in c..last {
                    let mut acc = v[i];
                    for j in c..i {
                        acc -= self.lu[(j, i)] * v[j];
                    }
                    v[i] = acc / self.lu[(i, i)];
                    zu += v[i] * self.lu[(i, last)];
                }
                for z in &mut v[c..last] {
                    *z *= mu;
                }
                v[last] = -zu;
            }
            // Back substitution with Lᵀ (unit diagonal).
            for i in (0..n).rev() {
                let mut acc = v[i];
                for j in i + 1..n {
                    acc -= self.lu[(j, i)] * v[j];
                }
                v[i] = acc;
            }
            // Pᵀ: replay the swaps in reverse order.
            for k in (0..n).rev() {
                let p = self.ipiv[k];
                if p != k {
                    v.swap(k, p);
                }
            }
            for r in 0..n {
                cof[(r, c)] = s * v[r];
            }
        }
    }

    /// Solves `A·X = B` column by column, operating in place on the
    /// output's strided columns (no per-column gather/scatter buffers).
    pub fn solve_mat(&self, b: &CMat) -> CMat {
        let n = self.dim();
        assert_eq!(b.rows(), n, "solve_mat: shape mismatch");
        // lint:allow(hot-path-alloc) — allocating convenience wrapper:
        // the result matrix is the output; hot paths solve column-wise
        // in place.
        let mut out = b.clone();
        for j in 0..out.cols() {
            // The same permutation + substitution sweeps as
            // `solve_in_place`, indexing one column of `out` directly.
            for k in 0..n {
                let p = self.ipiv[k];
                if p != k {
                    let (a, b) = (out[(k, j)], out[(p, j)]);
                    out[(k, j)] = b;
                    out[(p, j)] = a;
                }
            }
            for i in 1..n {
                let mut acc = out[(i, j)];
                for r in 0..i {
                    acc -= self.lu[(i, r)] * out[(r, j)];
                }
                out[(i, j)] = acc;
            }
            for i in (0..n).rev() {
                let mut acc = out[(i, j)];
                for r in i + 1..n {
                    acc -= self.lu[(i, r)] * out[(r, j)];
                }
                out[(i, j)] = acc / self.lu[(i, i)];
            }
        }
        out
    }

    /// Inverse of the original matrix.
    pub fn inverse(&self) -> CMat {
        self.solve_mat(&CMat::identity(self.dim()))
    }
}

/// Fallible determinant of `A` via LU, returning zero for singular input
/// and `Err(LuError::NotSquare)` for non-square input.
///
/// Intersection-condition *residuals* use the singular-is-zero form: at a
/// solution the condition matrix is exactly singular and the residual is
/// zero, which `Lu::factor`'s error path would otherwise obscure. Long-
/// running callers (the batch service) use this entry point so a
/// malformed matrix surfaces as a recoverable error instead of taking
/// the process down.
pub fn try_det(a: &CMat) -> Result<Complex64, LuError> {
    match Lu::factor(a) {
        Ok(lu) => Ok(lu.det()),
        Err(LuError::Singular { .. }) => Ok(Complex64::ZERO),
        Err(e @ LuError::NotSquare) => Err(e),
    }
}

/// Convenience: determinant of `A` via LU, returning zero for singular input.
///
/// # Panics
/// Panics when `A` is not square — the hot numeric kernels construct
/// their condition matrices square by shape arithmetic, so this is a
/// programming error there. Code that takes matrices across a trust
/// boundary must use [`try_det`] instead.
pub fn det(a: &CMat) -> Complex64 {
    try_det(a).expect("det of non-square matrix (use try_det at trust boundaries)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::{random_complex, seeded_rng, unit_complex};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn solve_roundtrip_random() {
        let mut rng = seeded_rng(10);
        for n in 1..=8 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let x: Vec<Complex64> = (0..n).map(|_| random_complex(&mut rng)).collect();
            let b = a.mul_vec(&x);
            let lu = Lu::factor(&a).expect("generic matrix is nonsingular");
            let xs = lu.solve(&b);
            for i in 0..n {
                assert!(xs[i].dist(x[i]) < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn det_of_identity_and_permutation() {
        assert!(det(&CMat::identity(5)).dist(Complex64::ONE) < 1e-14);
        // Swapping two rows of I flips the sign.
        let mut p = CMat::identity(4);
        p.swap_rows(0, 3);
        assert!(det(&p).dist(Complex64::real(-1.0)) < 1e-14);
    }

    #[test]
    fn det_of_diagonal() {
        let d = CMat::from_fn(3, 3, |i, j| {
            if i == j {
                c(i as f64 + 1.0, 1.0)
            } else {
                Complex64::ZERO
            }
        });
        let expect = c(1.0, 1.0) * c(2.0, 1.0) * c(3.0, 1.0);
        assert!(det(&d).dist(expect) < 1e-12);
    }

    #[test]
    fn det_is_multiplicative() {
        let mut rng = seeded_rng(11);
        let a = CMat::random(5, 5, &mut rng, random_complex);
        let b = CMat::random(5, 5, &mut rng, random_complex);
        let lhs = det(&(&a * &b));
        let rhs = det(&a) * det(&b);
        assert!(lhs.dist(rhs) < 1e-9 * (1.0 + rhs.norm()));
    }

    #[test]
    fn singular_matrix_detected() {
        // Rank-1 matrix.
        let a = CMat::from_fn(3, 3, |i, j| c((i + 1) as f64 * (j + 1) as f64, 0.0));
        match Lu::factor(&a) {
            Err(LuError::Singular { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
        assert_eq!(det(&a), Complex64::ZERO);
    }

    #[test]
    fn not_square_is_an_error() {
        assert_eq!(
            Lu::factor(&CMat::zeros(2, 3)).unwrap_err(),
            LuError::NotSquare
        );
    }

    #[test]
    fn try_det_reports_non_square_without_panicking() {
        assert_eq!(try_det(&CMat::zeros(2, 3)), Err(LuError::NotSquare));
        let mut rng = seeded_rng(14);
        let a = CMat::random(4, 4, &mut rng, random_complex);
        assert_eq!(try_det(&a), Ok(det(&a)));
        // Singular input is a zero determinant, not an error.
        let s = CMat::from_fn(3, 3, |i, j| c((i + 1) as f64 * (j + 1) as f64, 0.0));
        assert_eq!(try_det(&s), Ok(Complex64::ZERO));
    }

    #[test]
    fn inverse_multiplies_to_identity() {
        let mut rng = seeded_rng(12);
        let a = CMat::random(6, 6, &mut rng, unit_complex);
        let inv = Lu::factor(&a).unwrap().inverse();
        let prod = &a * &inv;
        let err = (&prod - &CMat::identity(6)).fro_norm();
        assert!(err < 1e-9, "‖A·A⁻¹ − I‖ = {err}");
    }

    #[test]
    fn solve_mat_matches_solve() {
        let mut rng = seeded_rng(13);
        let a = CMat::random(4, 4, &mut rng, random_complex);
        let b = CMat::random(4, 2, &mut rng, random_complex);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve_mat(&b);
        for j in 0..2 {
            let xj = lu.solve(&b.col(j));
            for i in 0..4 {
                assert!(x[(i, j)].dist(xj[i]) < 1e-12);
            }
        }
    }

    #[test]
    fn factor_into_reuses_storage_and_matches_factor() {
        let mut rng = seeded_rng(15);
        let mut slot = Lu::default();
        for n in [3usize, 5, 5, 2, 6] {
            let a = CMat::random(n, n, &mut rng, random_complex);
            Lu::factor_into(&a, &mut slot).expect("generic matrix factors");
            let fresh = Lu::factor(&a).unwrap();
            assert_eq!(slot.det(), fresh.det(), "n={n}: bitwise same det");
            let b: Vec<Complex64> = (0..n).map(|_| random_complex(&mut rng)).collect();
            assert_eq!(slot.solve(&b), fresh.solve(&b), "n={n}: bitwise same solve");
        }
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let mut rng = seeded_rng(16);
        for n in 1..=7 {
            let a = CMat::random(n, n, &mut rng, random_complex);
            let b: Vec<Complex64> = (0..n).map(|_| random_complex(&mut rng)).collect();
            let lu = Lu::factor(&a).unwrap();
            let x = lu.solve(&b);
            let mut y = b.clone();
            lu.solve_in_place(&mut y);
            assert_eq!(x, y, "n={n}: identical bits");
        }
    }

    #[test]
    fn scale_invariant_singularity_threshold() {
        // A tiny but perfectly conditioned matrix must factor.
        let a = CMat::identity(3).scale(c(1e-200, 0.0));
        assert!(Lu::factor(&a).is_ok());
    }
}
