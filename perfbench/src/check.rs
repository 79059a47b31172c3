//! Answer checks that do not rest on residuals alone.
//!
//! `PMap::max_residual` evaluates `det [X(s_i) | L_i]` through LU, and a
//! matrix that trips LU's singularity threshold reads as an exact 0 —
//! which is what a solution's condition matrix usually does. So a
//! solution set passes only when it has the full Pieri count, no failed
//! or diverged path, pairwise-distinct members, and every condition
//! matrix is numerically singular by a measure that never short-cuts to
//! 0: the Hadamard ratio `|det A| / Π‖a_k‖` computed from a Householder
//! QR, which lies in `[0, 1]` for every matrix and is ~1e-16 on exact
//! solutions.

use pieri_core::{PMap, PieriProblem};
use pieri_linalg::{CMat, Qr};

/// Largest Hadamard ratio accepted for a solution's condition matrix.
pub const SINGULAR_TOL: f64 = 1e-8;
/// Smallest coefficient distance accepted between two solutions.
pub const DISTINCT_TOL: f64 = 1e-6;

/// `x ≤ bound`, false for NaN: every tolerance check fails closed.
pub fn at_most(x: f64, bound: f64) -> bool {
    x <= bound
}

/// `|det A| / Π_k ‖a_k‖₂` for a square `A`, through Householder QR.
pub fn hadamard_ratio(a: &CMat) -> f64 {
    let r = Qr::factor(a);
    let mut ratio = 1.0;
    for k in 0..a.cols() {
        let col: f64 = (0..a.rows())
            .map(|i| a[(i, k)].norm_sqr())
            .sum::<f64>()
            .sqrt();
        if col == 0.0 {
            return 0.0;
        }
        ratio *= r.r()[(k, k)].norm() / col;
    }
    ratio
}

/// Worst Hadamard ratio over every solution and every condition.
pub fn worst_condition(maps: &[PMap], problem: &PieriProblem) -> f64 {
    let mut worst: f64 = 0.0;
    for map in maps {
        for i in 0..problem.shape().conditions() {
            let a = map.eval(problem.point(i)).hstack(problem.plane(i));
            worst = worst.max(hadamard_ratio(&a));
        }
    }
    worst
}

/// Smallest pairwise coefficient distance (∞ when fewer than two).
pub fn min_distance(maps: &[PMap]) -> f64 {
    let mut min = f64::INFINITY;
    for i in 0..maps.len() {
        for j in 0..i {
            min = min.min(maps[i].dist(&maps[j]));
        }
    }
    min
}

/// Checks a full solution set of `problem`: count, failures, finiteness,
/// distinctness and singular condition matrices. `Err` says what failed.
pub fn solution_set(
    maps: &[PMap],
    failed_paths: usize,
    problem: &PieriProblem,
) -> Result<(), String> {
    let shape = problem.shape();
    let expected = pieri_core::root_count(shape.m(), shape.p(), shape.q());
    if maps.len() as u128 != expected || failed_paths > 0 {
        return Err(format!(
            "{} solutions and {failed_paths} failed paths, expected d = {expected}",
            maps.len()
        ));
    }
    if maps
        .iter()
        .any(|m| m.coeffs().iter().any(|c| !c.is_finite()))
    {
        return Err("non-finite solution coefficients".into());
    }
    let worst = worst_condition(maps, problem);
    if !at_most(worst, SINGULAR_TOL) {
        return Err(format!(
            "condition matrix not singular: Hadamard ratio {worst:.2e}"
        ));
    }
    let dist = min_distance(maps);
    if maps.len() > 1 && at_most(dist, DISTINCT_TOL) {
        return Err(format!("solutions not distinct: min distance {dist:.2e}"));
    }
    Ok(())
}

/// True when every member of `a` has a member of `b` within `tol`
/// (relative to its size) and the sets have equal size, matching each
/// member of `b` at most once.
pub fn same_root_set(a: &[PMap], b: &[PMap], tol: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut used = vec![false; b.len()];
    for x in a {
        let scale = 1.0 + x.coeffs().iter().map(|c| c.max_norm()).fold(0.0, f64::max);
        let best = (0..b.len())
            .filter(|&j| !used[j])
            .min_by(|&i, &j| x.dist(&b[i]).total_cmp(&x.dist(&b[j])));
        match best {
            Some(j) if x.dist(&b[j]) <= tol * scale => used[j] = true,
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::{random_complex, seeded_rng, Complex64};

    #[test]
    fn hadamard_ratio_separates_singular_from_generic() {
        let mut rng = seeded_rng(7);
        let a = CMat::random(6, 6, &mut rng, random_complex);
        assert!(hadamard_ratio(&a) > 1e-4);
        // Make the last column a combination of the first two: exactly
        // the structure of a solved Pieri condition.
        let mut s = a.clone();
        for i in 0..6 {
            s[(i, 5)] = a[(i, 0)] * Complex64::new(0.3, -1.2) + a[(i, 1)];
        }
        assert!(hadamard_ratio(&s) < 1e-13);
        assert!(hadamard_ratio(&s) > 0.0 || s.fro_norm() == 0.0);
    }

    #[test]
    fn solved_instance_passes_and_perturbed_one_fails() {
        let mut rng = seeded_rng(11);
        let shape = pieri_core::Shape::new(2, 2, 0);
        let problem = PieriProblem::random(shape.clone(), &mut rng);
        let sol = pieri_core::solve(&problem);
        assert_eq!(solution_set(&sol.maps, 0, &problem), Ok(()));
        assert!(same_root_set(&sol.maps, &sol.maps, 1e-9));

        let other = PieriProblem::random(shape, &mut rng);
        assert!(solution_set(&sol.maps, 0, &other).is_err());
        assert!(solution_set(&sol.maps[..1], 0, &problem).is_err());
        assert!(solution_set(&sol.maps, 1, &problem).is_err());
        let twice = vec![sol.maps[0].clone(), sol.maps[0].clone()];
        assert!(solution_set(&twice, 0, &problem).is_err());
        assert!(!same_root_set(&sol.maps, &twice, 1e-9));
    }
}
