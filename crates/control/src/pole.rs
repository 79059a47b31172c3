//! End-to-end pole placement: prescribe poles, solve, extract, verify.

use crate::compensator::Compensator;
use crate::plant::Plant;
use crate::statespace::{spectrum_distance, StateSpace};
use pieri_certify::CertifyPolicy;
use pieri_core::{InstanceContinuation, PieriProblem, PieriSolution, Shape, StartBundle};
use pieri_linalg::{CMat, Lu, Qr};
use pieri_num::{random_complex, random_gamma, Complex64};
use pieri_tracker::TrackSettings;
use rand::Rng;

/// A pole-placement problem: a plant, a compensator degree `q`, and
/// `n = mp + q(m+p)` prescribed closed-loop poles.
#[derive(Debug, Clone)]
pub struct PolePlacement {
    plant: Plant,
    q: usize,
    poles: Vec<Complex64>,
}

/// The result of solving a pole-placement problem.
pub struct PolePlacementOutcome {
    /// The Pieri problem that was solved (planes = curve at the poles).
    pub problem: PieriProblem,
    /// The raw Pieri solution (maps, job records).
    pub solution: PieriSolution,
    /// One compensator per solution map.
    pub compensators: Vec<Compensator>,
}

impl PolePlacement {
    /// Builds the problem.
    ///
    /// # Panics
    /// Panics unless exactly `n = mp + q(m+p)` poles are prescribed and
    /// the plant's McMillan degree is `n − q` (the square case the Pieri
    /// count applies to).
    pub fn new(plant: Plant, q: usize, poles: Vec<Complex64>) -> Self {
        let m = plant.inputs();
        let p = plant.outputs();
        let n = m * p + q * (m + p);
        assert_eq!(
            poles.len(),
            n,
            "need n = mp + q(m+p) = {n} prescribed poles"
        );
        assert_eq!(
            plant.mcmillan_degree() + q,
            n,
            "plant degree must be n − q for a square pole-placement problem"
        );
        PolePlacement { plant, q, poles }
    }

    /// The plant.
    pub fn plant(&self) -> &Plant {
        &self.plant
    }

    /// The prescribed poles.
    pub fn poles(&self) -> &[Complex64] {
        &self.poles
    }

    /// Assembles the Pieri problem: `L_i = Γ(s_i)`.
    pub fn to_pieri_problem<R: Rng + ?Sized>(&self, rng: &mut R) -> PieriProblem {
        let m = self.plant.inputs();
        let p = self.plant.outputs();
        let shape = Shape::new(m, p, self.q);
        let curve = self.plant.curve();
        let planes: Vec<CMat> = self.poles.iter().map(|&s| curve.eval(s)).collect();
        PieriProblem::new(shape, planes, self.poles.clone(), random_gamma(rng))
    }

    /// Solves the problem: all `d(m,p,q)` compensators placing the poles.
    pub fn solve<R: Rng + ?Sized>(&self, rng: &mut R) -> PolePlacementOutcome {
        let problem = self.to_pieri_problem(rng);
        let solution = pieri_core::solve(&problem);
        let m = self.plant.inputs();
        let p = self.plant.outputs();
        let compensators = solution
            .maps
            .iter()
            .map(|map| Compensator::from_map(map, m, p))
            .collect();
        PolePlacementOutcome {
            problem,
            solution,
            compensators,
        }
    }

    /// Verifies one solution map: computes the closed-loop characteristic
    /// polynomial `φ(s) = det [X(s) | Γ(s)]` and returns the spectral
    /// distance between its roots and the prescribed poles.
    pub fn verify_map(&self, map: &pieri_core::PMap) -> f64 {
        let phi = map.to_matrix_poly().hstack(&self.plant.curve()).det_poly();
        if phi.degree() != self.poles.len() {
            return f64::INFINITY;
        }
        spectrum_distance(phi.roots(), &self.poles)
    }

    /// Worst-case verification over all solutions of an outcome.
    pub fn max_pole_error(&self, outcome: &PolePlacementOutcome) -> f64 {
        outcome
            .solution
            .maps
            .iter()
            .map(|m| self.verify_map(m))
            .fold(0.0, f64::max)
    }
}

/// Draws a random unitary coordinate change of ℂ^{m+p} (Q factor of a
/// random complex matrix).
fn random_unitary<R: Rng + ?Sized>(n: usize, rng: &mut R) -> CMat {
    let a = CMat::random(n, n, rng, random_complex);
    Qr::factor(&a).q().clone()
}

/// Solves an *application* instance (planes not in general position) the
/// way the paper prescribes: run the Pieri tree **once** on a random
/// generic instance, then continue all `d(m,p,q)` generic solutions to
/// the application data with one coefficient-parameter homotopy.
///
/// Two randomisations keep everything generic with probability one: the
/// start instance itself, and a random unitary change of coordinates `T`
/// of ℂ^{m+p} applied to the application planes (undone on the solution
/// maps), which keeps the *endpoints* inside the localization-pattern
/// chart. Instance solutions genuinely at infinity (e.g. improper static
/// feedback laws) surface as divergent continuation paths.
fn solve_application_instance<R: Rng + ?Sized>(
    shape: Shape,
    planes: Vec<CMat>,
    points: Vec<Complex64>,
    rng: &mut R,
) -> (PieriSolution, PieriProblem) {
    let (t, target) = rotated_target(&shape, &planes, points, rng);

    // Stage 1: generic start instance through the Pieri tree.
    let start = PieriProblem::random(shape, rng);
    let mut solution = pieri_core::solve(&start);
    // Stage 2: coefficient-parameter continuation to the application.
    let mut cont = pieri_core::continue_to_instance(
        &start,
        &solution.coeffs,
        &target,
        &TrackSettings::default(),
        &CertifyPolicy::off(),
    );
    unrotate_maps(&mut cont, &t);
    solution.failures += cont.diverged + cont.failed;
    solution.coeffs = cont.coeffs;
    solution.maps = cont.maps;
    (solution, target)
}

/// Rotates the application planes into general position by a random
/// unitary `T` and assembles the target problem with a fresh gamma.
fn rotated_target<R: Rng + ?Sized>(
    shape: &Shape,
    planes: &[CMat],
    points: Vec<Complex64>,
    rng: &mut R,
) -> (CMat, PieriProblem) {
    let t = random_unitary(shape.big_n(), rng);
    let rotated: Vec<CMat> = planes.iter().map(|l| &t * l).collect();
    let target = PieriProblem::new(shape.clone(), rotated, points, random_gamma(rng));
    (t, target)
}

/// Undoes the coordinate change on the continued maps: `X = T⁻¹·X'`.
fn unrotate_maps(cont: &mut InstanceContinuation, t: &CMat) {
    let tinv = Lu::factor(t).expect("unitary is nonsingular").inverse();
    cont.maps = cont.maps.iter().map(|m| m.transform(&tinv)).collect();
}

/// The warm path of [`solve_application_instance`]: skip the Pieri tree
/// and continue the *cached* generic solutions of `start` to the
/// application data (`d(m,p,q)` straight-line paths — what a shape-cache
/// hit buys the batch service), re-tracking failed paths and
/// certifying/refining endpoints per `policy` (in the rotated
/// coordinates, where the homotopy lives — refinement happens before
/// the maps are rotated back). [`CertifyPolicy::off`] is the plain
/// uncertified warm path.
fn continue_application_instance<R: Rng + ?Sized>(
    shape: Shape,
    planes: Vec<CMat>,
    points: Vec<Complex64>,
    rng: &mut R,
    start: &StartBundle,
    settings: &TrackSettings,
    policy: &CertifyPolicy,
) -> (InstanceContinuation, PieriProblem) {
    assert_eq!(start.shape(), &shape, "start bundle serves another shape");
    let (t, target) = rotated_target(&shape, &planes, points, rng);
    let mut cont = start.continue_to(&target, settings, policy);
    unrotate_maps(&mut cont, &t);
    (cont, target)
}

/// Verifies the closed-loop pole residuals of certified solutions
/// against the *requested* poles and folds the result into the
/// certificates: every certificate gains `pole_residual`, and a
/// `Certified` verdict whose residual exceeds `policy.pole_residual_tol`
/// is downgraded to `Suspect` — the Newton certificate alone never
/// overrules the application-level check.
fn verify_pole_certificates(
    ss: &StateSpace,
    cont: &mut InstanceContinuation,
    poles: &[Complex64],
    policy: &CertifyPolicy,
) {
    if cont.certificates.is_empty() {
        return;
    }
    for (cert, map) in cont.certificates.iter_mut().zip(cont.maps.iter()) {
        let (_, residual) = verify_closed_loop_ss(ss, map, poles);
        cert.pole_residual = Some(residual);
        if residual > policy.pole_residual_tol {
            cert.downgrade(format!(
                "closed-loop pole residual {residual:.2e} exceeds {:.0e}",
                policy.pole_residual_tol
            ));
        }
    }
}

/// Solves static (`q = 0`) output feedback for a state-space plant: the
/// planes come from the resolvent, `L_i = [C(s_iI−A)⁻¹B; I_m]`, and are
/// put in general position by a random unitary coordinate change.
///
/// Returns the static gains `K` (one per Pieri solution with invertible
/// `U` block — solutions with singular `U` are "improper" feedback laws
/// at infinity and yield no gain) together with the Pieri solution.
///
/// # Panics
/// Panics unless exactly `m·p` poles are prescribed, none of which may be
/// an open-loop pole.
pub fn solve_static_state_space<R: Rng + ?Sized>(
    ss: &StateSpace,
    poles: &[Complex64],
    rng: &mut R,
) -> (Vec<CMat>, PieriSolution, PieriProblem) {
    let m = ss.inputs();
    let p = ss.outputs();
    assert_eq!(poles.len(), m * p, "static output feedback needs m·p poles");
    let shape = Shape::new(m, p, 0);
    let planes: Vec<CMat> = poles.iter().map(|&s| ss.pole_plane(s)).collect();
    let (solution, problem) = solve_application_instance(shape, planes, poles.to_vec(), rng);
    let gains = solution
        .maps
        .iter()
        .filter_map(|map| Compensator::from_map(map, m, p).static_gain())
        .collect();
    (gains, solution, problem)
}

/// Warm-path variant of [`solve_static_state_space`]: reuses a cached
/// [`StartBundle`] for shape `(m, p, 0)` instead of running the Pieri
/// tree, so only the `d(m,p,0)` continuation paths are tracked. The
/// randomisation (unitary rotation, gamma) is drawn from `rng`, so the
/// result is a deterministic function of `(rng stream, bundle, plant,
/// poles)` — a cache hit and a cache miss that built the same bundle
/// produce bitwise-identical gains.
///
/// `policy` is the optional certification post-pass: failed
/// continuation paths are re-tracked, every solution map gets a Newton
/// certificate (double-double-refined per policy) **and** its
/// closed-loop pole residual against the requested `poles` — a verdict
/// is only `Certified` when both checks pass. [`CertifyPolicy::off`] is
/// the plain warm path.
///
/// # Panics
/// Panics when `poles.len() != m·p` or the bundle serves another shape.
pub fn solve_static_state_space_certified<R: Rng + ?Sized>(
    ss: &StateSpace,
    poles: &[Complex64],
    rng: &mut R,
    start: &StartBundle,
    settings: &TrackSettings,
    policy: &CertifyPolicy,
) -> (Vec<CMat>, InstanceContinuation, PieriProblem) {
    let m = ss.inputs();
    let p = ss.outputs();
    assert_eq!(poles.len(), m * p, "static output feedback needs m·p poles");
    let shape = Shape::new(m, p, 0);
    let planes: Vec<CMat> = poles.iter().map(|&s| ss.pole_plane(s)).collect();
    let (mut cont, problem) =
        continue_application_instance(shape, planes, poles.to_vec(), rng, start, settings, policy);
    verify_pole_certificates(ss, &mut cont, poles, policy);
    let gains = cont
        .maps
        .iter()
        .filter_map(|map| Compensator::from_map(map, m, p).static_gain())
        .collect();
    (gains, cont, problem)
}

/// Solves *dynamic* pole placement for a state-space plant of McMillan
/// degree `n°` with a degree-`q` compensator.
///
/// The closed loop has `n° + q` poles, but the Pieri problem needs
/// `n = mp + q(m+p)` interpolation conditions; the surplus
/// `n − (n° + q)` conditions are *padded* with generic random planes and
/// points, the standard squaring-up device (Rosenthal). Every returned
/// compensator places all `n° + q` prescribed poles. This is the regime
/// of the authors' satellite companion paper: plants whose degree is too
/// small for static output feedback get a dynamic compensator.
///
/// # Panics
/// Panics unless `poles.len() == n° + q ≤ n`.
pub fn solve_dynamic_state_space<R: Rng + ?Sized>(
    ss: &StateSpace,
    q: usize,
    poles: &[Complex64],
    rng: &mut R,
) -> (Vec<Compensator>, PieriSolution, PieriProblem) {
    let m = ss.inputs();
    let p = ss.outputs();
    let (shape, planes, points) = dynamic_conditions(ss, q, poles, rng);
    let (solution, problem) = solve_application_instance(shape, planes, points, rng);
    let compensators = solution
        .maps
        .iter()
        .map(|map| Compensator::from_map(map, m, p))
        .collect();
    (compensators, solution, problem)
}

/// Assembles the interpolation conditions of a dynamic pole-placement
/// problem: curve planes at the prescribed poles plus the generic
/// padding conditions that square the problem up.
///
/// # Panics
/// Panics unless `poles.len() == n° + q ≤ n`.
fn dynamic_conditions<R: Rng + ?Sized>(
    ss: &StateSpace,
    q: usize,
    poles: &[Complex64],
    rng: &mut R,
) -> (Shape, Vec<CMat>, Vec<Complex64>) {
    let m = ss.inputs();
    let p = ss.outputs();
    let n = m * p + q * (m + p);
    let placed = ss.dim() + q;
    assert_eq!(poles.len(), placed, "prescribe n° + q poles");
    assert!(placed <= n, "plant too large for a degree-{q} compensator");

    let mut planes: Vec<CMat> = poles.iter().map(|&s| ss.pole_plane(s)).collect();
    let mut points = poles.to_vec();
    // Generic padding conditions.
    for _ in placed..n {
        planes.push(CMat::random(m + p, m, rng, pieri_num::random_complex));
        points.push(pieri_num::unit_complex(rng));
    }
    (Shape::new(m, p, q), planes, points)
}

/// Warm-path variant of [`solve_dynamic_state_space`]: reuses a cached
/// [`StartBundle`] for shape `(m, p, q)`, tracking only the `d(m,p,q)`
/// continuation paths. See [`solve_static_state_space_certified`] for
/// the determinism contract.
///
/// [`solve_dynamic_state_space_certified`] under
/// [`CertifyPolicy::off`], kept with this exact signature because the
/// repository benchmark (`perfbench`) calls it.
///
/// # Panics
/// Panics unless `poles.len() == n° + q ≤ n` and the bundle serves shape
/// `(m, p, q)`.
pub fn solve_dynamic_state_space_with_start<R: Rng + ?Sized>(
    ss: &StateSpace,
    q: usize,
    poles: &[Complex64],
    rng: &mut R,
    start: &StartBundle,
    settings: &TrackSettings,
) -> (Vec<Compensator>, InstanceContinuation, PieriProblem) {
    solve_dynamic_state_space_certified(ss, q, poles, rng, start, settings, &CertifyPolicy::off())
}

/// [`solve_dynamic_state_space_with_start`] with `policy` as the
/// optional certification post-pass: re-tracked paths, Newton
/// certificates with double-double refinement, and closed-loop
/// verification of the requested `poles` folded into each certificate
/// (see [`solve_static_state_space_certified`]).
///
/// # Panics
/// As [`solve_dynamic_state_space_with_start`].
pub fn solve_dynamic_state_space_certified<R: Rng + ?Sized>(
    ss: &StateSpace,
    q: usize,
    poles: &[Complex64],
    rng: &mut R,
    start: &StartBundle,
    settings: &TrackSettings,
    policy: &CertifyPolicy,
) -> (Vec<Compensator>, InstanceContinuation, PieriProblem) {
    let m = ss.inputs();
    let p = ss.outputs();
    let (shape, planes, points) = dynamic_conditions(ss, q, poles, rng);
    let (mut cont, problem) =
        continue_application_instance(shape, planes, points, rng, start, settings, policy);
    verify_pole_certificates(ss, &mut cont, poles, policy);
    let compensators = cont
        .maps
        .iter()
        .map(|map| Compensator::from_map(map, m, p))
        .collect();
    (compensators, cont, problem)
}

/// Closed-loop characteristic data for a state-space plant and a solution
/// map: returns the polynomial `det [X(s) | Γ̂(s)] = χ(s)^{m−1}·φ(s)` and
/// the worst relative residual of that polynomial over the prescribed
/// poles. A residual near zero certifies (non-circularly, through the
/// Faddeev–LeVerrier curve) that every prescribed pole is a closed-loop
/// pole.
pub fn verify_closed_loop_ss(
    ss: &StateSpace,
    map: &pieri_core::PMap,
    poles: &[Complex64],
) -> (pieri_poly::UniPoly, f64) {
    let phi = map
        .to_matrix_poly()
        .hstack(&ss.curve_polynomial())
        .det_poly();
    let scale = phi
        .coeffs()
        .iter()
        .map(|c| c.norm())
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    let worst = poles
        .iter()
        .map(|&s| phi.eval(s).norm() / (scale * (1.0 + s.norm()).powi(phi.degree() as i32)))
        .fold(0.0, f64::max);
    (phi, worst)
}

/// Produces a self-conjugate set of `n` random stable poles (negative
/// real parts; complex ones in conjugate pairs, one real pole when `n` is
/// odd). Real plants with self-conjugate pole sets admit real feedback
/// laws among the `d(m,p,q)` complex solutions.
pub fn conjugate_pole_set<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<Complex64> {
    let mut poles = Vec::with_capacity(n);
    let mut remaining = n;
    if n % 2 == 1 {
        poles.push(Complex64::real(-(0.5 + rng.gen_range(0.0..2.0))));
        remaining -= 1;
    }
    for _ in 0..remaining / 2 {
        let re = -(0.2 + rng.gen_range(0.0..2.0));
        let im = 0.2 + rng.gen_range(0.0..2.0);
        poles.push(Complex64::new(re, im));
        poles.push(Complex64::new(re, -im));
    }
    poles
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::{seeded_rng, unit_complex};

    #[test]
    fn static_output_feedback_places_poles_mfd() {
        let mut rng = seeded_rng(530);
        let plant = Plant::random(2, 2, 0, &mut rng);
        let poles: Vec<Complex64> = (0..4).map(|_| unit_complex(&mut rng).scale(2.0)).collect();
        let pp = PolePlacement::new(plant, 0, poles);
        let outcome = pp.solve(&mut rng);
        assert_eq!(outcome.compensators.len(), 2, "d(2,2,0) = 2 feedback laws");
        let err = pp.max_pole_error(&outcome);
        assert!(err < 1e-5, "poles placed to {err:.2e}");
    }

    #[test]
    fn dynamic_compensator_places_poles() {
        let mut rng = seeded_rng(531);
        let plant = Plant::random(2, 1, 1, &mut rng);
        // n = mp + q(m+p) = 2 + 3 = 5 poles; plant degree 4.
        let poles: Vec<Complex64> = (0..5).map(|_| unit_complex(&mut rng).scale(1.5)).collect();
        let pp = PolePlacement::new(plant, 1, poles);
        let outcome = pp.solve(&mut rng);
        assert!(!outcome.compensators.is_empty());
        let err = pp.max_pole_error(&outcome);
        assert!(err < 1e-5, "poles placed to {err:.2e}");
    }

    #[test]
    fn static_state_space_closed_loop_eigenvalues() {
        let mut rng = seeded_rng(532);
        let plant = Plant::random(2, 2, 0, &mut rng);
        let ss = StateSpace::realize(&plant);
        let poles: Vec<Complex64> = (0..4).map(|_| unit_complex(&mut rng).scale(2.0)).collect();
        let (gains, solution, _) = solve_static_state_space(&ss, &poles, &mut rng);
        assert_eq!(solution.maps.len(), 2);
        assert_eq!(gains.len(), 2);
        for k in &gains {
            let acl = ss.closed_loop_static(k);
            let eigs = pieri_linalg::eigenvalues(&acl).unwrap();
            let d = spectrum_distance(eigs, &poles);
            assert!(d < 1e-5, "closed-loop spectrum off by {d:.2e}");
        }
    }

    #[test]
    fn conjugate_pole_sets_are_self_conjugate_and_stable() {
        let mut rng = seeded_rng(533);
        for n in [4usize, 5, 8, 11] {
            let poles = conjugate_pole_set(n, &mut rng);
            assert_eq!(poles.len(), n);
            for s in &poles {
                assert!(s.re < 0.0, "stable");
                let has_conj = poles.iter().any(|t| t.dist(s.conj()) < 1e-12);
                assert!(has_conj, "conjugate of {s} present");
            }
        }
    }

    #[test]
    fn with_start_places_same_poles_as_cold_path() {
        let mut rng = seeded_rng(535);
        let plant = Plant::random(2, 2, 0, &mut rng);
        let ss = StateSpace::realize(&plant);
        let poles = conjugate_pole_set(4, &mut rng);
        let bundle = StartBundle::build(Shape::new(2, 2, 0), &mut rng, &TrackSettings::default());
        let (gains, cont, _) = solve_static_state_space_certified(
            &ss,
            &poles,
            &mut rng,
            &bundle,
            &TrackSettings::default(),
            &CertifyPolicy::off(),
        );
        assert_eq!(cont.maps.len(), 2);
        assert_eq!(gains.len(), 2);
        // Only d(2,2,0) = 2 paths were tracked — the tree was skipped.
        assert_eq!(cont.stats.total(), 2);
        for k in &gains {
            let acl = ss.closed_loop_static(k);
            let eigs = pieri_linalg::eigenvalues(&acl).unwrap();
            let d = spectrum_distance(eigs, &poles);
            assert!(d < 1e-5, "closed-loop spectrum off by {d:.2e}");
        }
    }

    #[test]
    fn with_start_is_deterministic_per_request_seed() {
        let mut rng = seeded_rng(536);
        let plant = Plant::random(2, 1, 1, &mut rng);
        let ss = StateSpace::realize(&plant);
        let poles = conjugate_pole_set(5, &mut rng);
        let bundle = StartBundle::build(Shape::new(2, 1, 1), &mut rng, &TrackSettings::default());
        let run = |bundle: &StartBundle| {
            let mut req_rng = seeded_rng(9001);
            let (comps, cont, _) = solve_dynamic_state_space_with_start(
                &ss,
                1,
                &poles,
                &mut req_rng,
                bundle,
                &TrackSettings::default(),
            );
            (comps.len(), cont.coeffs)
        };
        let (n_a, coeffs_a) = run(&bundle);
        let (n_b, coeffs_b) = run(&bundle);
        assert_eq!(n_a, n_b);
        assert_eq!(coeffs_a, coeffs_b, "same bundle + request seed → same bits");
        assert!(n_a > 0);
    }

    #[test]
    fn certified_dynamic_solve_certifies_and_verifies_poles() {
        let mut rng = seeded_rng(537);
        let sat = crate::satellite_plant(1.0);
        let poles = conjugate_pole_set(5, &mut rng);
        let bundle = StartBundle::build(Shape::new(2, 2, 1), &mut rng, &TrackSettings::default());
        let (comps, cont, _) = solve_dynamic_state_space_certified(
            &sat,
            1,
            &poles,
            &mut rng,
            &bundle,
            &TrackSettings::default(),
            &CertifyPolicy::full(),
        );
        assert_eq!(comps.len(), 8, "d(2,2,1) = 8");
        assert_eq!(cont.certificates.len(), 8);
        for (i, cert) in cont.certificates.iter().enumerate() {
            assert!(cert.is_certified(), "solution {i}: {cert:?}");
            assert!(cert.refined);
            assert!(
                cert.residual() <= 1e-13,
                "solution {i} refined residual {:e}",
                cert.residual()
            );
            let pr = cert.pole_residual.expect("pole residual filled");
            assert!(pr < 1e-6, "solution {i} pole residual {pr:.2e}");
        }
        // Stats still account exactly the d(m,p,q) continuation paths.
        assert_eq!(cont.stats.total(), 8);
    }

    #[test]
    fn pole_residual_check_downgrades_wrong_certificates() {
        // Verify against the WRONG pole set: the Newton certificate
        // holds (the solutions solve the solved problem) but the
        // closed-loop check must downgrade every verdict.
        let mut rng = seeded_rng(538);
        let sat = crate::satellite_plant(1.0);
        let poles = conjugate_pole_set(5, &mut rng);
        let bundle = StartBundle::build(Shape::new(2, 2, 1), &mut rng, &TrackSettings::default());
        let policy = CertifyPolicy::full();
        let (_, mut cont, _) = solve_dynamic_state_space_certified(
            &sat,
            1,
            &poles,
            &mut rng,
            &bundle,
            &TrackSettings::default(),
            &policy,
        );
        let wrong: Vec<Complex64> = poles.iter().map(|s| *s + Complex64::real(0.5)).collect();
        verify_pole_certificates(&sat, &mut cont, &wrong, &policy);
        for cert in &cont.certificates {
            assert!(!cert.is_certified(), "{cert:?}");
            assert!(cert.pole_residual.unwrap() > policy.pole_residual_tol);
        }
    }

    #[test]
    #[should_panic(expected = "prescribed poles")]
    fn wrong_pole_count_rejected() {
        let mut rng = seeded_rng(534);
        let plant = Plant::random(2, 2, 0, &mut rng);
        let _ = PolePlacement::new(plant, 0, vec![Complex64::ONE]);
    }
}
