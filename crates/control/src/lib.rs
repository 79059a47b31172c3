//! Pole placement for linear systems via Pieri homotopies.
//!
//! The application layer of the ICPP 2004 paper: a machine with `m`
//! inputs and `p` outputs, controlled by a dynamic compensator with `q`
//! internal states. By the Brockett–Byrnes/Ravi–Rosenthal–Wang geometric
//! correspondence, the compensators placing the closed-loop poles at
//! `n = mp + q(m+p)` prescribed values `s_1..s_n` are exactly the
//! solutions of the Pieri problem on the planes `L_i = Γ(s_i)`, where
//! `Γ(s) = [N(s); D(s)]` is the Hermann–Martin curve of the plant
//! `G = N·D⁻¹`.
//!
//! * [`Plant`] — right matrix-fraction plants (with random generators of
//!   the McMillan degree `mp + q(m+p−1)` that makes the pole-placement
//!   problem square);
//! * [`StateSpace`] — state-space realisations; controller-form
//!   realisation of matrix fractions, closed-loop assembly, eigenvalue
//!   checks through the workspace QR eigensolver;
//! * [`PolePlacement`] — end-to-end: prescribe poles, solve the Pieri
//!   problem, extract [`Compensator`]s, and verify that the closed-loop
//!   characteristic polynomial `φ(s) = det [X(s) | Γ(s)]` vanishes at
//!   every prescribed pole;
//! * [`solve_static_state_space`] / [`solve_dynamic_state_space`] — the
//!   paper's two stages for a state-space plant: the Pieri tree on a
//!   generic instance, then one coefficient-parameter continuation to
//!   the plant;
//! * [`solve_static_state_space_certified`] /
//!   [`solve_dynamic_state_space_certified`] — the warm path from a
//!   cached [`pieri_core::StartBundle`], with a
//!   [`pieri_certify::CertifyPolicy`] argument (`CertifyPolicy::off()`
//!   is the plain warm path, bit for bit);
//!   [`solve_dynamic_state_space_with_start`] is the `off()` form, kept
//!   because the repository benchmark calls it;
//! * [`satellite`] — the classical 4-state, 2-input, 2-output linearised
//!   satellite used in the authors' companion papers, as a worked
//!   state-space example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compensator;
mod plant;
mod pole;
mod satellite;
mod statespace;

pub use compensator::Compensator;
pub use plant::Plant;
pub use pole::{
    conjugate_pole_set, solve_dynamic_state_space, solve_dynamic_state_space_certified,
    solve_dynamic_state_space_with_start, solve_static_state_space,
    solve_static_state_space_certified, verify_closed_loop_ss, PolePlacement, PolePlacementOutcome,
};
pub use satellite::{satellite_plant, SATELLITE_OMEGA};
pub use statespace::StateSpace;
