//! Per-layer measurement by replay: the workload's own paths re-tracked
//! through `track_path_with` with a counting [`Homotopy`] wrapper, and
//! `Lu::factor` timed on the condition matrices at the workload's own
//! solutions. That puts kernel and LU samples on real paths, where the
//! condition matrices are singular by construction.

use crate::report::Report;
use crate::stats;
use pieri_core::{CoeffLayout, PMap, PieriHomotopy, PieriProblem, Poset};
use pieri_linalg::{CMat, Lu};
use pieri_num::Complex64;
use pieri_tracker::{
    track_path_with, Homotopy, HomotopyScratch, PathResult, TrackSettings, TrackWorkspace,
};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// A kernel call slower than this multiple of its kernel's median counts
/// as slow.
const SLOW_FACTOR: f64 = 5.0;
/// Factorisations per condition matrix in the LU probe (one LU is ~1 µs).
const LU_REPS: usize = 16;

/// Per-call durations of the fused kernels, and the rest in aggregate.
#[derive(Default)]
pub struct KernelTally {
    pub eval_jac_ns: Vec<u64>,
    pub jac_dt_ns: Vec<u64>,
    pub other_ns: u64,
}

/// Times every kernel call of the wrapped homotopy.
pub struct Counting<'a, H> {
    inner: &'a H,
    tally: &'a Mutex<KernelTally>,
}

impl<H: Homotopy> Counting<'_, H> {
    fn note(&self, t: Instant, slot: fn(&mut KernelTally) -> Option<&mut Vec<u64>>) {
        let ns = t.elapsed().as_nanos() as u64;
        let mut tally = self.tally.lock().expect("tally lock poisoned");
        match slot(&mut tally) {
            Some(v) => v.push(ns),
            None => tally.other_ns += ns,
        }
    }
}

impl<H: Homotopy> Homotopy for Counting<'_, H> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn eval(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        let t0 = Instant::now();
        self.inner.eval(x, t, out);
        self.note(t0, |_| None);
    }

    fn jacobian_x(&self, x: &[Complex64], t: f64, out: &mut CMat) {
        let t0 = Instant::now();
        self.inner.jacobian_x(x, t, out);
        self.note(t0, |_| None);
    }

    fn dt(&self, x: &[Complex64], t: f64, out: &mut [Complex64]) {
        let t0 = Instant::now();
        self.inner.dt(x, t, out);
        self.note(t0, |_| None);
    }

    fn eval_and_jacobian(
        &self,
        x: &[Complex64],
        t: f64,
        fx: &mut [Complex64],
        jac: &mut CMat,
        scratch: &mut HomotopyScratch,
    ) {
        let t0 = Instant::now();
        self.inner.eval_and_jacobian(x, t, fx, jac, scratch);
        self.note(t0, |k| Some(&mut k.eval_jac_ns));
    }

    fn jacobian_and_dt(
        &self,
        x: &[Complex64],
        t: f64,
        jac: &mut CMat,
        ht: &mut [Complex64],
        scratch: &mut HomotopyScratch,
    ) {
        let t0 = Instant::now();
        self.inner.jacobian_and_dt(x, t, jac, ht, scratch);
        self.note(t0, |k| Some(&mut k.jac_dt_ns));
    }
}

/// The paths of a replay, in the order the program tracks them, with
/// their kernel tally.
#[derive(Default)]
pub struct Replay {
    pub paths: Vec<PathResult>,
    pub tally: KernelTally,
    /// Operations (solves or requests) the replay covers.
    pub ops: usize,
}

impl Replay {
    pub fn steps(&self) -> usize {
        self.paths.iter().map(|p| p.steps).sum()
    }
}

fn track<H: Homotopy>(
    h: &H,
    x0: &[Complex64],
    settings: &TrackSettings,
    ws: &mut TrackWorkspace,
    tally: &Mutex<KernelTally>,
) -> PathResult {
    let counted = Counting { inner: h, tally };
    track_path_with(&counted, x0, settings, ws)
}

/// Re-tracks every job of a Pieri-tree solve sequentially, depth first
/// in lineage order — the order `solve_tree_parallel` returns its
/// records and roots in. Returns the replay and the root solutions.
pub fn replay_tree(
    problem: &PieriProblem,
    poset: &Poset,
    settings: &TrackSettings,
    into: &mut Replay,
) -> Vec<Vec<Complex64>> {
    let shape = problem.shape();
    let n = shape.conditions();
    let tally = Mutex::new(std::mem::take(&mut into.tally));
    let mut ws = TrackWorkspace::new();
    let mut roots = Vec::new();
    // Explicit stack of (pattern, child, start); children are pushed in
    // reverse so they pop in index order.
    let trivial = shape.trivial();
    let mut stack: Vec<_> = poset
        .parents_in_poset(&trivial)
        .into_iter()
        .rev()
        .map(|p| (p, trivial.clone(), Vec::new()))
        .collect();
    while let Some((pattern, child, start)) = stack.pop() {
        let h = PieriHomotopy::new(problem, &pattern);
        let x0 = h.layout().embed_child(&CoeffLayout::new(&child), &start);
        let r = track(&h, &x0, settings, &mut ws, &tally);
        if r.status.is_converged() {
            if pattern.rank() == n {
                roots.push(r.x.clone());
            } else {
                for parent in poset.parents_in_poset(&pattern).into_iter().rev() {
                    stack.push((parent, pattern.clone(), r.x.clone()));
                }
            }
        }
        into.paths.push(r);
    }
    into.tally = tally.into_inner().expect("tally lock poisoned");
    into.ops += 1;
    roots
}

/// Re-tracks a coefficient-parameter continuation from `start` to
/// `target`, one path per start solution, as `StartBundle::continue_to`
/// does. Returns the endpoints of converged paths.
pub fn replay_continuation(
    start: &PieriProblem,
    start_coeffs: &[Vec<Complex64>],
    target: &PieriProblem,
    settings: &TrackSettings,
    into: &mut Replay,
) -> Vec<Vec<Complex64>> {
    let h = pieri_core::InstanceHomotopy::new(start, target);
    let tally = Mutex::new(std::mem::take(&mut into.tally));
    let mut ws = TrackWorkspace::new();
    let mut ends = Vec::new();
    for x0 in start_coeffs {
        let r = track(&h, x0, settings, &mut ws, &tally);
        if r.status.is_converged() {
            ends.push(r.x.clone());
        }
        into.paths.push(r);
    }
    into.tally = tally.into_inner().expect("tally lock poisoned");
    into.ops += 1;
    ends
}

/// Maps of root-pattern coefficient vectors.
pub fn maps(problem: &PieriProblem, coeffs: &[Vec<Complex64>]) -> Vec<PMap> {
    let root = problem.shape().root();
    coeffs.iter().map(|x| PMap::from_coeffs(&root, x)).collect()
}

/// LU timings on `[X(s_i) | L_i]` at each solution, and how many of
/// those factorisations report the matrix singular.
#[derive(Default)]
pub struct LuProbe {
    pub us: Vec<f64>,
    pub singular: usize,
}

impl LuProbe {
    pub fn add(&mut self, problem: &PieriProblem, solutions: &[PMap]) {
        for map in solutions {
            for i in 0..problem.shape().conditions() {
                let a = map.eval(problem.point(i)).hstack(problem.plane(i));
                let t = Instant::now();
                let mut singular = false;
                for _ in 0..LU_REPS {
                    singular = black_box(Lu::factor(black_box(&a))).is_err();
                }
                self.us
                    .push(t.elapsed().as_secs_f64() * 1e6 / LU_REPS as f64);
                self.singular += usize::from(singular);
            }
        }
    }
}

fn slow_count(ns: &[u64]) -> usize {
    let f: Vec<f64> = ns.iter().map(|&x| x as f64).collect();
    let med = stats::median(&f);
    f.iter().filter(|&&x| x > SLOW_FACTOR * med).count()
}

/// Reports the tracker, kernel and LU metrics of a replay. `on` names
/// what was replayed; `moves` says which end-to-end metrics these
/// layers should move.
pub fn report_replay(report: &mut Report, replay: &Replay, lu: &LuProbe, on: &str, moves: &str) {
    let paths = &replay.paths;
    let ms: Vec<f64> = paths
        .iter()
        .map(|p| p.elapsed.as_secs_f64() * 1e3)
        .collect();
    let n = paths.len();
    let steps: usize = replay.steps();
    let newton: usize = paths.iter().map(|p| p.newton_iters).sum();
    let rejections: usize = paths.iter().map(|p| p.rejections).sum();
    let note = |what: &str| format!("{what}; {on}; moves {moves}");
    report.layer(
        "tracker.path_ms.p50",
        "ms",
        stats::median(&ms),
        n,
        note("median path time"),
    );
    report.layer(
        "tracker.path_ms.max",
        "ms",
        stats::max(&ms),
        n,
        note("slowest path"),
    );
    report.layer(
        "tracker.path_cv",
        "ratio",
        stats::cv(&ms),
        n,
        note("path-time coefficient of variation"),
    );
    report.layer(
        "tracker.steps_per_path",
        "count",
        steps as f64 / n as f64,
        n,
        note("accepted steps per path"),
    );
    report.layer(
        "tracker.newton_per_step",
        "ratio",
        newton as f64 / steps as f64,
        steps,
        note("Newton iterations per accepted step"),
    );
    report.layer(
        "tracker.rejections_per_path",
        "count",
        rejections as f64 / n as f64,
        n,
        note("rejected steps per path"),
    );

    let t = &replay.tally;
    let us = |v: &[u64]| -> Vec<f64> { v.iter().map(|&x| x as f64 / 1e3).collect() };
    let ops = replay.ops as f64;
    report.layer(
        "core.kernel.eval_jac.calls",
        "count",
        t.eval_jac_ns.len() as f64 / ops,
        replay.ops,
        note("fused eval+jac calls per operation"),
    );
    report.layer(
        "core.kernel.eval_jac.us_p50",
        "us",
        stats::median(&us(&t.eval_jac_ns)),
        t.eval_jac_ns.len(),
        note("median fused eval+jac call"),
    );
    report.layer(
        "core.kernel.jac_dt.calls",
        "count",
        t.jac_dt_ns.len() as f64 / ops,
        replay.ops,
        note("fused jac+dt calls per operation"),
    );
    report.layer(
        "core.kernel.jac_dt.us_p50",
        "us",
        stats::median(&us(&t.jac_dt_ns)),
        t.jac_dt_ns.len(),
        note("median fused jac+dt call"),
    );
    let calls = t.eval_jac_ns.len() + t.jac_dt_ns.len();
    let slow = slow_count(&t.eval_jac_ns) + slow_count(&t.jac_dt_ns);
    report.layer(
        "core.kernel.slow_share",
        "share",
        slow as f64 / calls as f64,
        calls,
        note("calls slower than 5x their kernel's median"),
    );
    let kernel_ns = t.eval_jac_ns.iter().chain(&t.jac_dt_ns).sum::<u64>() + t.other_ns;
    let path_ns: f64 = paths.iter().map(|p| p.elapsed.as_nanos() as f64).sum();
    let share = kernel_ns as f64 / path_ns;
    report.layer(
        "core.kernel.time_share",
        "share",
        share,
        n,
        note("kernel time / path time"),
    );
    report.attribution("kernel time / path time", share);

    report.layer(
        "linalg.lu.us_p50",
        "us",
        stats::median(&lu.us),
        lu.us.len(),
        note("Lu::factor on [X(s_i) | L_i] at the solutions"),
    );
    report.layer(
        "linalg.lu.singular_share",
        "share",
        lu.singular as f64 / lu.us.len() as f64,
        lu.us.len(),
        note("share of those factorisations reported singular"),
    );
}
