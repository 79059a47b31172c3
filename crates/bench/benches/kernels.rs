//! Criterion benchmarks for the determinantal evaluation kernels at the
//! bottom of the Pieri path tracker: per-iteration `eval` + `jacobian_x`
//! (the reference split kernels, minor-based gradients) against the
//! fused `eval_and_jacobian` (one build + one LU per condition matrix;
//! also at a solved (3,3,0) point, where every condition matrix is
//! singular), the Davidenko tangent system, a fixed-budget Newton
//! correction with and without a reused workspace, and whole-path Pieri jobs on the
//! shapes where a full generic solve is affordable as setup. The ROADMAP
//! "fused determinantal kernels" table is regenerated from these medians.

use criterion::{BenchmarkId, Criterion};
use pieri_core::{CoeffLayout, PieriHomotopy, PieriProblem, Shape};
use pieri_linalg::CMat;
use pieri_num::{random_complex, seeded_rng, Complex64};
use pieri_tracker::{
    newton_correct, newton_correct_with, tangent, tangent_into, track_path_with, Homotopy,
    TrackSettings, TrackWorkspace,
};

/// Shapes swept by the per-iteration kernels: `m + p` is the condition-
/// matrix dimension, the pattern rank is the Jacobian dimension.
const SHAPES: [(usize, usize, usize); 6] = [
    (2, 2, 0),
    (2, 2, 1),
    (3, 3, 0),
    (3, 3, 1),
    (4, 4, 0),
    (4, 4, 1),
];

fn shape_label((m, p, q): (usize, usize, usize)) -> String {
    format!("{m}{p}{q}")
}

/// Root-pattern homotopy of a random problem plus a generic point.
fn root_setup(m: usize, p: usize, q: usize, seed: u64) -> (PieriHomotopy, Vec<Complex64>) {
    let mut rng = seeded_rng(seed);
    let shape = Shape::new(m, p, q);
    let problem = PieriProblem::random(shape.clone(), &mut rng);
    let root = shape.root();
    let h = PieriHomotopy::new(&problem, &root);
    let x: Vec<Complex64> = (0..h.dim()).map(|_| random_complex(&mut rng)).collect();
    (h, x)
}

fn bench_eval_jacobian(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval_jacobian");
    for &(m, p, q) in &SHAPES {
        let (h, x) = root_setup(m, p, q, 90);
        let k = h.dim();
        let t = 0.37;
        let mut fx = vec![Complex64::ZERO; k];
        let mut jac = CMat::zeros(k, k);
        group.bench_with_input(
            BenchmarkId::new("separate", shape_label((m, p, q))),
            &(),
            |b, _| {
                b.iter(|| {
                    h.eval(&x, t, &mut fx);
                    h.jacobian_x(&x, t, &mut jac);
                    fx[0]
                })
            },
        );
        let mut ws = TrackWorkspace::new();
        ws.ensure(k);
        group.bench_with_input(
            BenchmarkId::new("fused", shape_label((m, p, q))),
            &(),
            |b, _| {
                b.iter(|| {
                    let (fx, jac, scratch) = ws.eval_buffers();
                    h.eval_and_jacobian(&x, t, fx, jac, scratch);
                    fx[0]
                })
            },
        );
    }
    // At a solved point of the root homotopy (t = 1) every condition
    // matrix is singular: the regime of each path's final corrector
    // steps, which random points never reach.
    let mut rng = seeded_rng(94);
    let shape = Shape::new(3, 3, 0);
    let problem = PieriProblem::random(shape.clone(), &mut rng);
    let solution = pieri_core::solve(&problem);
    let h = PieriHomotopy::new(&problem, &shape.root());
    let x = &solution.coeffs[0];
    let mut ws = TrackWorkspace::new();
    ws.ensure(h.dim());
    group.bench_with_input(
        BenchmarkId::new("fused_at_solution", shape_label((3, 3, 0))),
        &(),
        |b, _| {
            b.iter(|| {
                let (fx, jac, scratch) = ws.eval_buffers();
                h.eval_and_jacobian(x, 1.0, fx, jac, scratch);
                fx[0]
            })
        },
    );
    group.finish();
}

fn bench_tangent(c: &mut Criterion) {
    let mut group = c.benchmark_group("tangent");
    for &(m, p, q) in &SHAPES {
        let (h, x) = root_setup(m, p, q, 91);
        let t = 0.37;
        group.bench_with_input(
            BenchmarkId::new("alloc", shape_label((m, p, q))),
            &(),
            |b, _| b.iter(|| tangent(&h, &x, t).map(|v| v[0])),
        );
        let mut ws = TrackWorkspace::new();
        let mut out = vec![Complex64::ZERO; h.dim()];
        group.bench_with_input(
            BenchmarkId::new("fused", shape_label((m, p, q))),
            &(),
            |b, _| {
                b.iter(|| {
                    tangent_into(&h, &x, t, &mut out, &mut ws);
                    out[0]
                })
            },
        );
    }
    group.finish();
}

fn bench_newton(c: &mut Criterion) {
    // Six Newton iterations from a generic (non-converging) point:
    // per-iteration corrector cost without step-control noise.
    let mut group = c.benchmark_group("newton6");
    for &(m, p, q) in &SHAPES {
        let (h, x) = root_setup(m, p, q, 92);
        group.bench_with_input(
            BenchmarkId::new("alloc", shape_label((m, p, q))),
            &(),
            |b, _| {
                b.iter(|| {
                    let mut xm = x.clone();
                    newton_correct(&h, &mut xm, 0.37, 1e-300, 6).iters
                })
            },
        );
        let mut ws = TrackWorkspace::new();
        group.bench_with_input(
            BenchmarkId::new("workspace", shape_label((m, p, q))),
            &(),
            |b, _| {
                b.iter(|| {
                    let mut xm = x.clone();
                    newton_correct_with(&h, &mut xm, 0.37, 1e-300, 6, &mut ws).iters
                })
            },
        );
    }
    group.finish();
}

fn bench_track_job(c: &mut Criterion) {
    // Whole-path Pieri jobs at the root pattern. Setup solves the full
    // generic problem, so only shapes with affordable trees are swept.
    let mut group = c.benchmark_group("track_job");
    group.sample_size(10);
    for &(m, p, q) in &[(2, 2, 0), (2, 2, 1), (3, 3, 0)] {
        let mut rng = seeded_rng(93);
        let shape = Shape::new(m, p, q);
        let problem = PieriProblem::random(shape.clone(), &mut rng);
        let solution = pieri_core::solve(&problem);
        let root = shape.root();
        let child = root
            .children()
            .into_iter()
            .next()
            .expect("root has children");
        let child_sol = solution.coeffs[0][..child.rank()].to_vec();
        let settings = TrackSettings::default();
        group.bench_with_input(
            BenchmarkId::new("run_job_with", shape_label((m, p, q))),
            &(),
            |b, _| {
                b.iter(|| {
                    let mut ws = TrackWorkspace::new();
                    pieri_core::run_job_with(
                        &problem, &root, &child, &child_sol, &settings, &mut ws,
                    )
                    .1
                    .steps
                })
            },
        );
        let homotopy = PieriHomotopy::new(&problem, &root);
        let child_layout = CoeffLayout::new(&child);
        let x0 = homotopy.layout().embed_child(&child_layout, &child_sol);
        let mut ws = TrackWorkspace::new();
        group.bench_with_input(
            BenchmarkId::new("track_path_with", shape_label((m, p, q))),
            &(),
            |b, _| b.iter(|| track_path_with(&homotopy, &x0, &settings, &mut ws).steps),
        );
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
        .sample_size(40)
}

criterion::criterion_group! {
    name = benches;
    config = config();
    targets = bench_eval_jacobian, bench_tangent, bench_newton, bench_track_job
}
criterion::criterion_main!(benches);
