//! `tree_330`: cold Pieri-tree solves of fresh generic (3,3,0) instances
//! through `solve_tree_parallel` with one worker per core — the paper's
//! computation, with no service involved.

use crate::layers::{self, LuProbe, Replay};
use crate::report::Report;
use crate::spans::Tracer;
use crate::{check, instance_seed, stats, Args};
use pieri_core::{PieriProblem, PieriSolution, Poset, Shape, StartBundle};
use pieri_num::seeded_rng;
use pieri_parallel::{solve_tree_parallel, solve_tree_parallel_prepared, TreeRunStats};
use pieri_tracker::TrackSettings;
use std::time::{Duration, Instant};

/// Set-up is the shape's poset. One build takes 15-25 µs, depending on
/// what else the host runs at that moment, so each set-up sample is the
/// mean of `BUILDS_PER_SETUP` builds, and the samples are spread over
/// the run: `SETUP_REPS` before the loop, one after each solve and
/// `SETUP_REPS` after it. `setup_s` is their median.
const SETUP_REPS: usize = 11;
const BUILDS_PER_SETUP: usize = 100;

/// Typical solves per second with one worker per core on a 2-core host.
const RATE: f64 = 0.48;

/// Known defect rate: a cold tree solve occasionally returns a
/// duplicated root (3 of 824 solves measured).
const DEFECT_RATE: f64 = 0.01;

/// One solve of the measured loop.
struct Solve {
    problem: PieriProblem,
    solution: PieriSolution,
    stats: TreeRunStats,
}

pub fn shape() -> Shape {
    Shape::new(3, 3, 0)
}

pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) {
    let shape = shape();
    let settings = TrackSettings::default();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.defect_rate = DEFECT_RATE;

    let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup_once(&shape)).collect();
    let poset = Poset::build(&shape);

    let ops = args.ops(RATE);
    let mut solves: Vec<Solve> = Vec::new();
    let mut op_ms = Vec::new();
    let mut done_s = Vec::new();
    let t_loop = Instant::now();
    // Time spent on the set-up samples between solves, kept off the loop.
    let mut paused = Duration::ZERO;
    let cost0 = tracer.cost_ns();
    for k in 0..ops as u64 {
        if t_loop.elapsed() > args.limit() {
            break;
        }
        let problem =
            PieriProblem::random(shape.clone(), &mut seeded_rng(instance_seed(args.seed, k)));
        let ((solution, stats), verdict, took) = tracer.op(
            || solve_tree_parallel_prepared(&problem, &poset, &settings, workers),
            |(solution, _)| check::solution_set(&solution.maps, solution.failures, &problem),
        );
        report.attempted += 1;
        match verdict {
            Ok(()) => {
                op_ms.push(took.as_secs_f64() * 1e3);
                done_s.push((t_loop.elapsed() - paused).as_secs_f64());
            }
            Err(e) => report.op_failed(format!("tree_330 instance {k}: {e}")),
        }
        // Only a traced run analyses the solves; an untraced one keeps
        // nothing, so peak memory does not grow with the operation count.
        if tracer.on() {
            solves.push(Solve {
                problem,
                solution,
                stats,
            });
        }
        let t = Instant::now();
        setups.push(setup_once(&shape));
        paused += t.elapsed();
    }
    let loop_s = (t_loop.elapsed() - paused).as_secs_f64();
    let op_cost = (tracer.cost_ns() - cost0) as f64;
    crate::over_limit(report, args, report.attempted, ops);
    setups.extend((0..SETUP_REPS).map(|_| setup_once(&shape)));

    crate::report_e2e(
        report,
        &op_ms,
        &done_s,
        loop_s,
        &setups,
        "tree_330 solves (instance generation excluded)",
    );
    if !tracer.on() {
        return;
    }

    // ---- per-layer metrics (traced run) --------------------------------
    let runs: Vec<_> = solves.iter().map(|s| (&s.solution, &s.stats)).collect();
    report_parallel(report, &runs, "tree_330 solves", "op_p50_ms on tree_330");

    // Single-worker baseline on the first instance: bitwise-equal output
    // and the speed-up over the nproc-worker solve of the same instance.
    let first = &solves[0];
    let (single, single_stats) = solve_tree_parallel_prepared(&first.problem, &poset, &settings, 1);
    if single.coeffs != first.solution.coeffs {
        report.error("tree_330: 1-worker and nproc-worker solves differ bitwise");
    }
    report.layer(
        "parallel.speedup",
        "ratio",
        wall_ms(&single_stats) / wall_ms(&first.stats),
        1,
        format!("1-worker / {workers}-worker wall on instance 0; moves op_p50_ms on tree_330"),
    );

    // Replay instance 0's jobs through the counting wrapper.
    let mut replay = Replay::default();
    let roots = layers::replay_tree(&first.problem, &poset, &settings, &mut replay);
    let replay_steps: Vec<usize> = replay.paths.iter().map(|p| p.steps).collect();
    let solve_steps: Vec<usize> = first.solution.records.iter().map(|r| r.steps).collect();
    if roots != first.solution.coeffs || replay_steps != solve_steps {
        report.error("tree_330: the replay does not reproduce instance 0's jobs");
    }
    let mut lu = LuProbe::default();
    lu.add(&first.problem, &layers::maps(&first.problem, &roots));
    layers::report_replay(
        report,
        &replay,
        &lu,
        "tree_330 instance 0 replayed",
        "op_p50_ms on tree_330",
    );

    let parallelism: Vec<f64> = solves
        .iter()
        .map(|s| s.solution.total_time().as_secs_f64() * 1e3 / wall_ms(&s.stats))
        .collect();
    report.layer(
        "core.continue.parallelism",
        "ratio",
        stats::median(&parallelism),
        parallelism.len(),
        "sum of job times / solve wall on tree_330 (no continuation here); moves op_p50_ms",
    );

    crate::place::probe(args, report, "tree_330", true);
    let op_ns: f64 = op_ms.iter().sum::<f64>() * 1e6;
    tracer.finish(report, "tree_330", args.seed, op_ns, op_cost);
}

/// One set-up sample: the mean time of `BUILDS_PER_SETUP` poset builds.
fn setup_once(shape: &Shape) -> f64 {
    let t = Instant::now();
    for _ in 0..BUILDS_PER_SETUP {
        std::hint::black_box(Poset::build(std::hint::black_box(shape)));
    }
    t.elapsed().as_secs_f64() / BUILDS_PER_SETUP as f64
}

/// The tree a service runs at set-up to build `bundle`: `reps` solves of
/// the bundle's generic instance with nproc workers and with 1, each
/// bitwise equal to the cached roots, reported as the scheduler metrics
/// and the median 1-worker / nproc-worker speed-up.
pub fn report_bundle_tree(report: &mut Report, bundle: &StartBundle, reps: usize, moves: &str) {
    let settings = TrackSettings::default();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shape = bundle.problem().shape();
    let on = format!(
        "the ({},{},{}) start-bundle tree",
        shape.m(),
        shape.p(),
        shape.q()
    );
    let mut multi = Vec::new();
    let mut speedup = Vec::new();
    for _ in 0..reps {
        let (m, m_stats) = solve_tree_parallel(bundle.problem(), &settings, workers);
        let (s, s_stats) = solve_tree_parallel(bundle.problem(), &settings, 1);
        if m.coeffs != bundle.coeffs() || s.coeffs != bundle.coeffs() {
            report.error(format!(
                "tree solves of {on} instance differ from the cached roots"
            ));
        }
        speedup.push(wall_ms(&s_stats) / wall_ms(&m_stats));
        multi.push((m, m_stats));
    }
    let runs: Vec<_> = multi.iter().map(|(m, s)| (m, s)).collect();
    report_parallel(report, &runs, &on, moves);
    report.layer(
        "parallel.speedup",
        "ratio",
        stats::median(&speedup),
        speedup.len(),
        format!("1-worker / {workers}-worker wall of {on}; moves {moves}"),
    );
}

fn wall_ms(stats: &TreeRunStats) -> f64 {
    stats.report.wall.as_secs_f64() * 1e3
}

/// Scheduler metrics over tree solves, and the job-over-busy
/// attribution. Also used for the tree the service runs at set-up.
pub fn report_parallel(
    report: &mut Report,
    runs: &[(&PieriSolution, &TreeRunStats)],
    on: &str,
    moves: &str,
) {
    let note = |what: &str| format!("{what}; {on}; moves {moves}");
    let util: Vec<f64> = runs.iter().map(|(_, s)| s.report.efficiency()).collect();
    report.layer(
        "parallel.utilization",
        "ratio",
        stats::median(&util),
        util.len(),
        note("sum of worker busy / (workers x wall)"),
    );
    let msgs: Vec<f64> = runs.iter().map(|(_, s)| s.report.messages as f64).collect();
    report.layer(
        "parallel.messages",
        "count",
        stats::median(&msgs),
        msgs.len(),
        note("master messages per solve"),
    );
    let parks: Vec<f64> = runs.iter().map(|(_, s)| s.idle_parks as f64).collect();
    report.layer(
        "parallel.idle_parks",
        "count",
        stats::median(&parks),
        parks.len(),
        note("idle-slave parks per solve"),
    );
    let jobs: f64 = runs
        .iter()
        .map(|(sol, _)| sol.total_time().as_secs_f64())
        .sum();
    let busy: f64 = runs
        .iter()
        .map(|(_, s)| s.report.total_busy().as_secs_f64())
        .sum();
    report.layer(
        "parallel.job_over_busy",
        "ratio",
        jobs / busy,
        runs.len(),
        note("sum of job times / sum of worker busy"),
    );
    report.attribution("job time / worker busy", jobs / busy);
}
