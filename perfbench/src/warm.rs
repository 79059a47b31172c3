//! `warm_330`: one closed-loop caller on a keep-alive connection sends
//! `SolvePieri{3,3,0}` with fresh seeds once the shape is warm — the time
//! to all 42 laws of a new instance of a known shape, on the cache-hit
//! path. Its set-up is the service's cold start-bundle build.

use crate::layers::{self, LuProbe, Replay};
use crate::report::Report;
use crate::service::{self, Answer, Service};
use crate::spans::Tracer;
use crate::{check, instance_seed, stats, Args};
use pieri_core::PieriProblem;
use pieri_num::seeded_rng;
use pieri_parallel::solve_tree_parallel;
use pieri_service::{JobRequest, JobResult};
use pieri_tracker::TrackSettings;
use std::time::Instant;

/// Set-up repetitions before and again after the measured loop; each
/// boots a service and builds the (3,3,0) bundle from scratch (~2 s).
/// Two rounds a measured loop apart make the median less of a snapshot.
const SETUP_REPS: usize = 2;
/// Typical warm requests per second on a 2-core host.
const RATE: f64 = 0.5;
/// Root sets of the continuation and the tree agree to this (relative).
const ROOT_SET_TOL: f64 = 1e-6;

/// Known defect rate: a warm continuation sometimes ships a duplicated
/// root among the 42 (9 of 746 requests measured).
const DEFECT_RATE: f64 = 0.03;

fn request(seed: u64) -> JobRequest {
    JobRequest::SolvePieri {
        m: 3,
        p: 3,
        q: 0,
        seed,
        certify: false,
    }
}

/// The instance the engine derives from a `SolvePieri` seed.
fn target(seed: u64) -> PieriProblem {
    PieriProblem::random(crate::tree::shape(), &mut seeded_rng(seed))
}

fn verify(res: &JobResult, seed: u64) -> Result<(), String> {
    if res.expected != 42 || res.solutions != res.coeffs.len() || !res.cache_hit {
        return Err(format!(
            "{} of {} solutions, cache hit {}",
            res.solutions, res.expected, res.cache_hit
        ));
    }
    if !check::at_most(res.max_residual, 1e-6) {
        return Err(format!("server residual {:.2e}", res.max_residual));
    }
    let problem = target(seed);
    check::solution_set(
        &layers::maps(&problem, &res.coeffs),
        res.failed + res.improper,
        &problem,
    )
}

pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) {
    report.defect_rate = DEFECT_RATE;
    let shape = crate::tree::shape();
    let (svc, mut setups) = Service::boot_repeatedly(&shape, SETUP_REPS);
    let client = svc.client();
    let ops = args.ops(RATE);

    let mut answers: Vec<(u64, Answer)> = Vec::new();
    let mut op_ms = Vec::new();
    let mut done_s = Vec::new();
    let t_loop = Instant::now();
    let cost0 = tracer.cost_ns();
    for k in 0..ops as u64 {
        if t_loop.elapsed() > args.limit() {
            break;
        }
        let seed = instance_seed(args.seed, k);
        report.attempted += 1;
        let (res, verdict, latency) = tracer.op(
            || client.solve(&request(seed)),
            |res| match res {
                Ok(r) => verify(r, seed),
                Err(e) => Err(e.to_string()),
            },
        );
        match (verdict, res) {
            (Ok(()), Ok(result)) => {
                op_ms.push(latency.as_secs_f64() * 1e3);
                done_s.push(t_loop.elapsed().as_secs_f64());
                answers.push((seed, Answer { latency, result }));
            }
            (verdict, _) => {
                report.op_failed(format!(
                    "warm_330 seed {seed}: {}",
                    verdict.err().unwrap_or_default()
                ));
            }
        }
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    let op_cost = (tracer.cost_ns() - cost0) as f64;
    crate::over_limit(report, args, report.attempted, ops);
    let (again, more) = Service::boot_repeatedly(&shape, SETUP_REPS);
    again.shutdown();
    setups.extend(more);
    crate::report_e2e(
        report,
        &op_ms,
        &done_s,
        loop_s,
        &setups,
        "warm_330 requests, send to checked answer",
    );
    if !tracer.on() || answers.is_empty() {
        svc.shutdown();
        return;
    }

    // ---- per-layer metrics (traced run) --------------------------------
    let on = "warm_330 requests";
    let answered: Vec<&Answer> = answers.iter().map(|(_, a)| a).collect();
    service::report_service(report, &svc, &answered, on, "op_p50_ms on warm_330");
    let par: Vec<f64> = answered
        .iter()
        .map(|a| service::continue_parallelism(a))
        .collect();
    let p = stats::median(&par);
    report.layer(
        "core.continue.parallelism",
        "ratio",
        p,
        par.len(),
        "sum of path time / solve time on warm_330; moves op_p50_ms on warm_330",
    );
    report.attribution("path time / solve time", p);

    // Replay the first request's continuation through the counting
    // wrapper; it must reproduce the engine's paths exactly.
    let settings = TrackSettings::default();
    let (bundle, _) = svc
        .engine()
        .cache()
        .get_or_build(&shape)
        .expect("bundle is resident");
    let (seed0, first) = &answers[0];
    let target0 = target(*seed0);
    let mut replay = Replay::default();
    let ends = layers::replay_continuation(
        bundle.problem(),
        bundle.coeffs(),
        &target0,
        &settings,
        &mut replay,
    );
    if ends != first.result.coeffs || replay.steps() != first.result.track.total_steps {
        report.error("warm_330: the replay does not reproduce request 0's continuation");
    }
    let end_maps = layers::maps(&target0, &ends);
    let mut lu = LuProbe::default();
    lu.add(&target0, &end_maps);
    layers::report_replay(
        report,
        &replay,
        &lu,
        "warm_330 request 0 replayed",
        "op_p50_ms on warm_330",
    );

    // Cross-check: a tree solve of the same target finds the same roots.
    let (tree, _) = solve_tree_parallel(&target0, &settings, rayon::current_num_threads());
    if !check::same_root_set(&end_maps, &tree.maps, ROOT_SET_TOL) {
        report.error("warm_330: continuation and tree solve of target 0 disagree");
    }

    // The tree the service ran at set-up.
    crate::tree::report_bundle_tree(report, &bundle, 1, "setup_s on warm_330");

    crate::place::probe(args, report, "warm_330", false);
    let op_ns: f64 = op_ms.iter().sum::<f64>() * 1e6;
    tracer.finish(report, "warm_330", args.seed, op_ns, op_cost);
    svc.shutdown();
}
