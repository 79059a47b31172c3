//! `place_220`: one closed-loop caller per core, each on its own
//! keep-alive connection, sends satellite-plant `PlacePoles` with q = 0
//! (d = 2) and a fresh conjugate pole set; every second request asks for
//! certification. Many small requests, so transport, queueing, the
//! control layer and certification are a large share of the time.

use crate::layers::{self, LuProbe, Replay};
use crate::report::Report;
use crate::service::{self, Answer, Service};
use crate::spans::Tracer;
use crate::{check, instance_seed, stats, Args};
use pieri_control::{conjugate_pole_set, satellite_plant, verify_closed_loop_ss, StateSpace};
use pieri_core::{PMap, Shape};
use pieri_num::{seeded_rng, Complex64};
use pieri_service::engine::CertifyCounters;
use pieri_service::{JobRequest, JobResult};
use pieri_tracker::TrackSettings;
use std::ops::Range;
use std::time::{Duration, Instant};

/// The measured loop runs in `SEGMENTS` parts with a round of
/// `SETUP_REPS` set-ups before, between and after them; each set-up
/// boots a service and builds the (2,2,0) bundle. One takes 6-15 ms,
/// most of it thread hand-offs, which wait longer whenever another
/// tenant of the host holds a core. So a round's sample is its fastest
/// set-up, the one the host delayed least, and `setup_s` is the median
/// of the rounds' samples, spread over the run.
const SEGMENTS: usize = 4;
const SETUP_REPS: usize = 10;
/// Requests per caller of the probe other workloads' traced runs take
/// their service, control and certification layers from: ≥ 1000 in all,
/// so the queue-wait p99 is reportable.
const PROBE_OPS: usize = 800;
/// Typical requests per second, all callers together, on a 2-core host.
const RATE: f64 = 400.0;
/// Uncertified requests replayed through the counting wrapper.
const REPLAYED: usize = 50;
/// Repetitions of the start-bundle tree for the parallel metrics.
const TREE_REPS: usize = 10;
/// Closed-loop pole residual accepted by the client-side check.
const POLE_TOL: f64 = 1e-6;

/// Known defect rate: a continuation sometimes returns one law twice
/// (109 of 862 155 requests measured).
const DEFECT_RATE: f64 = 3e-4;

fn shape() -> Shape {
    Shape::new(2, 2, 0)
}

/// Request `k` of caller `c`, with its poles and seed.
fn request(ss: &StateSpace, seed: u64, c: u64, k: u64) -> (JobRequest, Vec<Complex64>, u64) {
    let s = instance_seed(seed ^ (c << 40), k);
    let poles = conjugate_pole_set(ss.dim(), &mut seeded_rng(s));
    let req = JobRequest::PlacePoles {
        a: ss.a.clone(),
        b: ss.b.clone(),
        c: ss.c.clone(),
        q: 0,
        poles: poles.clone(),
        seed: s,
        certify: k % 2 == 1,
    };
    (req, poles, s)
}

/// Rebuilds each compensator from the wire and checks it. The answer
/// must account for all d = 2 laws with no failed path; a law at
/// infinity is reported as an improper (diverged) path, which the
/// service contract allows. Every shipped compensator must satisfy the
/// pole conditions `det [X(s_i) | pole plane(s_i)] = 0` by the Hadamard
/// ratio, and its closed-loop residual recomputed with
/// `verify_closed_loop_ss` must match the one the service reports.
///
/// That residual is also held to 1e-6, as the HTTP end-to-end test does,
/// except on a law near infinity: there its normalisation degenerates
/// (the pole conditions hold to ~1e-16 while it reads ~1e-2), so such a
/// compensator is counted instead of failed, and a certified request may
/// carry a `Suspect` certificate for exactly it. Returns the number of
/// laws at or near infinity (improper paths plus such compensators).
fn verify(
    ss: &StateSpace,
    res: &JobResult,
    poles: &[Complex64],
    certify: bool,
) -> Result<usize, String> {
    if res.expected != 2
        || res.failed > 0
        || res.solutions + res.improper != 2
        || res.compensators.len() != res.solutions
    {
        return Err(format!(
            "{} of {} solutions ({} improper, {} failed, {} compensators)",
            res.solutions,
            res.expected,
            res.improper,
            res.failed,
            res.compensators.len()
        ));
    }
    let maps: Vec<PMap> = res
        .compensators
        .iter()
        .map(|comp| {
            PMap::from_coeff_matrices(
                comp.u_coeffs
                    .iter()
                    .zip(&comp.v_coeffs)
                    .map(|(u, v)| u.vstack(v))
                    .collect(),
            )
        })
        .collect();
    let mut ill = vec![false; maps.len()];
    for (i, (comp, map)) in res.compensators.iter().zip(&maps).enumerate() {
        let worst = poles
            .iter()
            .map(|&s| check::hadamard_ratio(&map.eval(s).hstack(&ss.pole_plane(s))))
            .fold(0.0, f64::max);
        if !check::at_most(worst, check::SINGULAR_TOL) {
            return Err(format!(
                "pole condition not met: Hadamard ratio {worst:.2e}"
            ));
        }
        let (_, residual) = verify_closed_loop_ss(ss, map, poles);
        if !check::at_most((residual - comp.residual).abs(), 1e-6 * residual.max(1e-9)) {
            return Err(format!(
                "closed-loop residual {residual:.3e} differs from the reported {:.3e}",
                comp.residual
            ));
        }
        ill[i] = !check::at_most(residual, POLE_TOL);
    }
    if maps.len() > 1 && check::at_most(check::min_distance(&maps), check::DISTINCT_TOL) {
        return Err("the two compensators coincide".into());
    }
    if certify {
        let ok = res.certificates.len() == maps.len()
            && res
                .certificates
                .iter()
                .zip(&ill)
                .all(|(cert, &ill)| cert.is_certified() || (ill && !cert.is_failed()));
        if !ok {
            return Err(
                "certification requested but a well-conditioned solution is not certified".into(),
            );
        }
    }
    Ok(res.improper + ill.iter().filter(|&&b| b).count())
}

/// A request as sent and answered, kept for the traced analysis.
struct Sent {
    poles: Vec<Complex64>,
    seed: u64,
    certify: bool,
    answer: Answer,
}

#[derive(Default)]
struct Swarm {
    /// Answered requests, kept only when the run analyses them.
    sent: Vec<Sent>,
    op_ms: Vec<f64>,
    /// When each verified request completed, in seconds of swarm time
    /// since its caller started; callers start within milliseconds of
    /// the swarm, against the 1-s windows of [`stats::throughput`].
    done_s: Vec<f64>,
    /// Laws at or near infinity over all verified requests.
    near_infinity: usize,
    attempted: usize,
    errors: Vec<String>,
    wall_s: f64,
    op_cost_ns: f64,
}

impl Swarm {
    /// Appends `later`, a swarm that started `self.wall_s` seconds of
    /// swarm time after this one.
    fn absorb(&mut self, later: Swarm) {
        let offset = self.wall_s;
        self.sent.extend(later.sent);
        self.op_ms.extend(later.op_ms);
        self.done_s.extend(later.done_s.iter().map(|t| t + offset));
        self.near_infinity += later.near_infinity;
        self.attempted += later.attempted;
        self.errors.extend(later.errors);
        self.wall_s += later.wall_s;
        self.op_cost_ns += later.op_cost_ns;
    }
}

/// One closed-loop caller: sends its requests `ks` one after another on
/// its own keep-alive connection, or as many as it can before
/// `deadline`, keeping the answers when `keep` is set.
#[allow(clippy::too_many_arguments)]
fn caller(
    svc: &Service,
    ss: &StateSpace,
    seed: u64,
    c: u64,
    ks: Range<u64>,
    deadline: Instant,
    keep: bool,
    tracer: &Tracer,
) -> Swarm {
    let client = svc.client();
    let mut out = Swarm::default();
    let start = Instant::now();
    for k in ks {
        if Instant::now() >= deadline {
            break;
        }
        out.attempted += 1;
        let (req, poles, req_seed) = request(ss, seed, c, k);
        let certify = req.certify();
        let (res, verdict, latency) = tracer.op(
            || client.solve(&req),
            |res| match res {
                Ok(r) => verify(ss, r, &poles, certify),
                Err(e) => Err(e.to_string()),
            },
        );
        match (verdict, res) {
            (Ok(near_infinity), Ok(result)) => {
                out.op_ms.push(latency.as_secs_f64() * 1e3);
                out.done_s.push(start.elapsed().as_secs_f64());
                out.near_infinity += near_infinity;
                if keep {
                    out.sent.push(Sent {
                        poles,
                        seed: req_seed,
                        certify,
                        answer: Answer { latency, result },
                    });
                }
            }
            (verdict, _) => out.errors.push(format!(
                "place_220 caller {c} request {k}: {}",
                verdict.err().unwrap_or_default()
            )),
        }
    }
    out
}

/// Runs one closed-loop caller per core against `svc`, each sending its
/// requests `ks`, until `deadline` at most.
fn swarm(
    svc: &Service,
    seed: u64,
    ks: Range<u64>,
    deadline: Instant,
    keep: bool,
    tracer: &Tracer,
) -> Swarm {
    let ss = satellite_plant(1.0);
    let callers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let start = Instant::now();
    let cost0 = tracer.cost_ns();
    let mut out = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let ss = &ss;
                let ks = ks.clone();
                scope.spawn(move || caller(svc, ss, seed, c, ks, deadline, keep, tracer))
            })
            .collect();
        let mut all = Swarm::default();
        // A caller leaves `wall_s` at 0, so side-by-side callers'
        // completion times are merged without an offset.
        for h in handles {
            all.absorb(h.join().expect("caller thread panicked"));
        }
        all
    });
    out.wall_s = start.elapsed().as_secs_f64();
    out.op_cost_ns = (tracer.cost_ns() - cost0) as f64;
    out
}

fn near_infinity_share(run: &Swarm) -> f64 {
    run.near_infinity as f64 / (2 * run.op_ms.len()) as f64
}

fn certify_delta(before: &CertifyCounters, after: &CertifyCounters) -> [(&'static str, usize); 4] {
    [
        ("certify.certified", after.certified - before.certified),
        ("certify.refined", after.refined - before.refined),
        ("certify.retracked", after.retracked - before.retracked),
        ("certify.failed", after.failed - before.failed),
    ]
}

/// Queue, control and certification metrics of a swarm, and with
/// `with_service` the engine, cache and HTTP metrics too.
fn report_layers(
    report: &mut Report,
    svc: &Service,
    run: &Swarm,
    before: &CertifyCounters,
    on: &str,
    with_service: bool,
) {
    let answers: Vec<&Answer> = run.sent.iter().map(|s| &s.answer).collect();
    if with_service {
        service::report_service(
            report,
            svc,
            &answers,
            on,
            "op_p50_ms and ops_per_s on place_220",
        );
    }
    service::report_queue(report, &answers, on);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let plain: Vec<&Sent> = run.sent.iter().filter(|s| !s.certify).collect();
    let certified: Vec<&Sent> = run.sent.iter().filter(|s| s.certify).collect();
    let control: Vec<f64> = plain
        .iter()
        .map(|s| ms(s.answer.result.solve_time) - ms(s.answer.result.track.total_time))
        .collect();
    report.layer(
        "control.overhead_ms",
        "ms",
        stats::median(&control),
        control.len(),
        format!("solve time - path time, uncertified; {on}; moves op_p50_ms on place_220"),
    );
    let solve = |v: &[&Sent]| {
        stats::median(
            &v.iter()
                .map(|s| ms(s.answer.result.solve_time))
                .collect::<Vec<_>>(),
        )
    };
    report.layer(
        "certify.overhead_ms",
        "ms",
        solve(&certified) - solve(&plain),
        certified.len(),
        format!("median solve time certified - uncertified; {on}; moves op_p50_ms on place_220"),
    );
    let ill = near_infinity_share(run);
    report.layer(
        "control.near_infinity_share",
        "share",
        ill,
        2 * run.op_ms.len(),
        format!("laws at infinity (improper) or near it (closed-loop residual > 1e-6); {on}"),
    );
    if ill > 0.0 {
        report.findings.push(format!(
            "{ill:.4} of place_220 laws are at or near infinity; those near it ship \
             with closed-loop residual > 1e-6 and no refusal"
        ));
    }
    let after = svc.engine().stats().certify;
    for (name, delta) in certify_delta(before, &after) {
        report.layer(
            name,
            "count",
            delta as f64,
            certified.len(),
            format!("engine counter delta; {on}"),
        );
    }
}

/// Measures the place_220 layers for a traced run of another workload:
/// a fresh service and a short untraced swarm. A workload that measured
/// the service layer on its own requests passes `with_service = false`,
/// so each metric is reported once.
pub fn probe(args: &Args, report: &mut Report, from: &str, with_service: bool) {
    let svc = Service::boot(&shape());
    let before = svc.engine().stats().certify;
    let run = swarm(
        &svc,
        args.seed,
        0..PROBE_OPS as u64,
        Instant::now() + args.limit(),
        true,
        &Tracer::new(false),
    );
    for e in &run.errors {
        report.findings.push(format!("probe operation failed: {e}"));
    }
    let on = format!(
        "{}-request place_220 probe in the {from} traced run",
        run.attempted
    );
    report_layers(report, &svc, &run, &before, &on, with_service);
    svc.shutdown();
}

pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) {
    report.defect_rate = DEFECT_RATE;
    let shape = shape();
    let (svc, first) = Service::boot_repeatedly(&shape, SETUP_REPS);
    let mut setups = vec![stats::min(&first)];
    let before = svc.engine().stats().certify;
    let callers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_segment = args.ops(RATE).div_ceil(callers * SEGMENTS) as u64;
    let deadline = Instant::now() + args.limit();
    let mut run = Swarm::default();
    for j in 0..SEGMENTS as u64 {
        let ks = j * per_segment..(j + 1) * per_segment;
        run.absorb(swarm(&svc, args.seed, ks, deadline, tracer.on(), tracer));
        let (again, round) = Service::boot_repeatedly(&shape, SETUP_REPS);
        again.shutdown();
        setups.push(stats::min(&round));
    }
    let ops = per_segment as usize * SEGMENTS * callers;
    crate::over_limit(report, args, run.attempted, ops);
    report.attempted += run.attempted;
    for e in &run.errors {
        report.op_failed(e.clone());
    }
    crate::report_e2e(
        report,
        &run.op_ms,
        &run.done_s,
        run.wall_s,
        &setups,
        "place_220 requests, send to checked answer",
    );
    println!(
        "near_infinity_share {:.6} (laws at or near infinity; see control.near_infinity_share)",
        near_infinity_share(&run)
    );
    let p99 = stats::percentile(&run.op_ms, 0.99);
    println!(
        "op_p99_ms {} (n={}, {} beyond)",
        p99.map_or("not reportable".into(), |v| format!("{v:.4}")),
        run.op_ms.len(),
        stats::beyond(run.op_ms.len(), 0.99)
    );
    if !tracer.on() {
        svc.shutdown();
        return;
    }

    // ---- per-layer metrics (traced run) --------------------------------
    let on = "place_220 requests";
    report_layers(report, &svc, &run, &before, on, true);
    let plain: Vec<&Sent> = run.sent.iter().filter(|s| !s.certify).collect();
    let par: Vec<f64> = plain
        .iter()
        .map(|s| service::continue_parallelism(&s.answer))
        .collect();
    let p = stats::median(&par);
    report.layer(
        "core.continue.parallelism",
        "ratio",
        p,
        par.len(),
        "sum of path time / solve time, uncertified place_220; no effect predicted",
    );
    report.attribution("path time / solve time", p);

    // Replay uncertified requests in process: the control layer builds
    // the (rotated) target, the wrapper re-tracks its continuation.
    let settings = TrackSettings::default();
    let (bundle, _) = svc
        .engine()
        .cache()
        .get_or_build(&shape)
        .expect("bundle is resident");
    let ss = satellite_plant(1.0);
    let mut replay = Replay::default();
    let mut lu = LuProbe::default();
    for s in plain.iter().take(REPLAYED) {
        let (_, _, target) = pieri_control::solve_dynamic_state_space_with_start(
            &ss,
            0,
            &s.poles,
            &mut seeded_rng(s.seed),
            &bundle,
            &settings,
        );
        let before = replay.paths.len();
        let ends = layers::replay_continuation(
            bundle.problem(),
            bundle.coeffs(),
            &target,
            &settings,
            &mut replay,
        );
        let steps: usize = replay.paths[before..].iter().map(|p| p.steps).sum();
        if steps != s.answer.result.track.total_steps {
            report.error("place_220: the replay does not reproduce a request's continuation");
        }
        lu.add(&target, &layers::maps(&target, &ends));
    }
    layers::report_replay(
        report,
        &replay,
        &lu,
        "place_220 uncertified requests replayed",
        "little on place_220 (n <= 4 closed form)",
    );

    // The tree the service ran at set-up.
    crate::tree::report_bundle_tree(report, &bundle, TREE_REPS, "setup_s on place_220");

    let op_ns: f64 = run.op_ms.iter().sum::<f64>() * 1e6;
    tracer.finish(report, "place_220", args.seed, op_ns, run.op_cost_ns);
    svc.shutdown();
}
