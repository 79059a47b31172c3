//! Engine-level integration tests: cache determinism and concurrent
//! submission stress. CI runs this file under both `PIERI_NUM_THREADS`
//! unset and `=1`, so every scenario is exercised with a full pool and
//! a single-thread pool.

use pieri_certify::{Certificate, CertifyPolicy, Verdict};
use pieri_control::{satellite_plant, solve_dynamic_state_space_certified};
use pieri_core::{PieriProblem, Shape};
use pieri_num::seeded_rng;
use pieri_service::{BuildMode, Engine, EngineConfig, JobRequest};
use pieri_tracker::TrackSettings;
use std::sync::{Arc, Barrier};

fn engine(workers: usize, capacity: usize, mode: BuildMode) -> Engine {
    Engine::start(EngineConfig {
        workers,
        queue_capacity: capacity,
        build_mode: mode,
        ..EngineConfig::default()
    })
}

fn satellite_place(seed: u64) -> JobRequest {
    satellite_place_certify(seed, false)
}

fn satellite_place_certify(seed: u64, certify: bool) -> JobRequest {
    let sat = satellite_plant(1.0);
    let mut rng = seeded_rng(9);
    JobRequest::PlacePoles {
        a: sat.a.clone(),
        b: sat.b.clone(),
        c: sat.c.clone(),
        q: 1,
        poles: pieri_control::conjugate_pole_set(5, &mut rng),
        seed,
        certify,
    }
}

fn verdicts(certificates: &[Certificate]) -> Vec<&Verdict> {
    certificates.iter().map(|c| &c.verdict).collect()
}

/// The engine answers exactly what the library computes from the cached
/// bundle: for the same seed, `SolvePieri` equals
/// `StartBundle::continue_to` and `PlacePoles` equals
/// `solve_dynamic_state_space_certified`, bit for bit, with
/// `certify: false` under `CertifyPolicy::off()` and with
/// `certify: true` under the engine's default `CertifyPolicy::full()`.
#[test]
fn engine_answers_equal_library_calls_bitwise() {
    let engine = engine(1, 8, BuildMode::Sequential);
    let settings = TrackSettings::default();
    for (certify, policy) in [(false, CertifyPolicy::off()), (true, CertifyPolicy::full())] {
        let seed = 17;
        let res = engine
            .run(JobRequest::SolvePieri {
                m: 2,
                p: 2,
                q: 0,
                seed,
                certify,
            })
            .unwrap();
        let shape = Shape::new(2, 2, 0);
        let (bundle, _) = engine.cache().get_or_build(&shape).unwrap();
        let target = PieriProblem::random(shape, &mut seeded_rng(seed));
        let cont = bundle.continue_to(&target, &settings, &policy);
        assert_eq!(res.solutions, 2);
        assert_eq!(res.coeffs, cont.coeffs, "SolvePieri, certify = {certify}");
        assert_eq!(res.certificates.len(), if certify { 2 } else { 0 });
        assert_eq!(verdicts(&res.certificates), verdicts(&cont.certificates));

        let seed = 23;
        let req = satellite_place_certify(seed, certify);
        let JobRequest::PlacePoles { poles, .. } = req.clone() else {
            unreachable!("satellite_place_certify builds a PlacePoles job");
        };
        let res = engine.run(req).unwrap();
        let (bundle, _) = engine.cache().get_or_build(&Shape::new(2, 2, 1)).unwrap();
        let (_, cont, _) = solve_dynamic_state_space_certified(
            &satellite_plant(1.0),
            1,
            &poles,
            &mut seeded_rng(seed),
            &bundle,
            &settings,
            &policy,
        );
        assert_eq!(res.solutions, 8);
        assert_eq!(res.coeffs, cont.coeffs, "PlacePoles, certify = {certify}");
        assert_eq!(res.certificates.len(), if certify { 8 } else { 0 });
        assert_eq!(verdicts(&res.certificates), verdicts(&cont.certificates));
    }
    engine.shutdown();
}

/// `run` is the blocking adapter: with one worker and a one-slot queue,
/// four concurrent callers all wait for space instead of being shed.
#[test]
fn run_waits_for_queue_space() {
    let engine = Arc::new(engine(1, 1, BuildMode::Sequential));
    let start = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4u64)
        .map(|seed| {
            let engine = engine.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                engine.run(satellite_place(seed))
            })
        })
        .collect();
    for h in handles {
        let res = h.join().expect("client thread");
        assert!(res.is_ok(), "blocking run must not shed: {res:?}");
    }
    let stats = engine.stats();
    assert_eq!(stats.rejected, 0, "no admission was refused");
    assert_eq!(stats.completed, 4);
    engine.shutdown();
}

/// Same seed + shape twice: the second run must report a cache hit and
/// produce bitwise-identical compensators.
#[test]
fn cache_determinism_bitwise() {
    let engine = engine(2, 16, BuildMode::TreeParallel);
    let cold = engine.run(satellite_place(1234)).unwrap();
    let warm = engine.run(satellite_place(1234)).unwrap();

    assert!(!cold.cache_hit, "first request builds the bundle");
    assert!(warm.cache_hit, "second request hits the shape cache");
    assert_eq!(cold.solutions, 8, "d(2,2,1) = 8 compensators");
    assert_eq!(warm.solutions, 8);
    assert_eq!(warm.coeffs, cold.coeffs, "raw coefficients bitwise equal");
    assert_eq!(warm.compensators.len(), cold.compensators.len());
    for (a, b) in cold.compensators.iter().zip(&warm.compensators) {
        for (ua, ub) in a.u_coeffs.iter().zip(&b.u_coeffs) {
            for i in 0..ua.rows() {
                for j in 0..ua.cols() {
                    assert_eq!(ua[(i, j)], ub[(i, j)], "U coeff ({i},{j})");
                }
            }
        }
        for (va, vb) in a.v_coeffs.iter().zip(&b.v_coeffs) {
            for i in 0..va.rows() {
                for j in 0..va.cols() {
                    assert_eq!(va[(i, j)], vb[(i, j)], "V coeff ({i},{j})");
                }
            }
        }
    }
    assert!(
        cold.max_residual < 1e-6,
        "poles placed: {:.2e}",
        cold.max_residual
    );
    engine.shutdown();
}

/// The warm path must track only the d(m,p,q) continuation paths — the
/// measured point of the cache.
#[test]
fn warm_path_tracks_only_root_paths() {
    let engine = engine(1, 8, BuildMode::Sequential);
    let _ = engine.run(satellite_place(5)).unwrap();
    let warm = engine.run(satellite_place(6)).unwrap();
    assert!(warm.cache_hit);
    assert_eq!(warm.track.total(), 8, "8 continuation paths, no tree");
    assert!(warm.bundle_build.is_zero());
    engine.shutdown();
}

/// Many clients, jobs ≫ workers: everything completes, the shape is
/// built exactly once, all remaining requests hit.
#[test]
fn stress_more_jobs_than_workers() {
    let engine = Arc::new(engine(2, 64, BuildMode::Sequential));
    let clients = 8;
    let per_client = 4;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                (0..per_client)
                    .map(|i| {
                        let req = JobRequest::SolvePieri {
                            m: 2,
                            p: 2,
                            q: 0,
                            seed: (c * per_client + i) as u64,
                            certify: false,
                        };
                        engine.run(req).unwrap()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut total = 0;
    for h in handles {
        for res in h.join().expect("client thread") {
            assert_eq!(res.solutions, 2);
            assert!(res.max_residual < 1e-7);
            total += 1;
        }
    }
    assert_eq!(total, clients * per_client);
    let stats = engine.stats();
    assert_eq!(stats.completed, total);
    assert_eq!(stats.cache.misses, 1, "one shape, one build");
    assert_eq!(stats.cache.hits, total - 1);
    engine.shutdown();
}

/// Workers ≫ jobs across several shapes at once: concurrent cold builds
/// of *different* shapes must not interfere (each is built once).
#[test]
fn stress_more_workers_than_jobs() {
    let engine = Arc::new(engine(8, 64, BuildMode::Sequential));
    let shapes = [(2usize, 2usize, 0usize), (3, 2, 0), (2, 1, 1)];
    let handles: Vec<_> = shapes
        .iter()
        .map(|&(m, p, q)| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                engine
                    .run(JobRequest::SolvePieri {
                        m,
                        p,
                        q,
                        seed: 3,
                        certify: false,
                    })
                    .unwrap()
            })
        })
        .collect();
    for h in handles {
        let res = h.join().expect("client thread");
        assert!(res.solutions >= 1);
        assert!(res.max_residual < 1e-7);
    }
    let stats = engine.stats();
    assert_eq!(stats.cache.shapes, shapes.len());
    assert_eq!(stats.cache.misses, shapes.len());
    engine.shutdown();
}

/// Concurrent requests for the *same* cold shape: exactly one build, the
/// rest share it, and all answers for the same seed are identical.
#[test]
fn stress_same_cold_shape_races() {
    let engine = Arc::new(engine(6, 64, BuildMode::Sequential));
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                engine
                    .run(JobRequest::SolvePieri {
                        m: 2,
                        p: 2,
                        q: 0,
                        seed: 42,
                        certify: false,
                    })
                    .unwrap()
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &results[1..] {
        assert_eq!(r.coeffs, results[0].coeffs, "same seed, same answer");
    }
    let stats = engine.stats();
    assert_eq!(stats.cache.misses, 1, "the race produced exactly one build");
    assert_eq!(stats.cache.hits, 5);
    engine.shutdown();
}
