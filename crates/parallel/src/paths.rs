//! Parallel tracking of independent solution paths (Section II).

use crate::report::{ParallelReport, WorkerStats};
use crate::workspace::with_worker_workspace;
use crossbeam::channel;
use pieri_num::Complex64;
use pieri_tracker::{
    cancel, track_path_with, CancelToken, Homotopy, PathResult, TrackSettings, TrackWorkspace,
};
use std::time::Instant;

/// Static workload distribution: the `starts` are split into `workers`
/// contiguous blocks up front, one thread per block, no communication
/// until the join. Results are returned in input order.
///
/// When `starts.len() < workers` fewer blocks than `workers` are
/// spawned, and the report contains exactly one [`WorkerStats`] entry
/// per block actually spawned — no phantom all-zero workers skewing the
/// efficiency and imbalance numbers.
///
/// # Panics
/// Panics when `workers == 0`.
pub fn track_paths_static<H: Homotopy>(
    h: &H,
    starts: &[Vec<Complex64>],
    settings: &TrackSettings,
    workers: usize,
) -> (Vec<PathResult>, ParallelReport) {
    assert!(workers >= 1, "need at least one worker");
    let t0 = Instant::now();
    let n = starts.len();
    let chunk = n.div_ceil(workers).max(1);
    let mut results: Vec<Option<PathResult>> = (0..n).map(|_| None).collect();
    let mut stats: Vec<WorkerStats> = Vec::with_capacity(n.div_ceil(chunk));

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (w, block) in starts.chunks(chunk).enumerate() {
            let offset = w * chunk;
            handles.push((
                offset,
                scope.spawn(move || {
                    let t = Instant::now();
                    // One workspace per worker, reused across its block.
                    let mut ws = TrackWorkspace::new();
                    let out: Vec<PathResult> = block
                        .iter()
                        .map(|s| track_path_with(h, s, settings, &mut ws))
                        .collect();
                    (out, t.elapsed())
                }),
            ));
        }
        for (offset, handle) in handles {
            let (block_results, busy) = handle.join().expect("worker panicked");
            stats.push(WorkerStats {
                jobs: block_results.len(),
                busy,
            });
            for (i, r) in block_results.into_iter().enumerate() {
                results[offset + i] = Some(r);
            }
        }
    });

    let report = ParallelReport {
        workers: stats,
        wall: t0.elapsed(),
        messages: 0,
        peak_queue: 0,
    };
    let results = results
        .into_iter()
        .map(|r| r.expect("every path tracked"))
        .collect();
    (results, report)
}

/// Dynamic master/slave distribution with first-come-first-served
/// assignment: each slave holds one job at a time; the master hands out
/// the next start solution whenever a result comes back.
///
/// # Panics
/// Panics when `workers == 0`.
pub fn track_paths_dynamic<H: Homotopy>(
    h: &H,
    starts: &[Vec<Complex64>],
    settings: &TrackSettings,
    workers: usize,
) -> (Vec<PathResult>, ParallelReport) {
    assert!(workers >= 1, "need at least one worker");
    let t0 = Instant::now();
    let n = starts.len();
    let mut results: Vec<Option<PathResult>> = (0..n).map(|_| None).collect();
    let mut stats = vec![WorkerStats::default(); workers];
    let mut messages = 0usize;

    // Job = index into `starts`; result = (worker, index, PathResult, busy).
    let (job_tx, job_rx) = channel::unbounded::<usize>();
    let (res_tx, res_rx) = channel::unbounded::<(usize, usize, PathResult, std::time::Duration)>();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                // Slave: busy-wait on the job channel until it closes,
                // one tracking workspace for the slave's lifetime.
                let mut ws = TrackWorkspace::new();
                while let Ok(idx) = job_rx.recv() {
                    let t = Instant::now();
                    let r = track_path_with(h, &starts[idx], settings, &mut ws);
                    if res_tx.send((w, idx, r, t.elapsed())).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);

        // Master: seed one job per slave, then first-come-first-served.
        let mut next = 0usize;
        let mut outstanding = 0usize;
        for _ in 0..workers.min(n) {
            job_tx.send(next).expect("workers alive");
            messages += 1;
            next += 1;
            outstanding += 1;
        }
        while outstanding > 0 {
            let (w, idx, r, busy) = res_rx.recv().expect("workers alive");
            messages += 1;
            stats[w].jobs += 1;
            stats[w].busy += busy;
            results[idx] = Some(r);
            outstanding -= 1;
            if next < n {
                job_tx.send(next).expect("workers alive");
                messages += 1;
                next += 1;
                outstanding += 1;
            }
        }
        // Closing the channel terminates the slaves' waiting loops.
        drop(job_tx);
    });

    let report = ParallelReport {
        workers: stats,
        wall: t0.elapsed(),
        messages,
        peak_queue: 0,
    };
    let results = results
        .into_iter()
        .map(|r| r.expect("every path tracked"))
        .collect();
    (results, report)
}

/// Work-stealing tracking on the Rayon fork-join pool: one pool job
/// per path.
///
/// This is both the ablation against the hand-rolled schedulers and
/// the service's warm `SolvePieri` continuation. Per-path jobs, rather
/// than chunks of paths, leave at most one path of tail imbalance when
/// path costs vary. Each job tracks with its pool thread's workspace and
/// writes its own output slot, so the result is in input order and
/// bitwise identical to tracking the paths one after another, whatever
/// the pool size or the stealing interleaving.
///
/// Each job runs under the submitting thread's context: the innermost
/// [`pieri_tracker::cancel`] token and (with the tracker's `trace`
/// feature) the current trace id, so the `track.path` spans land under
/// the submitter's request. The token is checked before each path
/// starts; a path that never started because the token had lapsed is
/// `None`, and a started path always runs to its end. Outside any
/// cancel scope every entry is `Some`.
pub fn track_paths_rayon<H: Homotopy>(
    h: &H,
    starts: &[Vec<Complex64>],
    settings: &TrackSettings,
) -> Vec<Option<PathResult>> {
    let token = cancel::active_token();
    let trace_id = pieri_tracker::current_trace_id();
    let mut out: Vec<Option<PathResult>> = (0..starts.len()).map(|_| None).collect();
    rayon::scope(|s| {
        for (slot, x0) in out.iter_mut().zip(starts) {
            let token = &token;
            s.spawn(move |_| {
                if token.as_ref().is_some_and(CancelToken::is_cancelled) {
                    return;
                }
                *slot = Some(pieri_tracker::with_trace_id(trace_id, || {
                    with_worker_workspace(|ws| track_path_with(h, x0, settings, ws))
                }));
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_num::{random_gamma, seeded_rng, Complex64};
    use pieri_poly::{Poly, PolySystem};
    use pieri_tracker::PathStatus;

    /// x^d − 1 → random degree-d target; returns (homotopy, starts, d).
    fn setup(d: usize, seed: u64) -> (pieri_tracker::LinearHomotopy, Vec<Vec<Complex64>>) {
        let mut rng = seeded_rng(seed);
        let x = Poly::var(1, 0);
        let mut start_p = x.pow(d as u32);
        start_p = start_p.sub(&Poly::constant(1, Complex64::ONE));
        let roots: Vec<Complex64> = (0..d)
            .map(|_| pieri_num::random_complex(&mut rng))
            .collect();
        let target_uni = pieri_poly::UniPoly::from_roots(&roots);
        let mut target_p = Poly::zero(1);
        for (k, &c) in target_uni.coeffs().iter().enumerate() {
            target_p = target_p.add(&x.pow(k as u32).scale(c));
        }
        let g = PolySystem::new(vec![start_p]);
        let f = PolySystem::new(vec![target_p]);
        let h = pieri_tracker::LinearHomotopy::new(g, f, random_gamma(&mut rng));
        let starts = (0..d)
            .map(|k| {
                vec![Complex64::from_polar(
                    1.0,
                    std::f64::consts::TAU * k as f64 / d as f64,
                )]
            })
            .collect();
        (h, starts)
    }

    /// Unwraps a run outside any cancel scope, where every path starts.
    fn all_tracked(results: Vec<Option<PathResult>>) -> Vec<PathResult> {
        results
            .into_iter()
            .map(|r| r.expect("no cancel scope: every path is tracked"))
            .collect()
    }

    fn endpoints_sorted(results: &[PathResult]) -> Vec<Complex64> {
        let mut xs: Vec<Complex64> = results.iter().map(|r| r.x[0]).collect();
        xs.sort_by(|a, b| a.re.total_cmp(&b.re).then(a.im.total_cmp(&b.im)));
        xs
    }

    #[test]
    fn static_and_dynamic_match_sequential() {
        let (h, starts) = setup(8, 700);
        let settings = TrackSettings::default();
        let (seq, _) = pieri_tracker::track_all(&h, &starts, &settings);
        let (sta, rep_s) = track_paths_static(&h, &starts, &settings, 3);
        let (dyn_, rep_d) = track_paths_dynamic(&h, &starts, &settings, 3);
        assert!(seq.iter().all(|r| r.status == PathStatus::Converged));
        let e0 = endpoints_sorted(&seq);
        let e1 = endpoints_sorted(&sta);
        let e2 = endpoints_sorted(&dyn_);
        for i in 0..e0.len() {
            assert!(e0[i].dist(e1[i]) < 1e-8, "static endpoint {i}");
            assert!(e0[i].dist(e2[i]) < 1e-8, "dynamic endpoint {i}");
        }
        // Accounting.
        assert_eq!(rep_s.workers.iter().map(|w| w.jobs).sum::<usize>(), 8);
        assert_eq!(rep_d.workers.iter().map(|w| w.jobs).sum::<usize>(), 8);
        // Dynamic: 8 job sends + 8 results.
        assert_eq!(rep_d.messages, 16);
    }

    #[test]
    fn rayon_matches_sequential() {
        let (h, starts) = setup(6, 701);
        let settings = TrackSettings::default();
        let (seq, _) = pieri_tracker::track_all(&h, &starts, &settings);
        let par = all_tracked(track_paths_rayon(&h, &starts, &settings));
        let e0 = endpoints_sorted(&seq);
        let e1 = endpoints_sorted(&par);
        for i in 0..e0.len() {
            assert!(e0[i].dist(e1[i]) < 1e-8);
        }
    }

    #[test]
    fn more_workers_than_jobs() {
        let (h, starts) = setup(3, 702);
        let settings = TrackSettings::default();
        let (r1, _) = track_paths_static(&h, &starts, &settings, 8);
        let (r2, _) = track_paths_dynamic(&h, &starts, &settings, 8);
        assert_eq!(r1.len(), 3);
        assert_eq!(r2.len(), 3);
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let (h, starts) = setup(5, 703);
        let settings = TrackSettings::default();
        let (seq, _) = pieri_tracker::track_all(&h, &starts, &settings);
        let (one, rep) = track_paths_dynamic(&h, &starts, &settings, 1);
        assert_eq!(rep.workers.len(), 1);
        assert_eq!(rep.workers[0].jobs, 5);
        let e0 = endpoints_sorted(&seq);
        let e1 = endpoints_sorted(&one);
        for i in 0..5 {
            assert!(e0[i].dist(e1[i]) < 1e-8);
        }
    }

    #[test]
    fn empty_start_list() {
        let (h, _) = setup(2, 704);
        let settings = TrackSettings::default();
        let (r, rep) = track_paths_dynamic(&h, &[], &settings, 2);
        assert!(r.is_empty());
        assert_eq!(rep.messages, 0);
    }

    #[test]
    fn static_report_has_no_phantom_workers() {
        // Regression: with workers > starts.len() only 3 blocks are
        // spawned; the report used to pad itself to `workers` entries of
        // all-zero WorkerStats, dragging efficiency() and imbalance()
        // toward nonsense.
        let (h, starts) = setup(3, 705);
        let settings = TrackSettings::default();
        let (results, rep) = track_paths_static(&h, &starts, &settings, 8);
        assert_eq!(results.len(), 3);
        assert_eq!(rep.workers.len(), 3, "one entry per spawned block");
        assert!(rep.workers.iter().all(|w| w.jobs == 1));
        assert!(rep.imbalance().is_finite(), "no zero-busy phantom entries");
    }

    #[test]
    fn static_report_empty_when_no_paths() {
        let (h, _) = setup(2, 706);
        let settings = TrackSettings::default();
        let (results, rep) = track_paths_static(&h, &[], &settings, 4);
        assert!(results.is_empty());
        assert!(rep.workers.is_empty(), "no blocks spawned, no stats");
    }

    #[test]
    fn rayon_output_is_deterministic_and_ordered() {
        // Every path job writes its own slot, so repeated runs must
        // agree bitwise and in input order with the sequential tracker,
        // whatever the stealing interleaving was.
        let (h, starts) = setup(7, 707);
        let settings = TrackSettings::default();
        let (seq, _) = pieri_tracker::track_all(&h, &starts, &settings);
        let a = all_tracked(track_paths_rayon(&h, &starts, &settings));
        let b = all_tracked(track_paths_rayon(&h, &starts, &settings));
        assert_eq!(a.len(), seq.len());
        for i in 0..a.len() {
            assert_eq!(a[i].x, b[i].x, "path {i} bitwise stable across runs");
            assert_eq!(a[i].x, seq[i].x, "path {i} matches sequential order");
        }
    }

    #[test]
    fn rayon_honours_the_submitters_cancel_scope() {
        // The token lives in a thread-local scope on the submitting
        // thread; the pool's threads only see it because
        // `track_paths_rayon` captures it. A lapsed token starts no path at all.
        let (h, starts) = setup(6, 708);
        let settings = TrackSettings::default();
        let token = pieri_tracker::CancelToken::new();
        token.cancel();
        let cut =
            pieri_tracker::cancel::scope(&token, || track_paths_rayon(&h, &starts, &settings));
        assert_eq!(cut.len(), starts.len());
        assert!(cut.iter().all(Option::is_none), "no path started");

        let live = pieri_tracker::CancelToken::new();
        let full =
            pieri_tracker::cancel::scope(&live, || track_paths_rayon(&h, &starts, &settings));
        assert!(
            full.iter().all(Option::is_some),
            "a live token stops nothing"
        );
        let free = track_paths_rayon(&h, &starts, &settings);
        assert!(
            free.iter().all(Option::is_some),
            "no scope: every path runs"
        );
    }
}
