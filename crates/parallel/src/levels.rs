//! Level-synchronous (poset-organised) parallel solving — the ablation
//! against the Fig. 6 tree scheduler.
//!
//! Section III.C of the paper argues for trees over posets on two counts:
//! memory (a poset node's solutions stay live until the whole level is
//! done, while a tree job's start solution dies with the job) and
//! scheduling (the level barrier idles workers at every rank). This
//! module implements the poset organisation with work-stealing data
//! parallelism inside each level — each level's jobs fan out in chunks
//! across the global fork-join pool (see the vendored `rayon`), with an
//! order-preserving collect so the run is deterministic — instrumented
//! so the benches can measure both effects against
//! [`crate::solve_tree_parallel`].

use pieri_core::{JobRecord, PMap, Pattern, PieriProblem, PieriSolution, Poset};
use pieri_num::Complex64;
use pieri_tracker::TrackSettings;
use rayon::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

/// Observables of a level-synchronous run.
#[derive(Debug, Clone, Default)]
pub struct LevelRunStats {
    /// Peak number of solution vectors held live at once (the memory
    /// argument: the poset organisation must keep two full levels).
    pub peak_live_solutions: usize,
    /// Wall-clock time per level (the barrier effect: total wall is the
    /// sum of per-level maxima rather than a single critical path).
    pub level_wall: Vec<f64>,
    /// Total wall-clock time.
    pub wall: f64,
}

/// Solves a Pieri problem level by level, running all jobs of one level
/// in parallel (work-stealing) with a barrier before the next level.
///
/// Produces the same solutions as [`pieri_core::solve`] and
/// [`crate::solve_tree_parallel`]; the interesting output is
/// [`LevelRunStats`].
pub fn solve_by_levels_parallel(
    problem: &PieriProblem,
    settings: &TrackSettings,
) -> (PieriSolution, LevelRunStats) {
    let t0 = Instant::now();
    let shape = problem.shape();
    let poset = Poset::build(shape);
    let n = shape.conditions();
    let trivial = shape.trivial();

    let mut prev: HashMap<Vec<usize>, Vec<Vec<Complex64>>> = HashMap::new();
    prev.insert(trivial.pivots().to_vec(), vec![Vec::new()]);

    let mut records: Vec<JobRecord> = Vec::new();
    let mut failures = 0usize;
    let mut stats = LevelRunStats::default();

    for k in 1..=n {
        let tl = Instant::now();
        // Materialise every job of this level: (pattern, child, child
        // solution); `run_job_with` performs the pivot-zeroing embedding.
        let mut jobs: Vec<(Pattern, Pattern, Vec<Complex64>)> = Vec::new();
        for pattern in poset.level(k) {
            for child in pattern.children() {
                let Some(child_sols) = prev.get(child.pivots()) else {
                    continue;
                };
                for y in child_sols {
                    jobs.push((pattern.clone(), child.clone(), y.clone()));
                }
            }
        }
        // Barrier-parallel execution of the level.
        let outcomes: Vec<(Pattern, Option<Vec<Complex64>>, JobRecord)> = jobs
            .into_par_iter()
            .map(|(pattern, child, y)| {
                let (sol, rec) = crate::workspace::with_worker_workspace(|ws| {
                    pieri_core::run_job_with(problem, &pattern, &child, &y, settings, ws)
                });
                (pattern, sol, rec)
            })
            .collect();
        let mut next: HashMap<Vec<usize>, Vec<Vec<Complex64>>> = HashMap::new();
        for (pattern, sol, rec) in outcomes {
            records.push(rec);
            match sol {
                Some(x) => next.entry(pattern.pivots().to_vec()).or_default().push(x),
                None => failures += 1,
            }
        }
        // Memory accounting: both levels are live at the barrier.
        let live: usize = prev.values().map(|v| v.len()).sum::<usize>()
            + next.values().map(|v| v.len()).sum::<usize>();
        stats.peak_live_solutions = stats.peak_live_solutions.max(live);
        stats.level_wall.push(tl.elapsed().as_secs_f64());
        prev = next;
    }

    let root = shape.root();
    let coeffs = prev.remove(root.pivots()).unwrap_or_default();
    let maps: Vec<PMap> = coeffs.iter().map(|x| PMap::from_coeffs(&root, x)).collect();
    stats.wall = t0.elapsed().as_secs_f64();
    (
        PieriSolution {
            maps,
            coeffs,
            records,
            failures,
            certificates: Vec::new(),
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_core::Shape;
    use pieri_num::seeded_rng;

    #[test]
    fn matches_sequential_solutions() {
        let mut rng = seeded_rng(730);
        let problem = PieriProblem::random(Shape::new(2, 2, 1), &mut rng);
        let seq = pieri_core::solve(&problem);
        let (par, stats) = solve_by_levels_parallel(&problem, &TrackSettings::default());
        assert_eq!(par.failures, 0);
        assert_eq!(par.maps.len(), seq.maps.len());
        let mut unmatched: Vec<&PMap> = seq.maps.iter().collect();
        for m in &par.maps {
            let pos = unmatched
                .iter()
                .position(|u| m.dist(u) < 1e-6)
                .expect("solution matches sequential");
            unmatched.swap_remove(pos);
        }
        assert_eq!(stats.level_wall.len(), 8);
        assert_eq!(par.records.len(), 37);
    }

    #[test]
    fn output_is_deterministic_across_runs() {
        // The barrier-parallel level map preserves job order, so repeated
        // runs must agree bitwise however the pool interleaves chunks.
        let mut rng = seeded_rng(732);
        let problem = PieriProblem::random(Shape::new(2, 2, 1), &mut rng);
        let settings = TrackSettings::default();
        let (a, _) = solve_by_levels_parallel(&problem, &settings);
        let (b, _) = solve_by_levels_parallel(&problem, &settings);
        assert_eq!(a.coeffs, b.coeffs, "bitwise identical solutions");
        let levels = |s: &PieriSolution| s.records.iter().map(|r| r.level).collect::<Vec<_>>();
        assert_eq!(levels(&a), levels(&b), "record order stable");
    }

    #[test]
    fn memory_footprint_holds_two_levels() {
        // For (2,2,1) the widest adjacent levels have 8 + 8 = 16 live
        // solutions — the poset organisation's cost relative to the tree
        // scheduler, whose queue peaks well below that (jobs, not whole
        // levels).
        let mut rng = seeded_rng(731);
        let problem = PieriProblem::random(Shape::new(2, 2, 1), &mut rng);
        let (_, stats) = solve_by_levels_parallel(&problem, &TrackSettings::default());
        assert!(stats.peak_live_solutions >= 16, "{stats:?}");
    }
}
