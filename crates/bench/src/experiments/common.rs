//! Shared measurement helpers.
//!
//! The per-path costs behind Figs. 1–3 / Tables I–II are recorded by
//! tracking every path on the work-stealing fork-join pool
//! ([`pieri_parallel::track_paths_rayon`]), so the calibration numbers
//! are pool-backed: they reflect the same scheduler the repository's
//! parallel solvers run on (pool size = `available_parallelism`, or
//! `PIERI_NUM_THREADS` when set) rather than an idealised sequential
//! sweep. Results come back in input order, so the workload vector
//! lines up with the start solutions either way.
//!
//! Deliberate tradeoff: on a multi-core pool each path's elapsed time
//! includes contention from concurrently tracked neighbours (memory
//! bandwidth, turbo headroom), so the measured cost *variation* is an
//! in-situ number, not an isolated-core one — slightly noisier than a
//! sequential sweep would report. The experiments absorb this: the
//! synthetic paper-scale workloads pin the *mean* to the paper's regime
//! and take only the distribution shape from the measurement, and the
//! summary prints the pool width so a reader can judge the conditions.
//! Set `PIERI_NUM_THREADS=1` for contention-free calibration.

use pieri_num::{random_gamma, seeded_rng, Complex64};
use pieri_parallel::track_paths_rayon;
use pieri_sim::Workload;
use pieri_systems::{bilinear_system, cyclic, total_degree_start};
use pieri_tracker::{LinearHomotopy, PathResult, TrackSettings, TrackStats};

/// A measured workload: real per-path costs plus tracking statistics.
pub struct MeasuredWorkload {
    /// Name of the measured system.
    pub name: String,
    /// Per-path costs in seconds.
    pub workload: Workload,
    /// Tracking statistics (convergence/divergence counts, CV).
    pub stats: TrackStats,
}

impl MeasuredWorkload {
    /// Mean per-path cost in seconds.
    pub fn mean_cost(&self) -> f64 {
        self.stats.mean_time()
    }

    /// One-paragraph summary for the reports.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} paths tracked on this machine ({} pool threads) — \
             {} converged, {} diverged, {} failed;\n\
             mean path cost {:.2} ms, cost coefficient of variation {:.2}",
            self.name,
            self.stats.total(),
            rayon::current_num_threads(),
            self.stats.converged,
            self.stats.diverged,
            self.stats.failed,
            1e3 * self.mean_cost(),
            self.stats.time_cv()
        )
    }
}

/// Tracks every path on the pool and summarises the run. No cancel
/// scope is installed here, so every path is tracked.
fn pool_stats(h: &LinearHomotopy, starts: &[Vec<Complex64>]) -> TrackStats {
    let results: Vec<PathResult> = track_paths_rayon(h, starts, &TrackSettings::default())
        .into_iter()
        .flatten()
        .collect();
    TrackStats::from_results(&results)
}

/// Tracks all total-degree paths of cyclic-n on the fork-join pool and
/// returns the measured workload. `n = 5` gives 120 paths in well under
/// a second; `n = 6` gives 720 paths; `n = 7` gives 5,040.
pub fn measure_cyclic(n: usize, seed: u64) -> MeasuredWorkload {
    let mut rng = seeded_rng(seed);
    let target = cyclic(n);
    let start = total_degree_start(&target, &mut rng);
    let h = LinearHomotopy::new(start.system, target, random_gamma(&mut rng));
    let stats = pool_stats(&h, &start.solutions);
    MeasuredWorkload {
        name: format!("cyclic-{n} (total-degree start)"),
        workload: Workload::from_costs(stats.path_times.clone()),
        stats,
    }
}

/// Tracks the RPS *analog*: a generic bilinear system in `2k` variables
/// under a total-degree start — deficient like the RPS mechanism system
/// (only `C(2k,k)` of the `2^{2k}` paths converge, the rest diverge with
/// near-uniform cost). `k = 3` gives 64 paths, `k = 4` gives 256.
pub fn measure_rps_analog(k: usize, seed: u64) -> MeasuredWorkload {
    let mut rng = seeded_rng(seed);
    let target = bilinear_system(k, &mut rng);
    let start = total_degree_start(&target, &mut rng);
    let h = LinearHomotopy::new(start.system, target, random_gamma(&mut rng));
    let stats = pool_stats(&h, &start.solutions);
    MeasuredWorkload {
        name: format!("bilinear-{k}+{k} RPS analog (total-degree start)"),
        workload: Workload::from_costs(stats.path_times.clone()),
        stats,
    }
}
