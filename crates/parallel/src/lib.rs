//! Parallel path tracking: static and dynamic load balancing, and the
//! master/slave Pieri-tree scheduler of Fig. 6.
//!
//! The paper's MPI (C + Ada) implementation maps onto threads and
//! channels: each *slave* is a worker thread, the *master* owns the job
//! queue, and messages travel over `crossbeam` channels. The three
//! schedulers:
//!
//! * [`track_paths_static`] — the static workload distribution of
//!   Section II.A: paths are split into contiguous blocks, one per
//!   worker, with no further communication (minimal overhead, but the
//!   per-path cost variance lands unevenly);
//! * [`track_paths_dynamic`] — the dynamic master/slave model: one job
//!   per slave at a time, first-come-first-served;
//! * [`solve_tree_parallel`] — the parallel Pieri homotopy of Fig. 6:
//!   the master maintains the virtual tree, a queue of ready jobs (a job
//!   is ready once the solution at its parent node is known), an idle
//!   slave queue for reactivation, and the leaf-count termination
//!   protocol;
//! * [`track_paths_rayon`] — one fork-join pool job per path: an
//!   ablation against the hand-rolled schedulers (which are the object
//!   of study and therefore stay hand-rolled), and the service's warm
//!   `SolvePieri` continuation;
//! * [`solve_by_levels_parallel`] — the poset (level-synchronous)
//!   organisation with a barrier per rank, instrumented for the memory
//!   and idle-time comparison of Section III.C.
//!
//! Four consumers execute on the persistent work-stealing pool of the
//! vendored `rayon` crate, sized by `available_parallelism` and
//! overridable with `PIERI_NUM_THREADS`: [`solve_tree_parallel`],
//! [`solve_by_levels_parallel`], and, both through
//! [`track_paths_rayon`], the Fig. 1–3 calibration in `pieri-bench` and
//! the service engine's warm `SolvePieri` continuation. They produce
//! order-preserving, run-to-run deterministic output: the tree
//! scheduler sorts by job lineage, the level map writes results into
//! disjoint slots in input order, and [`track_paths_rayon`] spawns one
//! job per path that writes its own slot. Per-path jobs rather than
//! chunks leave at most one path of tail imbalance, and each carries
//! the submitter's cancel token and trace id onto its pool thread.
//!
//! The schedulers track and nothing else. Certification is the same
//! post-pass the sequential solver runs: track with
//! `policy.effective_settings(settings)`, then hand the solution to
//! `pieri_core::certify_roots`, or for a continuation's paths to
//! `pieri_core::InstanceContinuation::from_paths` (the service's shape
//! cache takes the first half for its tree builds: it tracks with the
//! policy's settings).
//!
//! Every scheduler returns a [`ParallelReport`] with per-worker busy
//! times and message counts, the observables behind Tables I/II of the
//! paper. Wall-clock *speedups* at cluster scale are produced by the
//! discrete-event simulator in `pieri-sim`, fed with the per-job costs
//! measured here (the build machine has a single core; see DESIGN.md §3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod levels;
mod paths;
mod report;
mod tree;
mod workspace;

pub use levels::{solve_by_levels_parallel, LevelRunStats};
pub use paths::{track_paths_dynamic, track_paths_rayon, track_paths_static};
pub use report::{ParallelReport, WorkerStats};
pub use tree::{solve_tree_parallel, solve_tree_parallel_prepared, TreeRunStats};
