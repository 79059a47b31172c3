//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tree_330 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Unit tests: `cargo test --release --manifest-path perfbench/Cargo.toml`.
//!
//! Workloads (inputs are generated from `--seed`; the program only sees
//! the generated instances):
//!
//! * `tree_330` — cold parallel Pieri-tree solves of fresh generic
//!   (3,3,0) instances (d = 42), one worker per core: the paper's
//!   computation, dominated by the tree scheduler, the tracker and the
//!   LU-path kernels.
//! * `warm_330` — one closed-loop HTTP caller sends `SolvePieri{3,3,0}`
//!   with fresh seeds after the shape is warm: warm continuation on the
//!   cache-hit path, paths tracked one after another.
//! * `place_220` — one closed-loop HTTP caller per core sends
//!   satellite-plant `PlacePoles` (q = 0, d = 2), every second request
//!   certified: small requests where transport, queueing, control and
//!   certification weigh; kernels take the n ≤ 4 closed-form branch and
//!   no tree runs, so it is the bypass workload for kernel and
//!   scheduler changes.
//!
//! A run performs a fixed number of operations: the workload's typical
//! throughput on a 2-core x86-64 host times `--seconds` (see
//! [`Args::ops`]). So the same seed and `--seconds` give the same inputs,
//! the same answers and the same failed operations in every run, and a
//! run lasts about `--seconds` seconds on such a host. A run that has
//! not finished its operations after [`Args::limit`] stops there and
//! reports `correct: false`.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records
//! spans around every call into the program and measures the per-layer
//! metrics, all from outside through public functions. Every traced run
//! reports every layer: those its workload does not exercise are taken
//! from the tree its service builds at set-up (`pieri-parallel` on
//! `warm_330`/`place_220`) or from a short `place_220` probe (service,
//! control and certify on `tree_330`/`warm_330`). Each printed line says
//! what a metric was measured on and which end-to-end metric it should
//! move. Not measured: `pieri-poly` and `pieri-systems` (the
//! total-degree baseline, off the solve path), `pieri-sim` (a model),
//! `pieri-chaos` (compiled out) and `pieri-analyze` (a lint).
//!
//! Every answer is checked. An operation whose answer fails its check
//! counts in `failed` and as the slowest operation. The run reports
//! `correct: false` when more operations fail than the workload's known
//! defect rate explains (a binomial tail below 1e-4), and on a failed
//! cross-check, an incomplete trace, a metric reported twice or a
//! non-finite metric. The last line of standard output is the result
//! object.

mod check;
mod layers;
mod place;
mod report;
mod service;
mod spans;
mod stats;
mod tree;
mod warm;

use report::Report;
use std::time::Duration;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// The run's operation count: `rate` operations per second of
    /// `--seconds`, at least one. `rate` is the workload's typical
    /// throughput on a 2-core x86-64 host; the count, not a clock, ends
    /// the measured loop, so a run never attempts a different set of
    /// inputs because the machine was busier.
    pub fn ops(&self, rate: f64) -> usize {
        ((rate * self.seconds as f64).round() as usize).max(1)
    }

    /// Wall time after which the measured loop gives up on its remaining
    /// operations: four times `--seconds`, at most 120 s, so a run with
    /// its set-up and traced analysis still exits within three minutes.
    pub fn limit(&self) -> Duration {
        Duration::from_secs((4 * self.seconds).min(120))
    }
}

/// Records that a loop stopped at its time limit after `done` of its
/// `ops` operations.
pub fn over_limit(report: &mut Report, args: &Args, done: usize, ops: usize) {
    if done < ops {
        report.error(format!(
            "{}: stopped at the {} s limit after {done} of {ops} operations",
            args.workload,
            args.limit().as_secs()
        ));
    }
}

const WORKLOADS: &[&str] = &["tree_330", "warm_330", "place_220"];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(int(&value)?),
            "--seconds" => seconds = Some(int(&value)?),
            "--trace" => trace = Some(int(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
    })
}

/// Seed of the `k`-th generated input of a run seeded with `seed`,
/// below 2⁵³ so it crosses the JSON wire exactly.
pub fn instance_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 11
}

/// The end-to-end metrics every workload reports. `op_ms` holds the
/// durations of the verified operations and `done_s` when each completed
/// (seconds into the measured loop); the run attempted
/// `report.attempted`, and each operation that failed its check counts
/// as slower than any verified one. `loop_s` is the measured wall time
/// and `setups` each set-up's seconds.
pub fn report_e2e(
    report: &mut Report,
    op_ms: &[f64],
    done_s: &[f64],
    loop_s: f64,
    setups: &[f64],
    on: &str,
) {
    let ok = op_ms.len();
    let mut all = op_ms.to_vec();
    all.resize(report.attempted, f64::INFINITY);
    report.e2e(
        "op_p50_ms",
        "ms",
        stats::median(&all),
        all.len(),
        format!("median operation, failed ones counted as slowest; {on}"),
    );
    let (rate, windows) = stats::throughput(done_s, loop_s);
    report.e2e(
        "ops_per_s",
        "1/s",
        rate,
        ok,
        format!("verified operations per second, median over {windows} windows of the loop; {on}"),
    );
    report.e2e(
        "setup_s",
        "s",
        stats::median(setups),
        setups.len(),
        "median of the run's set-up samples",
    );
    report.e2e(
        "peak_rss_mb",
        "MiB",
        report::peak_rss_mb(),
        1,
        "peak resident set of the benchmark process",
    );
    if all.len() <= 32 {
        println!("op_ms {op_ms:.1?}");
    }
    println!(
        "setup_s first {:.3e} s, max {:.3e} s over {} set-up samples",
        setups[0],
        stats::max(setups),
        setups.len()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let tracer = spans::Tracer::new(args.trace);
    let mut report = Report::new(args.trace);
    match args.workload.as_str() {
        "tree_330" => tree::run(&args, &tracer, &mut report),
        "warm_330" => warm::run(&args, &tracer, &mut report),
        _ => place::run(&args, &tracer, &mut report),
    }
    let fp = report::fingerprint(&args.workload, args.seed, args.seconds, args.trace);
    report.finish(&fp);
}
