//! Metric collection, the machine fingerprint and the result line.

use crate::stats;
use std::fmt::Write as _;

/// A run is incorrect when its failed operations are more than its
/// workload's known defect rate explains at this significance.
const FAIL_ALPHA: f64 = 1e-4;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
    /// What the value is measured on, and which end-to-end metric on
    /// which workload it should move.
    pub note: String,
    /// A per-layer metric (traced run) rather than an end-to-end one.
    pub layer: bool,
}

/// Everything one run prints.
pub struct Report {
    /// The run is traced: the result line carries the per-layer metrics.
    pub trace: bool,
    pub metrics: Vec<Metric>,
    /// Attribution gaps and budget overruns: recorded, never gated on.
    pub findings: Vec<String>,
    /// Failed correctness checks (operations and cross-checks).
    pub errors: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    /// Share of operations the program is known to answer wrongly on
    /// this workload (a ceiling just above the measured rate; see the
    /// findings each workload documents). Failures beyond what it
    /// explains mark the run incorrect.
    pub defect_rate: f64,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            metrics: Vec::new(),
            findings: Vec::new(),
            errors: Vec::new(),
            attempted: 0,
            failed: 0,
            defect_rate: 0.0,
        }
    }

    /// An end-to-end metric. A traced run prints it but leaves it out of
    /// the result line: end-to-end numbers come from untraced runs.
    pub fn e2e(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.push(name, unit, value, samples, note.into(), false);
    }

    /// A per-layer metric; only traced runs measure these.
    pub fn layer(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.push(name, unit, value, samples, note.into(), true);
    }

    fn push(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: String,
        layer: bool,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
            note,
            layer,
        });
    }

    /// Counts an operation whose answer failed its check. It stays in
    /// `failed` (and in every latency percentile, as the slowest); more
    /// failures than `defect_rate` explains mark the run incorrect.
    pub fn op_failed(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.findings
            .push(format!("operation failed: {}", msg.into()));
    }

    /// Records a failed cross-check, an incomplete trace or another
    /// fault of the run itself; the run then reports `correct: false`.
    pub fn error(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if self.errors.len() < 20 {
            eprintln!("check failed: {msg}");
        }
        self.errors.push(msg);
    }

    /// Records a ratio that explains less than 90 % of the layer above.
    pub fn attribution(&mut self, what: &str, ratio: f64) {
        let verdict = if ratio >= 0.9 { "explained" } else { "GAP" };
        let line = format!("attribution {what} = {ratio:.3} ({verdict}; target >= 0.9)");
        println!("{line}");
        if ratio < 0.9 {
            self.findings.push(line);
        }
    }

    /// Prints the human-readable metric table, the findings, and then the
    /// result object as the last line of standard output. Too many failed
    /// operations, a metric reported twice, or a non-finite value mark
    /// the run incorrect.
    pub fn finish(mut self, fingerprint: &str) {
        let allowed = stats::allowed_failures(self.attempted, self.defect_rate, FAIL_ALPHA);
        println!(
            "fail_share {:.6} ({} of {} operations failed a check; the known defect rate {} \
             explains up to {allowed})",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            self.defect_rate
        );
        if self.failed > allowed {
            self.error(format!(
                "{} of {} operations failed a check, more than the known defect rate {} \
                 explains ({allowed} at significance {FAIL_ALPHA})",
                self.failed, self.attempted, self.defect_rate
            ));
        }
        let mut names: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        for pair in names.windows(2).filter(|w| w[0] == w[1]) {
            self.error(format!("metric {} is reported twice", pair[0]));
        }
        for m in &self.metrics {
            let kind = match (m.layer, self.trace) {
                (true, _) => "layer",
                (false, false) => "e2e",
                (false, true) => "traced",
            };
            println!(
                "{kind:<6} {:<36} {:>16.6} {:<6} n={:<7} {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        for f in &self.findings {
            println!("finding: {f}");
        }
        let bad: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| m.layer == self.trace && !m.value.is_finite())
            .map(|m| m.name)
            .collect();
        for name in bad {
            self.error(format!("metric {name} is not finite"));
        }
        let samples: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, m.samples))
            .collect();
        println!(
            "fingerprint {fingerprint}, \"samples\": {{{}}}}}",
            samples.join(", ")
        );
        let correct = self.errors.is_empty() && self.attempted > 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        let shown = self
            .metrics
            .iter()
            .filter(|m| m.layer == self.trace && m.value.is_finite());
        for (i, m) in shown.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// The machine and build a result belongs to, as one JSON object.
/// The object is left open: [`Report::finish`] appends the per-metric
/// sample counts and closes it.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"pool_threads\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\"",
        rayon::current_num_threads(),
        cpu.replace('"', "'"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
