//! Spans recorded from the benchmark's own code at each call boundary,
//! through `pieri_trace`, plus the analysis of what was exported.
//!
//! The program itself is built without its `trace` feature, so every
//! span in a traced run is opened here. That makes two checks exact: the
//! spans exported must equal the spans opened (a wrapped or contended
//! ring would silently shorten self times), and the tracing overhead is
//! the time spent inside the span calls themselves, measured around them.
//! Spans are read back twice: counted in the Chrome export of the
//! per-thread rings, and as structured records from the trace store, one
//! trace id per operation, for the self times.
//!
//! `pieri_trace` drops a record when its shared state is locked at that
//! instant (writers only `try_lock` it; another thread's record or trace
//! id allocation holds it), so the benchmark's callers take turns: trace
//! ids and span calls are serialised here, and that wait is part of the
//! measured overhead.

use crate::report::Report;
use crate::stats;
use pieri_trace::SpanGuard;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Ring capacity per recording thread, and traces the store keeps; a
/// run opens far fewer spans and operations.
const RING_CAPACITY: usize = 1 << 17;
const STORED_TRACES: usize = 1 << 20;

/// Opens spans when tracing is on, counting them and their cost.
pub struct Tracer {
    on: bool,
    opened: AtomicUsize,
    cost_ns: AtomicU64,
    /// Serialises recording across the benchmark's threads; holds the
    /// trace ids handed out.
    turn: Mutex<Vec<u64>>,
}

/// A live span; records on drop.
pub struct Span<'a> {
    guard: Option<SpanGuard>,
    tracer: &'a Tracer,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        if on {
            pieri_trace::install(pieri_trace::TraceConfig {
                ring_capacity: RING_CAPACITY,
                recent_traces: STORED_TRACES,
                ..pieri_trace::TraceConfig::default()
            });
        }
        Tracer {
            on,
            opened: AtomicUsize::new(0),
            cost_ns: AtomicU64::new(0),
            turn: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh trace id for one operation (0 when tracing is off).
    fn next_id(&self) -> u64 {
        if self.on {
            let mut ids = self.turn.lock().expect("span turn lock poisoned");
            let id = pieri_trace::next_trace_id();
            ids.push(id);
            id
        } else {
            0
        }
    }

    pub fn span(&self, name: &'static str, trace_id: u64) -> Span<'_> {
        if !self.on {
            return Span {
                guard: None,
                tracer: self,
            };
        }
        let t = Instant::now();
        let guard = {
            let _turn = self.turn.lock().expect("span turn lock poisoned");
            pieri_trace::span_for(name, "bench", trace_id)
        };
        self.opened.fetch_add(1, Ordering::Relaxed);
        self.cost_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Span {
            guard: Some(guard),
            tracer: self,
        }
    }

    /// One closed-loop operation: `call` and then `check` of its answer,
    /// each in its own span under an `op` span, timed together. Returns
    /// the answer, the verdict and the operation's duration.
    pub fn op<T, R>(
        &self,
        call: impl FnOnce() -> T,
        check: impl FnOnce(&T) -> Result<R, String>,
    ) -> (T, Result<R, String>, Duration) {
        let id = self.next_id();
        let t = Instant::now();
        let op = self.span("op", id);
        let answer = {
            let _call = self.span("call", id);
            call()
        };
        let verdict = {
            let _check = self.span("check", id);
            check(&answer)
        };
        drop(op);
        (answer, verdict, t.elapsed())
    }

    /// Nanoseconds spent inside span calls so far.
    pub fn cost_ns(&self) -> u64 {
        self.cost_ns.load(Ordering::Relaxed)
    }

    /// Exports the recorded spans, checks that none were lost, writes
    /// the Chrome trace next to the build output and reports span
    /// counts, self times and the tracing overhead against the 2 %
    /// budget. `op_ns` is the summed duration of the traced operations
    /// and `op_cost_ns` the span cost spent inside them.
    pub fn finish(
        &self,
        report: &mut Report,
        workload: &str,
        seed: u64,
        op_ns: f64,
        op_cost_ns: f64,
    ) {
        let doc = pieri_trace::chrome_json();
        let in_rings = doc.matches("{\"ph\"").count();
        let ids = std::mem::take(&mut *self.turn.lock().expect("span turn lock poisoned"));
        let events: Vec<Event> = ids
            .iter()
            .filter_map(|&id| pieri_trace::trace_spans(id))
            .flatten()
            .map(|r| Event {
                name: r.name,
                tid: r.tid,
                ts: r.start_us,
                dur: r.dur_us,
            })
            .collect();
        let opened = self.opened.load(Ordering::Relaxed);
        println!(
            "trace: {opened} spans opened, {in_rings} in the rings, {} in the store",
            events.len()
        );
        if in_rings != opened || events.len() != opened {
            report.error(format!(
                "trace incomplete: {opened} spans opened, {in_rings} in the rings, {} in the store",
                events.len()
            ));
        }
        let dir = std::path::Path::new(
            &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
        )
        .join("perfbench-trace");
        let path = dir.join(format!("{workload}-seed{seed}.json"));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &doc)) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => println!("trace not written ({e})"),
        }

        let selfs = self_times_us(&events);
        for (name, metric) in [
            ("op", "trace.op.self_ms.p50"),
            ("call", "trace.call.self_ms.p50"),
            ("check", "trace.check.self_ms.p50"),
        ] {
            let ms: Vec<f64> = selfs
                .get(name)
                .map_or(Vec::new(), |v| v.iter().map(|us| us / 1e3).collect());
            report.layer(
                metric,
                "ms",
                stats::median(&ms),
                ms.len(),
                format!("self time of `{name}` spans on {workload} (span minus its children)"),
            );
        }
        let share = op_cost_ns / op_ns;
        report.layer(
            "trace.overhead_share",
            "share",
            share,
            1,
            format!("time in span calls / traced op time on {workload}; budget 0.02"),
        );
        if share > 0.02 {
            report
                .findings
                .push(format!("tracing overhead {share:.4} exceeds the 2% budget"));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(guard) = self.guard.take() {
            let t = Instant::now();
            {
                // Never panic in drop: a poisoned turn lock still serialises.
                let _turn = self.tracer.turn.lock().unwrap_or_else(|e| e.into_inner());
                drop(guard);
            }
            self.tracer
                .cost_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// One recorded span, as the self-time analysis needs it.
#[derive(Debug)]
pub struct Event {
    pub name: &'static str,
    pub tid: u32,
    pub ts: u64,
    pub dur: u64,
}

/// Self time of every span, grouped by name: its duration minus the
/// part of its interval covered by its direct children (spans on the
/// same thread nested inside it).
pub fn self_times_us(events: &[Event]) -> HashMap<&'static str, Vec<f64>> {
    let mut sorted: Vec<&Event> = events.iter().collect();
    // Parents before children: by thread, start, then longest first.
    sorted.sort_by(|a, b| {
        (a.tid, a.ts, std::cmp::Reverse(a.dur)).cmp(&(b.tid, b.ts, std::cmp::Reverse(b.dur)))
    });
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    // Stack of (event, covered-by-children).
    let mut stack: Vec<(&Event, u64)> = Vec::new();
    let close = |stack: &mut Vec<(&Event, u64)>, out: &mut HashMap<&'static str, Vec<f64>>| {
        let (ev, covered) = stack.pop().expect("non-empty stack");
        out.entry(ev.name)
            .or_default()
            .push(ev.dur.saturating_sub(covered) as f64);
        if let Some(parent) = stack.last_mut() {
            parent.1 += ev.dur;
        }
    };
    for ev in sorted {
        while let Some(&(top, _)) = stack.last() {
            if top.tid == ev.tid && ev.ts + ev.dur <= top.ts + top.dur {
                break;
            }
            close(&mut stack, &mut out);
        }
        stack.push((ev, 0));
    }
    while !stack.is_empty() {
        close(&mut stack, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u32, ts: u64, dur: u64) -> Event {
        Event { name, tid, ts, dur }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = vec![
            ev("op", 1, 0, 100),
            ev("call", 1, 10, 60),
            ev("inner", 1, 20, 30),
            ev("check", 1, 75, 20),
            ev("op", 2, 5, 50),
        ];
        let s = self_times_us(&events);
        assert_eq!(s["op"], vec![20.0, 50.0]);
        assert_eq!(s["call"], vec![30.0]);
        assert_eq!(s["inner"], vec![30.0]);
        assert_eq!(s["check"], vec![20.0]);
    }

    #[test]
    fn opened_spans_reach_the_rings_and_the_store() {
        let tracer = Tracer::new(true);
        let id = tracer.next_id();
        {
            let _op = tracer.span("op", id);
            let _call = tracer.span("call", id);
        }
        assert_eq!(tracer.opened.load(Ordering::Relaxed), 2);
        assert_eq!(pieri_trace::chrome_json().matches("{\"ph\"").count(), 2);
        let stored = pieri_trace::trace_spans(id).expect("trace is stored");
        assert_eq!(stored.len(), 2);
        assert_eq!(*tracer.turn.lock().unwrap(), vec![id]);
    }
}
