//! The in-process service the two HTTP workloads drive: engine, server
//! and keep-alive clients, all on localhost in this process.

use crate::report::Report;
use crate::stats;
use pieri_core::Shape;
use pieri_service::{BuildMode, Client, Engine, EngineConfig, JobResult, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client socket timeout; a warm (3,3,0) request takes a few seconds.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);
/// Kept-alive `/healthz` probes per measurement.
const HEALTH_PROBES: usize = 200;

pub struct Service {
    server: Server,
    /// Wall time from engine start to a warm shape and a healthy server.
    setup: Duration,
}

impl Service {
    /// Starts an engine with one worker per core and a server on an
    /// ephemeral port, then builds the shape's start bundle — the set-up
    /// a deployment pays before its first warm answer.
    pub fn boot(shape: &Shape) -> Service {
        let t = Instant::now();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let engine = Arc::new(Engine::start(EngineConfig {
            workers,
            queue_capacity: 64,
            build_mode: BuildMode::TreeParallel,
            ..EngineConfig::default()
        }));
        let server = Server::start("127.0.0.1:0", engine).expect("bind an ephemeral port");
        server
            .engine()
            .cache()
            .get_or_build(shape)
            .expect("start bundle builds");
        assert!(client(&server).health(), "server answers /healthz");
        Service {
            server,
            setup: t.elapsed(),
        }
    }

    /// Boots `reps` times, shutting all but the last down, and returns
    /// the last service with every set-up time in seconds.
    pub fn boot_repeatedly(shape: &Shape, reps: usize) -> (Service, Vec<f64>) {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..reps {
            if let Some(old) = last.take() {
                Service::shutdown(old);
            }
            let s = Service::boot(shape);
            times.push(s.setup.as_secs_f64());
            last = Some(s);
        }
        (last.expect("at least one boot"), times)
    }

    pub fn engine(&self) -> &Arc<Engine> {
        self.server.engine()
    }

    pub fn client(&self) -> Client {
        client(&self.server)
    }

    /// Median round trip of a kept-alive `/healthz`, in microseconds.
    pub fn health_us(&self) -> (f64, usize) {
        let c = self.client();
        assert!(c.health(), "connect");
        let mut us = Vec::with_capacity(HEALTH_PROBES);
        for _ in 0..HEALTH_PROBES {
            let t = Instant::now();
            let ok = c.health();
            us.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(ok, "server answers /healthz");
        }
        (stats::median(&us), us.len())
    }

    /// Stops the reactors, then the engine, and waits for their threads.
    pub fn shutdown(self) {
        self.server.shutdown();
        self.server.engine().shutdown();
    }
}

fn client(server: &Server) -> Client {
    Client::with_timeout(server.addr(), CLIENT_TIMEOUT).expect("client for a bound address")
}

/// One answered request: caller-side latency and the decoded result.
pub struct Answer {
    pub latency: Duration,
    pub result: JobResult,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// HTTP and wire time of one request: what the caller waited beyond the
/// engine's queue, bundle build and execution.
pub fn http_overhead_ms(a: &Answer) -> f64 {
    ms(a.latency) - ms(a.result.queue_wait) - ms(a.result.bundle_build) - ms(a.result.solve_time)
}

/// Σ path time / execution time of one job: 1.0 when the job's paths run
/// one after another on its worker.
pub fn continue_parallelism(a: &Answer) -> f64 {
    a.result.track.total_time.as_secs_f64() / a.result.solve_time.as_secs_f64()
}

/// Engine, cache and HTTP metrics from the answers of one service run.
pub fn report_service(
    report: &mut Report,
    service: &Service,
    answers: &[&Answer],
    on: &str,
    moves: &str,
) {
    let note = |what: &str| format!("{what}; {on}; moves {moves}");
    let solve: Vec<f64> = answers.iter().map(|a| ms(a.result.solve_time)).collect();
    report.layer(
        "service.engine.solve_ms.p50",
        "ms",
        stats::median(&solve),
        solve.len(),
        note("engine execution time"),
    );
    let overhead: Vec<f64> = answers.iter().map(|a| http_overhead_ms(a)).collect();
    report.layer(
        "service.http.overhead_ms.p50",
        "ms",
        stats::median(&overhead),
        overhead.len(),
        note("latency - queue wait - bundle build - solve time"),
    );
    let (health, n) = service.health_us();
    report.layer(
        "service.http.health_us",
        "us",
        health,
        n,
        note("kept-alive /healthz round trip"),
    );
    let cache = service.engine().stats().cache;
    let lookups = cache.hits + cache.misses;
    report.layer(
        "service.cache.hit_ratio",
        "ratio",
        cache.hits as f64 / lookups as f64,
        lookups,
        format!("shape-cache hits / lookups, set-up build included; {on}; moves setup_s"),
    );
    let build_ms = service
        .engine()
        .cache()
        .resident()
        .iter()
        .map(|(_, _, d)| ms(*d))
        .fold(0.0, f64::max);
    report.layer(
        "service.cache.build_ms",
        "ms",
        build_ms,
        1,
        format!("start-bundle build time; {on}; moves setup_s"),
    );
}

/// Queue-wait percentiles: meaningful only with several callers.
pub fn report_queue(report: &mut Report, answers: &[&Answer], on: &str) {
    let wait: Vec<f64> = answers.iter().map(|a| ms(a.result.queue_wait)).collect();
    let note = format!("{on}; moves op_p50_ms and the latency tail on place_220");
    report.layer(
        "service.engine.queue_wait_ms.p50",
        "ms",
        stats::median(&wait),
        wait.len(),
        &note,
    );
    let p99 = stats::percentile(&wait, 0.99).unwrap_or(f64::NAN);
    report.layer(
        "service.engine.queue_wait_ms.p99",
        "ms",
        p99,
        wait.len(),
        note,
    );
}
