//! Zero-cost-when-off span shims for the tracker phases.
//!
//! With the `trace` feature on, these record `retrack` and `track.path`
//! spans (category `tracker`) on the process-global [`pieri_trace`]
//! layer, plus per-step `predict`/`correct` spans when the installed
//! config asks for *deep* tracing; the spans inherit the worker
//! thread's current trace id, set by the service's job scope. Without
//! the feature every helper is an `#[inline(always)]` no-op — the
//! predictor–corrector loop carries no span branches, preserving the
//! crate's zero-allocation hot path exactly.
//!
//! [`current_trace_id`] and [`with_trace_id`] hand the id across
//! threads: code that tracks paths on pool threads captures the id
//! on the submitting thread and re-installs it around each path, so the
//! `track.path` spans land under the request that asked for them.

#[cfg(not(feature = "trace"))]
pub use disabled::*;
#[cfg(feature = "trace")]
pub use enabled::*;

#[cfg(feature = "trace")]
mod enabled {
    /// An RAII span over one tracker phase on this thread, tagged with
    /// the thread's current trace id.
    pub(crate) fn phase_span(name: &'static str) -> pieri_trace::SpanGuard {
        pieri_trace::span(name, "tracker")
    }

    /// A *per-step* span (`predict`/`correct`): recorded only under
    /// `TraceConfig { deep: true, .. }`. These sites fire thousands of
    /// times per solve, so in the default config the cost here is one
    /// relaxed atomic load and an inert guard — that is what keeps the
    /// warm-path trace overhead under 2%.
    pub(crate) fn step_span(name: &'static str) -> pieri_trace::SpanGuard {
        pieri_trace::deep_span(name, "tracker")
    }

    /// This thread's current trace id (0 = none).
    pub fn current_trace_id() -> u64 {
        pieri_trace::current_trace()
    }

    /// Runs `f` with `id` as this thread's current trace id and restores
    /// the previous id afterwards, also when `f` unwinds.
    pub fn with_trace_id<R>(id: u64, f: impl FnOnce() -> R) -> R {
        struct Restore(u64);
        impl Drop for Restore {
            fn drop(&mut self) {
                pieri_trace::set_current_trace(self.0);
            }
        }
        let _restore = Restore(pieri_trace::set_current_trace(id));
        f()
    }
}

#[cfg(not(feature = "trace"))]
mod disabled {
    /// Stand-in span guard; dropping it does nothing.
    pub(crate) struct SpanGuard {}

    #[inline(always)]
    pub(crate) fn phase_span(_name: &'static str) -> SpanGuard {
        SpanGuard {}
    }

    #[inline(always)]
    pub(crate) fn step_span(_name: &'static str) -> SpanGuard {
        SpanGuard {}
    }

    /// This thread's current trace id: always 0 without the `trace`
    /// feature.
    #[inline(always)]
    pub fn current_trace_id() -> u64 {
        0
    }

    /// Runs `f`; without the `trace` feature there is no id to install.
    #[inline(always)]
    pub fn with_trace_id<R>(_id: u64, f: impl FnOnce() -> R) -> R {
        f()
    }
}
