//! Cooperative cancellation for long continuation runs.
//!
//! The service front end hands every job a deadline; once it lapses (or
//! the client connection goes away) the work is abandoned upstream, and
//! finishing it would only burn cores. [`CancelToken`] carries that
//! signal: an atomic flag plus an optional deadline, shared between the
//! submitter and the worker.
//!
//! Tracking a single path is short (milliseconds), so the checks sit at
//! *path boundaries*: drivers that loop over start solutions install
//! their token with [`scope`] and consult [`active_cancelled`] between
//! paths. A cancelled run therefore never ships a half-tracked path —
//! it stops cleanly with the paths finished so far, and callers decide
//! whether a partial result is an error (the service treats it as one).
//!
//! The token is deliberately *not* a [`crate::TrackSettings`] field:
//! settings are `Copy` and flow through many layers by value, while a
//! token is shared mutable state. A thread-local scope keeps the plumbing
//! out of every signature without losing determinism — the flag only
//! ever flips one way (false → true).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared cancellation signal: cancelled when [`CancelToken::cancel`]
/// has been called *or* the attached deadline has passed.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never cancels on its own (flag-only).
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that auto-cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Raises the flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Cancelled — explicitly, or because the deadline passed.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// The deadline this token auto-cancels at, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `token` installed as this thread's active cancellation
/// token; drivers inside `f` observe it via [`active_cancelled`].
/// Scopes nest (innermost wins) and always unwind on exit, including
/// through panics.
pub fn scope<T>(token: &CancelToken, f: impl FnOnce() -> T) -> T {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            ACTIVE.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    ACTIVE.with(|s| s.borrow_mut().push(token.clone()));
    let _pop = Pop;
    f()
}

/// The innermost [`scope`] token on this thread is cancelled. `false`
/// when no scope is installed — cancellation is strictly opt-in, so
/// library callers outside the service never see spurious stops.
pub fn active_cancelled() -> bool {
    ACTIVE.with(|s| {
        s.borrow()
            .last()
            .map(CancelToken::is_cancelled)
            .unwrap_or(false)
    })
}

/// A clone of the innermost [`scope`] token on this thread, or `None`
/// outside any scope. Code that hands paths to other threads (the
/// pool of `pieri-parallel`) captures it on the submitting thread, where
/// the scope lives, and checks it before each path it starts.
pub fn active_token() -> Option<CancelToken> {
    ACTIVE.with(|s| s.borrow().last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn flag_cancellation_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_cancels_without_a_flag() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let live = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!live.is_cancelled());
    }

    #[test]
    fn scopes_nest_and_unwind() {
        assert!(!active_cancelled(), "no scope installed");
        let outer = CancelToken::new();
        outer.cancel();
        let inner = CancelToken::new();
        scope(&outer, || {
            assert!(active_cancelled());
            scope(&inner, || assert!(!active_cancelled(), "innermost wins"));
            assert!(active_cancelled(), "outer restored");
        });
        assert!(!active_cancelled(), "scope removed on exit");
    }

    #[test]
    fn active_token_is_the_innermost_scope() {
        assert!(active_token().is_none(), "no scope installed");
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        scope(&outer, || {
            scope(&inner, || {
                let seen = active_token().expect("inner scope");
                inner.cancel();
                assert!(seen.is_cancelled(), "a clone shares the flag");
                assert!(!outer.is_cancelled());
            });
            assert!(!active_token().expect("outer scope").is_cancelled());
        });
        assert!(active_token().is_none());
    }

    #[test]
    fn scope_unwinds_through_panics() {
        let t = CancelToken::new();
        t.cancel();
        let r = std::panic::catch_unwind(|| scope(&t, || panic!("boom")));
        assert!(r.is_err());
        assert!(!active_cancelled(), "panic still pops the scope");
    }
}
