//! Runtime control of the partition search: deadlines and fault hooks.
//!
//! The LC beam search is the pipeline's dominant cost, so it is where a
//! per-request deadline has to land and where the serve layer's fault
//! injection reaches the partitioner. [`SearchControl`] carries both — a
//! cooperative deadline the search checks before every scoring call, and an
//! optional hook consulted before every multilevel-partitioner call that
//! can force a clean failure, a panic, or a stall. Either way the search
//! *degrades instead of failing*: a truncated search returns its incumbent,
//! and a failed (or panicked) multilevel call falls back to the flat FM
//! engine for that one scoring call. [`SearchReport`] records that any of
//! this happened so callers can mark the result degraded.

use std::sync::Arc;
use std::time::Instant;

/// Fault injected into one multilevel-partitioner call by a
/// [`SearchControl::multilevel_fault`] hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Fail the call cleanly; the search falls back to the flat engine.
    Fail,
    /// Panic inside the call; contained by the search's `catch_unwind`
    /// and then treated like [`InjectedFault::Fail`].
    Panic,
    /// Sleep this many milliseconds before the call (deadline pressure).
    Slow(u64),
}

/// Hook consulted before every multilevel-partitioner invocation.
pub type FaultHook = Arc<dyn Fn() -> Option<InjectedFault> + Send + Sync>;

/// Runtime controls threaded into [`crate::partition_with_lc_controlled`].
#[derive(Clone, Default)]
pub struct SearchControl {
    /// Cooperative deadline: the beam search checks it before every
    /// scoring call and stops expanding (keeping the incumbent) once passed.
    pub deadline: Option<Instant>,
    /// Fault-injection hook for multilevel calls (`None` in production).
    pub multilevel_fault: Option<FaultHook>,
}

impl std::fmt::Debug for SearchControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchControl")
            .field("deadline", &self.deadline)
            .field("multilevel_fault", &self.multilevel_fault.is_some())
            .finish()
    }
}

impl SearchControl {
    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// What the controlled search had to give up, if anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchReport {
    /// The beam search stopped early at the deadline; the returned
    /// partition is the incumbent at that point.
    pub truncated: bool,
    /// Number of multilevel calls that failed (or panicked) and were
    /// re-scored by the flat FM engine instead.
    pub multilevel_fallbacks: usize,
}

impl SearchReport {
    /// Whether the result is degraded relative to an uncontrolled run.
    pub fn degraded(&self) -> bool {
        self.truncated || self.multilevel_fallbacks > 0
    }
}
