//! The compile engine behind the daemon: layered caching plus request
//! coalescing.
//!
//! [`ServeEngine`] wraps a [`BatchCompiler`] (memory cache → optional disk
//! store → compile) and adds the one property a long-running service needs
//! that a batch run does not: when several clients submit the *same* target
//! concurrently, exactly one compilation runs and every other request
//! blocks until it finishes, then shares the result. Requests are
//! coalesced per exact labeled graph — the same identity the cache layers
//! hit on — so coalescing can never conflate two targets the compiler
//! would distinguish.
//!
//! # Fault tolerance
//!
//! Leader compiles run under `catch_unwind`: a panicking compile publishes
//! a [`ServeErrorKind::Panic`] error to its coalesced herd instead of
//! deadlocking the condvar slot, and every lock in the engine recovers
//! from poisoning. Per-request deadlines are cooperative — checked between
//! pipeline stages by the batch layer, and by waiters via a timed condvar
//! wait — and produce structured [`ServeErrorKind::DeadlineExceeded`]
//! errors. A partition search that degrades (deadline truncation or
//! multilevel → flat fallback) still answers, with
//! [`ServeReply::degraded`] set. See `ARCHITECTURE.md`, "Failure model".

use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use epgs::faults::{self, lock_recover, panic_message, FaultKind, FaultPlan, RequestCtx};
use epgs::store::exact_graph_hash;
use epgs::{BatchCompiler, CacheKey, CacheOutcome, Compiled, FrameworkConfig};
use epgs_graph::canon::canonical_hash;
use epgs_graph::Graph;

/// How a serve request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// Served from the in-memory artifact cache.
    MemoryHit,
    /// Served from the on-disk artifact store.
    DiskHit,
    /// The full pipeline ran for this request.
    Compiled,
    /// Attached to an identical in-flight request and shared its result.
    Coalesced,
}

impl ServeOutcome {
    /// Stable wire name used in protocol responses.
    pub fn as_str(self) -> &'static str {
        match self {
            ServeOutcome::MemoryHit => "memory_hit",
            ServeOutcome::DiskHit => "disk_hit",
            ServeOutcome::Compiled => "compiled",
            ServeOutcome::Coalesced => "coalesced",
        }
    }
}

/// Category of a failed serve request — the protocol's `error_kind` field,
/// so clients can distinguish retry-later conditions (deadline, overload)
/// from hard failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeErrorKind {
    /// The compilation itself failed.
    Compile,
    /// The request's deadline passed before a result was ready.
    DeadlineExceeded,
    /// The daemon shed the request at its queue limit; retry later.
    Overloaded,
    /// The compile panicked; the panic was contained and the daemon lives.
    Panic,
}

impl ServeErrorKind {
    /// Stable wire name used in protocol responses.
    pub fn as_str(self) -> &'static str {
        match self {
            ServeErrorKind::Compile => "compile_failed",
            ServeErrorKind::DeadlineExceeded => "deadline_exceeded",
            ServeErrorKind::Overloaded => "overloaded",
            ServeErrorKind::Panic => "panic",
        }
    }
}

/// A failed serve request: a machine-readable kind plus the human-readable
/// rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Failure category (the protocol's `error_kind`).
    pub kind: ServeErrorKind,
    /// Human-readable description (the protocol's `error`).
    pub message: String,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ServeError {}

/// Result of one [`ServeEngine::compile`] call.
#[derive(Debug, Clone)]
pub struct ServeReply {
    /// Which layer (or peer request) satisfied this request.
    pub outcome: ServeOutcome,
    /// Wall time of this request (µs), including any time spent blocked on
    /// a coalesced peer.
    pub wall_micros: u128,
    /// The compiled artifact, shared across coalesced requests, or the
    /// structured serve error.
    pub result: Result<Arc<Compiled>, ServeError>,
    /// The result came from a degraded partition search (deadline
    /// truncation or multilevel → flat fallback): valid, possibly lower
    /// quality, and not persisted.
    pub degraded: bool,
}

/// Cumulative request counters of one [`ServeEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Compile requests received (shed requests included).
    pub requests: usize,
    /// Requests served from the in-memory cache.
    pub memory_hits: usize,
    /// Requests served from the on-disk store.
    pub disk_hits: usize,
    /// Requests that ran the full pipeline.
    pub compiled: usize,
    /// Requests that shared an in-flight peer's result.
    pub coalesced: usize,
    /// Requests that returned an error of any kind.
    pub failures: usize,
    /// Requests shed at the daemon's queue limit — counted within
    /// `requests`, never dispatched to the engine.
    pub shed: usize,
    /// Leader compiles that panicked (contained by `catch_unwind`).
    pub panics: usize,
    /// Requests that failed with `deadline_exceeded` — counted within
    /// `failures`.
    pub deadline_exceeded: usize,
    /// Requests answered from a degraded partition search.
    pub degraded: usize,
}

#[derive(Default)]
struct Counters {
    requests: AtomicUsize,
    memory_hits: AtomicUsize,
    disk_hits: AtomicUsize,
    compiled: AtomicUsize,
    coalesced: AtomicUsize,
    failures: AtomicUsize,
    shed: AtomicUsize,
    panics: AtomicUsize,
    deadline_exceeded: AtomicUsize,
    degraded: AtomicUsize,
}

/// One in-flight compilation: the leader publishes into `ready` and wakes
/// every waiter. The payload carries the shared result plus its degraded
/// flag.
#[derive(Default)]
struct Slot {
    #[allow(clippy::type_complexity)]
    ready: Mutex<Option<(Result<Arc<Compiled>, ServeError>, bool)>>,
    cv: Condvar,
}

/// Identity requests coalesce on: WL content hash × exact labeled graph.
type InflightKey = (u64, u64);

/// The layered, coalescing compile engine. See the [module docs](self).
pub struct ServeEngine {
    batch: BatchCompiler,
    inflight: Mutex<HashMap<InflightKey, Arc<Slot>>>,
    counters: Counters,
    faults: Option<Arc<FaultPlan>>,
    default_deadline: Option<Duration>,
}

impl ServeEngine {
    /// An engine with only the in-memory cache layer.
    pub fn new(config: FrameworkConfig) -> Self {
        Self::from_batch(BatchCompiler::new(config))
    }

    /// An engine whose artifacts persist in the store at `dir` (created if
    /// absent): lookups layer memory → disk → compile.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from opening the store directory.
    pub fn with_store(config: FrameworkConfig, dir: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::from_batch(BatchCompiler::with_store(config, dir)?))
    }

    /// An engine over an already-configured [`BatchCompiler`] (e.g. one
    /// with a custom cache capacity or byte-budgeted store).
    pub fn from_batch(batch: BatchCompiler) -> Self {
        ServeEngine {
            batch,
            inflight: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            faults: None,
            default_deadline: None,
        }
    }

    /// Arms a fault-injection plan across the whole stack: the engine's
    /// `serve.compile` point plus the batch compiler's and store's points.
    /// Chaos testing only; engines without a plan pay nothing.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.batch.set_fault_plan(Arc::clone(&plan));
        self.faults = Some(plan);
    }

    /// Sets the deadline applied to every [`ServeEngine::compile`] call
    /// (`None` = unbounded, the default). Per-call deadlines via
    /// [`ServeEngine::compile_with_deadline`] override it.
    pub fn set_default_deadline(&mut self, deadline: Option<Duration>) {
        self.default_deadline = deadline;
    }

    /// The underlying batch compiler (cache stats, store handle, stage
    /// counters).
    pub fn batch(&self) -> &BatchCompiler {
        &self.batch
    }

    /// Snapshot of the request counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            memory_hits: self.counters.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            compiled: self.counters.compiled.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            failures: self.counters.failures.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
            deadline_exceeded: self.counters.deadline_exceeded.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
        }
    }

    /// Records a request shed by the daemon's bounded queue (the request
    /// never reaches [`ServeEngine::compile`], but must still appear in
    /// the request and shed counters).
    pub fn note_shed(&self) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
        self.counters.failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of compilations currently in flight.
    pub fn inflight_len(&self) -> usize {
        lock_recover(&self.inflight).len()
    }

    /// Drops `graph`'s artifacts from every layer (memory cache and, when
    /// attached, the disk store); returns how many entries were removed.
    pub fn evict(&self, graph: &Graph) -> usize {
        let mut dropped = self.batch.evict(graph);
        if let Some(store) = self.batch.store() {
            let key = CacheKey {
                canonical: canonical_hash(graph),
                config: self.batch.config_fingerprint(),
            };
            dropped += store.evict(key);
        }
        dropped
    }

    /// Drops `graph`'s artifacts from the in-memory cache only, leaving the
    /// disk store intact; returns how many entries were removed. The next
    /// request for the graph exercises the disk-read path end to end.
    pub fn evict_memory(&self, graph: &Graph) -> usize {
        self.batch.evict(graph)
    }

    /// Tallies a finished request's error/degradation counters (shared by
    /// the leader and waiter paths; outcome counters are tallied
    /// separately because shed requests have none).
    fn note_result(&self, result: &Result<Arc<Compiled>, ServeError>, degraded: bool) {
        if degraded {
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
        }
        if let Err(e) = result {
            self.counters.failures.fetch_add(1, Ordering::Relaxed);
            if e.kind == ServeErrorKind::DeadlineExceeded {
                self.counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Compiles `graph` under the engine's default deadline, coalescing
    /// with any identical in-flight request.
    ///
    /// The first request for a given exact graph becomes the *leader*: it
    /// runs the layered lookup/compile and publishes the result. Requests
    /// arriving while the leader runs block and return the shared result
    /// with [`ServeOutcome::Coalesced`]. Requests arriving after the
    /// leader finishes hit the memory cache.
    pub fn compile(&self, graph: &Graph) -> ServeReply {
        self.compile_with_deadline(graph, self.default_deadline)
    }

    /// [`ServeEngine::compile`] with an explicit per-request deadline
    /// (`None` = unbounded). The deadline is cooperative: it is checked
    /// between pipeline stages (structured
    /// [`ServeErrorKind::DeadlineExceeded`] on expiry), bounds the
    /// partition search (which truncates to a degraded-but-valid answer),
    /// and bounds the time a coalesced waiter blocks on its leader.
    pub fn compile_with_deadline(&self, graph: &Graph, deadline: Option<Duration>) -> ServeReply {
        let start = Instant::now();
        let deadline_at = deadline.map(|d| start + d);
        let canonical = canonical_hash(graph);
        let key: InflightKey = (canonical, exact_graph_hash(graph));

        let (slot, leader) = {
            let mut map = lock_recover(&self.inflight);
            match map.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot::default());
                    map.insert(key, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        // Counted only after the leader/waiter decision: tests (and
        // clients polling `status`) use a nonzero request count as "the
        // slot is registered".
        self.counters.requests.fetch_add(1, Ordering::Relaxed);

        if !leader {
            return self.wait_for_leader(&slot, deadline_at, start);
        }

        // The leader compile runs under catch_unwind: whatever happens —
        // including an injected or genuine panic — something terminal is
        // published to the slot and the key is unregistered, so a herd of
        // waiters can never deadlock on a dead leader.
        let ctx = RequestCtx {
            deadline: deadline_at,
        };
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            match self.faults.as_ref().and_then(|f| f.at(faults::POINT_SERVE)) {
                Some(FaultKind::Panic) => panic!("injected fault: serve.compile"),
                Some(FaultKind::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                Some(FaultKind::Fail | FaultKind::IoError) => return None,
                // Crash aborts inside the probe; BitFlip has no bytes here.
                Some(FaultKind::BitFlip | FaultKind::Crash) | None => {}
            }
            Some(self.batch.compile_with_hash(
                &format!("{canonical:016x}"),
                "serve",
                graph,
                canonical,
                &ctx,
            ))
        }));
        let (result, degraded, outcome) = match attempt {
            Ok(Some((report, compiled))) => {
                let outcome = match report.cache {
                    CacheOutcome::Hit => ServeOutcome::MemoryHit,
                    CacheOutcome::DiskHit => ServeOutcome::DiskHit,
                    CacheOutcome::Miss => ServeOutcome::Compiled,
                };
                let result = compiled.ok_or_else(|| ServeError {
                    kind: if report.timed_out {
                        ServeErrorKind::DeadlineExceeded
                    } else {
                        ServeErrorKind::Compile
                    },
                    message: report
                        .error
                        .clone()
                        .unwrap_or_else(|| "compilation failed".to_string()),
                });
                (result, report.degraded, outcome)
            }
            Ok(None) => (
                Err(ServeError {
                    kind: ServeErrorKind::Compile,
                    message: "injected fault: serve.compile".to_string(),
                }),
                false,
                ServeOutcome::Compiled,
            ),
            Err(payload) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                (
                    Err(ServeError {
                        kind: ServeErrorKind::Panic,
                        message: format!("compile panicked: {}", panic_message(&*payload)),
                    }),
                    false,
                    ServeOutcome::Compiled,
                )
            }
        };
        // Publish before unregistering: every waiter that found this slot
        // observes the result; requests arriving after removal hit the
        // now-populated memory cache (or re-lead and re-compile after a
        // failure) instead.
        *lock_recover(&slot.ready) = Some((result.clone(), degraded));
        slot.cv.notify_all();
        lock_recover(&self.inflight).remove(&key);

        let counter = match outcome {
            ServeOutcome::MemoryHit => &self.counters.memory_hits,
            ServeOutcome::DiskHit => &self.counters.disk_hits,
            _ => &self.counters.compiled,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.note_result(&result, degraded);
        ServeReply {
            outcome,
            wall_micros: start.elapsed().as_micros(),
            result,
            degraded,
        }
    }

    /// The coalesced-waiter path: blocks on the leader's slot until the
    /// result is published or the waiter's own deadline passes (the leader
    /// keeps running — later waiters and the cache still get its result).
    fn wait_for_leader(
        &self,
        slot: &Slot,
        deadline_at: Option<Instant>,
        start: Instant,
    ) -> ServeReply {
        let mut guard = lock_recover(&slot.ready);
        let (result, degraded) = loop {
            if let Some(published) = guard.clone() {
                break published;
            }
            match deadline_at {
                None => {
                    guard = slot.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
                }
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        break (
                            Err(ServeError {
                                kind: ServeErrorKind::DeadlineExceeded,
                                message: "deadline exceeded while waiting on a coalesced compile"
                                    .to_string(),
                            }),
                            false,
                        );
                    }
                    guard = slot
                        .cv
                        .wait_timeout(guard, at - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        };
        drop(guard);
        self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
        self.note_result(&result, degraded);
        ServeReply {
            outcome: ServeOutcome::Coalesced,
            wall_micros: start.elapsed().as_micros(),
            result,
            degraded,
        }
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("stats", &self.stats())
            .field("inflight", &self.inflight_len())
            .finish()
    }
}
