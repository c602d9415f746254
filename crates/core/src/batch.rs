//! The batch compilation engine: corpus-scale compilation with a
//! content-addressed artifact cache.
//!
//! [`crate::Pipeline::compile`] handles one target; production evaluation
//! sweeps hundreds. [`BatchCompiler`] compiles a whole instance list in
//! parallel, deduplicating work through an [`ArtifactCache`] keyed by the
//! *content* of each job — the label-invariant [`canonical_hash`] of the
//! target graph plus a [`config_fingerprint`] of the framework
//! configuration. The two cache layers hold different artifacts:
//!
//! - The in-memory [`ArtifactCache`] holds the finished, verified
//!   [`Compiled`] result behind an [`Arc`]. A memory hit costs the
//!   canonical hash, a bucket lookup, an exact-graph compare and an `Arc`
//!   clone; no pipeline stage runs.
//! - The optional on-disk [`ArtifactStore`] holds the [`Planned`](crate::Planned) prefix.
//!   A disk hit decodes it, skipping the two expensive stages (partition
//!   search and per-leaf solving), reruns the cheap suffix (schedule →
//!   recombine → verify) and promotes the verified result into memory.
//!
//! Only a miss runs the whole pipeline; it writes its `Planned` prefix to
//! disk and its verified result to memory. Degraded results, suffix
//! failures and requests whose deadline passed stay out of both layers,
//! so every circuit served was verified against the exact graph it is
//! served for.
//!
//! Because Weisfeiler–Lehman hashing is one-sided (equal hashes do not
//! prove equal graphs), every lookup confirms the candidate entry by exact
//! graph comparison before reuse: a hash bucket shared by two distinct
//! labelings is observable in [`CacheStats::bucket_collisions`] but can
//! never leak a wrong artifact. A corrupted entry — one whose stored
//! result no longer matches its own graph — is discarded on lookup and
//! the instance recompiles.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rayon::prelude::*;

use epgs_corpus::json::Writer;
use epgs_graph::canon::{canonical_hash, fnv1a_all};
use epgs_graph::Graph;
use epgs_hardware::CompileObjective;
use epgs_partition::{FaultHook, InjectedFault, SearchControl};

use crate::config::{EmitterBudget, FrameworkConfig};
use crate::error::FrameworkError;
use crate::faults::{self, lock_recover, FaultKind, FaultPlan, RequestCtx};
use crate::stages::{Compiled, Pipeline, RecombineStrategy};
use crate::store::{ArtifactStore, StoreStats};

/// Stable 64-bit fingerprint of every compilation-relevant configuration
/// knob (FNV-1a; float knobs enter via their bit patterns).
///
/// Two configurations with equal fingerprints compile any graph
/// identically, so the fingerprint is the config half of the cache key.
pub fn config_fingerprint(cfg: &FrameworkConfig) -> u64 {
    let hw = &cfg.hardware;
    let hardware_words = [
        fnv1a_all(hw.name.bytes().map(u64::from)),
        hw.ee_two_qubit.to_bits(),
        hw.emission.to_bits(),
        hw.emitter_single.to_bits(),
        hw.photon_single.to_bits(),
        hw.measurement.to_bits(),
        hw.photon_loss_per_tau.to_bits(),
        hw.ee_fidelity.to_bits(),
    ];
    let EmitterBudget::Factor(f) = cfg.emitter_budget;
    let budget_words = [1u64, f.to_bits()];
    // Objectives select different circuits, so they fingerprint apart.
    let objective_word = match cfg.objective {
        CompileObjective::Emitters => 1u64,
        CompileObjective::Duration => 2,
    };
    // Scheme discriminant; the multilevel scheme adds the values of the
    // three knobs it once had. Artifact `VERSION` 2 rejects every artifact
    // stored under the older keys, so these words now only keep the three
    // shipped fingerprints pinned in `tests/objective.rs` unchanged.
    let scheme_words: Vec<u64> = match &cfg.partition.scheme {
        epgs_partition::PartitionScheme::Flat => vec![1],
        epgs_partition::PartitionScheme::Multilevel(_) => vec![
            2,
            epgs_partition::multilevel::COARSEN_CUTOFF as u64,
            1, // matching rounds per level
            6, // refine passes per level
        ],
    };
    let words = [
        cfg.partition.g_max as u64,
        cfg.partition.lc_budget as u64,
        cfg.partition.effort as u64,
        cfg.partition.seed,
        cfg.orderings_per_subgraph as u64,
    ]
    .into_iter()
    .chain(scheme_words)
    .chain(hardware_words)
    .chain(budget_words)
    .chain([objective_word]);
    fnv1a_all(words)
}

/// Cache key: content hash of the target × fingerprint of the config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Label-invariant graph hash ([`canonical_hash`]).
    pub canonical: u64,
    /// Configuration fingerprint ([`config_fingerprint`]).
    pub config: u64,
}

/// One cached result: the exact graph it was compiled for and its
/// verified [`Compiled`] artifact.
#[derive(Debug, Clone)]
struct CacheEntry {
    graph: Graph,
    compiled: Arc<Compiled>,
    last_used: u64,
}

/// Cumulative counters of one [`ArtifactCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that reused a stored result.
    pub hits: usize,
    /// Lookups that found nothing reusable.
    pub misses: usize,
    /// Lookups whose hash bucket held only differently-labeled graphs
    /// (isomorphic or WL-colliding) — counted within `misses`.
    pub bucket_collisions: usize,
    /// Entries dropped — by the LRU capacity bound or by explicit
    /// [`ArtifactCache::evict`] calls.
    pub evictions: usize,
    /// Entries discarded because their result no longer matched their
    /// graph (corruption guard) — counted within `misses`.
    pub corrupt_discarded: usize,
}

/// Content-addressed store of verified [`Compiled`] results with an LRU
/// capacity bound.
///
/// Buckets are keyed by [`CacheKey`]; each bucket holds the entries for the
/// distinct exact graphs that share the key (normally one). Lookup is
/// hit-only-on-exact-match, so the cache can never substitute a result
/// across labelings, and a corrupted entry degrades to a recompile instead
/// of a panic.
#[derive(Debug)]
pub struct ArtifactCache {
    buckets: HashMap<CacheKey, Vec<CacheEntry>>,
    /// Running entry count across all buckets — kept so `len()` (and the
    /// capacity check every `insert` performs) is O(1), not a bucket walk.
    entries: usize,
    capacity: usize,
    clock: u64,
    stats: CacheStats,
}

impl ArtifactCache {
    /// An empty cache holding at most `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            buckets: HashMap::new(),
            entries: 0,
            capacity: capacity.max(1),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up the verified result for exactly `graph` under `key`.
    ///
    /// Entries under the right key but for a different exact graph (a
    /// relabeling or WL collision) do not hit; an entry whose result was
    /// verified against a graph other than its own is discarded.
    pub fn lookup(&mut self, key: CacheKey, graph: &Graph) -> Option<Arc<Compiled>> {
        self.clock += 1;
        let clock = self.clock;
        let bucket = match self.buckets.get_mut(&key) {
            Some(b) => b,
            None => {
                self.stats.misses += 1;
                return None;
            }
        };
        // Corruption guard: an entry must still describe its own graph.
        let before = bucket.len();
        bucket.retain(|e| *e.compiled.target == e.graph);
        self.stats.corrupt_discarded += before - bucket.len();
        self.entries -= before - bucket.len();
        if let Some(entry) = bucket.iter_mut().find(|e| &e.graph == graph) {
            entry.last_used = clock;
            self.stats.hits += 1;
            return Some(Arc::clone(&entry.compiled));
        }
        if !bucket.is_empty() {
            self.stats.bucket_collisions += 1;
        } else {
            self.buckets.remove(&key);
        }
        self.stats.misses += 1;
        None
    }

    /// Stores `compiled` for `graph` under `key`, evicting the
    /// least-recently-used entry when the capacity bound is exceeded.
    ///
    /// Inserting a result that does not belong to `graph` is not an error
    /// here: the lookup-time corruption guard will discard it.
    pub fn insert(&mut self, key: CacheKey, graph: Graph, compiled: Arc<Compiled>) {
        self.clock += 1;
        let bucket = self.buckets.entry(key).or_default();
        if let Some(entry) = bucket.iter_mut().find(|e| e.graph == graph) {
            entry.compiled = compiled;
            entry.last_used = self.clock;
            return;
        }
        bucket.push(CacheEntry {
            graph,
            compiled,
            last_used: self.clock,
        });
        self.entries += 1;
        while self.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Removes every entry stored under `key`; returns how many were
    /// dropped.
    pub fn evict(&mut self, key: CacheKey) -> usize {
        let dropped = self.buckets.remove(&key).map_or(0, |b| b.len());
        self.stats.evictions += dropped;
        self.entries -= dropped;
        dropped
    }

    fn evict_lru(&mut self) {
        let victim = self
            .buckets
            .iter()
            .flat_map(|(k, b)| b.iter().map(move |e| (*k, e.last_used)))
            .min_by_key(|&(_, used)| used)
            .map(|(k, _)| k);
        if let Some(key) = victim {
            let bucket = self.buckets.get_mut(&key).expect("victim bucket exists");
            let oldest = bucket
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("victim bucket is non-empty");
            bucket.remove(oldest);
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
            self.entries -= 1;
            self.stats.evictions += 1;
        }
    }
}

/// One named compilation job for [`BatchCompiler::run`].
#[derive(Debug, Clone)]
pub struct BatchInstance {
    /// Stable identifier carried into the per-instance report.
    pub id: String,
    /// Family name used for the aggregate rollups.
    pub family: String,
    /// The target graph.
    pub graph: Graph,
}

impl BatchInstance {
    /// Builds a job from its parts.
    pub fn new(id: impl Into<String>, family: impl Into<String>, graph: Graph) -> Self {
        BatchInstance {
            id: id.into(),
            family: family.into(),
            graph,
        }
    }
}

/// Whether an instance reused a cached artifact or compiled it fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The verified result was served from the in-memory cache; no
    /// pipeline stage ran.
    Hit,
    /// Partition + leaf planning were served from the on-disk
    /// [`ArtifactStore`]; the suffix reran and the verified result was
    /// promoted into the in-memory cache.
    DiskHit,
    /// The full pipeline ran.
    Miss,
}

impl CacheOutcome {
    /// Stable wire name used in JSON reports and the serve protocol.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::DiskHit => "disk_hit",
            CacheOutcome::Miss => "miss",
        }
    }

    /// Whether the expensive prefix was reused from *any* layer.
    pub fn reused(self) -> bool {
        self != CacheOutcome::Miss
    }
}

/// Success metrics of one compiled instance.
#[derive(Debug, Clone)]
pub struct InstanceMetrics {
    /// Minimal emitter count of the target.
    pub ne_min: usize,
    /// Resolved emitter budget the schedule ran under.
    pub ne_limit: usize,
    /// Peak simultaneously-active emitters in the final circuit.
    pub peak_emitters: usize,
    /// Emitter-emitter CNOT count of the final circuit.
    pub ee_cnots: usize,
    /// Circuit duration in τ.
    pub duration: f64,
    /// Mean photon storage time `T_loss` in τ.
    pub t_loss: f64,
    /// Mean per-photon loss probability under the configured hardware.
    pub mean_photon_loss: f64,
    /// Probability at least one photon is lost under the configured
    /// hardware.
    pub any_photon_loss: f64,
    /// Recombination strategy that won.
    pub strategy: RecombineStrategy,
}

/// Everything recorded about one instance of a batch run.
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// Instance id (from [`BatchInstance::id`]).
    pub id: String,
    /// Family name (from [`BatchInstance::family`]).
    pub family: String,
    /// Vertex count of the target.
    pub vertices: usize,
    /// Edge count of the target.
    pub edges: usize,
    /// Label-invariant content hash of the target.
    pub canonical_hash: u64,
    /// Whether the expensive prefix came from the cache.
    pub cache: CacheOutcome,
    /// Compilation metrics, present on success.
    pub metrics: Option<InstanceMetrics>,
    /// Error rendering, present on failure.
    pub error: Option<String>,
    /// Wall time of this instance (µs), cache lookup included.
    pub wall_micros: u128,
    /// The partition search degraded (deadline truncation or multilevel →
    /// flat fallback); the result is valid but possibly lower quality and
    /// was not cached or persisted.
    pub degraded: bool,
    /// The compile was cancelled at its deadline
    /// ([`FrameworkError::DeadlineExceeded`]).
    pub timed_out: bool,
}

impl InstanceReport {
    /// Whether the instance compiled and verified.
    pub fn ok(&self) -> bool {
        self.metrics.is_some()
    }
}

/// Wall-time histogram bucket upper bounds (µs): 1 ms, 10 ms, 100 ms, 1 s,
/// and the open overflow bucket.
pub const WALL_BUCKET_BOUNDS: [u128; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Labels aligned with [`WALL_BUCKET_BOUNDS`] plus the overflow bucket.
pub const WALL_BUCKET_LABELS: [&str; 5] = ["lt_1ms", "lt_10ms", "lt_100ms", "lt_1s", "ge_1s"];

/// Per-family rollup inside a [`BatchReport`].
#[derive(Debug, Clone)]
pub struct FamilySummary {
    /// Family name.
    pub family: String,
    /// Instances of this family in the run.
    pub instances: usize,
    /// How many compiled and verified.
    pub succeeded: usize,
    /// How many reused a cached prefix.
    pub cache_hits: usize,
    /// Mean emitter-emitter CNOTs over the successful instances.
    pub mean_ee_cnots: f64,
    /// Mean circuit duration (τ) over the successful instances.
    pub mean_duration: f64,
}

/// Aggregate result of one [`BatchCompiler::run`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Name of the hardware model every instance compiled under.
    pub hardware: String,
    /// Wire name of the objective candidates competed under.
    pub objective: String,
    /// Per-instance reports, in input order.
    pub instances: Vec<InstanceReport>,
    /// Instances that compiled and verified.
    pub succeeded: usize,
    /// Instances that failed.
    pub failed: usize,
    /// In-memory cache hits within this run.
    pub cache_hits: usize,
    /// On-disk store hits within this run (only possible when the compiler
    /// was built with [`BatchCompiler::with_store`]).
    pub disk_hits: usize,
    /// Instances that ran the full pipeline.
    pub cache_misses: usize,
    /// Distinct canonical graph hashes in this run — the run's content
    /// diversity.
    pub distinct_canonical: usize,
    /// Rollups per family, in first-appearance order.
    pub families: Vec<FamilySummary>,
    /// Instance-wall-time histogram over
    /// [`WALL_BUCKET_LABELS`](constant@WALL_BUCKET_LABELS).
    pub wall_histogram: [usize; 5],
    /// Sum of instance wall times (µs). The run's own wall clock is lower
    /// under parallel execution.
    pub total_wall_micros: u128,
    /// Cumulative cache counters at the end of the run.
    pub cache: CacheStats,
    /// Cumulative on-disk store counters at the end of the run, when a
    /// store is attached.
    pub store: Option<StoreStats>,
}

impl BatchReport {
    fn from_instances(
        config: &FrameworkConfig,
        instances: Vec<InstanceReport>,
        cache: CacheStats,
        store: Option<StoreStats>,
    ) -> Self {
        let succeeded = instances.iter().filter(|r| r.ok()).count();
        let cache_hits = instances
            .iter()
            .filter(|r| r.cache == CacheOutcome::Hit)
            .count();
        let disk_hits = instances
            .iter()
            .filter(|r| r.cache == CacheOutcome::DiskHit)
            .count();
        let mut canonical: Vec<u64> = instances.iter().map(|r| r.canonical_hash).collect();
        canonical.sort_unstable();
        canonical.dedup();

        let mut families: Vec<FamilySummary> = Vec::new();
        for r in &instances {
            if !families.iter().any(|f| f.family == r.family) {
                families.push(FamilySummary {
                    family: r.family.clone(),
                    instances: 0,
                    succeeded: 0,
                    cache_hits: 0,
                    mean_ee_cnots: 0.0,
                    mean_duration: 0.0,
                });
            }
            let f = families
                .iter_mut()
                .find(|f| f.family == r.family)
                .expect("just inserted");
            f.instances += 1;
            f.succeeded += usize::from(r.ok());
            f.cache_hits += usize::from(r.cache.reused());
            if let Some(m) = &r.metrics {
                f.mean_ee_cnots += m.ee_cnots as f64;
                f.mean_duration += m.duration;
            }
        }
        for f in &mut families {
            if f.succeeded > 0 {
                f.mean_ee_cnots /= f.succeeded as f64;
                f.mean_duration /= f.succeeded as f64;
            }
        }

        let mut wall_histogram = [0usize; 5];
        let mut total_wall_micros = 0u128;
        for r in &instances {
            total_wall_micros += r.wall_micros;
            let slot = WALL_BUCKET_BOUNDS
                .iter()
                .position(|&b| r.wall_micros < b)
                .unwrap_or(WALL_BUCKET_BOUNDS.len());
            wall_histogram[slot] += 1;
        }

        BatchReport {
            hardware: config.hardware.name.to_string(),
            objective: config.objective.kind_name().to_string(),
            failed: instances.len() - succeeded,
            succeeded,
            cache_hits,
            disk_hits,
            cache_misses: instances.len() - cache_hits - disk_hits,
            distinct_canonical: canonical.len(),
            families,
            wall_histogram,
            total_wall_micros,
            cache,
            store,
            instances,
        }
    }

    /// Renders the report as a JSON document (instances included).
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(4096 + 256 * self.instances.len());
        w.begin_obj();
        w.field_str("hardware", &self.hardware);
        w.field_str("objective", &self.objective);
        w.field_uint("succeeded", self.succeeded as u64);
        w.field_uint("failed", self.failed as u64);
        w.field_uint("cache_hits", self.cache_hits as u64);
        w.field_uint("disk_hits", self.disk_hits as u64);
        w.field_uint("cache_misses", self.cache_misses as u64);
        w.field_uint("distinct_canonical", self.distinct_canonical as u64);
        w.field_raw("total_wall_micros", &self.total_wall_micros.to_string());
        w.key("cache");
        w.begin_obj();
        w.field_uint("hits", self.cache.hits as u64);
        w.field_uint("misses", self.cache.misses as u64);
        w.field_uint("bucket_collisions", self.cache.bucket_collisions as u64);
        w.field_uint("evictions", self.cache.evictions as u64);
        w.field_uint("corrupt_discarded", self.cache.corrupt_discarded as u64);
        w.end_obj();
        if let Some(s) = &self.store {
            w.key("store");
            w.begin_obj();
            w.field_uint("disk_hits", s.disk_hits as u64);
            w.field_uint("disk_misses", s.disk_misses as u64);
            w.field_uint("corrupt_discarded", s.corrupt_discarded as u64);
            w.field_uint("version_rejected", s.version_rejected as u64);
            w.field_uint("exact_collisions", s.exact_collisions as u64);
            w.field_uint("evictions", s.evictions as u64);
            w.field_uint("writes", s.writes as u64);
            w.field_uint("write_errors", s.write_errors as u64);
            w.end_obj();
        }
        w.key("wall_histogram");
        w.begin_obj();
        for (label, count) in WALL_BUCKET_LABELS.iter().zip(self.wall_histogram) {
            w.field_uint(label, count as u64);
        }
        w.end_obj();
        w.key("families");
        w.begin_arr();
        for f in &self.families {
            w.begin_obj();
            w.field_str("family", &f.family);
            w.field_uint("instances", f.instances as u64);
            w.field_uint("succeeded", f.succeeded as u64);
            w.field_uint("cache_hits", f.cache_hits as u64);
            w.field_fixed("mean_ee_cnots", f.mean_ee_cnots, 3);
            w.field_fixed("mean_duration", f.mean_duration, 3);
            w.end_obj();
        }
        w.end_arr();
        w.key("instances");
        w.begin_arr();
        for r in &self.instances {
            w.begin_obj();
            w.field_str("id", &r.id);
            w.field_str("family", &r.family);
            w.field_uint("vertices", r.vertices as u64);
            w.field_uint("edges", r.edges as u64);
            w.field_hex("canonical_hash", r.canonical_hash);
            w.field_str("cache", r.cache.as_str());
            w.field_bool("ok", r.ok());
            w.field_raw("wall_micros", &r.wall_micros.to_string());
            if let Some(m) = &r.metrics {
                w.field_uint("ne_min", m.ne_min as u64);
                w.field_uint("ne_limit", m.ne_limit as u64);
                w.field_uint("peak_emitters", m.peak_emitters as u64);
                w.field_uint("ee_cnots", m.ee_cnots as u64);
                w.field_fixed("duration", m.duration, 3);
                w.field_fixed("t_loss", m.t_loss, 3);
                w.field_fixed("mean_photon_loss", m.mean_photon_loss, 6);
                w.field_fixed("any_photon_loss", m.any_photon_loss, 6);
                w.field_str("strategy", &format!("{:?}", m.strategy));
            }
            if let Some(e) = &r.error {
                w.field_str("error", e);
            }
            // Robustness flags: emitted only when set, so fault-free runs
            // keep their historical shape byte for byte.
            if r.degraded {
                w.field_bool("degraded", true);
            }
            if r.timed_out {
                w.field_bool("timed_out", true);
            }
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }
}

/// The batch compilation engine: one configuration, many targets, shared
/// artifact cache, parallel execution.
///
/// # Examples
///
/// Two jobs over the same graph: the second reuses the first's verified
/// result through the content-addressed cache.
///
/// ```
/// use epgs::{BatchCompiler, BatchInstance, FrameworkConfig, PartitionSpec};
/// use epgs_graph::generators;
///
/// let batch = BatchCompiler::new(FrameworkConfig {
///     partition: PartitionSpec { g_max: 4, ..Default::default() },
///     ..Default::default()
/// });
/// let report = batch.run(&[
///     BatchInstance::new("path-6", "path", generators::path(6)),
///     BatchInstance::new("path-6-again", "path", generators::path(6)),
/// ]);
/// assert_eq!(report.succeeded, 2);
/// assert_eq!(report.cache_hits, 1, "identical content compiles once");
/// assert_eq!(report.distinct_canonical, 1);
/// assert!(report.to_json().contains("\"cache\":\"hit\""));
/// ```
#[derive(Debug)]
pub struct BatchCompiler {
    pipeline: Pipeline,
    config_fp: u64,
    cache: Mutex<ArtifactCache>,
    store: Option<ArtifactStore>,
    faults: Option<Arc<FaultPlan>>,
}

impl BatchCompiler {
    /// Default artifact-cache capacity (entries).
    pub const DEFAULT_CACHE_CAPACITY: usize = 256;

    /// A batch compiler with the default cache capacity.
    pub fn new(config: FrameworkConfig) -> Self {
        Self::with_cache_capacity(config, Self::DEFAULT_CACHE_CAPACITY)
    }

    /// A batch compiler whose cache holds at most `capacity` artifacts.
    pub fn with_cache_capacity(config: FrameworkConfig, capacity: usize) -> Self {
        let config_fp = config_fingerprint(&config);
        BatchCompiler {
            pipeline: Pipeline::new(config),
            config_fp,
            cache: Mutex::new(ArtifactCache::new(capacity)),
            store: None,
            faults: None,
        }
    }

    /// A batch compiler backed by a persistent [`ArtifactStore`] at `dir`
    /// (created if absent). Lookups layer memory → disk → compile; every
    /// fresh compile is written through to the store, so artifacts survive
    /// the process and a rerun over the same corpus hits disk instead of
    /// recompiling.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from opening the store directory.
    pub fn with_store(config: FrameworkConfig, dir: impl AsRef<Path>) -> io::Result<Self> {
        let mut batch = Self::new(config);
        batch.store = Some(ArtifactStore::open(dir)?);
        Ok(batch)
    }

    /// Attaches an already-opened store (memory → disk → compile layering).
    /// An armed fault plan is forwarded to the store's I/O points.
    pub fn attach_store(&mut self, mut store: ArtifactStore) {
        if let Some(plan) = &self.faults {
            store.set_fault_plan(Arc::clone(plan));
        }
        self.store = Some(store);
    }

    /// Arms a fault-injection plan on the compiler (its `batch.compile`
    /// and `partition.multilevel` points) and forwards it to the attached
    /// store's I/O points. Chaos testing only; compilers without a plan
    /// pay nothing.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        if let Some(store) = &mut self.store {
            store.set_fault_plan(Arc::clone(&plan));
        }
        self.faults = Some(plan);
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// The underlying staged pipeline (stage counters aggregate across the
    /// whole batch: after a run, `counters().plan` equals the cache misses
    /// that planned successfully).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Fingerprint of this compiler's configuration (the config half of
    /// every cache key).
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fp
    }

    /// Snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        lock_recover(&self.cache).stats()
    }

    /// Number of artifacts currently cached.
    pub fn cache_len(&self) -> usize {
        lock_recover(&self.cache).len()
    }

    /// Evicts the cache entries for `graph`; returns how many were
    /// dropped. Exposed so harnesses can exercise recompile-after-eviction.
    pub fn evict(&self, graph: &Graph) -> usize {
        let key = CacheKey {
            canonical: canonical_hash(graph),
            config: self.config_fp,
        };
        lock_recover(&self.cache).evict(key)
    }

    /// Builds the partition-search controls for one request: the
    /// cooperative deadline plus the multilevel fault hook when a plan is
    /// armed. A multilevel failure (injected or real) degrades to the flat
    /// engine inside the search rather than failing the request.
    fn search_control(&self, ctx: &RequestCtx) -> SearchControl {
        let multilevel_fault: Option<FaultHook> = self.faults.as_ref().map(|plan| {
            let plan = Arc::clone(plan);
            Arc::new(move || match plan.at(faults::POINT_MULTILEVEL) {
                Some(FaultKind::Fail | FaultKind::IoError) => Some(InjectedFault::Fail),
                Some(FaultKind::Panic) => Some(InjectedFault::Panic),
                Some(FaultKind::Slow(ms)) => Some(InjectedFault::Slow(ms)),
                Some(FaultKind::BitFlip | FaultKind::Crash) | None => None,
            }) as FaultHook
        });
        SearchControl {
            deadline: ctx.deadline,
            multilevel_fault,
        }
    }

    /// Compiles one instance, going through the artifact cache.
    ///
    /// Returns the instance report and, on success, the verified result —
    /// shared with the in-memory cache, so a hit is an `Arc` clone.
    /// Compilation errors are captured in the report, not propagated —
    /// batch runs keep going.
    pub fn compile_instance(
        &self,
        id: &str,
        family: &str,
        graph: &Graph,
    ) -> (InstanceReport, Option<Arc<Compiled>>) {
        self.compile_instance_ctx(id, family, graph, &RequestCtx::default())
    }

    /// [`BatchCompiler::compile_instance`] under a request context: the
    /// deadline is checked cooperatively between pipeline stages (a
    /// [`FrameworkError::DeadlineExceeded`] report, `timed_out` set) and
    /// inside the partition search (which truncates to its incumbent —
    /// `degraded` set — instead of failing). An expired deadline cancels
    /// a memory hit too. Degraded results are never cached or persisted,
    /// and neither are results that failed or timed out after planning.
    pub fn compile_instance_ctx(
        &self,
        id: &str,
        family: &str,
        graph: &Graph,
        ctx: &RequestCtx,
    ) -> (InstanceReport, Option<Arc<Compiled>>) {
        self.compile_with_hash(id, family, graph, canonical_hash(graph), ctx)
    }

    /// [`BatchCompiler::compile_instance_ctx`] with the WL hash
    /// precomputed, for callers that already hold it ([`BatchCompiler::run`]
    /// groups instances by it; the serve engine keys its in-flight table
    /// by it), so the refinement runs once per request.
    ///
    /// `canonical` must be `canonical_hash(graph)`. A wrong value files
    /// the result under the wrong key, which costs later requests a miss
    /// but can never serve a wrong artifact: every layer confirms the
    /// exact graph before reuse.
    pub fn compile_with_hash(
        &self,
        id: &str,
        family: &str,
        graph: &Graph,
        canonical: u64,
        ctx: &RequestCtx,
    ) -> (InstanceReport, Option<Arc<Compiled>>) {
        let start = Instant::now();
        let key = CacheKey {
            canonical,
            config: self.config_fp,
        };
        let report = |cache: CacheOutcome,
                      compiled: Result<Arc<Compiled>, FrameworkError>,
                      degraded: bool| {
            let report = InstanceReport {
                id: id.to_string(),
                family: family.to_string(),
                vertices: graph.vertex_count(),
                edges: graph.edge_count(),
                canonical_hash: key.canonical,
                cache,
                metrics: compiled.as_ref().ok().map(|c| InstanceMetrics {
                    ne_min: c.ne_min,
                    ne_limit: c.ne_limit,
                    peak_emitters: c.metrics.peak_emitters,
                    ee_cnots: c.metrics.ee_two_qubit_count,
                    duration: c.metrics.duration,
                    t_loss: c.metrics.t_loss,
                    mean_photon_loss: c.metrics.loss.mean_photon_loss,
                    any_photon_loss: c.metrics.loss.any_photon_loss,
                    strategy: c.strategy,
                }),
                error: compiled.as_ref().err().map(ToString::to_string),
                wall_micros: start.elapsed().as_micros(),
                degraded,
                timed_out: matches!(compiled, Err(FrameworkError::DeadlineExceeded)),
            };
            (report, compiled.ok())
        };
        // Entry fault point. The panic fires before any lock is taken, so
        // injected panics can never poison the cache from inside it.
        match self
            .faults
            .as_ref()
            .and_then(|f| f.at(faults::POINT_COMPILE))
        {
            Some(FaultKind::Panic) => panic!("injected fault: batch.compile"),
            Some(FaultKind::Slow(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            Some(FaultKind::Fail | FaultKind::IoError) => {
                let (mut failed, _) = report(
                    CacheOutcome::Miss,
                    Err(FrameworkError::VerificationFailed),
                    false,
                );
                failed.error = Some("injected fault: batch.compile".to_string());
                return (failed, None);
            }
            // Crash aborts inside the probe; BitFlip has no bytes here.
            Some(FaultKind::BitFlip | FaultKind::Crash) | None => {}
        }
        // Memory layer: the verified result itself. The request is dead
        // once its deadline passes, so an expired deadline cancels even a
        // hit.
        let hit = lock_recover(&self.cache).lookup(key, graph);
        if let Some(compiled) = hit {
            let result = if ctx.expired() {
                Err(FrameworkError::DeadlineExceeded)
            } else {
                Ok(compiled)
            };
            return report(CacheOutcome::Hit, result, false);
        }
        // Disk layer: the planned prefix, or a fresh plan on a miss. The
        // planning stage runs outside the cache lock: concurrent misses on
        // the same content may plan twice, but never block each other.
        let (outcome, planned) = match self
            .store
            .as_ref()
            .and_then(|store| store.load(key, graph, &self.pipeline))
        {
            Some(p) => (CacheOutcome::DiskHit, Ok(p)),
            None if ctx.expired() => {
                // The expensive prefix hasn't started; cancel instead of
                // burning a partition search on a dead request.
                return report(
                    CacheOutcome::Miss,
                    Err(FrameworkError::DeadlineExceeded),
                    false,
                );
            }
            None => {
                let planned = self
                    .pipeline
                    .partition_with_control(graph, &self.search_control(ctx))
                    .plan_leaves();
                // Degraded plans (deadline-truncated search, multilevel
                // fallback) stay out of both cache layers: a transient
                // fault must not pin reduced quality for future requests.
                if let (Ok(p), Some(store)) = (&planned, &self.store) {
                    if !p.partition().degraded {
                        store.save(key, p);
                    }
                }
                (CacheOutcome::Miss, planned)
            }
        };
        let degraded = planned
            .as_ref()
            .map(|p| p.partition().degraded)
            .unwrap_or(false);
        // Cooperative deadline between the remaining stages. A degraded
        // request already absorbed its deadline inside the partition search
        // and runs the cheap suffix to a terminal (degraded) answer.
        let compiled = planned.and_then(|p| {
            if ctx.expired() && !degraded {
                return Err(FrameworkError::DeadlineExceeded);
            }
            let scheduled = p.schedule(p.configured_budget());
            if ctx.expired() && !degraded {
                return Err(FrameworkError::DeadlineExceeded);
            }
            let recombined = scheduled.recombine()?;
            if ctx.expired() && !degraded {
                return Err(FrameworkError::DeadlineExceeded);
            }
            recombined.verify().map(Arc::new)
        });
        // Only a verified, full-quality result enters the memory layer, so
        // the next request for this exact graph is a lookup.
        if let (Ok(c), false) = (&compiled, degraded) {
            lock_recover(&self.cache).insert(key, graph.clone(), Arc::clone(c));
        }
        report(outcome, compiled, degraded)
    }

    /// Compiles every instance in parallel and aggregates the reports.
    ///
    /// Instances are first grouped by cache identity (exact graph ×
    /// config), and each group runs its members in order while distinct
    /// groups run in parallel — so within-run duplicates deterministically
    /// reuse the first member's artifact instead of racing it. Failures
    /// never abort the batch: a failing instance contributes a report with
    /// its error and the run continues.
    pub fn run(&self, instances: &[BatchInstance]) -> BatchReport {
        let mut groups: Vec<(u64, &Graph, Vec<usize>)> = Vec::new();
        for (i, inst) in instances.iter().enumerate() {
            let canonical = canonical_hash(&inst.graph);
            match groups
                .iter_mut()
                .find(|(c, g, _)| *c == canonical && *g == &inst.graph)
            {
                Some((_, _, members)) => members.push(i),
                None => groups.push((canonical, &inst.graph, vec![i])),
            }
        }
        let grouped: Vec<Vec<(usize, InstanceReport)>> = groups
            .par_iter()
            .map(|(canonical, _, members)| {
                members
                    .iter()
                    .map(|&i| {
                        let inst = &instances[i];
                        (
                            i,
                            self.compile_with_hash(
                                &inst.id,
                                &inst.family,
                                &inst.graph,
                                *canonical,
                                &RequestCtx::default(),
                            )
                            .0,
                        )
                    })
                    .collect()
            })
            .collect();
        let mut slots: Vec<Option<InstanceReport>> = vec![None; instances.len()];
        for group in grouped {
            for (i, report) in group {
                slots[i] = Some(report);
            }
        }
        let reports = slots
            .into_iter()
            .map(|r| r.expect("every instance reported"))
            .collect();
        BatchReport::from_instances(
            self.pipeline.config(),
            reports,
            self.cache_stats(),
            self.store.as_ref().map(|s| s.stats()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::quick_config;
    use epgs_graph::canon::relabel;
    use epgs_graph::generators;
    use epgs_partition::PartitionSpec;

    #[test]
    fn expired_deadline_on_a_cold_compile_is_a_structured_timeout() {
        let batch = BatchCompiler::new(quick_config());
        let g = generators::lattice(3, 3);
        let ctx = RequestCtx {
            deadline: Some(Instant::now()),
        };
        let (report, compiled) = batch.compile_instance_ctx("cold", "lattice", &g, &ctx);
        assert!(compiled.is_none());
        assert!(report.timed_out);
        assert!(!report.degraded);
        assert_eq!(
            report.error.as_deref(),
            Some("compile deadline exceeded"),
            "structured deadline error, not a solver failure"
        );
        assert_eq!(batch.cache_len(), 0, "nothing was planned or cached");
        // An expired deadline cancels even a cache hit — the request is
        // dead either way — while a live deadline lets the hit answer.
        let (warm, warm_compiled) = batch.compile_instance("warm", "lattice", &g);
        assert!(warm_compiled.is_some());
        assert_eq!(warm.cache, CacheOutcome::Miss);
        let (hit, hit_compiled) = batch.compile_instance_ctx("hit", "lattice", &g, &ctx);
        assert!(hit_compiled.is_none());
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert!(hit.timed_out);
        let live = RequestCtx::with_timeout(std::time::Duration::from_secs(60));
        let (ok, ok_compiled) = batch.compile_instance_ctx("ok", "lattice", &g, &live);
        assert!(ok_compiled.is_some(), "cached prefix + cheap suffix");
        assert_eq!(ok.cache, CacheOutcome::Hit);
        assert!(!ok.timed_out);
    }

    #[test]
    fn injected_multilevel_faults_degrade_and_stay_out_of_the_cache() {
        use crate::faults::{FaultKind, FaultPlan, Trigger};
        let mut batch = BatchCompiler::new(quick_config());
        let plan = Arc::new(FaultPlan::new(5).rule(
            faults::POINT_MULTILEVEL,
            FaultKind::Fail,
            Trigger::Always,
        ));
        batch.set_fault_plan(Arc::clone(&plan));
        let g = generators::lattice(3, 3);
        let (report, compiled) = batch.compile_instance("deg", "lattice", &g);
        assert!(compiled.is_some(), "degraded, not failed");
        assert!(report.degraded);
        assert!(!report.timed_out);
        assert!(plan.total_hits() > 0);
        assert_eq!(batch.cache_len(), 0, "degraded plans are not cached");
        plan.disarm();
        let (clean, clean_compiled) = batch.compile_instance("clean", "lattice", &g);
        assert!(clean_compiled.is_some());
        assert!(!clean.degraded);
        assert_eq!(
            clean.cache,
            CacheOutcome::Miss,
            "recompiled at full quality"
        );
        assert_eq!(batch.cache_len(), 1, "pristine plan cached normally");
    }

    #[test]
    fn injected_compile_failure_is_reported_not_propagated() {
        use crate::faults::{FaultKind, FaultPlan, Trigger};
        let mut batch = BatchCompiler::new(quick_config());
        batch.set_fault_plan(Arc::new(FaultPlan::new(6).rule_limited(
            faults::POINT_COMPILE,
            FaultKind::Fail,
            Trigger::Nth(0),
            1,
        )));
        let g = generators::path(6);
        let (report, compiled) = batch.compile_instance("boom", "path", &g);
        assert!(compiled.is_none());
        assert_eq!(
            report.error.as_deref(),
            Some("injected fault: batch.compile")
        );
        let (ok, ok_compiled) = batch.compile_instance("fine", "path", &g);
        assert!(ok_compiled.is_some(), "only invocation 0 was armed");
        assert!(ok.ok());
    }

    #[test]
    fn repeated_content_hits_the_cache_and_matches_fresh_compiles() {
        let batch = BatchCompiler::new(quick_config());
        let g = generators::lattice(3, 3);
        let (first, compiled_first) = batch.compile_instance("a", "lattice", &g);
        let (second, compiled_second) = batch.compile_instance("b", "lattice", &g);
        assert_eq!(first.cache, CacheOutcome::Miss);
        assert_eq!(second.cache, CacheOutcome::Hit);
        // The hit serves the miss's verified result itself.
        let (first, second) = (compiled_first.unwrap(), compiled_second.unwrap());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            first.circuit,
            Pipeline::new(quick_config()).compile(&g).unwrap().circuit
        );
        // Only the miss ran the pipeline; the hit verified nothing again.
        let counts = batch.pipeline().counters();
        assert_eq!((counts.partition, counts.plan), (1, 1));
        assert_eq!(counts.verify, 1);
    }

    #[test]
    fn a_deadline_that_passes_after_planning_caches_nothing_in_memory() {
        use crate::faults::{FaultKind, FaultPlan, Trigger};
        let dir = std::env::temp_dir().join(format!("epgs-batch-late-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut batch = BatchCompiler::with_store(quick_config(), &dir).unwrap();
        // The store write sits between planning and the suffix; slowing it
        // past the deadline expires the request after a full-quality plan.
        batch.set_fault_plan(Arc::new(FaultPlan::new(7).rule_limited(
            faults::POINT_STORE_WRITE,
            FaultKind::Slow(600),
            Trigger::Always,
            1,
        )));
        let g = generators::path(6);
        let ctx = RequestCtx::with_timeout(std::time::Duration::from_millis(300));
        let (late, compiled) = batch.compile_instance_ctx("late", "path", &g, &ctx);
        assert!(compiled.is_none());
        assert!(late.timed_out && !late.degraded, "{late:?}");
        assert_eq!(late.cache, CacheOutcome::Miss);
        assert_eq!(batch.cache_len(), 0, "a timed-out result is not cached");
        assert_eq!(batch.pipeline().counters().verify, 0);
        // The plan itself was persisted as before: the next request reruns
        // only the suffix, and the one after it is a lookup.
        let (disk, _) = batch.compile_instance("disk", "path", &g);
        assert_eq!(disk.cache, CacheOutcome::DiskHit);
        assert_eq!(batch.cache_len(), 1);
        let (hit, _) = batch.compile_instance("hit", "path", &g);
        assert_eq!(hit.cache, CacheOutcome::Hit);
        let counts = batch.pipeline().counters();
        assert_eq!((counts.plan, counts.verify), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn relabeled_graphs_share_a_key_but_never_an_artifact() {
        let batch = BatchCompiler::new(quick_config());
        let g = generators::tree(9, 2);
        let perm: Vec<usize> = (0..9).map(|v| (v + 4) % 9).collect();
        let h = relabel(&g, &perm);
        assert_ne!(g, h, "permutation must change the labeling");
        assert_eq!(canonical_hash(&g), canonical_hash(&h), "same content hash");

        let (a, ca) = batch.compile_instance("orig", "tree", &g);
        let (b, cb) = batch.compile_instance("relabel", "tree", &h);
        assert_eq!(a.cache, CacheOutcome::Miss);
        // Same bucket, different exact graph: observable collision, no
        // unsound reuse.
        assert_eq!(b.cache, CacheOutcome::Miss);
        assert_eq!(batch.cache_stats().bucket_collisions, 1);
        // Both compile and verify against their own labeling.
        assert!(ca.is_some() && cb.is_some());
        // Both labelings are now cached independently; each hits.
        assert_eq!(
            batch.compile_instance("g2", "tree", &g).0.cache,
            CacheOutcome::Hit
        );
        assert_eq!(
            batch.compile_instance("h2", "tree", &h).0.cache,
            CacheOutcome::Hit
        );
    }

    #[test]
    fn different_configs_fingerprint_and_cache_separately() {
        let g_max_4 = FrameworkConfig {
            partition: PartitionSpec {
                g_max: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let a = config_fingerprint(&quick_config());
        let b = config_fingerprint(&g_max_4);
        assert_ne!(a, b, "distinct configs must not share a fingerprint");
        assert_eq!(
            a,
            config_fingerprint(&quick_config()),
            "fingerprint is deterministic"
        );

        // Same graph under two compilers with different configs: both miss.
        let g = generators::path(6);
        let batch_a = BatchCompiler::new(quick_config());
        let batch_b = BatchCompiler::new(g_max_4);
        assert_eq!(
            batch_a.compile_instance("a", "path", &g).0.cache,
            CacheOutcome::Miss
        );
        assert_eq!(
            batch_b.compile_instance("b", "path", &g).0.cache,
            CacheOutcome::Miss
        );
    }

    #[test]
    fn evicted_entries_recompile_without_panicking() {
        let batch = BatchCompiler::new(quick_config());
        let g = generators::cycle(8);
        assert_eq!(
            batch.compile_instance("a", "cycle", &g).0.cache,
            CacheOutcome::Miss
        );
        assert_eq!(batch.evict(&g), 1);
        let (again, compiled) = batch.compile_instance("b", "cycle", &g);
        assert_eq!(
            again.cache,
            CacheOutcome::Miss,
            "eviction forces a recompile"
        );
        assert!(compiled.is_some());
        assert!(batch.cache_stats().evictions >= 1);
    }

    #[test]
    fn corrupted_entries_are_discarded_not_trusted() {
        let config = quick_config();
        let pipeline = Pipeline::new(config.clone());
        let g = generators::path(7);
        let wrong = generators::cycle(7);
        // Compile the WRONG graph and file it under `g`'s slot: the entry's
        // result was verified against a graph other than its own.
        let compiled_wrong = Arc::new(pipeline.compile(&wrong).unwrap());
        let key = CacheKey {
            canonical: canonical_hash(&g),
            config: config_fingerprint(&config),
        };
        let mut cache = ArtifactCache::new(8);
        cache.insert(key, g.clone(), compiled_wrong);
        // Lookup detects the inconsistency, discards, and reports a miss …
        assert!(cache.lookup(key, &g).is_none());
        assert_eq!(cache.stats().corrupt_discarded, 1);
        assert!(cache.is_empty());
        // … so the batch path recompiles and still verifies.
        let batch = BatchCompiler::new(config);
        let (report, compiled) = batch.compile_instance("g", "path", &g);
        assert!(report.ok());
        assert!(compiled.is_some());
    }

    #[test]
    fn lru_capacity_bound_holds() {
        let batch = BatchCompiler::with_cache_capacity(quick_config(), 2);
        for (i, g) in [
            generators::path(5),
            generators::path(6),
            generators::path(7),
        ]
        .iter()
        .enumerate()
        {
            batch.compile_instance(&format!("p{i}"), "path", g);
        }
        assert_eq!(batch.cache_len(), 2, "capacity bound enforced");
        assert_eq!(batch.cache_stats().evictions, 1);
        // The oldest entry (path-5) was evicted; the newest still hits.
        assert_eq!(
            batch
                .compile_instance("again", "path", &generators::path(7))
                .0
                .cache,
            CacheOutcome::Hit
        );
        assert_eq!(
            batch
                .compile_instance("reload", "path", &generators::path(5))
                .0
                .cache,
            CacheOutcome::Miss
        );
    }

    #[test]
    fn batch_report_aggregates_families_and_histogram() {
        let batch = BatchCompiler::new(quick_config());
        let jobs = vec![
            BatchInstance::new("p5", "path", generators::path(5)),
            BatchInstance::new("p5-dup", "path", generators::path(5)),
            BatchInstance::new("t9", "tree", generators::tree(9, 2)),
            BatchInstance::new("l33", "lattice", generators::lattice(3, 3)),
        ];
        let report = batch.run(&jobs);
        assert_eq!(report.succeeded, 4);
        assert_eq!(report.failed, 0);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.distinct_canonical, 3);
        assert_eq!(report.families.len(), 3);
        let path = &report.families[0];
        assert_eq!((path.family.as_str(), path.instances), ("path", 2));
        assert_eq!(path.cache_hits, 1);
        assert_eq!(report.wall_histogram.iter().sum::<usize>(), 4);
        assert_eq!(report.instances.len(), 4);

        // JSON renders and mentions every instance id.
        let json = report.to_json();
        for id in ["p5", "p5-dup", "t9", "l33"] {
            assert!(json.contains(&format!("\"id\":\"{id}\"")), "{id}");
        }
        assert!(json.contains("\"succeeded\":4"));
    }

    #[test]
    fn json_escaping_handles_awkward_ids() {
        let batch = BatchCompiler::new(quick_config());
        let report = batch.run(&[BatchInstance::new(
            "a\"b\\c\nd",
            "path",
            generators::path(5),
        )]);
        let json = report.to_json();
        assert!(json.contains("\"id\":\"a\\\"b\\\\c\\nd\""));
        // The whole document stays machine-readable.
        let doc = epgs_corpus::json::Value::parse(&json).expect("well-formed report");
        assert_eq!(doc.get("succeeded").and_then(|v| v.as_f64()), Some(1.0));
    }

    #[test]
    fn with_store_layers_memory_then_disk_then_compile() {
        let dir = std::env::temp_dir().join(format!("epgs-batch-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = generators::lattice(3, 3);
        {
            let batch = BatchCompiler::with_store(quick_config(), &dir).unwrap();
            let (cold, _) = batch.compile_instance("cold", "lattice", &g);
            assert_eq!(cold.cache, CacheOutcome::Miss);
            // Same process: the memory layer answers first.
            let (warm, _) = batch.compile_instance("warm", "lattice", &g);
            assert_eq!(warm.cache, CacheOutcome::Hit);
            assert_eq!(batch.store().unwrap().stats().writes, 1);
        }
        // "New process": fresh compiler, same directory → disk hit, and the
        // artifact is promoted so the next lookup is a memory hit.
        let batch = BatchCompiler::with_store(quick_config(), &dir).unwrap();
        let (restart, compiled) = batch.compile_instance("restart", "lattice", &g);
        assert_eq!(restart.cache, CacheOutcome::DiskHit);
        assert!(compiled.is_some());
        assert_eq!(
            batch.compile_instance("again", "lattice", &g).0.cache,
            CacheOutcome::Hit
        );
        // Disk adoption skipped the expensive stages entirely.
        let counts = batch.pipeline().counters();
        assert_eq!((counts.partition, counts.plan), (0, 0));
        // The report surfaces the layered outcome.
        let report = batch.run(&[BatchInstance::new("r", "lattice", g.clone())]);
        assert_eq!(report.cache_hits, 1);
        assert!(report.store.is_some());
        assert!(report.to_json().contains("\"store\":{"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
