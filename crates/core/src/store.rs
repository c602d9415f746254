//! Content-addressed on-disk store of [`Planned`] artifacts — the durable,
//! cross-process layer under the in-memory [`ArtifactCache`](crate::ArtifactCache).
//!
//! # Layout
//!
//! One directory, one file per artifact:
//!
//! ```text
//! <dir>/<canonical:16hex>-<config:16hex>-<exact:16hex>.art.json
//! ```
//!
//! `canonical` is the label-invariant WL hash, `config` the configuration
//! fingerprint (together the [`CacheKey`]), and `exact` a hash of the exact
//! labeled graph — so two relabelings that share a cache key store side by
//! side instead of clobbering each other, mirroring the in-memory cache's
//! bucket-of-exact-graphs shape. Files are written to a temporary name and
//! atomically renamed into place, so concurrent workers sharing one
//! directory never observe a half-written artifact.
//!
//! # Guarantees
//!
//! * **Exact-graph confirmation** — a load only hits when the decoded
//!   target equals the requested graph byte for byte; relabelings and hash
//!   collisions are observable misses, never unsound reuse.
//! * **Corruption degrades to recompile** — truncated, bit-flipped, or
//!   schema-violating files are deleted on load and counted in
//!   [`StoreStats::corrupt_discarded`]; version-mismatched files are
//!   deleted and counted in [`StoreStats::version_rejected`].
//! * **Two strikes and quarantined** — a name whose file fails the
//!   corruption check *twice* is renamed to `<name>.quarantine` instead of
//!   deleted, and is never read or rewritten again by this process (or any
//!   later one: quarantine files are re-detected at open). A recurring bad
//!   entry — a flaky sector, a writer bug — cannot be served and cannot
//!   churn through a delete/rewrite loop.
//! * **I/O retry with capped backoff** — transient read/write failures are
//!   retried up to 3 attempts (1–2 ms backoff) and counted in
//!   [`StoreStats::read_retries`] / [`StoreStats::write_retries`]; a
//!   missing file is a plain miss, never retried.
//! * **Crash-orphan sweep** — `open` deletes `.tmp-*` files abandoned by a
//!   crash between write and rename, counted in [`StoreStats::tmp_swept`].
//! * **LRU byte budget** — the store tracks total bytes and evicts
//!   least-recently-used files when a write pushes it past the budget.
//! * **Versioned manifest** — every entry-set mutation commits a
//!   generation-numbered, checksummed manifest (`manifest-<gen:16hex>.json`,
//!   tmp + rename atomic like the artifacts themselves) recording the
//!   expected entry set, per-entry LRU clocks, and byte accounting. Reopened
//!   stores recover exact recency from the manifest instead of coarse file
//!   mtimes; when no manifest survives, mtime order with a deterministic
//!   name tie-break is the fallback.
//! * **`fsck` at open** — [`ArtifactStore::open`] reconciles the manifest
//!   against the directory: orphaned artifacts (crash after rename, before
//!   the manifest commit) are re-indexed, empty orphans discarded, files
//!   whose size disagrees with the manifest quarantined as torn, manifest
//!   entries without a file dropped, stale manifest generations deleted, and
//!   byte accounting rebuilt from a directory walk. The outcome is a
//!   structured [`RecoveryReport`]; [`ArtifactStore::fsck`] re-runs the same
//!   pass on a live handle.
//!
//! For fault-injection testing a seeded [`FaultPlan`] can be armed on the
//! handle (points [`POINT_STORE_READ`](crate::faults::POINT_STORE_READ) /
//! [`POINT_STORE_WRITE`](crate::faults::POINT_STORE_WRITE)); unarmed
//! handles skip the probes entirely. Crash-only boundary points
//! (`store.write.tmp`, `store.write.rename`, `store.evict`,
//! `store.quarantine`, `store.manifest`) sit at every byte-persistence
//! boundary so a [`FaultKind::Crash`] rule can kill the process between any
//! two filesystem effects; see `ARCHITECTURE.md`, "Failure model".

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use epgs_corpus::json::{Value, Writer};
use epgs_graph::canon::fnv1a_all;
use epgs_graph::Graph;

use crate::artifact::{self, ArtifactError};
use crate::batch::CacheKey;
use crate::faults::{self, lock_recover, FaultKind, FaultPlan};
use crate::stages::{Pipeline, Planned};

/// Filename suffix of every artifact in a store directory.
const SUFFIX: &str = ".art.json";

/// Filename suffix of quarantined (never re-read) artifacts.
const QUARANTINE_SUFFIX: &str = ".quarantine";

/// Manifest filename shape: `manifest-<generation:16hex>.json`.
const MANIFEST_PREFIX: &str = "manifest-";
/// Manifest filename suffix (see [`MANIFEST_PREFIX`]).
const MANIFEST_SUFFIX: &str = ".json";
/// `format` field of every manifest document.
const MANIFEST_FORMAT: &str = "epgs-manifest";
/// Manifest schema version; other versions are treated as stale.
const MANIFEST_VERSION: u64 = 1;

/// Read/write attempts per operation (1 initial + 2 retries).
const MAX_IO_ATTEMPTS: u32 = 3;

/// Corruption strikes against one name before it is quarantined.
const QUARANTINE_STRIKES: u32 = 2;

/// Process-wide counter making temporary file names unique.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Hash of the *exact* labeled graph (vertex count + sorted edge list) —
/// the third filename component, which separates relabelings that share a
/// [`CacheKey`].
pub fn exact_graph_hash(g: &Graph) -> u64 {
    fnv1a_all(
        std::iter::once(g.vertex_count() as u64)
            .chain(g.edges().flat_map(|(a, b)| [a as u64, b as u64])),
    )
}

/// Cumulative counters of one [`ArtifactStore`] handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads that returned a stored artifact.
    pub disk_hits: usize,
    /// Loads that found nothing reusable.
    pub disk_misses: usize,
    /// Files discarded because they failed the grammar, schema, or
    /// checksum check — counted within `disk_misses`.
    pub corrupt_discarded: usize,
    /// Files discarded because their schema version is unsupported —
    /// counted within `disk_misses`.
    pub version_rejected: usize,
    /// Loads whose file held a *different* exact graph under the same name
    /// (exact-hash collision) — counted within `disk_misses`.
    pub exact_collisions: usize,
    /// Files evicted by the byte-budget LRU bound.
    pub evictions: usize,
    /// Successful artifact writes.
    pub writes: usize,
    /// Writes that failed at the filesystem level (artifact dropped, the
    /// compile result itself is unaffected).
    pub write_errors: usize,
    /// Names quarantined after failing the corruption check twice — their
    /// files are renamed to `.quarantine` and never read again.
    pub quarantined: usize,
    /// Orphaned `.tmp-*` files (crash between write and rename) deleted by
    /// [`ArtifactStore::open`].
    pub tmp_swept: usize,
    /// Load attempts retried after a transient read failure.
    pub read_retries: usize,
    /// Save attempts retried after a transient write failure.
    pub write_retries: usize,
    /// Manifest generations committed (tmp write + rename) by this handle.
    pub manifest_commits: usize,
}

/// What the `fsck` pass at [`ArtifactStore::open`] (or an explicit
/// [`ArtifactStore::fsck`]) found and repaired while reconciling the
/// manifest against the directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a valid manifest generation was found and loaded.
    pub manifest_found: bool,
    /// Generation number of the loaded manifest (0 when none was found).
    pub manifest_generation: u64,
    /// Stale, torn, or unreadable manifest generations deleted.
    pub stale_manifests_deleted: usize,
    /// Entries the loaded manifest expected to exist.
    pub entries_expected: usize,
    /// Artifacts present on disk but missing from the manifest (crash after
    /// rename, before the manifest commit) that were re-indexed.
    pub orphans_reindexed: usize,
    /// Empty orphaned artifact files discarded outright.
    pub orphans_discarded: usize,
    /// Manifest entries whose file no longer exists (crash after unlink,
    /// before the manifest commit) dropped from the index.
    pub missing_dropped: usize,
    /// Files whose on-disk size disagrees with the manifest record, renamed
    /// to `.quarantine` as torn.
    pub torn_quarantined: usize,
    /// Orphaned `.tmp-*` files (crash between write and rename) deleted.
    pub tmp_swept: usize,
    /// Total artifact bytes indexed after reconciliation (rebuilt from the
    /// directory walk, never trusted from the manifest).
    pub recovered_bytes: u64,
}

impl RecoveryReport {
    /// Whether the directory matched the manifest exactly — nothing was
    /// repaired, discarded, or rebuilt. A store that just recovered from a
    /// crash reports a dirty pass once; the next pass must be clean.
    pub fn is_clean(&self) -> bool {
        self.stale_manifests_deleted == 0
            && self.orphans_reindexed == 0
            && self.orphans_discarded == 0
            && self.missing_dropped == 0
            && self.torn_quarantined == 0
            && self.tmp_swept == 0
            && (self.manifest_found || self.entries_expected == 0 && self.recovered_bytes == 0)
    }
}

#[derive(Debug)]
struct FileEntry {
    bytes: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct StoreIndex {
    files: HashMap<String, FileEntry>,
    total_bytes: u64,
    clock: u64,
    stats: StoreStats,
    /// Corruption strikes per name; at [`QUARANTINE_STRIKES`] the name
    /// moves to `quarantined`.
    strikes: HashMap<String, u32>,
    /// Names never read or written again (file renamed to `.quarantine`).
    quarantined: HashSet<String>,
    /// Manifest generation counter (next commit uses `generation + 1`).
    generation: u64,
    /// Generation of the last successfully committed manifest file.
    committed: Option<u64>,
    /// What the most recent `fsck` pass found.
    recovery: RecoveryReport,
    /// Whether in-memory state (LRU clocks) has drifted from the committed
    /// manifest. Entry-set mutations commit immediately; touch-only drift
    /// is flushed by `Drop`, so clean shutdown persists exact recency.
    dirty: bool,
}

impl StoreIndex {
    fn touch(&mut self, name: &str) {
        self.clock += 1;
        if let Some(e) = self.files.get_mut(name) {
            e.last_used = self.clock;
            self.dirty = true;
        }
    }

    fn remove(&mut self, name: &str) {
        if let Some(e) = self.files.remove(name) {
            self.total_bytes -= e.bytes;
        }
    }
}

/// A parsed, checksum-validated manifest generation.
struct ManifestData {
    generation: u64,
    clock: u64,
    /// `(name, bytes, last_used)` per expected entry.
    entries: Vec<(String, u64, u64)>,
    quarantined: Vec<String>,
}

fn manifest_file_name(generation: u64) -> String {
    format!("{MANIFEST_PREFIX}{generation:016x}{MANIFEST_SUFFIX}")
}

/// Extracts the generation from a manifest filename, if it is one.
fn manifest_generation(name: &str) -> Option<u64> {
    let hex = name
        .strip_prefix(MANIFEST_PREFIX)?
        .strip_suffix(MANIFEST_SUFFIX)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Serializes the expected entry set as a manifest document — the same
/// checksummed envelope discipline as the artifacts (entries sorted by
/// name, so identical states render identical bytes).
fn render_manifest(generation: u64, index: &StoreIndex) -> String {
    let mut p = Writer::with_capacity(64 + index.files.len() * 96);
    p.begin_obj();
    p.field_uint("clock", index.clock);
    p.key("entries");
    p.begin_arr();
    let mut names: Vec<&String> = index.files.keys().collect();
    names.sort();
    for name in names {
        let e = &index.files[name.as_str()];
        p.begin_obj();
        p.field_str("name", name);
        p.field_uint("bytes", e.bytes);
        p.field_uint("used", e.last_used);
        p.end_obj();
    }
    p.end_arr();
    p.key("quarantined");
    p.begin_arr();
    let mut quarantined: Vec<&String> = index.quarantined.iter().collect();
    quarantined.sort();
    for name in quarantined {
        p.string(name);
    }
    p.end_arr();
    p.end_obj();
    let payload = p.finish();
    let mut w = Writer::with_capacity(payload.len() + 128);
    w.begin_obj();
    w.field_str("format", MANIFEST_FORMAT);
    w.field_uint("version", MANIFEST_VERSION);
    w.field_hex("generation", generation);
    w.field_hex("checksum", artifact::checksum_bytes(payload.as_bytes()));
    w.field_raw("payload", &payload);
    w.end_obj();
    w.finish()
}

/// Parses and validates a manifest document; any structural problem —
/// bad JSON, wrong format or version, checksum mismatch — is `None`
/// (the generation is treated as stale and deleted by `fsck`).
fn parse_manifest(text: &str) -> Option<ManifestData> {
    let doc = Value::parse(text).ok()?;
    if doc.get("format")?.as_str()? != MANIFEST_FORMAT
        || doc.get("version")?.as_u64()? != MANIFEST_VERSION
    {
        return None;
    }
    let hex16 = |v: &Value| -> Option<u64> {
        let s = v.as_str()?;
        (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok())?
    };
    let generation = hex16(doc.get("generation")?)?;
    let checksum = hex16(doc.get("checksum")?)?;
    let payload = doc.get("payload")?;
    if artifact::checksum_bytes(payload.to_string().as_bytes()) != checksum {
        return None;
    }
    let mut entries = Vec::new();
    for e in payload.get("entries")?.as_arr()? {
        entries.push((
            e.get("name")?.as_str()?.to_string(),
            e.get("bytes")?.as_u64()?,
            e.get("used")?.as_u64()?,
        ));
    }
    let mut quarantined = Vec::new();
    for q in payload.get("quarantined")?.as_arr()? {
        quarantined.push(q.as_str()?.to_string());
    }
    Some(ManifestData {
        generation,
        clock: payload.get("clock")?.as_u64()?,
        entries,
        quarantined,
    })
}

/// A content-addressed, byte-budgeted, crash-tolerant directory of
/// serialized [`Planned`] artifacts. See the [module docs](self) for the
/// layout and guarantees.
///
/// The handle is internally synchronized: `&self` methods are safe to call
/// from many threads. Multiple *processes* may share one directory — writes
/// are atomic renames and every load re-validates the file — though each
/// process tracks recency and byte totals independently.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    budget: u64,
    index: Mutex<StoreIndex>,
    faults: Option<Arc<FaultPlan>>,
}

impl ArtifactStore {
    /// Default byte budget: 256 MiB.
    pub const DEFAULT_BYTE_BUDGET: u64 = 256 << 20;

    /// Opens (creating if needed) the store at `dir` with the default byte
    /// budget.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating or scanning `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with_budget(dir, Self::DEFAULT_BYTE_BUDGET)
    }

    /// Opens the store at `dir`, bounding it to `budget_bytes` (clamped to
    /// ≥ 1). Opening runs the `fsck` recovery pass (see the [module
    /// docs](self)): the manifest is reconciled against a directory walk,
    /// crash leftovers are repaired, and the reconciled state is committed
    /// as a fresh manifest generation. If the recovered artifacts already
    /// exceed the budget, the least recently used are evicted immediately.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating or scanning `dir`.
    pub fn open_with_budget(dir: impl AsRef<Path>, budget_bytes: u64) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let store = ArtifactStore {
            dir,
            budget: budget_bytes.max(1),
            index: Mutex::new(StoreIndex::default()),
            faults: None,
        };
        let mut index = lock_recover(&store.index);
        store.reconcile(&mut index)?;
        store.evict_over_budget(&mut index);
        store.commit_manifest(&mut index);
        drop(index);
        Ok(store)
    }

    /// The `fsck` pass: walks the directory, loads the newest valid
    /// manifest generation, repairs every discrepancy between them, and
    /// rebuilds the in-memory index (preserving cumulative stats and
    /// strikes). See [`RecoveryReport`] for the repair taxonomy.
    fn reconcile(&self, index: &mut StoreIndex) -> io::Result<()> {
        let mut report = RecoveryReport::default();
        let mut artifacts: Vec<(String, u64, SystemTime)> = Vec::new();
        let mut manifests: Vec<u64> = Vec::new();
        let mut quarantined: HashSet<String> = HashSet::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            if name.starts_with(".tmp-") {
                // Orphan from a crash between write and rename — artifact
                // or manifest temp alike, never renamed, never trusted.
                let _ = fs::remove_file(entry.path());
                report.tmp_swept += 1;
                continue;
            }
            if let Some(original) = name.strip_suffix(QUARANTINE_SUFFIX) {
                quarantined.insert(original.to_string());
                continue;
            }
            if let Some(generation) = manifest_generation(&name) {
                manifests.push(generation);
                continue;
            }
            if !name.ends_with(SUFFIX) {
                continue;
            }
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            artifacts.push((name, meta.len(), mtime));
        }

        // Newest valid manifest generation wins; every other generation —
        // older, torn, or unreadable — is stale and deleted.
        manifests.sort_unstable_by(|a, b| b.cmp(a));
        let mut manifest: Option<ManifestData> = None;
        for &generation in &manifests {
            let path = self.dir.join(manifest_file_name(generation));
            if manifest.is_none() {
                if let Some(data) = fs::read_to_string(&path)
                    .ok()
                    .as_deref()
                    .and_then(parse_manifest)
                {
                    manifest = Some(data);
                    continue;
                }
            }
            let _ = fs::remove_file(&path);
            report.stale_manifests_deleted += 1;
        }

        let mut expected: HashMap<String, (u64, u64)> = HashMap::new();
        let mut clock = 0;
        let mut generation = 0;
        if let Some(data) = &manifest {
            report.manifest_found = true;
            report.manifest_generation = data.generation;
            report.entries_expected = data.entries.len();
            generation = data.generation;
            clock = data.clock;
            for (name, bytes, used) in &data.entries {
                expected.insert(name.clone(), (*bytes, *used));
            }
            for name in &data.quarantined {
                quarantined.insert(name.clone());
            }
        }

        // Oldest first so fallback clocks reproduce on-disk recency; the
        // name tie-break keeps coarse-mtime collisions deterministic.
        artifacts.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut files: HashMap<String, FileEntry> = HashMap::new();
        let mut total_bytes = 0;
        for (name, bytes, _) in artifacts {
            if quarantined.contains(&name) {
                // A plain file next to its .quarantine marker: a crash
                // between quarantine rename and commit cannot produce this
                // (rename moves the file), so it is a rewrite from an old
                // process — quarantine wins, the file is never served.
                let _ = fs::remove_file(self.dir.join(&name));
                continue;
            }
            match expected.remove(&name) {
                Some((recorded, used)) if recorded == bytes => {
                    total_bytes += bytes;
                    files.insert(
                        name,
                        FileEntry {
                            bytes,
                            last_used: used,
                        },
                    );
                }
                Some(_) => {
                    // Size disagrees with the manifest: torn or tampered.
                    let _ = fs::rename(
                        self.dir.join(&name),
                        self.dir.join(format!("{name}{QUARANTINE_SUFFIX}")),
                    );
                    quarantined.insert(name);
                    report.torn_quarantined += 1;
                }
                None if bytes == 0 => {
                    let _ = fs::remove_file(self.dir.join(&name));
                    report.orphans_discarded += 1;
                }
                None => {
                    // Crash after rename, before the manifest commit: the
                    // artifact is whole (renames are atomic) but untracked.
                    // Re-index it as most recent; its checksum is still
                    // validated on every load.
                    clock += 1;
                    total_bytes += bytes;
                    files.insert(
                        name,
                        FileEntry {
                            bytes,
                            last_used: clock,
                        },
                    );
                    report.orphans_reindexed += 1;
                }
            }
        }
        // Whatever the manifest still expects has no file behind it — a
        // crash between unlink and commit, or outside deletion.
        report.missing_dropped = expected.len();
        report.recovered_bytes = total_bytes;

        index.files = files;
        index.total_bytes = total_bytes;
        index.clock = clock.max(index.clock);
        index.generation = generation.max(index.generation);
        index.committed = report.manifest_found.then_some(generation);
        index.quarantined = quarantined;
        index.stats.quarantined = index.quarantined.len();
        index.stats.tmp_swept += report.tmp_swept;
        index.recovery = report;
        Ok(())
    }

    /// Commits the expected entry set as the next manifest generation:
    /// tmp write, crash probe, atomic rename, then best-effort deletion of
    /// the previous generation. A failed commit is absorbed — the prior
    /// generation stays authoritative and `fsck` re-indexes the difference
    /// as orphans on the next open.
    fn commit_manifest(&self, index: &mut StoreIndex) {
        index.generation += 1;
        let generation = index.generation;
        let doc = render_manifest(generation, index);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let committed = fs::write(&tmp, doc.as_bytes())
            .and_then(|()| {
                if let Some(f) = &self.faults {
                    f.at(faults::POINT_STORE_MANIFEST);
                }
                fs::rename(&tmp, self.dir.join(manifest_file_name(generation)))
            })
            .is_ok();
        if committed {
            index.stats.manifest_commits += 1;
            index.dirty = false;
            if let Some(prev) = index.committed.take() {
                let _ = fs::remove_file(self.dir.join(manifest_file_name(prev)));
            }
            index.committed = Some(generation);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Re-runs the `fsck` recovery pass on a live handle: reconciles the
    /// manifest against the directory, repairs discrepancies, commits the
    /// reconciled state, and returns what it found. On a healthy store the
    /// report [is clean](RecoveryReport::is_clean).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from scanning the directory.
    pub fn fsck(&self) -> io::Result<RecoveryReport> {
        let mut index = lock_recover(&self.index);
        self.reconcile(&mut index)?;
        self.evict_over_budget(&mut index);
        self.commit_manifest(&mut index);
        Ok(index.recovery)
    }

    /// What the most recent `fsck` pass (at open, or an explicit
    /// [`ArtifactStore::fsck`]) found and repaired.
    pub fn recovery(&self) -> RecoveryReport {
        lock_recover(&self.index).recovery
    }

    /// Arms a fault-injection plan on this handle (chaos testing); every
    /// later load/save probes the plan's `store.read` / `store.write`
    /// points. Handles without a plan skip the probes entirely.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.faults = Some(plan);
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of artifacts currently indexed.
    pub fn len(&self) -> usize {
        lock_recover(&self.index).files.len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total indexed artifact bytes.
    pub fn total_bytes(&self) -> u64 {
        lock_recover(&self.index).total_bytes
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> StoreStats {
        lock_recover(&self.index).stats
    }

    fn file_name(key: CacheKey, exact: u64) -> String {
        format!(
            "{:016x}-{:016x}-{exact:016x}{SUFFIX}",
            key.canonical, key.config
        )
    }

    /// Reads the file behind an artifact, retrying transient failures with
    /// capped backoff and applying any armed read faults. Returns the text,
    /// the retry count, and whether a definitive not-found was seen (which
    /// is a plain miss, never retried).
    fn read_with_retry(&self, path: &Path) -> (Option<String>, usize, bool) {
        let mut retries = 0;
        for attempt in 0..MAX_IO_ATTEMPTS {
            if attempt > 0 {
                retries += 1;
                std::thread::sleep(Duration::from_millis(1 << (attempt - 1)));
            }
            let injected = self
                .faults
                .as_ref()
                .and_then(|f| f.at(faults::POINT_STORE_READ));
            if let Some(FaultKind::Slow(ms)) = injected {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if matches!(
                injected,
                Some(FaultKind::IoError | FaultKind::Fail | FaultKind::Panic)
            ) {
                continue; // this attempt fails
            }
            match fs::read_to_string(path) {
                Ok(mut text) => {
                    if matches!(injected, Some(FaultKind::BitFlip)) {
                        if let Some(f) = &self.faults {
                            f.corrupt_text(&mut text);
                        }
                    }
                    return (Some(text), retries, false);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => return (None, retries, true),
                Err(_) => continue,
            }
        }
        (None, retries, false)
    }

    /// Loads the artifact for exactly `graph` under `key`, binding it to
    /// `pipeline`. Any invalid file encountered is deleted on first strike
    /// and quarantined on second; see [`StoreStats`] for the per-cause
    /// counters and the [module docs](self) for the retry and quarantine
    /// policies.
    pub fn load(&self, key: CacheKey, graph: &Graph, pipeline: &Pipeline) -> Option<Planned> {
        let name = Self::file_name(key, exact_graph_hash(graph));
        let path = self.dir.join(&name);
        if lock_recover(&self.index).quarantined.contains(&name) {
            lock_recover(&self.index).stats.disk_misses += 1;
            return None;
        }
        // I/O runs outside the index lock: backoff sleeps and injected
        // stalls must not serialize unrelated loads.
        let (text, retries, _not_found) = self.read_with_retry(&path);
        let mut index = lock_recover(&self.index);
        index.stats.read_retries += retries;
        let Some(text) = text else {
            // Absent here but present in the index means another process
            // evicted it; resynchronize. Persistent read failure lands
            // here too — a miss (recompile), not a request failure.
            if index.files.contains_key(&name) {
                index.remove(&name);
                self.commit_manifest(&mut index);
            }
            index.stats.disk_misses += 1;
            return None;
        };
        match artifact::decode(&text, key, pipeline) {
            Ok(planned) if planned.target() == graph => {
                let discovered = !index.files.contains_key(&name);
                if discovered {
                    // Written by another process since our scan.
                    index.total_bytes += text.len() as u64;
                    index.files.insert(
                        name.clone(),
                        FileEntry {
                            bytes: text.len() as u64,
                            last_used: 0,
                        },
                    );
                }
                index.touch(&name);
                index.stats.disk_hits += 1;
                if discovered {
                    self.commit_manifest(&mut index);
                }
                Some(planned)
            }
            Ok(_) => {
                // An exact-hash collision: the file belongs to a different
                // labeling. Leave it — it is somebody's valid artifact.
                index.stats.exact_collisions += 1;
                index.stats.disk_misses += 1;
                None
            }
            Err(ArtifactError::VersionMismatch { .. }) => {
                index.stats.version_rejected += 1;
                index.stats.disk_misses += 1;
                index.remove(&name);
                let _ = fs::remove_file(&path);
                self.commit_manifest(&mut index);
                None
            }
            Err(_) => {
                index.stats.corrupt_discarded += 1;
                index.stats.disk_misses += 1;
                index.remove(&name);
                let strikes = index.strikes.entry(name.clone()).or_insert(0);
                *strikes += 1;
                if *strikes >= QUARANTINE_STRIKES {
                    index.quarantined.insert(name.clone());
                    index.stats.quarantined = index.quarantined.len();
                    let _ = fs::rename(&path, self.dir.join(format!("{name}{QUARANTINE_SUFFIX}")));
                    // Crash boundary: file renamed to quarantine, manifest
                    // still lists the live name.
                    if let Some(f) = &self.faults {
                        f.at(faults::POINT_STORE_QUARANTINE);
                    }
                } else {
                    let _ = fs::remove_file(&path);
                }
                self.commit_manifest(&mut index);
                None
            }
        }
    }

    /// Stores `planned` under `key`, atomically (tmp file + rename), then
    /// enforces the byte budget. Transient filesystem failures are retried
    /// with capped backoff; a write that still fails is absorbed into
    /// [`StoreStats::write_errors`] — a failed artifact write must never
    /// fail the compilation that produced it. Quarantined names are never
    /// rewritten.
    pub fn save(&self, key: CacheKey, planned: &Planned) {
        let text = artifact::encode(planned, key);
        let name = Self::file_name(key, exact_graph_hash(planned.target()));
        if lock_recover(&self.index).quarantined.contains(&name) {
            return;
        }
        let mut retries = 0;
        let mut written = false;
        for attempt in 0..MAX_IO_ATTEMPTS {
            if attempt > 0 {
                retries += 1;
                std::thread::sleep(Duration::from_millis(1 << (attempt - 1)));
            }
            let injected = self
                .faults
                .as_ref()
                .and_then(|f| f.at(faults::POINT_STORE_WRITE));
            if let Some(FaultKind::Slow(ms)) = injected {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if matches!(
                injected,
                Some(FaultKind::IoError | FaultKind::Fail | FaultKind::Panic)
            ) {
                continue; // this attempt fails
            }
            // A bit-flip fault silently persists a corrupted payload (same
            // length) — the load path's checksum must catch it later.
            let payload = if matches!(injected, Some(FaultKind::BitFlip)) {
                let mut corrupted = text.clone();
                if let Some(f) = &self.faults {
                    f.corrupt_text(&mut corrupted);
                }
                std::borrow::Cow::Owned(corrupted)
            } else {
                std::borrow::Cow::Borrowed(text.as_str())
            };
            let tmp = self.dir.join(format!(
                ".tmp-{}-{}",
                std::process::id(),
                TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            match fs::write(&tmp, payload.as_bytes()).and_then(|()| {
                // Crash boundary: temp bytes durable, rename pending.
                if let Some(f) = &self.faults {
                    f.at(faults::POINT_STORE_WRITE_TMP);
                }
                fs::rename(&tmp, self.dir.join(&name))
            }) {
                Ok(()) => {
                    // Crash boundary: artifact in place, manifest stale —
                    // the exact window fsck repairs as an orphan.
                    if let Some(f) = &self.faults {
                        f.at(faults::POINT_STORE_WRITE_RENAME);
                    }
                    written = true;
                    break;
                }
                Err(_) => {
                    let _ = fs::remove_file(&tmp);
                }
            }
        }
        let mut index = lock_recover(&self.index);
        index.stats.write_retries += retries;
        if written {
            index.remove(&name); // overwrite: drop the old byte count
            index.clock += 1;
            let clock = index.clock;
            index.total_bytes += text.len() as u64;
            index.files.insert(
                name,
                FileEntry {
                    bytes: text.len() as u64,
                    last_used: clock,
                },
            );
            index.stats.writes += 1;
            self.evict_over_budget(&mut index);
            self.commit_manifest(&mut index);
        } else {
            index.stats.write_errors += 1;
        }
    }

    /// Deletes every artifact stored under `key` (any exact labeling);
    /// returns how many files were removed.
    pub fn evict(&self, key: CacheKey) -> usize {
        let prefix = format!("{:016x}-{:016x}-", key.canonical, key.config);
        let mut index = lock_recover(&self.index);
        let victims: Vec<String> = index
            .files
            .keys()
            .filter(|name| name.starts_with(&prefix))
            .cloned()
            .collect();
        for name in &victims {
            index.remove(name);
            index.stats.evictions += 1;
            let _ = fs::remove_file(self.dir.join(name));
            // Crash boundary: file gone, manifest still lists it — fsck
            // drops the entry as missing.
            if let Some(f) = &self.faults {
                f.at(faults::POINT_STORE_EVICT);
            }
        }
        if !victims.is_empty() {
            self.commit_manifest(&mut index);
        }
        victims.len()
    }

    /// Evicts least-recently-used files until the byte budget holds.
    fn evict_over_budget(&self, index: &mut StoreIndex) {
        while index.total_bytes > self.budget && index.files.len() > 1 {
            let victim = index
                .files
                .iter()
                .min_by_key(|(name, e)| (e.last_used, (*name).clone()))
                .map(|(name, _)| name.clone())
                .expect("non-empty index");
            index.remove(&victim);
            index.stats.evictions += 1;
            let _ = fs::remove_file(self.dir.join(&victim));
            // Crash boundary: same unlink-before-commit window as evict.
            if let Some(f) = &self.faults {
                f.at(faults::POINT_STORE_EVICT);
            }
        }
    }
}

impl Drop for ArtifactStore {
    /// Flushes touch-only LRU drift as a final manifest generation, so a
    /// cleanly closed store reopens with exact recency. Best-effort: a
    /// crash skips this and `fsck` recovers from the last commit instead.
    fn drop(&mut self) {
        let mut index = lock_recover(&self.index);
        if index.dirty {
            self.commit_manifest(&mut index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::config_fingerprint;
    use crate::config::quick_config;
    use epgs_graph::canon::{canonical_hash, relabel};
    use epgs_graph::generators;

    fn quick_pipeline() -> Pipeline {
        Pipeline::new(quick_config())
    }

    fn key_for(pipeline: &Pipeline, g: &Graph) -> CacheKey {
        CacheKey {
            canonical: canonical_hash(g),
            config: config_fingerprint(pipeline.config()),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "epgs-store-{tag}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trips_and_survives_reopen() {
        let dir = tmp_dir("roundtrip");
        let pipeline = quick_pipeline();
        let g = generators::lattice(3, 3);
        let key = key_for(&pipeline, &g);
        let planned = pipeline.partition(&g).plan_leaves().unwrap();
        {
            let store = ArtifactStore::open(&dir).unwrap();
            assert!(store.load(key, &g, &pipeline).is_none(), "cold store");
            store.save(key, &planned);
            assert_eq!(store.len(), 1);
            assert!(store.total_bytes() > 0);
            assert!(store.load(key, &g, &pipeline).is_some());
        }
        // A fresh handle (≈ a new process) sees the artifact.
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        let loaded = store.load(key, &g, &pipeline).expect("persisted artifact");
        assert_eq!(loaded.target(), &g);
        assert_eq!(loaded.partition(), planned.partition());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn relabelings_store_side_by_side() {
        let dir = tmp_dir("relabel");
        let pipeline = quick_pipeline();
        let g = generators::tree(9, 2);
        let perm: Vec<usize> = (0..9).map(|v| (v + 4) % 9).collect();
        let h = relabel(&g, &perm);
        assert_eq!(canonical_hash(&g), canonical_hash(&h));
        let key = key_for(&pipeline, &g);
        let store = ArtifactStore::open(&dir).unwrap();
        store.save(key, &pipeline.partition(&g).plan_leaves().unwrap());
        store.save(key, &pipeline.partition(&h).plan_leaves().unwrap());
        assert_eq!(store.len(), 2, "distinct labelings, distinct files");
        assert_eq!(store.load(key, &g, &pipeline).unwrap().target(), &g);
        assert_eq!(store.load(key, &h, &pipeline).unwrap().target(), &h);
        assert_eq!(store.evict(key), 2);
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        let dir = tmp_dir("lru");
        let pipeline = quick_pipeline();
        let graphs = [
            generators::path(6),
            generators::cycle(7),
            generators::tree(8, 2),
        ];
        let planned: Vec<Planned> = graphs
            .iter()
            .map(|g| pipeline.partition(g).plan_leaves().unwrap())
            .collect();
        let keys: Vec<CacheKey> = graphs.iter().map(|g| key_for(&pipeline, g)).collect();

        // Budget sized for roughly two artifacts: measure one first.
        let probe = ArtifactStore::open_with_budget(&dir, u64::MAX).unwrap();
        probe.save(keys[0], &planned[0]);
        let one = probe.total_bytes();
        probe.evict(keys[0]);

        let store = ArtifactStore::open_with_budget(&dir, one * 2 + one / 2).unwrap();
        store.save(keys[0], &planned[0]);
        store.save(keys[1], &planned[1]);
        // Touch #0 so #1 is now least recently used.
        assert!(store.load(keys[0], &graphs[0], &pipeline).is_some());
        store.save(keys[2], &planned[2]);
        assert!(store.stats().evictions >= 1);
        assert!(
            store.load(keys[1], &graphs[1], &pipeline).is_none(),
            "least-recently-used artifact was evicted"
        );
        assert!(store.load(keys[0], &graphs[0], &pipeline).is_some());
        assert!(store.load(keys[2], &graphs[2], &pipeline).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_bit_flipped_files_are_discarded() {
        let dir = tmp_dir("corrupt");
        let pipeline = quick_pipeline();
        let g = generators::cycle(8);
        let key = key_for(&pipeline, &g);
        let store = ArtifactStore::open(&dir).unwrap();
        let planned = pipeline.partition(&g).plan_leaves().unwrap();
        store.save(key, &planned);
        let name = ArtifactStore::file_name(key, exact_graph_hash(&g));
        let path = dir.join(&name);

        // Truncate: invalid JSON.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 3]).unwrap();
        assert!(store.load(key, &g, &pipeline).is_none());
        assert_eq!(store.stats().corrupt_discarded, 1);
        assert!(!path.exists(), "corrupt file deleted");

        // Bit flip inside a hex field: valid JSON, checksum mismatch. The
        // name's second corruption strike quarantines it instead of
        // deleting.
        store.save(key, &planned);
        let text = fs::read_to_string(&path).unwrap();
        let pos = text.find("\"t_loss\":\"").expect("t_loss field") + 10;
        let mut bytes = text.into_bytes();
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        fs::write(&path, bytes).unwrap();
        assert!(store.load(key, &g, &pipeline).is_none());
        let stats = store.stats();
        assert_eq!(stats.corrupt_discarded, 2);
        assert_eq!(stats.quarantined, 1);
        assert!(!path.exists(), "second strike renames the file away");
        let qpath = dir.join(format!("{name}{QUARANTINE_SUFFIX}"));
        assert!(qpath.exists(), "quarantine file kept for forensics");

        // Quarantined names refuse writes and miss on load without a
        // delete/rewrite churn loop.
        store.save(key, &planned);
        assert!(!path.exists(), "save against a quarantined name is a no-op");
        assert!(store.load(key, &g, &pipeline).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_survives_reopen_and_orphaned_tmp_files_are_swept() {
        let dir = tmp_dir("quarantine-reopen");
        let pipeline = quick_pipeline();
        let g = generators::cycle(8);
        let key = key_for(&pipeline, &g);
        let planned = pipeline.partition(&g).plan_leaves().unwrap();
        let name = ArtifactStore::file_name(key, exact_graph_hash(&g));
        {
            let store = ArtifactStore::open(&dir).unwrap();
            for _ in 0..2 {
                store.save(key, &planned);
                fs::write(dir.join(&name), "{").unwrap();
                assert!(store.load(key, &g, &pipeline).is_none());
            }
            assert_eq!(store.stats().quarantined, 1);
        }
        // Simulate a crash mid-write: an orphaned tmp file.
        fs::write(dir.join(".tmp-9999-0"), "half an artifact").unwrap();

        let store = ArtifactStore::open(&dir).unwrap();
        let stats = store.stats();
        assert_eq!(stats.quarantined, 1, "quarantine re-detected at open");
        assert_eq!(stats.tmp_swept, 1);
        assert!(!dir.join(".tmp-9999-0").exists());
        assert!(
            store.load(key, &g, &pipeline).is_none(),
            "a fresh process still refuses the quarantined entry"
        );
        store.save(key, &planned);
        assert!(!dir.join(&name).exists(), "still refuses writes");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_faults_retry_and_injected_write_faults_are_absorbed() {
        use crate::faults::{FaultKind, FaultPlan, Trigger};
        let dir = tmp_dir("faults");
        let pipeline = quick_pipeline();
        let g = generators::path(7);
        let key = key_for(&pipeline, &g);
        let planned = pipeline.partition(&g).plan_leaves().unwrap();

        let mut store = ArtifactStore::open(&dir).unwrap();
        // First read attempt fails, first whole save fails (all 3 write
        // attempts), second save's first attempt fails then succeeds.
        store.set_fault_plan(Arc::new(
            FaultPlan::new(11)
                .rule_limited(
                    faults::POINT_STORE_READ,
                    FaultKind::IoError,
                    Trigger::Nth(0),
                    1,
                )
                .rule_limited(
                    faults::POINT_STORE_WRITE,
                    FaultKind::IoError,
                    Trigger::Always,
                    4,
                ),
        ));
        store.save(key, &planned);
        let stats = store.stats();
        assert_eq!(stats.write_errors, 1, "3 failed attempts = 1 failed save");
        assert_eq!(stats.write_retries, 2);
        store.save(key, &planned);
        let stats = store.stats();
        assert_eq!(stats.writes, 1, "second save survives on retry");
        assert_eq!(stats.write_retries, 3);
        let loaded = store.load(key, &g, &pipeline);
        assert!(loaded.is_some(), "read survives the injected failure");
        let stats = store.stats();
        assert_eq!(stats.read_retries, 1);
        assert_eq!(stats.disk_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_document_round_trips_and_rejects_corruption() {
        let mut index = StoreIndex {
            clock: 9,
            total_bytes: 30,
            ..Default::default()
        };
        for (name, bytes, used) in [("b.art.json", 10, 3), ("a.art.json", 20, 9)] {
            index.files.insert(
                name.to_string(),
                FileEntry {
                    bytes,
                    last_used: used,
                },
            );
        }
        index.quarantined.insert("q.art.json".to_string());
        let doc = render_manifest(7, &index);
        let data = parse_manifest(&doc).expect("rendered manifest parses");
        assert_eq!(data.generation, 7);
        assert_eq!(data.clock, 9);
        assert_eq!(
            data.entries,
            vec![
                ("a.art.json".to_string(), 20, 9),
                ("b.art.json".to_string(), 10, 3)
            ],
            "entries sorted by name"
        );
        assert_eq!(data.quarantined, vec!["q.art.json".to_string()]);
        assert!(
            parse_manifest(&doc.replace("\"used\":3", "\"used\":4")).is_none(),
            "checksum catches payload mutation"
        );
        assert!(parse_manifest(&doc.replace("\"version\":1", "\"version\":2")).is_none());
        assert!(parse_manifest("{").is_none());
    }

    #[test]
    fn clean_reopen_reports_clean_recovery_and_exact_accounting() {
        let dir = tmp_dir("clean-reopen");
        let pipeline = quick_pipeline();
        let graphs = [generators::path(6), generators::cycle(7)];
        {
            let store = ArtifactStore::open(&dir).unwrap();
            assert!(store.recovery().is_clean(), "fresh empty dir is clean");
            for g in &graphs {
                store.save(
                    key_for(&pipeline, g),
                    &pipeline.partition(g).plan_leaves().unwrap(),
                );
            }
        }
        let store = ArtifactStore::open(&dir).unwrap();
        let report = store.recovery();
        assert!(report.manifest_found);
        assert!(
            report.is_clean(),
            "clean shutdown reconciles cleanly: {report:?}"
        );
        assert_eq!(report.entries_expected, 2);
        let disk_bytes: u64 = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(SUFFIX))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert_eq!(
            store.total_bytes(),
            disk_bytes,
            "accounting matches a directory walk"
        );
        assert_eq!(report.recovered_bytes, disk_bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_repairs_orphans_missing_torn_and_stale_generations() {
        let dir = tmp_dir("fsck");
        let pipeline = quick_pipeline();
        let g1 = generators::path(6);
        let g2 = generators::cycle(7);
        let (k1, k2) = (key_for(&pipeline, &g1), key_for(&pipeline, &g2));
        let name1 = ArtifactStore::file_name(k1, exact_graph_hash(&g1));
        let name2 = ArtifactStore::file_name(k2, exact_graph_hash(&g2));
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.save(k1, &pipeline.partition(&g1).plan_leaves().unwrap());
            store.save(k2, &pipeline.partition(&g2).plan_leaves().unwrap());
        }
        // Crash after rename, before commit: a whole artifact the manifest
        // does not know about.
        let orphan = format!("{:016x}-{:016x}-{:016x}{SUFFIX}", 1u64, 2u64, 3u64);
        fs::copy(dir.join(&name1), dir.join(&orphan)).unwrap();
        // Crash after unlink, before commit: manifest entry, no file.
        fs::remove_file(dir.join(&name2)).unwrap();
        // Torn write that bypassed the tmp+rename path: size disagrees.
        let text = fs::read_to_string(dir.join(&name1)).unwrap();
        fs::write(dir.join(&name1), &text[..text.len() / 2]).unwrap();
        // Crash leftovers: an orphan tmp and a torn manifest generation.
        fs::write(dir.join(".tmp-1234-0"), "half").unwrap();
        fs::write(dir.join(manifest_file_name(u64::MAX)), "{\"format\":").unwrap();

        let store = ArtifactStore::open(&dir).unwrap();
        let report = store.recovery();
        assert!(report.manifest_found);
        assert_eq!(report.orphans_reindexed, 1, "{report:?}");
        assert_eq!(report.missing_dropped, 1);
        assert_eq!(report.torn_quarantined, 1);
        assert_eq!(report.stale_manifests_deleted, 1);
        assert_eq!(report.tmp_swept, 1);
        assert!(!report.is_clean());
        assert_eq!(store.len(), 1, "only the orphan survives");
        assert_eq!(store.total_bytes(), text.len() as u64);
        assert!(
            dir.join(format!("{name1}{QUARANTINE_SUFFIX}")).exists(),
            "torn file quarantined, not served"
        );
        assert!(!dir.join(manifest_file_name(u64::MAX)).exists());

        // The repair converged: a second pass and a fresh open are clean.
        assert!(store.fsck().unwrap().is_clean());
        drop(store);
        let reopened = ArtifactStore::open(&dir).unwrap();
        assert!(reopened.recovery().is_clean(), "{:?}", reopened.recovery());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_preserves_lru_order_across_reopen_despite_mtime_ties() {
        let dir = tmp_dir("lru-reopen");
        let pipeline = quick_pipeline();
        let graphs = [
            generators::path(6),
            generators::cycle(7),
            generators::tree(8, 2),
        ];
        let keys: Vec<CacheKey> = graphs.iter().map(|g| key_for(&pipeline, g)).collect();
        let names: Vec<String> = graphs
            .iter()
            .zip(&keys)
            .map(|(g, &k)| ArtifactStore::file_name(k, exact_graph_hash(g)))
            .collect();
        let one = {
            let store = ArtifactStore::open(&dir).unwrap();
            for (g, &k) in graphs.iter().zip(&keys) {
                store.save(k, &pipeline.partition(g).plan_leaves().unwrap());
            }
            // Touch #0 and #1 so #1's file is most recent and #2 is LRU —
            // an order no mtime or name sort can reproduce by accident.
            assert!(store.load(keys[0], &graphs[0], &pipeline).is_some());
            assert!(store.load(keys[1], &graphs[1], &pipeline).is_some());
            store.total_bytes() / 3
        };
        // Collapse every mtime to one second: the coarse-granularity tie.
        let when = SystemTime::UNIX_EPOCH + Duration::from_secs(1_600_000_000);
        for name in &names {
            fs::File::options()
                .write(true)
                .open(dir.join(name))
                .unwrap()
                .set_modified(when)
                .unwrap();
        }
        // A budget for two artifacts forces one eviction at open; the
        // manifest's clocks say #2 is least recently used.
        let store = ArtifactStore::open_with_budget(&dir, one * 2 + one / 2).unwrap();
        assert!(
            store.load(keys[2], &graphs[2], &pipeline).is_none(),
            "manifest recency evicted the true LRU entry"
        );
        assert!(store.load(keys[0], &graphs[0], &pipeline).is_some());
        assert!(store.load(keys[1], &graphs[1], &pipeline).is_some());
        drop(store);

        // Fallback path: no manifest at all, tied mtimes — eviction must
        // pick the lexicographically smallest name, deterministically.
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry
                .as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .into_owned();
            if manifest_generation(&name).is_some() {
                fs::remove_file(entry.unwrap().path()).unwrap();
            }
        }
        let survivors: Vec<&String> = {
            let mut sorted: Vec<&String> = names.iter().filter(|n| dir.join(n).exists()).collect();
            sorted.sort();
            sorted
        };
        assert_eq!(survivors.len(), 2);
        for name in &survivors {
            fs::File::options()
                .write(true)
                .open(dir.join(name))
                .unwrap()
                .set_modified(when)
                .unwrap();
        }
        let store = ArtifactStore::open_with_budget(&dir, one + one / 2).unwrap();
        assert!(
            !dir.join(survivors[0]).exists(),
            "mtime tie broken by name order: smallest evicted first"
        );
        assert!(dir.join(survivors[1]).exists());
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_rejected_and_counted() {
        let dir = tmp_dir("version");
        let pipeline = quick_pipeline();
        let g = generators::path(7);
        let key = key_for(&pipeline, &g);
        let store = ArtifactStore::open(&dir).unwrap();
        store.save(key, &pipeline.partition(&g).plan_leaves().unwrap());
        let name = ArtifactStore::file_name(key, exact_graph_hash(&g));
        let path = dir.join(&name);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("\"version\":2", "\"version\":99")).unwrap();
        assert!(store.load(key, &g, &pipeline).is_none());
        let stats = store.stats();
        assert_eq!(stats.version_rejected, 1);
        assert_eq!(stats.corrupt_discarded, 0);
        assert!(!path.exists(), "unsupported version deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_artifacts_are_deleted_never_quarantined() {
        let dir = tmp_dir("version-1");
        let pipeline = quick_pipeline();
        let g = generators::path(3);
        let key = key_for(&pipeline, &g);
        let name = ArtifactStore::file_name(key, exact_graph_hash(&g));
        let path = dir.join(&name);
        let store = ArtifactStore::open(&dir).unwrap();
        // Two strikes quarantine a corrupt name; an old-version file is not
        // corrupt, so meeting it twice still just deletes it.
        for strike in 1..=2 {
            fs::write(&path, include_str!("../tests/data/planned_v1.json")).unwrap();
            assert!(store.load(key, &g, &pipeline).is_none());
            let stats = store.stats();
            assert_eq!(stats.version_rejected, strike);
            assert_eq!(stats.corrupt_discarded, 0);
            assert_eq!(stats.quarantined, 0);
            assert!(!path.exists(), "version-1 file deleted");
            assert!(!dir.join(format!("{name}{QUARANTINE_SUFFIX}")).exists());
        }
        // The name stays writable: the recompiled artifact is stored and
        // served.
        store.save(key, &pipeline.partition(&g).plan_leaves().unwrap());
        assert!(store.load(key, &g, &pipeline).is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
