//! # epgs-serve — the persistent compile service
//!
//! The batch engine (`epgs::BatchCompiler`) amortizes compilation within
//! one process; this crate amortizes it across processes and over time.
//! It has two layers:
//!
//! * [`ServeEngine`] — wraps a `BatchCompiler` (in-memory cache → on-disk
//!   [`epgs::ArtifactStore`] → compile) and **coalesces** concurrent
//!   requests for the same exact target into a single compilation, so a
//!   thundering herd of identical requests costs one pipeline run;
//! * [`protocol`] + the `epgs-serve` binary — a long-running daemon
//!   speaking line-delimited JSON over stdin/stdout: `compile` / `status`
//!   / `stats` / `evict` / `shutdown`, each response reporting the cache
//!   outcome (`memory_hit` / `disk_hit` / `compiled` / `coalesced`) and
//!   wall time alongside the compiled circuit's metrics.
//!
//! Persistence comes from the content-addressed artifact store in the
//! `epgs` crate: every fresh compile is written through to disk, so a
//! daemon restart against the same `--store` directory serves its corpus
//! from disk instead of recompiling.
//!
//! # Examples
//!
//! Engine-level use (the daemon is the same engine behind a protocol):
//!
//! ```
//! use epgs::{FrameworkConfig, PartitionSpec};
//! use epgs_serve::{default_config, ServeEngine, ServeOutcome};
//! use epgs_graph::generators;
//!
//! let engine = ServeEngine::new(FrameworkConfig {
//!     partition: PartitionSpec { g_max: 4, ..Default::default() },
//!     ..Default::default()
//! });
//! let g = generators::cycle(6);
//! assert_eq!(engine.compile(&g).outcome, ServeOutcome::Compiled);
//! assert_eq!(engine.compile(&g).outcome, ServeOutcome::MemoryHit);
//! assert_eq!(engine.stats().requests, 2);
//! # let _ = default_config();
//! ```

pub mod engine;
pub mod protocol;
pub mod supervise;

pub use engine::{ServeEngine, ServeError, ServeErrorKind, ServeOutcome, ServeReply, ServeStats};
pub use protocol::Request;
pub use supervise::SupervisorOptions;

/// The daemon's compiler configuration, and the one copy of the corpus
/// settings: `epgs_bench::corpus_framework` compiles with it too.
pub fn default_config() -> epgs::FrameworkConfig {
    epgs::FrameworkConfig {
        partition: epgs_partition::PartitionSpec {
            g_max: 6,
            lc_budget: 4,
            effort: 5,
            seed: 0xdac2025,
            ..Default::default()
        },
        orderings_per_subgraph: 6,
        ..epgs::FrameworkConfig::default()
    }
}
