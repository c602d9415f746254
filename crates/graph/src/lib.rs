//! Graph-state graph algebra for the `epgs` workspace.
//!
//! A quantum graph state |G⟩ is described, up to local Cliffords, by a simple
//! undirected graph. This crate provides:
//!
//! * [`Graph`] — deterministic adjacency-set graphs ([`graph`]);
//! * [`ops`] — local complementation, pivot, and Pauli-measurement update
//!   rules, the combinatorial shadows of local Clifford operations;
//! * [`generators`] — the benchmark families of the paper (lattice, tree,
//!   Waxman), the batch-corpus families (random-regular, hypercube,
//!   heavy-hex, Barabási–Albert, Watts–Strogatz), and standard test graphs;
//! * [`height`] — cut-rank / height function, which lower-bounds the emitter
//!   count needed for deterministic emitter-photonic generation;
//! * [`canon`] — label-invariant Weisfeiler–Lehman hashing, the key
//!   function of the batch compiler's content-addressed artifact cache;
//! * [`gf2`] — the dense GF(2) kernels shared with the stabilizer crate;
//! * [`metrics`], [`dot`] — structural summaries and Graphviz export.
//!
//! # Examples
//!
//! ```
//! use epgs_graph::{generators, height, ops};
//!
//! # fn main() -> Result<(), epgs_graph::GraphError> {
//! // A 3×3 MBQC lattice needs 3 emitters in row-major emission order …
//! let mut g = generators::lattice(3, 3);
//! assert_eq!(height::min_emitters_natural(&g), 3);
//!
//! // … and local complementation changes the edge structure but keeps the
//! // state reachable with single-qubit gates only.
//! ops::local_complement(&mut g, 4)?;
//! # Ok(())
//! # }
//! ```

pub mod canon;
pub mod dot;
pub mod error;
pub mod generators;
pub mod gf2;
pub mod graph;
pub mod height;
pub mod metrics;
pub mod ops;

pub use error::GraphError;
pub use graph::Graph;

/// Largest vertex count accepted from untrusted input — the serve wire
/// protocol and corpus specs. Far above any size the compiler is run at
/// (the benchmark mixes top out at n = 200), and small enough that one
/// graph's adjacency lists cost a few MiB, not an allocation failure.
pub const MAX_VERTICES: usize = 1 << 16;
