//! Graph-state partitioning with depth-limited local complementation.
//!
//! The paper's §IV.A formulates partitioning as a MIP over edge variables,
//! block assignments, and LC steps, minimizing inter-subgraph edges (Eq. 5)
//! under capacity (Eq. 4) and LC-budget (Eq. 2–3) constraints, solved by
//! Gurobi with a timeout. This crate solves the same model without a
//! commercial solver:
//!
//! * [`exact`] — branch-and-bound, exact up to ~16 vertices (used to certify
//!   the heuristics);
//! * [`fm`] — multi-restart Fiduccia–Mattheyses-style local search;
//! * [`multilevel`] — METIS-style coarsen/partition/uncoarsen scheme that
//!   replaces the flat FM search above 48 vertices, its default coarsening
//!   cutoff (the default [`PartitionScheme`]);
//! * [`lc_search`] — beam search over LC sequences of length ≤ l scored by
//!   the selected partition scheme (above 48 vertices, only the expansions
//!   an exact cut delta ranks best): [`partition_with_lc`] is the crate's
//!   front door.
//!
//! # Examples
//!
//! ```
//! use epgs_graph::generators;
//! use epgs_partition::{partition_with_lc, PartitionSpec};
//!
//! let g = generators::lattice(3, 4);
//! let spec = PartitionSpec { g_max: 6, lc_budget: 4, effort: 5, seed: 1, ..Default::default() };
//! let p = partition_with_lc(&g, &spec);
//! assert!(p.respects_capacity(6));
//! assert_eq!(p.cut, p.recompute_cut());
//! ```

pub mod control;
pub mod error;
pub mod exact;
pub mod fm;
pub mod lc_search;
pub mod multilevel;
pub mod spec;

pub use control::{FaultHook, InjectedFault, SearchControl, SearchReport};
pub use error::PartitionError;
pub use lc_search::{partition_with_lc, partition_with_lc_controlled};
pub use multilevel::{multilevel_partition, multilevel_partition_traced, Hierarchy, LevelTrace};
pub use spec::{MultilevelOptions, Partition, PartitionScheme, PartitionSpec};
