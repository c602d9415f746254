//! Stabilizer formalism for the `epgs` workspace.
//!
//! This crate is the semantic ground truth of the compiler: a phase-tracked
//! stabilizer [`Tableau`] with the Clifford gate set, forced-outcome Z
//! measurements, canonical forms for state equality, and the constructive
//! reduction of any pure stabilizer state to an LC-equivalent graph state
//! ([`graph_form`]). The time-reversed solver in `epgs-solver` manipulates
//! these tableaux, and every compiled circuit is verified against them.
//!
//! # Examples
//!
//! ```
//! use epgs_graph::generators;
//! use epgs_stabilizer::{verify, Tableau};
//!
//! // Build a 5-ring graph state by hand and check it.
//! let ring = generators::cycle(5);
//! let mut t = Tableau::zero_state(5);
//! for q in 0..5 {
//!     t.h(q);
//! }
//! for (a, b) in ring.edges() {
//!     t.cz(a, b);
//! }
//! assert!(verify::is_graph_state(&t, &ring));
//! ```

pub mod error;
pub mod graph_form;
pub mod pauli;
pub mod tableau;
pub mod verify;

pub use error::StabilizerError;
pub use graph_form::{to_graph_form, GraphForm, LocalGate};
pub use pauli::Pauli;
pub use tableau::{ElementScratch, MeasureOutcome, RotGate, Tableau};
