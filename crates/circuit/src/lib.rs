//! Circuit IR for deterministic emitter-photonic graph-state generation.
//!
//! A [`Circuit`] is a program over emitter and photon wires obeying the
//! deterministic-scheme constraints (paper §II.B): photons are created by
//! emission CNOTs, never interact with each other, and emitters may be
//! measured (with classical Pauli feed-forward) to be freed for reuse.
//!
//! * [`circuit`] — the container and structural validation;
//! * [`mod@timeline`] — ASAP/ALAP timing, durations, emitter-usage curves;
//! * [`metrics`] — the paper's evaluation metrics (#ee-CNOT, duration,
//!   T_loss, loss probabilities);
//! * [`simulate`] — tableau-backed execution and the acceptance oracle
//!   [`simulate::verify_circuit`];
//! * [`qasm`] — OpenQASM-flavored export.
//!
//! # Examples
//!
//! ```
//! use epgs_circuit::{simulate, Circuit, Op, Qubit};
//! use epgs_graph::Graph;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // |+⟩ emitter emits a photon; H on the photon yields the 2-vertex
//! // graph state on (emitter, photon) — here we only check validity.
//! let mut c = Circuit::new(1, 1);
//! c.push(Op::H(Qubit::Emitter(0)));
//! c.push(Op::Emit { emitter: 0, photon: 0 });
//! c.push(Op::H(Qubit::Photon(0)));
//! c.validate()?;
//! let mut outcomes = simulate::ConstantOutcomes(false);
//! let state = simulate::run(&c, &mut outcomes)?;
//! assert!(state.is_valid_state());
//! # Ok(())
//! # }
//! ```

pub mod circuit;
pub mod error;
pub mod gate;
pub mod metrics;
pub mod optimize;
pub mod qasm;
pub mod qubit;
pub mod simulate;
pub mod timeline;

pub use circuit::Circuit;
pub use error::CircuitError;
pub use gate::{Op, OpQubits};
pub use metrics::{circuit_metrics, CircuitMetrics};
pub use optimize::cancel_inverse_pairs;
pub use qubit::Qubit;
pub use timeline::{timeline, usage_curve, Timeline};
