//! Hardware models and objectives for emitter-photonic graph-state
//! generation.
//!
//! The paper's evaluation is grounded in the silicon quantum-dot platform
//! (τ_QD = 1 unit per emitter-emitter CNOT, 0.1 τ_QD emission, 0.5 %/τ_QD
//! photon loss) but "can be easily adapted to other hardware platforms … just
//! by changing the configurations of gate characteristic" (§V.A). This crate
//! is that configuration point:
//!
//! - [`HardwareModel`] — gate timings and loss parameters, with built-in
//!   presets for the paper's porting targets (quantum dot, NV/SiV center,
//!   Rydberg) plus trapped ions and cavity-coupled neutral atoms, all
//!   enumerable via [`HardwareModel::presets`] / [`HardwareModel::by_name`].
//! - [`loss`] — the §V.B.3 photon-loss arithmetic ([`loss_report`]).
//! - [`objective`] — [`CompileObjective`], *what* the compiler minimizes
//!   under the configured platform (ee-CNOT count or duration).
//!
//! # Examples
//!
//! Loss accounting for a two-photon circuit:
//!
//! ```
//! use epgs_hardware::{loss, HardwareModel};
//!
//! let hw = HardwareModel::quantum_dot();
//! let report = loss::loss_report(&hw, &[0.0, 2.0], 4.0);
//! assert!(report.mean_photon_loss > 0.0);
//! assert_eq!(report.exposures, vec![4.0, 2.0]);
//! ```
//!
//! Swapping the platform is swapping the preset:
//!
//! ```
//! use epgs_hardware::{loss_report, HardwareModel};
//!
//! let emissions = [0.0, 1.0, 2.0];
//! let qd = loss_report(&HardwareModel::quantum_dot(), &emissions, 5.0);
//! let ion = loss_report(&HardwareModel::trapped_ion(), &emissions, 5.0);
//! // Identical exposures, platform-specific survival.
//! assert_eq!(qd.mean_exposure, ion.mean_exposure);
//! assert!(ion.mean_photon_loss < qd.mean_photon_loss);
//! ```

pub mod loss;
pub mod model;
pub mod objective;

pub use loss::{loss_report, LossReport};
pub use model::HardwareModel;
pub use objective::{CompileObjective, ObjectiveFigures, ObjectiveScore};
