//! The evaluation metrics of the paper, computed from a circuit.

use epgs_hardware::{loss_report, HardwareModel, LossReport, ObjectiveFigures};

use crate::circuit::Circuit;
use crate::timeline::{timeline, Timeline};

/// All figures the paper's evaluation reports for one compiled circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitMetrics {
    /// Emitter-emitter two-qubit gate count (Fig. 10 a–c).
    pub ee_two_qubit_count: usize,
    /// Circuit duration in τ (Fig. 10 d–f).
    pub duration: f64,
    /// Mean photon storage time T_loss (§IV.B).
    pub t_loss: f64,
    /// Aggregate loss figures (Fig. 11 a).
    pub loss: LossReport,
    /// Peak number of simultaneously active emitters.
    pub peak_emitters: usize,
    /// Photon emissions (always = photon count for valid circuits).
    pub emissions: usize,
    /// Emitter measurements (time-reversed measurements in forward time).
    pub measurements: usize,
    /// Single-qubit gate count.
    pub single_qubit_gates: usize,
    /// State-fidelity estimate from imperfect emitter-emitter gates:
    /// `ee_fidelity ^ ee_two_qubit_count` (paper §III Challenge 2).
    pub ee_fidelity_estimate: f64,
}

impl CircuitMetrics {
    /// The figures a [`epgs_hardware::CompileObjective`] scores, as
    /// measured by these metrics — the single conversion point between
    /// circuit metrics and objective inputs.
    pub fn objective_figures(&self) -> ObjectiveFigures {
        ObjectiveFigures {
            ee_cnots: self.ee_two_qubit_count,
            duration: self.duration,
            t_loss: self.t_loss,
        }
    }
}

/// Computes every reported metric for `circuit` under `hw`.
///
/// # Examples
///
/// ```
/// use epgs_circuit::{metrics, Circuit, Op, Qubit};
/// use epgs_hardware::HardwareModel;
///
/// let mut c = Circuit::new(1, 1);
/// c.push(Op::H(Qubit::Emitter(0)));
/// c.push(Op::Emit { emitter: 0, photon: 0 });
/// let m = metrics::circuit_metrics(&HardwareModel::quantum_dot(), &c);
/// assert_eq!(m.ee_two_qubit_count, 0);
/// assert_eq!(m.emissions, 1);
/// ```
pub fn circuit_metrics(hw: &HardwareModel, circuit: &Circuit) -> CircuitMetrics {
    let tl = timeline(hw, circuit);
    let (_, usage) = tl.usage_curve(circuit);
    timed_metrics(hw, circuit, &tl, &usage)
}

/// [`circuit_metrics`] from the circuit's timeline and the counts of its
/// usage curve ([`Timeline::usage_curve`]), for a caller that keeps both.
pub fn timed_metrics(
    hw: &HardwareModel,
    circuit: &Circuit,
    tl: &Timeline,
    usage_counts: &[usize],
) -> CircuitMetrics {
    let loss = loss_report(hw, &tl.emission_time, tl.duration);
    CircuitMetrics {
        ee_two_qubit_count: circuit.ee_two_qubit_count(),
        duration: tl.duration,
        t_loss: loss.mean_exposure,
        peak_emitters: usage_counts.iter().copied().max().unwrap_or(0),
        emissions: circuit.emission_count(),
        measurements: circuit.measurement_count(),
        single_qubit_gates: circuit.single_qubit_count(),
        ee_fidelity_estimate: hw.ee_fidelity.powi(circuit.ee_two_qubit_count() as i32),
        loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Op;
    use crate::qubit::Qubit;

    #[test]
    fn metrics_of_two_emitter_circuit() {
        let hw = HardwareModel::quantum_dot();
        let mut c = Circuit::new(2, 2);
        c.push(Op::H(Qubit::Emitter(0)));
        c.push(Op::H(Qubit::Emitter(1)));
        c.push(Op::Cz(0, 1));
        c.push(Op::Emit {
            emitter: 0,
            photon: 0,
        });
        c.push(Op::Emit {
            emitter: 1,
            photon: 1,
        });
        let m = circuit_metrics(&hw, &c);
        assert_eq!(m.ee_two_qubit_count, 1);
        assert_eq!(m.emissions, 2);
        assert_eq!(m.peak_emitters, 2);
        assert!((m.duration - 1.15).abs() < 1e-12);
        // Both photons emitted at the very end: T_loss = 0.
        assert!(m.t_loss.abs() < 1e-12);
        assert!(m.loss.any_photon_loss.abs() < 1e-12);
        // One ee gate at 0.99 fidelity.
        assert!((m.ee_fidelity_estimate - 0.99).abs() < 1e-12);
    }

    #[test]
    fn t_loss_reflects_early_emission() {
        let hw = HardwareModel::quantum_dot();
        let mut c = Circuit::new(2, 1);
        c.push(Op::Emit {
            emitter: 0,
            photon: 0,
        });
        c.push(Op::Cz(0, 1)); // keeps emitter 0 busy → emission cannot slide later
        let m = circuit_metrics(&hw, &c);
        assert!(m.t_loss > 0.9, "photon waits for the CZ: {}", m.t_loss);
        assert!(m.loss.mean_photon_loss > 0.0);
    }
}
