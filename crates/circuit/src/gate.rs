//! The gate set of emitter-photonic generation circuits.

use epgs_stabilizer::Pauli;

use crate::qubit::Qubit;

/// One operation of a generation circuit.
///
/// The set mirrors the paper's circuit model (§II.B): single-qubit Cliffords
/// anywhere, two-qubit gates between emitters only, the emission CNOT as the
/// first gate on each photon, and Z-basis emitter measurements with
/// classically-controlled Pauli corrections (these arise from time-reversed
/// measurements and enable emitter reuse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Hadamard.
    H(Qubit),
    /// Phase gate S.
    S(Qubit),
    /// Inverse phase gate S†.
    Sdg(Qubit),
    /// Pauli X.
    X(Qubit),
    /// Pauli Y.
    Y(Qubit),
    /// Pauli Z.
    Z(Qubit),
    /// Emitter-emitter CZ.
    Cz(usize, usize),
    /// Emitter-emitter CNOT (control, target).
    Cnot(usize, usize),
    /// Photon emission: CNOT from emitter onto a fresh photon in |0⟩.
    Emit {
        /// The emitting emitter.
        emitter: usize,
        /// The emitted photon (must not have appeared before).
        photon: usize,
    },
    /// Z-basis measurement of an emitter; on outcome 1 the listed Pauli
    /// corrections are applied (classical feed-forward, zero duration).
    /// The emitter is projected onto |0⟩/|1⟩ and reset to |0⟩ for reuse.
    MeasureZ {
        /// The measured emitter.
        emitter: usize,
        /// Corrections applied when the outcome is 1.
        corrections: Vec<(Qubit, Pauli)>,
    },
}

impl Op {
    /// Qubits this operation occupies on the hardware timeline. Corrections
    /// are classical frame updates and do not occupy their targets.
    pub fn timeline_qubits(&self) -> OpQubits {
        match *self {
            Op::H(q) | Op::S(q) | Op::Sdg(q) | Op::X(q) | Op::Y(q) | Op::Z(q) => OpQubits::one(q),
            Op::Cz(a, b) | Op::Cnot(a, b) => OpQubits::two(Qubit::Emitter(a), Qubit::Emitter(b)),
            Op::Emit { emitter, photon } => {
                OpQubits::two(Qubit::Emitter(emitter), Qubit::Photon(photon))
            }
            Op::MeasureZ { emitter, .. } => OpQubits::one(Qubit::Emitter(emitter)),
        }
    }

    /// True for the two-qubit emitter-emitter entangling gates — the
    /// expensive operations the compiler minimizes.
    pub fn is_ee_two_qubit(&self) -> bool {
        matches!(self, Op::Cz(..) | Op::Cnot(..))
    }

    /// True for photon emissions.
    pub fn is_emission(&self) -> bool {
        matches!(self, Op::Emit { .. })
    }

    /// True for emitter measurements.
    pub fn is_measurement(&self) -> bool {
        matches!(self, Op::MeasureZ { .. })
    }
}

/// The one or two qubits an [`Op`] occupies on the hardware timeline,
/// iterated in operand order. A fixed-size value, so the timeline passes
/// allocate nothing per op.
#[derive(Debug, Clone, Copy)]
pub struct OpQubits {
    qubits: [Qubit; 2],
    len: usize,
}

impl OpQubits {
    fn one(q: Qubit) -> Self {
        OpQubits {
            qubits: [q, q],
            len: 1,
        }
    }

    fn two(a: Qubit, b: Qubit) -> Self {
        OpQubits {
            qubits: [a, b],
            len: 2,
        }
    }
}

impl IntoIterator for OpQubits {
    type Item = Qubit;
    type IntoIter = std::iter::Take<std::array::IntoIter<Qubit, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.qubits.into_iter().take(self.len)
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::H(q) => write!(f, "H {q}"),
            Op::S(q) => write!(f, "S {q}"),
            Op::Sdg(q) => write!(f, "Sdg {q}"),
            Op::X(q) => write!(f, "X {q}"),
            Op::Y(q) => write!(f, "Y {q}"),
            Op::Z(q) => write!(f, "Z {q}"),
            Op::Cz(a, b) => write!(f, "CZ e{a} e{b}"),
            Op::Cnot(a, b) => write!(f, "CNOT e{a} e{b}"),
            Op::Emit { emitter, photon } => write!(f, "EMIT e{emitter} -> p{photon}"),
            Op::MeasureZ {
                emitter,
                corrections,
            } => {
                write!(f, "MEASURE e{emitter}")?;
                if !corrections.is_empty() {
                    write!(f, " [if 1:")?;
                    for (q, p) in corrections {
                        write!(f, " {p}{q}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ee_two_qubit_classification() {
        assert!(Op::Cz(0, 1).is_ee_two_qubit());
        assert!(Op::Cnot(0, 1).is_ee_two_qubit());
        assert!(!Op::Emit {
            emitter: 0,
            photon: 0
        }
        .is_ee_two_qubit());
        assert!(!Op::H(Qubit::Photon(0)).is_ee_two_qubit());
    }

    #[test]
    fn timeline_qubits_of_emission() {
        let op = Op::Emit {
            emitter: 1,
            photon: 2,
        };
        assert_eq!(
            op.timeline_qubits().into_iter().collect::<Vec<_>>(),
            [Qubit::Emitter(1), Qubit::Photon(2)]
        );
    }

    #[test]
    fn measurement_occupies_emitter_only() {
        let op = Op::MeasureZ {
            emitter: 0,
            corrections: vec![(Qubit::Photon(3), Pauli::Z)],
        };
        assert_eq!(
            op.timeline_qubits().into_iter().collect::<Vec<_>>(),
            [Qubit::Emitter(0)]
        );
        assert!(op.is_measurement());
    }

    #[test]
    fn display_is_readable() {
        let op = Op::MeasureZ {
            emitter: 2,
            corrections: vec![(Qubit::Photon(1), Pauli::Z)],
        };
        assert_eq!(op.to_string(), "MEASURE e2 [if 1: Zp1]");
        assert_eq!(
            Op::Emit {
                emitter: 0,
                photon: 4
            }
            .to_string(),
            "EMIT e0 -> p4"
        );
    }
}
