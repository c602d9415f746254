//! Timing analysis of generation circuits.
//!
//! Ops run as early as their qubit dependencies allow (ASAP list schedule);
//! the circuit duration is the makespan. For the photon-loss objective the
//! paper prefers emissions *as late as possible*, so an ALAP pass computes,
//! within the same makespan, the latest legal time of every op; T_loss uses
//! the ALAP emission times (§IV.B, §IV.C).

use epgs_hardware::HardwareModel;

use crate::circuit::Circuit;
use crate::gate::Op;
use crate::qubit::Qubit;

/// Start/end times for every op, plus derived quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// ASAP start time per op.
    pub start: Vec<f64>,
    /// ASAP end time per op.
    pub end: Vec<f64>,
    /// ALAP start time per op (same makespan).
    pub alap_start: Vec<f64>,
    /// ALAP end time per op.
    pub alap_end: Vec<f64>,
    /// Total circuit duration (makespan) in τ.
    pub duration: f64,
    /// ALAP emission time of each photon, indexed by photon id.
    pub emission_time: Vec<f64>,
}

/// Duration of one op under a hardware model.
pub fn op_duration(hw: &HardwareModel, op: &Op) -> f64 {
    match op {
        Op::H(q) | Op::S(q) | Op::Sdg(q) | Op::X(q) | Op::Y(q) | Op::Z(q) => {
            if q.is_emitter() {
                hw.emitter_single
            } else {
                hw.photon_single
            }
        }
        Op::Cz(..) | Op::Cnot(..) => hw.ee_two_qubit,
        Op::Emit { .. } => hw.emission,
        Op::MeasureZ { .. } => hw.measurement,
    }
}

/// Index of `q` in a per-qubit array of `circuit`: emitters first, then
/// photons.
fn slot(circuit: &Circuit, q: Qubit) -> usize {
    match q {
        Qubit::Emitter(e) => {
            assert!(e < circuit.num_emitters(), "emitter {e} out of range");
            e
        }
        Qubit::Photon(p) => circuit.num_emitters() + p,
    }
}

/// Computes the ASAP/ALAP timeline of a circuit.
///
/// # Panics
///
/// Panics if an op references a qubit outside the circuit's registers
/// (run [`Circuit::validate`] first).
pub fn timeline(hw: &HardwareModel, circuit: &Circuit) -> Timeline {
    let ops = circuit.ops();
    let qubits = circuit.num_emitters() + circuit.num_photons();
    // Time each qubit is free from, per qubit slot.
    let mut ready = vec![0.0; qubits];
    let mut start = vec![0.0; ops.len()];
    let mut end = vec![0.0; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        let qs = op.timeline_qubits();
        let s = qs
            .iter()
            .map(|&q| ready[slot(circuit, q)])
            .fold(0.0, f64::max);
        start[i] = s;
        end[i] = s + op_duration(hw, op);
        for &q in &qs {
            ready[slot(circuit, q)] = end[i];
        }
    }
    let duration = end.iter().copied().fold(0.0, f64::max);

    // ALAP: walk backwards, each op ends as late as its successors allow.
    let mut late = vec![duration; qubits];
    let mut alap_start = vec![0.0; ops.len()];
    let mut alap_end = vec![0.0; ops.len()];
    for (i, op) in ops.iter().enumerate().rev() {
        let qs = op.timeline_qubits();
        let e = qs
            .iter()
            .map(|&q| late[slot(circuit, q)])
            .fold(f64::INFINITY, f64::min);
        alap_end[i] = e;
        alap_start[i] = e - op_duration(hw, op);
        for &q in &qs {
            late[slot(circuit, q)] = alap_start[i];
        }
    }

    let mut emission_time = vec![0.0; circuit.num_photons()];
    for (i, op) in ops.iter().enumerate() {
        if let Op::Emit { photon, .. } = op {
            emission_time[*photon] = alap_end[i];
        }
    }

    Timeline {
        start,
        end,
        alap_start,
        alap_end,
        duration,
        emission_time,
    }
}

impl Timeline {
    /// The emitter-usage step curve of `circuit`, the circuit this
    /// timeline was computed for (paper Fig. 5): at each event time, how
    /// many emitters are *active* — between their first and last scheduled
    /// op (ASAP times).
    ///
    /// Returns `(times, counts)` where `counts[k]` holds on `[times[k],
    /// times[k+1])`.
    pub fn usage_curve(&self, circuit: &Circuit) -> (Vec<f64>, Vec<usize>) {
        // (first start, last end) of each emitter that has an op.
        let mut active: Vec<Option<(f64, f64)>> = vec![None; circuit.num_emitters()];
        for (i, op) in circuit.ops().iter().enumerate() {
            for q in op.timeline_qubits() {
                if let Qubit::Emitter(e) = q {
                    let (s, t) = (self.start[i], self.end[i]);
                    active[e] = Some(active[e].map_or((s, t), |(f, l)| (f.min(s), l.max(t))));
                }
            }
        }
        let mut events: Vec<(f64, isize)> = Vec::new();
        for &(first, last) in active.iter().flatten() {
            events.push((first, 1));
            events.push((last, -1));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut times = Vec::new();
        let mut counts = Vec::new();
        let mut cur: isize = 0;
        for (t, d) in events {
            cur += d;
            if times.last().is_some_and(|&lt: &f64| (lt - t).abs() < 1e-12) {
                *counts.last_mut().expect("non-empty") = cur.max(0) as usize;
            } else {
                times.push(t);
                counts.push(cur.max(0) as usize);
            }
        }
        (times, counts)
    }
}

/// The emitter-usage step curve of a circuit; see [`Timeline::usage_curve`].
pub fn usage_curve(hw: &HardwareModel, circuit: &Circuit) -> (Vec<f64>, Vec<usize>) {
    timeline(hw, circuit).usage_curve(circuit)
}

/// Maximum number of simultaneously active emitters.
pub fn peak_emitter_usage(hw: &HardwareModel, circuit: &Circuit) -> usize {
    usage_curve(hw, circuit).1.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareModel {
        HardwareModel::quantum_dot()
    }

    fn simple_circuit() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.push(Op::H(Qubit::Emitter(0))); // 0.05
        c.push(Op::H(Qubit::Emitter(1))); // 0.05, parallel
        c.push(Op::Cz(0, 1)); // 1.0
        c.push(Op::Emit {
            emitter: 0,
            photon: 0,
        }); // 0.1
        c.push(Op::Emit {
            emitter: 1,
            photon: 1,
        }); // 0.1, parallel
        c
    }

    #[test]
    fn asap_parallelism() {
        let tl = timeline(&hw(), &simple_circuit());
        // The two H's run in parallel at t=0.
        assert_eq!(tl.start[0], 0.0);
        assert_eq!(tl.start[1], 0.0);
        // CZ waits for both.
        assert!((tl.start[2] - 0.05).abs() < 1e-12);
        // Emissions run in parallel after the CZ.
        assert!((tl.start[3] - 1.05).abs() < 1e-12);
        assert!((tl.start[4] - 1.05).abs() < 1e-12);
        assert!((tl.duration - 1.15).abs() < 1e-12);
    }

    #[test]
    fn alap_equals_asap_on_critical_path() {
        let tl = timeline(&hw(), &simple_circuit());
        // Every op here is on a critical path of equal length, so ALAP = ASAP.
        for i in 0..5 {
            assert!((tl.alap_start[i] - tl.start[i]).abs() < 1e-9, "op {i}");
        }
    }

    #[test]
    fn alap_delays_off_critical_emissions() {
        // Emitter 0: emit early then idle while emitter pair (1,2) does a CZ.
        let mut c = Circuit::new(3, 1);
        c.push(Op::Emit {
            emitter: 0,
            photon: 0,
        }); // 0.1
        c.push(Op::Cz(1, 2)); // 1.0 — the critical path
        let tl = timeline(&hw(), &c);
        assert!((tl.duration - 1.0).abs() < 1e-12);
        // ASAP emits at 0.1; ALAP pushes the emission to the end.
        assert!((tl.end[0] - 0.1).abs() < 1e-12);
        assert!((tl.emission_time[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn emission_dependency_chain() {
        // Same emitter emits twice: second emission waits for the first.
        let mut c = Circuit::new(1, 2);
        c.push(Op::Emit {
            emitter: 0,
            photon: 0,
        });
        c.push(Op::Emit {
            emitter: 0,
            photon: 1,
        });
        let tl = timeline(&hw(), &c);
        assert!((tl.start[1] - 0.1).abs() < 1e-12);
        assert!((tl.duration - 0.2).abs() < 1e-12);
    }

    #[test]
    fn usage_curve_counts_active_emitters() {
        let (times, counts) = usage_curve(&hw(), &simple_circuit());
        assert_eq!(times[0], 0.0);
        // Both emitters active from the start, until the end.
        assert_eq!(counts[0], 2);
        assert_eq!(peak_emitter_usage(&hw(), &simple_circuit()), 2);
        // Final event drops to 0.
        assert_eq!(*counts.last().unwrap(), 0);
    }

    #[test]
    fn usage_curve_sequential_emitters() {
        // Emitter 0 works, then emitter 1 — peak usage 1… but intervals are
        // [first op, last op], so disjoint single-op intervals never overlap.
        let mut c = Circuit::new(2, 2);
        c.push(Op::Emit {
            emitter: 0,
            photon: 0,
        });
        c.push(Op::H(Qubit::Photon(0)));
        c.push(Op::Emit {
            emitter: 1,
            photon: 1,
        });
        let tl = timeline(&hw(), &c);
        // Photon-1 emission does not depend on emitter 0: runs at t=0 too.
        assert_eq!(tl.start[2], 0.0);
        assert_eq!(peak_emitter_usage(&hw(), &c), 2);
    }

    #[test]
    fn measurement_occupies_emitter_time() {
        let mut c = Circuit::new(1, 1);
        c.push(Op::Emit {
            emitter: 0,
            photon: 0,
        });
        c.push(Op::MeasureZ {
            emitter: 0,
            corrections: vec![],
        });
        let tl = timeline(&hw(), &c);
        assert!((tl.duration - 0.3).abs() < 1e-12); // 0.1 emit + 0.2 measure
    }

    #[test]
    fn op_durations_follow_model() {
        let hw = hw();
        assert_eq!(op_duration(&hw, &Op::Cz(0, 1)), 1.0);
        assert_eq!(
            op_duration(
                &hw,
                &Op::Emit {
                    emitter: 0,
                    photon: 0
                }
            ),
            0.1
        );
        assert_eq!(op_duration(&hw, &Op::H(Qubit::Emitter(0))), 0.05);
        assert_eq!(op_duration(&hw, &Op::H(Qubit::Photon(0))), 0.01);
    }
}
