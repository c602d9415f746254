//! Hardware-aware compilation objectives.
//!
//! Every number the compiler can optimize — emitter-emitter CNOT count,
//! circuit duration, photon-loss exposure — derives from a
//! [`HardwareModel`], so *what to minimize* is itself a hardware question:
//! a platform with slow measurements cares about duration where a lossy
//! storage medium cares about exposure. [`CompileObjective`] makes that
//! choice an explicit, pluggable dimension of the framework configuration
//! instead of a hard-coded tiebreak (paper §V.A–B).
//!
//! An objective turns the [`ObjectiveFigures`] of a candidate circuit into
//! a totally ordered [`ObjectiveScore`]; lower scores win. The default
//! [`CompileObjective::Emitters`] reproduces the paper's lexicographic
//! order (#ee-CNOT, then `T_loss`, then duration) exactly.
//!
//! # Examples
//!
//! ```
//! use epgs_hardware::{CompileObjective, HardwareModel, ObjectiveFigures};
//!
//! let slow_but_clean = ObjectiveFigures {
//!     ee_cnots: 2,
//!     duration: 9.0,
//!     t_loss: 1.0,
//!     mean_photon_loss: 0.004,
//! };
//! let fast_but_noisy = ObjectiveFigures {
//!     ee_cnots: 3,
//!     duration: 4.0,
//!     t_loss: 2.0,
//!     mean_photon_loss: 0.009,
//! };
//!
//! // The paper's default prefers fewer ee-CNOTs …
//! let emitters = CompileObjective::Emitters;
//! assert!(emitters.score(&slow_but_clean) < emitters.score(&fast_but_noisy));
//!
//! // … while a duration objective for a concrete platform prefers speed.
//! let duration = CompileObjective::Duration(HardwareModel::rydberg());
//! assert!(duration.score(&fast_but_noisy) < duration.score(&slow_but_clean));
//! ```

use crate::model::HardwareModel;

/// The figures of one candidate circuit an objective scores.
///
/// Produced by the compiler from the candidate's circuit metrics, computed
/// under the hardware model the objective names (or the configured model
/// for [`CompileObjective::Emitters`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObjectiveFigures {
    /// Emitter-emitter two-qubit gate count.
    pub ee_cnots: usize,
    /// Circuit duration in τ.
    pub duration: f64,
    /// Mean photon storage time `T_loss` in τ.
    pub t_loss: f64,
    /// Mean per-photon loss probability over the circuit.
    pub mean_photon_loss: f64,
}

/// A totally ordered candidate score: a lexicographic triple of finite
/// floats, lower is better.
///
/// `ObjectiveScore` implements [`Ord`] (scores are guaranteed finite by
/// [`CompileObjective::score`]; components compare by [`f64::total_cmp`],
/// so even a NaN orders instead of panicking), so candidate selection is a
/// plain `<` with deterministic first-wins tie-breaking.
#[derive(Debug, Clone, Copy)]
pub struct ObjectiveScore([f64; 3]);

impl ObjectiveScore {
    /// The raw lexicographic components (primary first).
    pub fn components(&self) -> [f64; 3] {
        self.0
    }
}

impl PartialEq for ObjectiveScore {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for ObjectiveScore {}

impl PartialOrd for ObjectiveScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ObjectiveScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            match a.total_cmp(b) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

/// What the compiler minimizes when candidate circuits compete.
///
/// The objective is consumed at every competition point of the pipeline:
/// leaf-variant selection (§IV.B), recombination-strategy selection
/// (§IV.D), and the figures reported for the chosen circuit. Variants that
/// carry a [`HardwareModel`] score candidates under *that* platform's
/// timing and loss numbers; [`CompileObjective::Emitters`] scores under
/// whatever model the framework configuration already uses, reproducing
/// the paper's default behavior bit for bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum CompileObjective {
    /// The paper's lexicographic default: fewest emitter-emitter CNOTs,
    /// then smallest `T_loss`, then shortest duration.
    #[default]
    Emitters,
    /// Minimize circuit duration as timed by the given platform, breaking
    /// ties by ee-CNOT count, then `T_loss`.
    Duration(HardwareModel),
    /// Minimize the mean per-photon loss probability under the given
    /// platform, breaking ties by ee-CNOT count, then duration.
    Loss(HardwareModel),
    /// Minimize a weighted sum `ee · ee_cnots + duration · τ +
    /// loss · mean_photon_loss` under the given platform, breaking ties by
    /// ee-CNOT count, then duration.
    Weighted {
        /// Platform whose timing/loss numbers the figures derive from.
        hardware: HardwareModel,
        /// Weight per emitter-emitter CNOT.
        ee: f64,
        /// Weight per τ of circuit duration.
        duration: f64,
        /// Weight per unit of mean photon-loss probability.
        loss: f64,
    },
}

impl CompileObjective {
    /// Scores one candidate; lower wins. All components are finite for
    /// finite inputs, so scores are totally ordered.
    ///
    /// # Panics
    ///
    /// Panics if a [`CompileObjective::Weighted`] weight is not finite —
    /// e.g. an infinite weight times a zero figure would otherwise
    /// produce a NaN score and a confusing comparison failure deep inside
    /// compilation.
    ///
    /// # Examples
    ///
    /// ```
    /// use epgs_hardware::{CompileObjective, HardwareModel, ObjectiveFigures};
    ///
    /// let a = ObjectiveFigures { ee_cnots: 1, duration: 5.0, t_loss: 0.5, mean_photon_loss: 0.01 };
    /// let b = ObjectiveFigures { ee_cnots: 1, duration: 5.0, t_loss: 0.7, mean_photon_loss: 0.01 };
    /// // Equal ee-CNOTs: the Emitters objective falls through to T_loss.
    /// assert!(CompileObjective::Emitters.score(&a) < CompileObjective::Emitters.score(&b));
    /// let w = CompileObjective::Weighted {
    ///     hardware: HardwareModel::quantum_dot(),
    ///     ee: 1.0,
    ///     duration: 0.1,
    ///     loss: 100.0,
    /// };
    /// assert_eq!(w.score(&a), w.score(&b), "weighted ignores T_loss");
    /// ```
    pub fn score(&self, figures: &ObjectiveFigures) -> ObjectiveScore {
        let ee = figures.ee_cnots as f64;
        ObjectiveScore(match self {
            CompileObjective::Emitters => [ee, figures.t_loss, figures.duration],
            CompileObjective::Duration(_) => [figures.duration, ee, figures.t_loss],
            CompileObjective::Loss(_) => [figures.mean_photon_loss, ee, figures.duration],
            CompileObjective::Weighted {
                ee: w_ee,
                duration: w_duration,
                loss: w_loss,
                ..
            } => {
                assert!(
                    w_ee.is_finite() && w_duration.is_finite() && w_loss.is_finite(),
                    "Weighted objective weights must be finite \
                     (got ee={w_ee}, duration={w_duration}, loss={w_loss})"
                );
                [
                    w_ee * ee + w_duration * figures.duration + w_loss * figures.mean_photon_loss,
                    ee,
                    figures.duration,
                ]
            }
        })
    }

    /// The platform this objective derives its figures from, if it names
    /// one. [`CompileObjective::Emitters`] returns `None`: it scores under
    /// the framework configuration's model.
    pub fn hardware(&self) -> Option<&HardwareModel> {
        match self {
            CompileObjective::Emitters => None,
            CompileObjective::Duration(hw) | CompileObjective::Loss(hw) => Some(hw),
            CompileObjective::Weighted { hardware, .. } => Some(hardware),
        }
    }

    /// The same objective re-targeted at another platform (a no-op for
    /// [`CompileObjective::Emitters`]).
    ///
    /// ```
    /// use epgs_hardware::{CompileObjective, HardwareModel};
    ///
    /// let obj = CompileObjective::Duration(HardwareModel::quantum_dot());
    /// let ported = obj.with_hardware(HardwareModel::nv_center());
    /// assert_eq!(ported.hardware().unwrap().name, "NV color center");
    /// ```
    pub fn with_hardware(self, hardware: HardwareModel) -> Self {
        match self {
            CompileObjective::Emitters => CompileObjective::Emitters,
            CompileObjective::Duration(_) => CompileObjective::Duration(hardware),
            CompileObjective::Loss(_) => CompileObjective::Loss(hardware),
            CompileObjective::Weighted {
                ee, duration, loss, ..
            } => CompileObjective::Weighted {
                hardware,
                ee,
                duration,
                loss,
            },
        }
    }

    /// Stable wire name of the objective kind (used in JSON reports).
    pub fn kind_name(&self) -> &'static str {
        match self {
            CompileObjective::Emitters => "emitters",
            CompileObjective::Duration(_) => "duration",
            CompileObjective::Loss(_) => "loss",
            CompileObjective::Weighted { .. } => "weighted",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figs(ee: usize, duration: f64, t_loss: f64, loss: f64) -> ObjectiveFigures {
        ObjectiveFigures {
            ee_cnots: ee,
            duration,
            t_loss,
            mean_photon_loss: loss,
        }
    }

    #[test]
    fn emitters_matches_the_legacy_lexicographic_tuple() {
        // The pre-objective compiler compared (ee, t_loss, duration) tuples
        // with `<`; the Emitters score must induce the same order on every
        // pair, including the ties.
        let cases = [
            figs(0, 9.0, 3.0, 0.1),
            figs(1, 1.0, 0.0, 0.0),
            figs(1, 2.0, 0.0, 0.5),
            figs(1, 1.0, 4.0, 0.0),
            figs(2, 0.5, 0.1, 0.9),
        ];
        let obj = CompileObjective::Emitters;
        for a in &cases {
            for b in &cases {
                let legacy =
                    (a.ee_cnots, a.t_loss, a.duration) < (b.ee_cnots, b.t_loss, b.duration);
                assert_eq!(obj.score(a) < obj.score(b), legacy, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn duration_and_loss_prioritize_their_figure() {
        let fast_noisy = figs(5, 2.0, 1.5, 0.05);
        let slow_clean = figs(1, 8.0, 0.5, 0.01);
        let hw = HardwareModel::quantum_dot();
        assert!(
            CompileObjective::Duration(hw.clone()).score(&fast_noisy)
                < CompileObjective::Duration(hw.clone()).score(&slow_clean)
        );
        assert!(
            CompileObjective::Loss(hw.clone()).score(&slow_clean)
                < CompileObjective::Loss(hw).score(&fast_noisy)
        );
        assert!(
            CompileObjective::Emitters.score(&slow_clean)
                < CompileObjective::Emitters.score(&fast_noisy)
        );
    }

    #[test]
    fn weighted_interpolates_between_extremes() {
        let hw = HardwareModel::quantum_dot();
        let fast = figs(4, 2.0, 0.0, 0.02);
        let lean = figs(1, 8.0, 0.0, 0.02);
        let ee_heavy = CompileObjective::Weighted {
            hardware: hw.clone(),
            ee: 10.0,
            duration: 0.1,
            loss: 0.0,
        };
        let duration_heavy = CompileObjective::Weighted {
            hardware: hw,
            ee: 0.1,
            duration: 10.0,
            loss: 0.0,
        };
        assert!(ee_heavy.score(&lean) < ee_heavy.score(&fast));
        assert!(duration_heavy.score(&fast) < duration_heavy.score(&lean));
    }

    #[test]
    fn scores_are_totally_ordered_and_ties_are_equal() {
        let a = CompileObjective::Emitters.score(&figs(1, 2.0, 3.0, 0.1));
        let b = CompileObjective::Emitters.score(&figs(1, 2.0, 3.0, 0.9));
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal, "loss is not scored");
        assert_eq!(a.components(), [1.0, 3.0, 2.0]);
    }

    #[test]
    fn hardware_accessor_and_retarget() {
        assert!(CompileObjective::Emitters.hardware().is_none());
        let nv = HardwareModel::nv_center();
        for obj in [
            CompileObjective::Duration(HardwareModel::quantum_dot()),
            CompileObjective::Loss(HardwareModel::quantum_dot()),
            CompileObjective::Weighted {
                hardware: HardwareModel::quantum_dot(),
                ee: 1.0,
                duration: 1.0,
                loss: 1.0,
            },
        ] {
            let kind = obj.kind_name();
            let ported = obj.with_hardware(nv.clone());
            assert_eq!(ported.hardware(), Some(&nv));
            assert_eq!(ported.kind_name(), kind, "retargeting keeps the kind");
        }
        assert_eq!(
            CompileObjective::Emitters.with_hardware(nv),
            CompileObjective::Emitters
        );
    }

    #[test]
    #[should_panic(expected = "Weighted objective weights must be finite")]
    fn non_finite_weights_are_rejected_at_scoring_time() {
        // INFINITY × a zero figure would yield a NaN score and a panic
        // deep inside candidate comparison; fail early and legibly.
        let obj = CompileObjective::Weighted {
            hardware: HardwareModel::quantum_dot(),
            ee: 1.0,
            duration: 1.0,
            loss: f64::INFINITY,
        };
        obj.score(&figs(1, 1.0, 0.0, 0.0));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(CompileObjective::Emitters.kind_name(), "emitters");
        assert_eq!(
            CompileObjective::Duration(HardwareModel::default()).kind_name(),
            "duration"
        );
        assert_eq!(
            CompileObjective::Loss(HardwareModel::default()).kind_name(),
            "loss"
        );
        assert_eq!(
            CompileObjective::Weighted {
                hardware: HardwareModel::default(),
                ee: 1.0,
                duration: 1.0,
                loss: 1.0,
            }
            .kind_name(),
            "weighted"
        );
    }

    #[test]
    fn default_objective_is_emitters() {
        assert_eq!(CompileObjective::default(), CompileObjective::Emitters);
    }
}
