//! Compilation objectives.
//!
//! Every number the compiler can optimize — emitter-emitter CNOT count,
//! circuit duration, photon storage time — is measured under the
//! configured [`HardwareModel`](crate::HardwareModel). [`CompileObjective`]
//! picks which of them decides when candidate circuits compete (paper
//! §V.A–B); the platform they are measured on is the framework
//! configuration's, never the objective's.
//!
//! An objective turns the [`ObjectiveFigures`] of a candidate circuit into
//! a totally ordered [`ObjectiveScore`]; lower scores win. The default
//! [`CompileObjective::Emitters`] reproduces the paper's lexicographic
//! order (#ee-CNOT, then `T_loss`, then duration) exactly.
//!
//! # Examples
//!
//! ```
//! use epgs_hardware::{CompileObjective, ObjectiveFigures};
//!
//! let slow_but_lean = ObjectiveFigures {
//!     ee_cnots: 2,
//!     duration: 9.0,
//!     t_loss: 1.0,
//! };
//! let fast_but_costly = ObjectiveFigures {
//!     ee_cnots: 3,
//!     duration: 4.0,
//!     t_loss: 2.0,
//! };
//!
//! // The paper's default prefers fewer ee-CNOTs …
//! let emitters = CompileObjective::Emitters;
//! assert!(emitters.score(&slow_but_lean) < emitters.score(&fast_but_costly));
//!
//! // … while the duration objective prefers speed.
//! let duration = CompileObjective::Duration;
//! assert!(duration.score(&fast_but_costly) < duration.score(&slow_but_lean));
//! ```

/// The figures of one candidate circuit an objective scores, measured
/// under the configured hardware model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ObjectiveFigures {
    /// Emitter-emitter two-qubit gate count.
    pub ee_cnots: usize,
    /// Circuit duration in τ.
    pub duration: f64,
    /// Mean photon storage time `T_loss` in τ.
    pub t_loss: f64,
}

/// A totally ordered candidate score: a lexicographic triple, lower is
/// better.
///
/// `ObjectiveScore` implements [`Ord`] (components compare by
/// [`f64::total_cmp`], so even a NaN orders instead of panicking), so
/// candidate selection is a plain `<` with deterministic first-wins
/// tie-breaking.
#[derive(Debug, Clone, Copy)]
pub struct ObjectiveScore([f64; 3]);

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
/// leaf-variant selection (§IV.B) and recombination-strategy selection
/// (§IV.D). Both variants score figures measured under the framework
/// configuration's hardware model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompileObjective {
    /// The paper's lexicographic default: fewest emitter-emitter CNOTs,
    /// then smallest `T_loss`, then shortest duration.
    #[default]
    Emitters,
    /// Shortest circuit duration, breaking ties by ee-CNOT count, then
    /// `T_loss`.
    Duration,
}

impl CompileObjective {
    /// Scores one candidate; lower wins.
    ///
    /// # Examples
    ///
    /// ```
    /// use epgs_hardware::{CompileObjective, ObjectiveFigures};
    ///
    /// let a = ObjectiveFigures { ee_cnots: 1, duration: 5.0, t_loss: 0.5 };
    /// let b = ObjectiveFigures { ee_cnots: 1, duration: 5.0, t_loss: 0.7 };
    /// // Equal ee-CNOTs: the Emitters objective falls through to T_loss.
    /// assert!(CompileObjective::Emitters.score(&a) < CompileObjective::Emitters.score(&b));
    /// // Equal duration and ee-CNOTs: so does the Duration objective.
    /// assert!(CompileObjective::Duration.score(&a) < CompileObjective::Duration.score(&b));
    /// ```
    pub fn score(&self, figures: &ObjectiveFigures) -> ObjectiveScore {
        let ee = figures.ee_cnots as f64;
        ObjectiveScore(match self {
            CompileObjective::Emitters => [ee, figures.t_loss, figures.duration],
            CompileObjective::Duration => [figures.duration, ee, figures.t_loss],
        })
    }

    /// Stable wire name of the objective kind (used in JSON reports).
    pub fn kind_name(&self) -> &'static str {
        match self {
            CompileObjective::Emitters => "emitters",
            CompileObjective::Duration => "duration",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figs(ee: usize, duration: f64, t_loss: f64) -> ObjectiveFigures {
        ObjectiveFigures {
            ee_cnots: ee,
            duration,
            t_loss,
        }
    }

    #[test]
    fn emitters_matches_the_legacy_lexicographic_tuple() {
        // The pre-objective compiler compared (ee, t_loss, duration) tuples
        // with `<`; the Emitters score must induce the same order on every
        // pair, including the ties.
        let cases = [
            figs(0, 9.0, 3.0),
            figs(1, 1.0, 0.0),
            figs(1, 2.0, 0.0),
            figs(1, 1.0, 4.0),
            figs(2, 0.5, 0.1),
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
        let fast = figs(5, 2.0, 1.5);
        let lean = figs(1, 8.0, 0.5);
        assert!(CompileObjective::Duration.score(&fast) < CompileObjective::Duration.score(&lean));
        assert!(CompileObjective::Emitters.score(&lean) < CompileObjective::Emitters.score(&fast));
        // At equal ee-CNOTs, Emitters ranks the loss exposure `T_loss`
        // ahead of duration.
        let early = figs(1, 2.0, 3.0);
        let late = figs(1, 8.0, 0.5);
        assert!(CompileObjective::Emitters.score(&late) < CompileObjective::Emitters.score(&early));
    }

    #[test]
    fn scores_are_totally_ordered_and_ties_are_equal() {
        let a = CompileObjective::Emitters.score(&figs(1, 2.0, 3.0));
        let b = CompileObjective::Emitters.score(&figs(1, 2.0, 3.0));
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        let c = CompileObjective::Emitters.score(&figs(1, 2.0, 3.5));
        assert!(a < c, "T_loss breaks an ee-CNOT tie");
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(CompileObjective::Emitters.kind_name(), "emitters");
        assert_eq!(CompileObjective::Duration.kind_name(), "duration");
    }

    #[test]
    fn default_objective_is_emitters() {
        assert_eq!(CompileObjective::default(), CompileObjective::Emitters);
    }
}
