//! The time-reversed GraphState-to-Circuit engine.
//!
//! Following Li, Economou & Barnes (npj QI 8, 11 (2022)) — the algorithm
//! underlying GraphiQ's deterministic solver and the per-subgraph compiler of
//! the paper — the engine starts from the tableau of |G⟩ ⊗ |0⟩^m and undoes
//! it photon by photon in *reverse* emission order:
//!
//! 1. **Photon absorption** — find a stabilizer-group element `g` supported
//!    on the photon and emitters only; rotate the photon's letter to `Z` and
//!    compress `g`'s emitter support to one emitter with emitter-emitter
//!    CNOTs; the reversed emission CNOT then disentangles the photon into
//!    |0⟩. Commutation guarantees the leftover `X_e … X_j` rows are cleaned
//!    by the same CNOT (see the inline invariants).
//! 2. **Time-reversed measurement (TRM)** — when no such `g` exists, a free
//!    emitter `e` is entangled as `X_e Z_j` (forward reading: measure `e`,
//!    apply `Z` on photon `j` on outcome 1). This is what frees emitters for
//!    reuse in forward time.
//! 3. **Emitter disentangling** — after all photons are absorbed (each
//!    photon already owns an isolated `+Z` row, so no photon gauge sweep is
//!    needed), the emitter-only state is reduced to a graph state, its edges
//!    removed with CZs, and the wires Hadamard-ed back to |0⟩.
//!
//! When a step needs a free emitter and every pooled emitter is busy, the
//! solver appends a fresh |0⟩ emitter to the tableau in place (up to
//! [`SolveOptions::max_pool_growth`] of them) rather than restarting with a
//! larger pool.
//!
//! Reversing the recorded operation list and inverting each op yields the
//! forward circuit. The solver does not verify it: callers check it against
//! the target with `epgs_circuit::simulate::verify_circuit` (the framework
//! verifies the final global circuit, and every solver test its own).

use epgs_circuit::{Circuit, Op, Qubit};
use epgs_graph::gf2::BitVec;
use epgs_graph::{height, Graph};
use epgs_stabilizer::{to_graph_form, ElementScratch, LocalGate, RotGate, Tableau};

use crate::error::SolverError;

/// Reusable storage for reverse solves.
///
/// A solve needs a tableau, an operation log, a remaining-photon list, a
/// handful of packed scratch vectors, and the constraint-system scratch of
/// the tableau's element queries. One `SolverWorkspace` hosts all of them
/// and is reset (not reallocated) by every [`solve_with_ordering_in`] call,
/// so loops that run thousands of small solves — the subgraph compiler's
/// candidate-ordering search, exhaustive benchmarks — stop paying a few
/// hundred heap allocations per solve.
///
/// A workspace carries no results between solves: `solve_with_ordering_in`
/// through the same workspace returns bit-identical output to the one-shot
/// [`solve_with_ordering`].
#[derive(Debug, Clone)]
pub struct SolverWorkspace {
    /// The solver's tableau, reset in place per solve.
    t: Tableau,
    /// The reverse-time operation log.
    ops: Vec<RevOp>,
    /// Photons not yet absorbed (a stack in emission order).
    remaining: Vec<usize>,
    /// Ordering-validation mask.
    seen: Vec<bool>,
    /// General row-mask scratch (isolation sweeps, dirty-row cleanup).
    mask: BitVec,
    /// Anticommuting-row scratch for time-reversed measurements.
    anti: BitVec,
    /// Residual-row detection masks.
    inside: BitVec,
    outside: BitVec,
    touch: BitVec,
    /// Emitter wire indices `n..n+pool`.
    emitter_wires: Vec<usize>,
    /// Photon wire indices `0..n`.
    all_photons: Vec<usize>,
    /// Per-emitter affinity weights for the photon being absorbed.
    weights: Vec<usize>,
    /// Emitter support of the absorption element.
    support_e: Vec<usize>,
    /// Entangled emitters (disentangling stage).
    entangled: Vec<usize>,
    entangled_wires: Vec<usize>,
    residual_rows: Vec<usize>,
    /// Constraint-system / RREF / null-space scratch.
    element: ElementScratch,
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SolverWorkspace {
            t: Tableau::zero_state(0),
            ops: Vec::new(),
            remaining: Vec::new(),
            seen: Vec::new(),
            mask: BitVec::zeros(0),
            anti: BitVec::zeros(0),
            inside: BitVec::zeros(0),
            outside: BitVec::zeros(0),
            touch: BitVec::zeros(0),
            emitter_wires: Vec::new(),
            all_photons: Vec::new(),
            weights: Vec::new(),
            support_e: Vec::new(),
            entangled: Vec::new(),
            entangled_wires: Vec::new(),
            residual_rows: Vec::new(),
            element: ElementScratch::new(),
        }
    }
}

impl Default for SolverWorkspace {
    fn default() -> Self {
        SolverWorkspace::new()
    }
}

/// A primitive recorded while walking backwards in time.
///
/// Forward compilation reverses the list and inverts each entry.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RevOp {
    H(usize),
    S(usize),
    X(usize),
    Z(usize),
    Cnot(usize, usize),
    Cz(usize, usize),
    Emit { emitter: usize, photon: usize },
    Measure { emitter: usize, photon: usize },
}

/// Emitter-affinity hints: which emitters each photon's block was assigned
/// by the scheduler. The solver *prefers* in-group emitters (soft constraint
/// via support weights) so concurrently scheduled blocks stay on disjoint
/// emitters and the parallelism survives into the compiled circuit.
#[derive(Debug, Clone, Default)]
pub struct Affinity {
    /// Group id per photon.
    pub photon_group: Vec<usize>,
    /// Emitter indices assigned to each group.
    pub group_emitters: Vec<Vec<usize>>,
}

impl Affinity {
    /// Weight of emitter `e` for a photon of group `g`: cheap in-group,
    /// expensive outside.
    fn weight(&self, g: usize, e: usize) -> usize {
        if self
            .group_emitters
            .get(g)
            .is_some_and(|set| set.contains(&e))
        {
            1
        } else {
            8
        }
    }
}

/// Tuning knobs for a single reverse solve.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Emitter pool size; `None` sizes the pool to the height-function
    /// minimum of the ordering.
    pub emitters: Option<usize>,
    /// At most this many emitters are added to the pool, one at a time,
    /// when it runs out: a solve that needs a free emitter while every
    /// pooled one is busy appends a fresh |0⟩ emitter and carries on. The
    /// result equals a solve with a fixed pool of the reported
    /// [`Solved::emitters`] whenever the affinity names only emitters of
    /// the starting pool (an added emitter is then the last one tried).
    pub max_pool_growth: usize,
    /// Optional scheduler-provided emitter affinity.
    pub affinity: Option<Affinity>,
    /// Use the vanilla Li-et-al. generator selection (first valid element,
    /// no support-weight minimization). Faithful-baseline mode; the
    /// framework leaves this off.
    pub vanilla_elements: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            emitters: None,
            max_pool_growth: 3,
            affinity: None,
            vanilla_elements: false,
        }
    }
}

/// A compiled generation circuit plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Solved {
    /// The forward generation circuit.
    pub circuit: Circuit,
    /// Emitter pool size actually used: the starting pool plus the
    /// emitters the solve added.
    pub emitters: usize,
    /// The emission ordering that was compiled.
    pub ordering: Vec<usize>,
}

/// Compiles `target` into a generation circuit with the given emission
/// `ordering`.
///
/// # Errors
///
/// * [`SolverError::InvalidOrdering`] if `ordering` is not a permutation;
/// * [`SolverError::InsufficientEmitters`] if the pool, with
///   `max_pool_growth` emitters added one at a time as it runs out, cannot
///   host the ordering.
pub fn solve_with_ordering(
    target: &Graph,
    ordering: &[usize],
    options: &SolveOptions,
) -> Result<Solved, SolverError> {
    solve_with_ordering_in(&mut SolverWorkspace::new(), target, ordering, options)
}

/// [`solve_with_ordering`] through a reusable [`SolverWorkspace`]: identical
/// output, but back-to-back solves reuse every buffer instead of
/// reallocating them. The workspace carries no state between calls.
///
/// # Errors
///
/// See [`solve_with_ordering`].
pub fn solve_with_ordering_in(
    ws: &mut SolverWorkspace,
    target: &Graph,
    ordering: &[usize],
    options: &SolveOptions,
) -> Result<Solved, SolverError> {
    let n = target.vertex_count();
    {
        ws.seen.clear();
        ws.seen.resize(n, false);
        let seen = &mut ws.seen;
        if ordering.len() != n
            || ordering.iter().any(|&p| {
                if p >= n || seen[p] {
                    true
                } else {
                    seen[p] = true;
                    false
                }
            })
        {
            return Err(SolverError::InvalidOrdering { photons: n });
        }
    }
    let pool = options
        .emitters
        .unwrap_or_else(|| height::min_emitters(target, ordering).max(1));
    let circuit = ReverseSolver::new(
        ws,
        target,
        ordering,
        pool,
        pool + options.max_pool_growth,
        options.affinity.as_ref(),
        options.vanilla_elements,
    )
    .run()?;
    Ok(Solved {
        emitters: circuit.num_emitters(),
        circuit,
        ordering: ordering.to_vec(),
    })
}

/// Compiles `target` with the natural ordering `0..n`.
///
/// # Errors
///
/// See [`solve_with_ordering`].
pub fn solve(target: &Graph, options: &SolveOptions) -> Result<Solved, SolverError> {
    let ordering: Vec<usize> = (0..target.vertex_count()).collect();
    solve_with_ordering(target, &ordering, options)
}

/// Emitter weight for work on photon `j` (1 in-group, 8 out-of-group).
fn weight_for(affinity: Option<&Affinity>, j: usize, e: usize) -> usize {
    match affinity {
        Some(aff) => aff.weight(aff.photon_group.get(j).copied().unwrap_or(0), e),
        None => 1,
    }
}

struct ReverseSolver<'g> {
    ws: &'g mut SolverWorkspace,
    ordering: &'g [usize],
    n: usize,
    /// Emitters on the tableau now; grows up to `max_pool`.
    pool: usize,
    max_pool: usize,
    affinity: Option<&'g Affinity>,
    vanilla_elements: bool,
}

impl<'g> ReverseSolver<'g> {
    fn new(
        ws: &'g mut SolverWorkspace,
        target: &'g Graph,
        ordering: &'g [usize],
        pool: usize,
        max_pool: usize,
        affinity: Option<&'g Affinity>,
        vanilla_elements: bool,
    ) -> Self {
        let n = target.vertex_count();
        // Wires: photons 0..n, emitters n..n+pool — the photon wires carry
        // |G⟩, the emitter wires |0⟩ (state prep, not recorded).
        ws.t.reset_graph_state_padded(target, pool);
        ws.ops.clear();
        ReverseSolver {
            ws,
            ordering,
            n,
            pool,
            max_pool,
            affinity,
            vanilla_elements,
        }
    }

    /// Emitter weight for work on photon `j` (1 in-group, 8 out-of-group).
    fn emitter_weight(&self, j: usize, e: usize) -> usize {
        weight_for(self.affinity, j, e)
    }

    fn emitter_wire(&self, e: usize) -> usize {
        self.n + e
    }

    /// Applies a reverse-time gate to the tableau and records it.
    fn apply(&mut self, op: RevOp) {
        match op {
            RevOp::H(q) => self.ws.t.h(q),
            RevOp::S(q) => self.ws.t.s(q),
            RevOp::X(q) => self.ws.t.px(q),
            RevOp::Z(q) => self.ws.t.pz(q),
            RevOp::Cnot(c, t) => self.ws.t.cnot(c, t),
            RevOp::Cz(a, b) => self.ws.t.cz(a, b),
            RevOp::Emit { emitter, photon } => self.ws.t.cnot(self.n + emitter, photon),
            RevOp::Measure { .. } => {
                unreachable!("TRM mutates the tableau explicitly, not via apply()")
            }
        }
        self.ws.ops.push(op);
    }

    /// Records the gates returned by `rotate_to_z` on wire `q`.
    fn record_rotation(&mut self, gates: &[RotGate], q: usize) {
        for g in gates {
            self.ws.ops.push(match g {
                RotGate::H => RevOp::H(q),
                RotGate::S => RevOp::S(q),
            });
        }
    }

    /// An emitter currently free (disentangled in |0⟩ or |1⟩), preferring
    /// emitters assigned to photon `j`'s block; when every emitter is busy,
    /// a fresh one if the pool may still grow. Every caller isolates the
    /// emitter's `Z` row next, which also fixes |1⟩ to |0⟩.
    fn find_free_emitter(&mut self, j: usize) -> Option<usize> {
        // Visit emitters sorted by (weight, e) without materializing a
        // candidate Vec: sweep one weight tier at a time, deriving the next
        // tier from the observed weights so any future weight scheme keeps
        // working (today's `Affinity::weight` yields only 1 and 8).
        let mut done_below: Option<usize> = None;
        while let Some(tier) = (0..self.pool)
            .map(|e| self.emitter_weight(j, e))
            .filter(|&w| done_below.is_none_or(|d| w > d))
            .min()
        {
            for e in 0..self.pool {
                if self.emitter_weight(j, e) != tier {
                    continue;
                }
                // Free ⟺ no generator has an X on the wire.
                if self.ws.t.col_x(self.emitter_wire(e)).is_zero() {
                    return Some(e);
                }
            }
            done_below = Some(tier);
        }
        self.grow_pool(j)
    }

    /// Appends a fresh |0⟩ emitter as the last wire and row, unless the
    /// pool is at `max_pool`, and returns it. The current absorption's
    /// allowed-wire list and weights learn about it too.
    ///
    /// A fixed pool holding this emitter from the start gives the same
    /// solve: an idle |0⟩ emitter's generator is its isolated `+Z` row, so
    /// in each element search it is either a zero column (emitter allowed;
    /// its null vector only adds weight) or, through that singleton row,
    /// substituted out of the system altogether (emitter forbidden), and
    /// it is the last emitter of its weight tier, so it is picked exactly
    /// when every other emitter is busy — here.
    fn grow_pool(&mut self, j: usize) -> Option<usize> {
        if self.pool == self.max_pool {
            return None;
        }
        let e = self.pool;
        let weight = self.emitter_weight(j, e);
        let ws = &mut *self.ws;
        let wire = ws.t.append_zero_qubit();
        debug_assert_eq!(wire, self.n + e);
        ws.emitter_wires.push(wire);
        ws.weights.push(weight);
        self.pool += 1;
        Some(e)
    }

    /// Brings the tableau to a gauge where exactly one row is `+Z_wire` and
    /// no other row touches `wire`; returns that row. Only valid for free
    /// wires.
    fn isolate_free_wire_row(&mut self, wire: usize) -> usize {
        let ws = &mut *self.ws;
        let rows =
            ws.t.find_element_supported_on_in(&[], wire, &[], &mut ws.element)
                .expect("wire is free, Z_wire is in the group");
        let row = ws.t.combine_rows(&rows);
        debug_assert_eq!(ws.t.support(row), vec![wire]);
        // Clear the wire from every other row (z bits only; x bits cannot
        // exist on a free wire) with one word-parallel broadcast over the
        // wire's packed column.
        debug_assert!(
            {
                let mut x = ws.t.col_x(wire).clone();
                x.set(row, false);
                x.is_zero()
            },
            "free wire cannot have X support"
        );
        ws.t.rows_touching_into(wire, &mut ws.mask);
        ws.mask.set(row, false);
        ws.t.mul_row_into_mask(row, &ws.mask);
        if ws.t.phase_of(row) == 2 {
            debug_assert!(
                wire >= self.n,
                "photon rows are sign-fixed at absorption; only emitters may flip here"
            );
            self.apply(RevOp::X(wire));
        }
        debug_assert_eq!(self.ws.t.phase_of(row), 0);
        row
    }

    /// Time-reversed measurement: entangles free emitter `e` as `X_e Z_j`.
    ///
    /// Forward reading: measure `e` in Z; on outcome 1 apply `Z` to photon
    /// `j` (and reset `e`). Afterwards the group contains an element with
    /// photon support `{j}`, so absorption can proceed.
    fn time_reversed_measure(&mut self, e: usize, j: usize) {
        let wire = self.emitter_wire(e);
        let ze_row = self.isolate_free_wire_row(wire);
        let ws = &mut *self.ws;
        // Pair up the generators anticommuting with Z_j (those with X at j),
        // reading the photon's packed X column word-at-a-time.
        ws.anti.copy_from(ws.t.col_x(j));
        ws.anti.set(ze_row, false);
        let s1 = ws
            .anti
            .first_one()
            .expect("TRM called although Z_j commutes with the group (photon already product)");
        ws.anti.set(s1, false);
        ws.t.mul_row_into_mask(s1, &ws.anti);
        // s1 := Z_e · s1 keeps the generating set full rank.
        ws.t.row_mul(s1, ze_row);
        // ze_row := X_e Z_j.
        ws.t.clear_row(ze_row);
        ws.t.set_x_bit(ze_row, wire, true);
        ws.t.set_z_bit(ze_row, j, true);
        debug_assert!(ws.t.is_valid_state(), "TRM broke the stabilizer group");
        ws.ops.push(RevOp::Measure {
            emitter: e,
            photon: j,
        });
    }

    /// Absorbs photon `j` (the last unabsorbed photon of the ordering).
    fn absorb_photon(&mut self, j: usize) -> Result<(), SolverError> {
        let n = self.n;
        let vanilla = self.vanilla_elements;
        let affinity = self.affinity;
        {
            // Emitters added during this absorption are appended by
            // `grow_pool`.
            let pool = self.pool;
            let ws = &mut *self.ws;
            ws.emitter_wires.clear();
            ws.emitter_wires.extend(n..n + pool);
            ws.all_photons.clear();
            ws.all_photons.extend(0..n);
            ws.weights.clear();
            ws.weights
                .extend((0..pool).map(|e| weight_for(affinity, j, e)));
        }

        /// Finds a group element with photon support {j}.
        fn find_rows(
            ws: &mut SolverWorkspace,
            vanilla: bool,
            j: usize,
            n: usize,
        ) -> Option<Vec<usize>> {
            if vanilla {
                ws.t.find_element_any_in(&ws.all_photons, j, &ws.emitter_wires, &mut ws.element)
            } else {
                let weights = &ws.weights;
                ws.t.find_element_weighted_in(
                    &ws.all_photons,
                    j,
                    &ws.emitter_wires,
                    |wire| weights[wire - n],
                    &mut ws.element,
                )
            }
        }

        // Find the element; TRM first if needed.
        let rows = match find_rows(self.ws, vanilla, j, n) {
            Some(rows) => rows,
            None => {
                let free = self
                    .find_free_emitter(j)
                    .ok_or(SolverError::InsufficientEmitters {
                        pool: self.pool,
                        photon: j,
                    })?;
                self.time_reversed_measure(free, j);
                find_rows(self.ws, vanilla, j, n).expect("TRM guarantees X_e Z_j is in the group")
            }
        };
        let rg = self.ws.t.combine_rows(&rows);

        // Rotate the photon's letter to Z.
        let gates = self
            .ws
            .t
            .rotate_to_z(rg, j)
            .expect("rg has support on photon j");
        self.record_rotation(&gates, j);

        // Emitter support of g (the pool may have grown for the TRM).
        {
            let ws = &mut *self.ws;
            ws.support_e.clear();
            for e in 0..self.pool {
                let w = n + e;
                if ws.t.x_bit(rg, w) || ws.t.z_bit(rg, w) {
                    ws.support_e.push(e);
                }
            }
        }

        if self.ws.support_e.is_empty() {
            // Product photon: emit it from a free emitter via g := Z_e · g.
            let free = self
                .find_free_emitter(j)
                .ok_or(SolverError::InsufficientEmitters {
                    pool: self.pool,
                    photon: j,
                })?;
            let wire = self.emitter_wire(free);
            let ze_row = self.isolate_free_wire_row(wire);
            debug_assert_ne!(ze_row, rg, "Z_e row cannot be the photon row");
            self.ws.t.row_mul(rg, ze_row);
            self.ws.support_e.push(free);
        }

        // Compress emitter support onto a single emitter with ee-CNOTs,
        // preferring an in-group emitter as the survivor.
        {
            let ws = &mut *self.ws;
            let weights = &ws.weights;
            ws.support_e.sort_by_key(|&e| (weights[e], e));
        }
        let target_e = self.ws.support_e[0];
        let target_wire = self.emitter_wire(target_e);
        let gates = self
            .ws
            .t
            .rotate_to_z(rg, target_wire)
            .expect("rg has support on the target emitter");
        self.record_rotation(&gates, target_wire);
        for k in 1..self.ws.support_e.len() {
            let other_wire = self.emitter_wire(self.ws.support_e[k]);
            let gates = self
                .ws
                .t
                .rotate_to_z(rg, other_wire)
                .expect("rg has support on this emitter");
            self.record_rotation(&gates, other_wire);
            // CNOT(control=other, target=target) maps Z_other Z_target → Z_target.
            self.apply(RevOp::Cnot(other_wire, target_wire));
            debug_assert!(!self.ws.t.x_bit(rg, other_wire) && !self.ws.t.z_bit(rg, other_wire));
        }
        debug_assert_eq!(
            {
                let mut s = self.ws.t.support(rg);
                s.retain(|&w| w != j);
                s
            },
            vec![target_wire],
            "g must be supported on the photon and one emitter"
        );

        // Clean Z_j (and Y_j → X_j) from every other row by multiplying with
        // g — one broadcast over the photon's packed Z column.
        {
            let ws = &mut *self.ws;
            ws.mask.copy_from(ws.t.col_z(j));
            ws.mask.set(rg, false);
            ws.t.mul_row_into_mask(rg, &ws.mask);
        }

        // Sign fix *before* the reversed emission so that the forward X
        // lands right after the emission (photon gates are only legal after
        // the photon exists). X_j flips the sign of rows with a Z at j,
        // which is now only g itself.
        if self.ws.t.phase_of(rg) == 2 {
            self.apply(RevOp::X(j));
        }
        debug_assert_eq!(self.ws.t.phase_of(rg), 0);

        // Reversed emission. Commutation with g = Z_e Z_j forces every other
        // row touching j to carry X_j together with X/Y on e, and the CNOT
        // clears both simultaneously.
        self.apply(RevOp::Emit {
            emitter: target_e,
            photon: j,
        });

        // The photon must now be fully disentangled: its row is +Z_j.
        debug_assert_eq!(self.ws.t.support(rg), vec![j]);
        debug_assert_eq!(self.ws.t.phase_of(rg), 0);
        debug_assert!(
            {
                let mut touch = self.ws.t.rows_touching(j);
                touch.set(rg, false);
                touch.is_zero()
            },
            "photon {j} still entangled after reversed emission"
        );
        Ok(())
    }

    /// Disentangles the emitter register to |0⟩^pool after all photons are
    /// absorbed, paying one CZ per edge of the emitters' residual graph
    /// state.
    fn disentangle_emitters(&mut self) {
        // Absorption left each photon wire one isolated `+Z` row, and no
        // later row operation touches a row supported on one photon alone.
        debug_assert!(
            (0..self.n).all(|p| {
                let t = &self.ws.t;
                let row = t.col_z(p).first_one();
                t.col_x(p).is_zero()
                    && t.col_z(p).count_ones() == 1
                    && row.is_some_and(|r| t.phase_of(r) == 0 && t.support(r) == [p])
            }),
            "every absorbed photon must own an isolated +Z row"
        );
        // Classify emitters: free ones get gauge-isolated (and |1⟩-fixed),
        // entangled ones make up the residual state to reduce. Skipping free
        // emitters keeps idle pool wires gate-free in the forward circuit.
        self.ws.entangled.clear();
        for e in 0..self.pool {
            let wire = self.emitter_wire(e);
            // Free ⟺ no generator has an X on the wire.
            let free = self.ws.t.col_x(wire).is_zero();
            if free {
                let _ = self.isolate_free_wire_row(wire);
            } else {
                self.ws.entangled.push(e);
            }
        }
        if self.ws.entangled.is_empty() {
            return;
        }
        let n = self.n;
        let ws = &mut *self.ws;
        ws.entangled_wires.clear();
        ws.entangled_wires
            .extend(ws.entangled.iter().map(|&e| n + e));
        let entangled_wires = &ws.entangled_wires;
        // Rows of the residual state: support non-empty and inside the
        // entangled wire set (every other wire owns an isolated ±Z row).
        // Computed word-parallel: OR the per-wire "rows touching" masks into
        // an inside/outside pair and keep rows seen only inside.
        let total = ws.t.num_qubits();
        ws.inside.reset(total);
        ws.outside.reset(total);
        for w in 0..total {
            ws.t.rows_touching_into(w, &mut ws.touch);
            if entangled_wires.binary_search(&w).is_ok() {
                ws.inside.or_with(&ws.touch);
            } else {
                ws.outside.or_with(&ws.touch);
            }
        }
        let outside = &ws.outside;
        ws.residual_rows.clear();
        ws.residual_rows
            .extend(ws.inside.ones().filter(|&r| !outside.get(r)));
        debug_assert_eq!(
            ws.residual_rows.len(),
            ws.entangled.len(),
            "residual emitter state must have one generator per entangled wire"
        );
        let mut sub = Tableau::zero_state(ws.entangled.len());
        sub.clear_all_rows();
        for (sr, &r) in ws.residual_rows.iter().enumerate() {
            for (k, &w) in entangled_wires.iter().enumerate() {
                sub.set_x_bit(sr, k, ws.t.x_bit(r, w));
                sub.set_z_bit(sr, k, ws.t.z_bit(r, w));
            }
            sub.set_phase(sr, ws.t.phase_of(r));
        }
        debug_assert!(sub.is_valid_state(), "emitter substate must be pure");
        let form = to_graph_form(&mut sub).expect("pure states always reduce");
        for gate in &form.gates {
            match *gate {
                LocalGate::H(k) => self.apply(RevOp::H(self.ws.entangled_wires[k])),
                LocalGate::S(k) => self.apply(RevOp::S(self.ws.entangled_wires[k])),
                LocalGate::Z(k) => self.apply(RevOp::Z(self.ws.entangled_wires[k])),
            }
        }
        for (a, b) in form.graph.edges() {
            self.apply(RevOp::Cz(
                self.ws.entangled_wires[a],
                self.ws.entangled_wires[b],
            ));
        }
        for k in 0..self.ws.entangled_wires.len() {
            let w = self.ws.entangled_wires[k];
            self.apply(RevOp::H(w));
        }
        // No sign fix is needed: the residual rows touch no other wire and
        // no other row touches the entangled wires, so these gates act on
        // the full tableau exactly as on `sub`. `to_graph_form`'s Z gates
        // leave `+|G⟩`, the CZs map it to `+|+…+⟩` and the Hadamards to
        // `+|0…0⟩`, signs included, which `run` asserts.
    }

    fn run(mut self) -> Result<Circuit, SolverError> {
        self.ws.remaining.clear();
        self.ws.remaining.extend_from_slice(self.ordering);
        while let Some(j) = self.ws.remaining.pop() {
            self.absorb_photon(j)?;
        }
        self.disentangle_emitters();
        debug_assert!(
            self.ws.t.num_qubits() == self.n + self.pool && self.ws.t.is_zero_state(),
            "reverse walk must terminate in |0…0⟩"
        );
        Ok(self.into_circuit())
    }

    /// Reverses and inverts the recorded ops into the forward circuit,
    /// draining the workspace's op log.
    fn into_circuit(self) -> Circuit {
        let n = self.n;
        let qubit = |wire: usize| -> Qubit {
            if wire < n {
                Qubit::Photon(wire)
            } else {
                Qubit::Emitter(wire - n)
            }
        };
        let mut c = Circuit::new(self.pool, n);
        for op in self.ws.ops.drain(..).rev() {
            match op {
                RevOp::H(w) => c.push(Op::H(qubit(w))),
                RevOp::S(w) => c.push(Op::Sdg(qubit(w))),
                RevOp::X(w) => c.push(Op::X(qubit(w))),
                RevOp::Z(w) => c.push(Op::Z(qubit(w))),
                RevOp::Cnot(cw, tw) => c.push(Op::Cnot(cw - n, tw - n)),
                RevOp::Cz(a, b) => c.push(Op::Cz(a - n, b - n)),
                RevOp::Emit { emitter, photon } => c.push(Op::Emit { emitter, photon }),
                RevOp::Measure { emitter, photon } => c.push(Op::MeasureZ {
                    emitter,
                    corrections: vec![(Qubit::Photon(photon), epgs_stabilizer::Pauli::Z)],
                }),
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_circuit::simulate::verify_circuit;
    use epgs_graph::generators;

    /// Solves `g` under `ordering` and checks the circuit regenerates it.
    fn solve_verified(g: &Graph, ordering: &[usize], options: &SolveOptions) -> Solved {
        let s = solve_with_ordering(g, ordering, options).expect("solve must succeed");
        assert!(verify_circuit(&s.circuit, g).unwrap(), "{ordering:?}");
        s
    }

    fn solve_ok(g: &Graph) -> Solved {
        let natural: Vec<usize> = (0..g.vertex_count()).collect();
        solve_verified(g, &natural, &SolveOptions::default())
    }

    #[test]
    fn single_vertex() {
        let g = Graph::new(1);
        let s = solve_ok(&g);
        assert_eq!(s.circuit.emission_count(), 1);
    }

    #[test]
    fn two_vertex_edge() {
        let g = generators::path(2);
        let s = solve_ok(&g);
        assert!(s.circuit.validate().is_ok());
    }

    #[test]
    fn linear_clusters_up_to_10() {
        for n in 2..=10 {
            let g = generators::path(n);
            let s = solve_ok(&g);
            assert_eq!(s.emitters, 1, "paths need one emitter (n={n})");
            assert_eq!(
                s.circuit.ee_two_qubit_count(),
                0,
                "single-emitter circuits need no ee gates (n={n})"
            );
        }
    }

    #[test]
    fn ghz_star_needs_one_emitter() {
        let g = generators::star(6);
        let s = solve_ok(&g);
        assert_eq!(s.emitters, 1);
        assert_eq!(s.circuit.ee_two_qubit_count(), 0);
    }

    #[test]
    fn cycles_need_two_emitters() {
        // cycle(3) = K3 is LC-equivalent to GHZ and needs one emitter;
        // proper cycles (n ≥ 4) need two.
        for n in 4..=8 {
            let g = generators::cycle(n);
            let s = solve_ok(&g);
            assert!(s.emitters >= 2, "cycles need ≥ 2 emitters (n={n})");
        }
    }

    #[test]
    fn lattice_solves() {
        let g = generators::lattice(3, 3);
        let s = solve_ok(&g);
        assert!(s.circuit.validate().is_ok());
        assert!(s.circuit.ee_two_qubit_count() >= 1);
    }

    #[test]
    fn complete_graph_solves() {
        let g = generators::complete(5);
        let _ = solve_ok(&g);
    }

    #[test]
    fn trees_solve() {
        let g = generators::tree(10, 2);
        let _ = solve_ok(&g);
    }

    #[test]
    fn rgs_solves() {
        let g = generators::repeater_graph_state(2);
        let _ = solve_ok(&g);
    }

    #[test]
    fn random_graphs_solve_and_verify() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..15 {
            solve_ok(&generators::erdos_renyi(8, 0.35, &mut rng));
        }
    }

    #[test]
    fn custom_ordering_is_respected() {
        let g = generators::path(5);
        let ordering = vec![4, 3, 2, 1, 0];
        let s = solve_verified(&g, &ordering, &SolveOptions::default());
        assert_eq!(s.ordering, ordering);
    }

    #[test]
    fn invalid_ordering_rejected() {
        let g = generators::path(3);
        assert!(matches!(
            solve_with_ordering(&g, &[0, 0, 1], &SolveOptions::default()),
            Err(SolverError::InvalidOrdering { photons: 3 })
        ));
        assert!(matches!(
            solve_with_ordering(&g, &[0, 1], &SolveOptions::default()),
            Err(SolverError::InvalidOrdering { .. })
        ));
    }

    #[test]
    fn explicit_pool_is_honored() {
        let g = generators::path(6);
        let opts = SolveOptions {
            emitters: Some(3),
            ..SolveOptions::default()
        };
        let s = solve_verified(&g, &[0, 1, 2, 3, 4, 5], &opts);
        assert_eq!(s.emitters, 3);
        assert_eq!(s.circuit.num_emitters(), 3);
    }

    #[test]
    fn bad_ordering_needs_more_emitters() {
        // Interleaved path ordering raises the height function.
        let g = generators::path(6);
        let s = solve_verified(&g, &[0, 2, 4, 1, 3, 5], &SolveOptions::default());
        assert!(s.emitters > 1);
    }

    #[test]
    fn measurements_appear_for_emitter_reuse() {
        // A long path with an interleaved ordering forces TRMs.
        let g = generators::path(8);
        let s = solve_verified(&g, &[0, 2, 4, 6, 1, 3, 5, 7], &SolveOptions::default());
        assert!(s.circuit.measurement_count() > 0);
    }
}
