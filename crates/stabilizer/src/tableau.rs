//! Phase-tracked stabilizer tableaux.
//!
//! A [`Tableau`] holds `n` commuting Hermitian Pauli generators on `n`
//! qubits — a pure stabilizer state. The convention is described in
//! [`crate::pauli`]: row = `i^r · Π_q X_q^{x_q} Z_q^{z_q}` with `r ∈ Z₄`.
//!
//! # Data layout
//!
//! Storage is *bit-sliced* (column-major): each qubit `q` owns two packed
//! [`BitVec`] columns, `xs[q]` and `zs[q]`, whose bit `r` is the X/Z
//! component of generator row `r` at `q`. Phases are packed the same way —
//! two sign bit-vectors `phase_lo`/`phase_hi` over rows encode
//! `r = lo + 2·hi` — so a Clifford gate on one or two qubits updates all `n`
//! generators with `O(n/64)` word operations and the phase bookkeeping is a
//! handful of bitwise formulas instead of per-row `% 4` arithmetic:
//!
//! * `+1 (mod 4)` on a row mask `m`: `hi ^= lo & m; lo ^= m` (carry),
//! * `+2 (mod 4)`: `hi ^= m`,
//! * `+3 (mod 4)`: `hi ^= !lo & m; lo ^= m` (borrow).
//!
//! Row products use the same trick in the other direction:
//! [`Tableau::mul_row_into_mask`] multiplies one source row into *every*
//! row of a mask simultaneously, with the reordering signs accumulated as a
//! packed parity vector. Gauge sweeps (measurement, canonicalization,
//! echelon form, graph-form reduction, the solver's wire isolation) are all
//! built on that broadcast. The scalar original is kept, as the oracle,
//! next to the equivalence suite in `tests/reference/mod.rs`.
//!
//! The gate set is the Clifford generators used by the emitter-photonic
//! compiler: `H`, `S`/`S†`, Paulis, `CNOT`, `CZ`, plus row operations and a
//! forced-outcome Z measurement (the compiler chooses the branch it encodes
//! corrections for; verification exercises both branches).

use epgs_graph::gf2::{BitMatrix, BitVec};
use epgs_graph::Graph;

use crate::error::StabilizerError;
use crate::pauli::Pauli;

/// A pure stabilizer state on `n` qubits as `n` phase-tracked generators.
///
/// # Examples
///
/// ```
/// use epgs_stabilizer::Tableau;
///
/// // |00⟩ → Bell pair.
/// let mut t = Tableau::zero_state(2);
/// t.h(0);
/// t.cnot(0, 1);
/// assert!(t.is_valid_state());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Tableau {
    n: usize,
    /// Per-qubit X columns: bit `r` of `xs[q]` is the X bit of row `r` at `q`.
    xs: Vec<BitVec>,
    /// Per-qubit Z columns, same packing.
    zs: Vec<BitVec>,
    /// Low bit of the phase exponent, packed over rows.
    phase_lo: BitVec,
    /// High bit of the phase exponent, packed over rows.
    phase_hi: BitVec,
}

/// Result of a Z-basis measurement on a stabilizer state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureOutcome {
    /// The outcome was already determined by the state.
    Deterministic(bool),
    /// The outcome was random; the tableau was collapsed onto the outcome
    /// that was forced by the caller.
    Random(bool),
}

impl MeasureOutcome {
    /// The measured bit regardless of determinism.
    pub fn bit(self) -> bool {
        match self {
            MeasureOutcome::Deterministic(b) | MeasureOutcome::Random(b) => b,
        }
    }
}

/// `phase += 1 (mod 4)` for every row in `mask`.
#[inline]
fn phase_add1(lo: &mut BitVec, hi: &mut BitVec, mask: &[u64]) {
    for ((l, h), &m) in lo
        .words_mut()
        .iter_mut()
        .zip(hi.words_mut().iter_mut())
        .zip(mask)
    {
        *h ^= *l & m;
        *l ^= m;
    }
}

/// `phase += 2 (mod 4)` for every row in `mask`.
#[inline]
fn phase_add2(hi: &mut BitVec, mask: &[u64]) {
    for (h, &m) in hi.words_mut().iter_mut().zip(mask) {
        *h ^= m;
    }
}

/// `phase += 3 (mod 4)` for every row in `mask`.
#[inline]
fn phase_add3(lo: &mut BitVec, hi: &mut BitVec, mask: &[u64]) {
    for ((l, h), &m) in lo
        .words_mut()
        .iter_mut()
        .zip(hi.words_mut().iter_mut())
        .zip(mask)
    {
        *h ^= !*l & m;
        *l ^= m;
    }
}

/// Mutable references to two distinct columns of the store.
#[inline]
fn pair_mut(cols: &mut [BitVec], a: usize, b: usize) -> (&mut BitVec, &mut BitVec) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = cols.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = cols.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

impl Tableau {
    fn blank(n: usize) -> Self {
        Tableau {
            n,
            xs: vec![BitVec::zeros(n); n],
            zs: vec![BitVec::zeros(n); n],
            phase_lo: BitVec::zeros(n),
            phase_hi: BitVec::zeros(n),
        }
    }

    /// The all-|0⟩ state: generators `Z_q`.
    pub fn zero_state(n: usize) -> Self {
        let mut t = Tableau::blank(n);
        for q in 0..n {
            t.zs[q].set(q, true);
        }
        t
    }

    /// The graph state |G⟩: generators `X_v Z_{N(v)}`.
    pub fn graph_state(g: &Graph) -> Self {
        let n = g.vertex_count();
        let mut t = Tableau::blank(n);
        for v in 0..n {
            t.xs[v].set(v, true);
            for &w in g.neighbors(v) {
                t.zs[w].set(v, true);
            }
        }
        t
    }

    /// Resets the tableau in place to |G⟩ ⊗ |0⟩^pad: photon wires `0..n`
    /// carry the graph-state generators `X_v Z_{N(v)}`, the `pad` trailing
    /// wires carry `Z_w` (fresh |0⟩ ancillas). Reuses the existing storage
    /// when the qubit count matches — the workspace-reuse entry point for
    /// solvers that run thousands of small solves back to back.
    ///
    /// Equivalent to building [`Tableau::graph_state`] of `g` embedded in
    /// `n + pad` wires and applying `H` to each pad wire, bit for bit.
    pub fn reset_graph_state_padded(&mut self, g: &Graph, pad: usize) {
        let n = g.vertex_count();
        let total = n + pad;
        if self.n != total {
            *self = Tableau::blank(total);
        } else {
            self.clear_all_rows();
        }
        for v in 0..n {
            self.xs[v].set(v, true);
            for &w in g.neighbors(v) {
                self.zs[w].set(v, true);
            }
        }
        for w in n..total {
            self.zs[w].set(w, true);
        }
    }

    /// Appends a fresh |0⟩ qubit as the last wire, stabilized by a new last
    /// row `+Z`, and returns its index: the state becomes |ψ⟩ ⊗ |0⟩. Every
    /// existing row gets an identity letter on the new wire, so after
    /// [`Tableau::reset_graph_state_padded`]`(g, pad)` this yields the
    /// tableau of `reset_graph_state_padded(g, pad + 1)` bit for bit.
    pub fn append_zero_qubit(&mut self) -> usize {
        let q = self.n;
        for col in self.xs.iter_mut().chain(&mut self.zs) {
            col.push(false);
        }
        self.phase_lo.push(false);
        self.phase_hi.push(false);
        self.n += 1;
        self.xs.push(BitVec::zeros(self.n));
        let mut z = BitVec::zeros(self.n);
        z.set(q, true);
        self.zs.push(z);
        q
    }

    /// Number of qubits (and generators).
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The Pauli letter of row `row` at qubit `q` (phase ignored).
    pub fn pauli_at(&self, row: usize, q: usize) -> Pauli {
        Pauli::from_bits(self.xs[q].get(row), self.zs[q].get(row))
    }

    /// The phase exponent `r ∈ Z₄` of row `row`.
    pub fn phase_of(&self, row: usize) -> u8 {
        self.phase_lo.get(row) as u8 + 2 * self.phase_hi.get(row) as u8
    }

    /// X bit of row `row` at qubit `q`.
    #[inline]
    pub fn x_bit(&self, row: usize, q: usize) -> bool {
        self.xs[q].get(row)
    }

    /// Z bit of row `row` at qubit `q`.
    #[inline]
    pub fn z_bit(&self, row: usize, q: usize) -> bool {
        self.zs[q].get(row)
    }

    /// The packed X column of qubit `q` (bit `r` = X bit of row `r`).
    ///
    /// Column views are the word-parallel query interface: "which rows have
    /// an X at `q`" is `col_x(q).ones()` rather than an `n`-step bit scan.
    #[inline]
    pub fn col_x(&self, q: usize) -> &BitVec {
        &self.xs[q]
    }

    /// The packed Z column of qubit `q` (bit `r` = Z bit of row `r`).
    #[inline]
    pub fn col_z(&self, q: usize) -> &BitVec {
        &self.zs[q]
    }

    /// Mask of rows acting non-trivially on qubit `q` (`col_x | col_z`).
    pub fn rows_touching(&self, q: usize) -> BitVec {
        let mut m = self.xs[q].clone();
        m.or_with(&self.zs[q]);
        m
    }

    /// Allocation-free [`Tableau::rows_touching`]: writes the mask into
    /// `out`, reusing its storage.
    pub fn rows_touching_into(&self, q: usize, out: &mut BitVec) {
        out.copy_from(&self.xs[q]);
        out.or_with(&self.zs[q]);
    }

    /// Qubits where row `row` acts non-trivially, in increasing order.
    pub fn support(&self, row: usize) -> Vec<usize> {
        let (rw, rm) = (row / 64, 1u64 << (row % 64));
        (0..self.n)
            .filter(|&q| (self.xs[q].words()[rw] | self.zs[q].words()[rw]) & rm != 0)
            .collect()
    }

    // ---- Clifford gates (conjugation of every generator) -----------------

    /// Hadamard on qubit `q` (`X ↔ Z`).
    pub fn h(&mut self, q: usize) {
        // XZ → ZX = −XZ on rows with both bits set.
        let xq = &self.xs[q];
        let zq = &self.zs[q];
        for ((h, &x), &z) in self
            .phase_hi
            .words_mut()
            .iter_mut()
            .zip(xq.words())
            .zip(zq.words())
        {
            *h ^= x & z;
        }
        std::mem::swap(&mut self.xs[q], &mut self.zs[q]);
    }

    /// Phase gate S on qubit `q` (`X → Y`).
    pub fn s(&mut self, q: usize) {
        // X → i·XZ ; XZ → i·X on rows with an X: z ^= x, phase += 1.
        let xq = &self.xs[q];
        let zq = &mut self.zs[q];
        for (z, &x) in zq.words_mut().iter_mut().zip(xq.words()) {
            *z ^= x;
        }
        phase_add1(&mut self.phase_lo, &mut self.phase_hi, xq.words());
    }

    /// Inverse phase gate S† on qubit `q` (`X → −Y`).
    pub fn sdg(&mut self, q: usize) {
        let xq = &self.xs[q];
        let zq = &mut self.zs[q];
        for (z, &x) in zq.words_mut().iter_mut().zip(xq.words()) {
            *z ^= x;
        }
        phase_add3(&mut self.phase_lo, &mut self.phase_hi, xq.words());
    }

    /// Pauli X on qubit `q` (flips the sign of rows with a Z there).
    pub fn px(&mut self, q: usize) {
        phase_add2(&mut self.phase_hi, self.zs[q].words());
    }

    /// Pauli Z on qubit `q` (flips the sign of rows with an X there).
    pub fn pz(&mut self, q: usize) {
        phase_add2(&mut self.phase_hi, self.xs[q].words());
    }

    /// Pauli Y on qubit `q`.
    pub fn py(&mut self, q: usize) {
        let xq = &self.xs[q];
        let zq = &self.zs[q];
        for ((h, &x), &z) in self
            .phase_hi
            .words_mut()
            .iter_mut()
            .zip(xq.words())
            .zip(zq.words())
        {
            *h ^= x ^ z;
        }
    }

    /// CNOT with control `c`, target `t`.
    ///
    /// In the literal X-before-Z phase convention CNOT introduces no phase:
    /// `x_t ^= x_c`, `z_c ^= z_t` only.
    ///
    /// # Panics
    ///
    /// Panics if `c == t`.
    pub fn cnot(&mut self, c: usize, t: usize) {
        assert_ne!(c, t, "cnot requires distinct qubits");
        let (xt, xc) = pair_mut(&mut self.xs, t, c);
        xt.xor_with(xc);
        let (zc, zt) = pair_mut(&mut self.zs, c, t);
        zc.xor_with(zt);
    }

    /// CZ on qubits `a`, `b`.
    ///
    /// `z_b ^= x_a`, `z_a ^= x_b`, with a sign flip when both X bits are set
    /// (from reordering `Z_b X_b → −X_b Z_b`).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn cz(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "cz requires distinct qubits");
        let xa = &self.xs[a];
        let xb = &self.xs[b];
        for ((h, &wa), &wb) in self
            .phase_hi
            .words_mut()
            .iter_mut()
            .zip(xa.words())
            .zip(xb.words())
        {
            *h ^= wa & wb;
        }
        let (za, zb) = pair_mut(&mut self.zs, a, b);
        zb.xor_with(xa);
        za.xor_with(xb);
    }

    // ---- Row (gauge) operations ------------------------------------------

    /// Replaces row `dst` with the product `row_dst · row_src` (same group,
    /// different generating set).
    ///
    /// # Panics
    ///
    /// Panics if `dst == src`.
    pub fn row_mul(&mut self, dst: usize, src: usize) {
        assert_ne!(dst, src, "row_mul requires distinct rows");
        // Reordering sign: moving each Z of dst past each X of src on the
        // same qubit contributes −1, i.e. phase += 2·|{q : z_dst[q] & x_src[q]}|.
        //
        // A single row is strided across the column store, so this walk
        // touches every column regardless; what it must NOT do is branch on
        // the (uniformly random) src bits — three mispredicted branches per
        // column once made this the one class slower than the row-major
        // reference tableau.
        // The loop below is fully branchless — src bits are extracted as
        // 0/1 words and XORed in shifted, the reordering parity accumulates
        // in bit 0 of `swaps` — which holds the class at ≥ 2× the reference.
        let (dw, db) = (dst / 64, (dst % 64) as u32);
        let (sw, sb) = (src / 64, (src % 64) as u32);
        let mut swaps = 0u64;
        if sw == dw {
            // Rows share a storage word (always true for n ≤ 64): one
            // load/store per column and plane.
            for (xcol, zcol) in self.xs.iter_mut().zip(self.zs.iter_mut()) {
                let xw = &mut xcol.words_mut()[dw];
                let x_src = (*xw >> sb) & 1;
                *xw ^= x_src << db;
                let zw = &mut zcol.words_mut()[dw];
                // z_dst is read before its own update; the x update above
                // never touches the Z plane.
                swaps ^= x_src & (*zw >> db);
                *zw ^= ((*zw >> sb) & 1) << db;
            }
        } else {
            for (xcol, zcol) in self.xs.iter_mut().zip(self.zs.iter_mut()) {
                let xw = xcol.words_mut();
                let x_src = (xw[sw] >> sb) & 1;
                xw[dw] ^= x_src << db;
                let zw = zcol.words_mut();
                swaps ^= x_src & (zw[dw] >> db);
                zw[dw] ^= ((zw[sw] >> sb) & 1) << db;
            }
        }
        let p = (self.phase_of(dst) + self.phase_of(src) + if swaps & 1 == 1 { 2 } else { 0 }) % 4;
        self.set_phase(dst, p);
    }

    /// Multiplies row `src` into **every** row of `mask` simultaneously — the
    /// word-parallel broadcast behind all gauge sweeps (measurement collapse,
    /// canonicalization, echelon reduction, the solver's wire isolation).
    ///
    /// Equivalent to `for dst in mask.ones() { self.row_mul(dst, src) }` but
    /// with the letter updates done one whole column at a time and the
    /// reordering signs accumulated as a packed parity vector.
    ///
    /// # Panics
    ///
    /// Panics if `mask` contains `src` or has the wrong length.
    pub fn mul_row_into_mask(&mut self, src: usize, mask: &BitVec) {
        assert_eq!(mask.len(), self.n, "mask length must match row count");
        assert!(!mask.get(src), "mask must not contain the source row");
        if mask.is_zero() {
            return;
        }
        let (sw, sm) = (src / 64, 1u64 << (src % 64));
        // parity[r] = ⊕_q z_r[q] & x_src[q], over the *pre-update* Z bits.
        let mut parity = vec![0u64; mask.words().len()];
        for q in 0..self.n {
            if self.xs[q].words()[sw] & sm != 0 {
                for (p, &z) in parity.iter_mut().zip(self.zs[q].words()) {
                    *p ^= z;
                }
            }
        }
        // phase[dst] += phase[src] + 2·parity[dst] for dst in mask.
        for ((h, &p), &m) in self
            .phase_hi
            .words_mut()
            .iter_mut()
            .zip(&parity)
            .zip(mask.words())
        {
            *h ^= p & m;
        }
        match self.phase_of(src) {
            0 => {}
            1 => phase_add1(&mut self.phase_lo, &mut self.phase_hi, mask.words()),
            2 => phase_add2(&mut self.phase_hi, mask.words()),
            _ => phase_add3(&mut self.phase_lo, &mut self.phase_hi, mask.words()),
        }
        // Letters: every column in src's support gets the whole mask XORed in.
        for q in 0..self.n {
            if self.xs[q].words()[sw] & sm != 0 {
                self.xs[q].xor_with(mask);
            }
            if self.zs[q].words()[sw] & sm != 0 {
                self.zs[q].xor_with(mask);
            }
        }
    }

    /// Swaps two generator rows (pure bookkeeping).
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for q in 0..self.n {
            self.xs[q].swap_bits(a, b);
            self.zs[q].swap_bits(a, b);
        }
        self.phase_lo.swap_bits(a, b);
        self.phase_hi.swap_bits(a, b);
    }

    /// Mask of rows that *anticommute* with row `a`, computed word-parallel:
    /// `⊕_{q ∈ suppX(a)} col_z(q) ⊕ ⊕_{q ∈ suppZ(a)} col_x(q)`.
    fn anticommute_mask(&self, a: usize) -> BitVec {
        let (aw, am) = (a / 64, 1u64 << (a % 64));
        let mut acc = BitVec::zeros(self.n);
        for q in 0..self.n {
            if self.xs[q].words()[aw] & am != 0 {
                acc.xor_with(&self.zs[q]);
            }
            if self.zs[q].words()[aw] & am != 0 {
                acc.xor_with(&self.xs[q]);
            }
        }
        acc
    }

    /// Validates the state: all rows Hermitian, mutually commuting, and
    /// linearly independent. O(n³) worst case; intended for tests and debug
    /// assertions.
    pub fn is_valid_state(&self) -> bool {
        // Hermiticity: r ≡ #Y (mod 2) per row, i.e. the packed low phase bit
        // must equal the packed per-row Y-parity.
        let mut ypar = BitVec::zeros(self.n);
        for q in 0..self.n {
            for (y, (&x, &z)) in ypar
                .words_mut()
                .iter_mut()
                .zip(self.xs[q].words().iter().zip(self.zs[q].words()))
            {
                *y ^= x & z;
            }
        }
        if ypar != self.phase_lo {
            return false;
        }
        // Commutation: the anticommute mask of every row must be empty.
        for a in 0..self.n {
            if !self.anticommute_mask(a).is_zero() {
                return false;
            }
        }
        // Independence: the n×2n symplectic matrix has rank n.
        let mut m = BitMatrix::zeros(self.n, 2 * self.n);
        for q in 0..self.n {
            for r in self.xs[q].ones() {
                m.set(r, q, true);
            }
            for r in self.zs[q].ones() {
                m.set(r, self.n + q, true);
            }
        }
        m.rank() == self.n
    }

    /// Measures qubit `q` in the Z basis.
    ///
    /// If the outcome is random, the state collapses onto the branch given by
    /// `forced`; if deterministic, `forced` is ignored and the true outcome is
    /// reported.
    pub fn measure_z(&mut self, q: usize, forced: bool) -> MeasureOutcome {
        // A generator anticommuting with Z_q is one with an X there.
        match self.xs[q].first_one() {
            Some(p) => {
                let mut mask = self.xs[q].clone();
                mask.set(p, false);
                self.mul_row_into_mask(p, &mask);
                // Replace the pivot row with ±Z_q.
                self.clear_row(p);
                self.zs[q].set(p, true);
                self.set_phase(p, if forced { 2 } else { 0 });
                MeasureOutcome::Random(forced)
            }
            None => {
                // Deterministic: express Z_q over the generators and read the
                // accumulated phase.
                let sign = self
                    .deterministic_z_sign(q)
                    .expect("no X at q implies Z_q is in the group for a pure state");
                MeasureOutcome::Deterministic(sign)
            }
        }
    }

    /// If no generator has an X at `q`, `Z_q` is in the stabilizer group of a
    /// pure state. Returns `Some(bit)` where `bit = true` means `−Z_q` (i.e.
    /// a measurement yields 1), or `None` if an X is present.
    pub fn deterministic_z_sign(&self, q: usize) -> Option<bool> {
        if !self.xs[q].is_zero() {
            return None;
        }
        // Which rows multiply to ±Z_q? The free-wire query (an element
        // supported on `q` alone) answers it through the element search's
        // compacted system; with no X at `q` only the (x, z) = (0, 1)
        // pattern is consistent, and the generators of a pure state are
        // independent, so the combination is unique.
        let rows = self.find_element_any_in(&[], q, &[], &mut ElementScratch::new())?;
        // Multiply them out in ascending order, one qubit at a time: moving
        // the accumulated Z past a row's X on the same qubit contributes −1.
        let mut phase = rows.iter().fold(0, |p, &r| (p + self.phase_of(r)) % 4);
        for (col, (xcol, zcol)) in self.xs.iter().zip(&self.zs).enumerate() {
            let (mut acc_x, mut acc_z, mut swaps) = (false, false, false);
            for &r in &rows {
                let x = xcol.get(r);
                swaps ^= acc_z & x;
                acc_x ^= x;
                acc_z ^= zcol.get(r);
            }
            debug_assert!(!acc_x && acc_z == (col == q));
            if swaps {
                phase = (phase + 2) % 4;
            }
        }
        debug_assert!(phase.is_multiple_of(2));
        Some(phase == 2)
    }

    /// True if the tableau is exactly |0…0⟩: every generator is a `+Z`
    /// string (no X letter, phase 0) and the generators have full rank.
    ///
    /// Exact for every tableau, valid or not: the rows generate the group
    /// of all `+Z` strings iff each row is one and they are independent, so
    /// the answer equals `same_state_as(&Tableau::zero_state(n))` without
    /// canonicalizing either side (a cleared or duplicated row fails the
    /// rank test, an odd phase the phase test).
    pub fn is_zero_state(&self) -> bool {
        if self.xs.iter().any(|col| !col.is_zero())
            || !self.phase_lo.is_zero()
            || !self.phase_hi.is_zero()
        {
            return false;
        }
        // The Z block's rank, over its columns (a matrix and its transpose
        // have equal rank).
        let mut z = BitMatrix::zeros(self.n, self.n);
        for (q, col) in self.zs.iter().enumerate() {
            z.copy_row_from(q, col);
        }
        z.rref().len() == self.n
    }

    /// Canonicalizes the tableau in place: symplectic RREF over the column
    /// order `x_0, z_0, x_1, z_1, …` with rows sorted by pivot. Two tableaux
    /// describe the same state iff their canonical forms are identical.
    pub fn canonicalize(&mut self) {
        let order: Vec<usize> = (0..self.n).collect();
        self.echelon_gauge(&order);
    }

    /// Returns true if `self` and `other` describe the same quantum state.
    pub fn same_state_as(&self, other: &Tableau) -> bool {
        if self.n != other.n {
            return false;
        }
        let mut a = self.clone();
        let mut b = other.clone();
        a.canonicalize();
        b.canonicalize();
        a == b
    }

    /// Reduces rows to echelon form over the *qubit-pair* column order
    /// restricted to `qubit_order`, returning nothing but leaving the tableau
    /// in the echelon gauge. Over the full order this is
    /// [`Tableau::canonicalize`].
    pub fn echelon_gauge(&mut self, qubit_order: &[usize]) {
        let mut pivot_row = 0;
        for &q in qubit_order {
            for is_z in [false, true] {
                if pivot_row >= self.n {
                    return;
                }
                // For the Z pass only rows without an X at q qualify, since X
                // pivots were already cleared below pivot_row.
                let col = if is_z { &self.zs[q] } else { &self.xs[q] };
                let Some(r) = col.first_one_at_or_after(pivot_row) else {
                    continue;
                };
                self.swap_rows(pivot_row, r);
                let col = if is_z { &self.zs[q] } else { &self.xs[q] };
                let mut mask = col.clone();
                mask.set(pivot_row, false);
                self.mul_row_into_mask(pivot_row, &mask);
                pivot_row += 1;
            }
        }
    }

    /// Finds a group element (as a row-combination) whose support, restricted
    /// to `restrict`, is exactly `{target}` and whose support outside
    /// `restrict ∪ allowed` is empty. Returns the indices of rows to multiply,
    /// or `None`.
    ///
    /// `restrict` are the photon columns, `allowed` the emitter columns, in
    /// solver terms: "find a stabilizer touching photon `target` and no other
    /// photon". Among all valid elements, one with (locally) minimal support
    /// on `allowed` is returned — fewer supported emitters means fewer
    /// emitter-emitter CNOTs downstream, so the solution is post-optimized
    /// over the constraint null space with a greedy descent.
    ///
    /// The constraint system, RREF pivots, null-space basis, and descent
    /// letter masks all live in `scratch`.
    pub fn find_element_supported_on_in(
        &self,
        restrict: &[usize],
        target: usize,
        allowed: &[usize],
        scratch: &mut ElementScratch,
    ) -> Option<Vec<usize>> {
        self.find_element_weighted_in(restrict, target, allowed, |_| 1, scratch)
    }

    /// Like [`Tableau::find_element_supported_on_in`], but returning the *first*
    /// valid element without any support-weight optimization — the behavior
    /// of the vanilla Li-et-al. protocol (and of GraphiQ's deterministic
    /// solver), which works in an echelon gauge and takes whichever emission
    /// generator appears. Kept for faithful baseline comparisons.
    pub fn find_element_any_in(
        &self,
        restrict: &[usize],
        target: usize,
        allowed: &[usize],
        scratch: &mut ElementScratch,
    ) -> Option<Vec<usize>> {
        self.find_element_impl(
            restrict,
            target,
            allowed,
            None::<fn(usize) -> usize>,
            scratch,
        )
    }

    /// Like [`Tableau::find_element_supported_on_in`], but minimizing a
    /// custom per-qubit support weight over `allowed` instead of plain
    /// support count. Solvers use this to steer work onto preferred emitters.
    pub fn find_element_weighted_in(
        &self,
        restrict: &[usize],
        target: usize,
        allowed: &[usize],
        weight_of: impl Fn(usize) -> usize,
        scratch: &mut ElementScratch,
    ) -> Option<Vec<usize>> {
        self.find_element_impl(restrict, target, allowed, Some(weight_of), scratch)
    }

    fn find_element_impl(
        &self,
        restrict: &[usize],
        target: usize,
        allowed: &[usize],
        weight_of: Option<impl Fn(usize) -> usize>,
        s: &mut ElementScratch,
    ) -> Option<Vec<usize>> {
        // Unknowns: row combination c ∈ GF(2)^n.
        // Constraints: for every q in restrict with q != target, both x and z
        // components of the product vanish; for target, at least one is
        // non-zero (we try (x,z) target patterns in turn); for every qubit not
        // in restrict/allowed, both components vanish.
        s.in_restrict.clear();
        s.in_restrict.resize(self.n, false);
        for &q in restrict {
            if q < self.n {
                s.in_restrict[q] = true;
            }
        }
        s.in_allowed.clear();
        s.in_allowed.resize(self.n, false);
        for &q in allowed {
            if q < self.n {
                s.in_allowed[q] = true;
            }
        }
        s.allowed_sorted.clear();
        s.allowed_sorted
            .extend((0..self.n).filter(|&q| s.in_allowed[q]));
        s.forbidden.clear();
        s.forbidden
            .extend((0..self.n).filter(|&q| q != target && (s.in_restrict[q] || !s.in_allowed[q])));
        // Each constraint row is a stored X/Z column of the tableau, over the
        // n generators. Classify the forbidden rows first:
        // - an all-zero row (a qubit nobody touches in that component) can
        //   never pivot, change or carry a rhs bit, so it is skipped;
        // - a row with one set bit, at generator g, forces c_g = 0 (the
        //   isolated +Z row an absorbed photon leaves is one), so it is
        //   substituted out: the row is dropped and column g is removed
        //   from every other row.
        // Substitution leaves new singletons (a row whose other bits were
        // all killed), so it repeats over the dense rows until a pass kills
        // nothing: a row whose kept bits are one generator kills it, a row
        // with none left is dropped, and the rest keep their order. Every
        // killed g is forced to 0 by homogeneous rows, so e_g lies in the
        // row space. The reduced row echelon form is unique and its row
        // pivoting at a killed g is exactly e_g, so the compacted system's
        // RREF is the full one without those rows and columns: pivots, the
        // free-variables-zero solutions and the null-space basis (free
        // columns and their order) all map back through `keep` unchanged.
        s.killed.reset(self.n);
        s.dense.clear();
        for &q in &s.forbidden {
            for (col, is_z) in [(&self.xs[q], false), (&self.zs[q], true)] {
                let mut ones = col.ones();
                match (ones.next(), ones.next()) {
                    (None, _) => {}
                    (Some(g), None) => s.killed.set(g, true),
                    _ => s.dense.push((q, is_z)),
                }
            }
        }
        let mut peeled = !s.killed.is_zero();
        while peeled {
            peeled = false;
            let killed = &mut s.killed;
            s.dense.retain(|&(q, is_z)| {
                let col = if is_z { &self.zs[q] } else { &self.xs[q] };
                let (first, second) = {
                    let mut ones = kept_ones(col, killed);
                    (ones.next(), ones.next())
                };
                match (first, second) {
                    (None, _) => false,
                    (Some(g), None) => {
                        killed.set(g, true);
                        peeled = true;
                        false
                    }
                    _ => true,
                }
            });
        }
        s.keep.clear();
        s.rank.resize(self.n, 0);
        for g in 0..self.n {
            if !s.killed.get(g) {
                s.rank[g] = s.keep.len();
                s.keep.push(g);
            }
        }
        let m = s.keep.len();
        // Gather the surviving rows over the kept generators, augmented with
        // the three (x, z) target patterns as extra columns so ONE
        // elimination serves every pattern solve and the null space. Every
        // surviving row keeps at least two bits; the two target rows are
        // always kept, since they carry the rhs bits.
        let base = s.dense.len();
        s.a.reset(base + 2, m + 3);
        for (r, &(q, is_z)) in s.dense.iter().enumerate() {
            let col = if is_z { &self.zs[q] } else { &self.xs[q] };
            gather_kept(col, &s.killed, &s.rank, s.a.row_words_mut(r));
            debug_assert!(s.a.row_count_ones(r) >= 2);
        }
        for (i, col) in [&self.xs[target], &self.zs[target]].into_iter().enumerate() {
            gather_kept(col, &s.killed, &s.rank, s.a.row_words_mut(base + i));
        }
        // Pattern rhs columns: (x, z) = (1,0), (0,1), (1,1).
        s.a.set(base, m, true);
        s.a.set(base + 1, m + 1, true);
        s.a.set(base, m + 2, true);
        s.a.set(base + 1, m + 2, true);
        s.a.rref_within_into(m, &mut s.pivots);
        // The null space is shared by every pattern; its dimension is known
        // from the pivot count, so the basis is materialized only when a
        // greedy descent can actually use it.
        let null_dim = m - s.pivots.len();
        let mut have_letters = false;
        let mut have_null = false;
        let mut best_w: Option<usize> = None;
        for pattern in 0..3 {
            if !s
                .a
                .solution_from_reduced_into(&s.pivots, m, pattern, &mut s.c)
            {
                continue;
            }
            debug_assert!(
                !s.c.is_zero(),
                "c solves A·c = b for a pattern b ≠ 0, so c ≠ 0"
            );
            let Some(weight_of) = &weight_of else {
                // Vanilla mode: first valid element wins.
                return Some(s.c.ones().map(|i| s.keep[i]).collect());
            };
            // Greedy weight reduction over the homogeneous solutions. The
            // product's letter at an allowed qubit is linear in the row
            // combination, so letters(c ⊕ b) = letters(c) ⊕ letters(b):
            // each kept generator's X/Z letters over `allowed_sorted` are
            // gathered once per call, c's letter masks are the XOR of its
            // generators' (once per pattern), each basis row's likewise
            // (once per call), and a candidate c ⊕ basis row is weighed from
            // one XOR-OR of the masks. A weight of zero cannot improve, so
            // the descent (and the basis construction) is skipped outright
            // at the floor.
            let k = s.allowed_sorted.len();
            if !have_letters {
                s.gen_x.reset(m, k);
                s.gen_z.reset(m, k);
                for (i, &q) in s.allowed_sorted.iter().enumerate() {
                    for g in kept_ones(&self.xs[q], &s.killed) {
                        s.gen_x.set(s.rank[g], i, true);
                    }
                    for g in kept_ones(&self.zs[q], &s.killed) {
                        s.gen_z.set(s.rank[g], i, true);
                    }
                }
                have_letters = true;
            }
            s.c_x.reset(k);
            s.c_z.reset(k);
            for g in s.c.ones() {
                s.gen_x.xor_row_into(g, &mut s.c_x);
                s.gen_z.xor_row_into(g, &mut s.c_z);
            }
            let mut w = mask_weight(
                &s.allowed_sorted,
                s.c_x.words().iter().zip(s.c_z.words()).map(|(x, z)| x | z),
                weight_of,
            );
            let mut improved = w > 0 && null_dim > 0;
            while improved {
                if !have_null {
                    s.a.null_space_from_reduced_into(&s.pivots, m, &mut s.null);
                    s.null_x.reset(s.null.rows(), k);
                    s.null_z.reset(s.null.rows(), k);
                    for v in 0..s.null.rows() {
                        for g in s.null.row_ones(v) {
                            xor_words(s.null_x.row_words_mut(v), s.gen_x.row_words(g));
                            xor_words(s.null_z.row_words_mut(v), s.gen_z.row_words(g));
                        }
                    }
                    have_null = true;
                }
                improved = false;
                for v in 0..s.null.rows() {
                    // c solves A·c = b ≠ 0 and every basis row solves
                    // A·v = 0, so no candidate c ⊕ basis row is zero.
                    debug_assert_ne!(s.null.row_words(v), s.c.words());
                    let (nx, nz) = (s.null_x.row_words(v), s.null_z.row_words(v));
                    let cw = mask_weight(
                        &s.allowed_sorted,
                        (s.c_x.words().iter().zip(nx))
                            .zip(s.c_z.words().iter().zip(nz))
                            .map(|((cx, nx), (cz, nz))| (cx ^ nx) | (cz ^ nz)),
                        weight_of,
                    );
                    if cw < w {
                        s.null.xor_row_into(v, &mut s.c);
                        s.null_x.xor_row_into(v, &mut s.c_x);
                        s.null_z.xor_row_into(v, &mut s.c_z);
                        w = cw;
                        improved = true;
                    }
                }
                improved = improved && w > 0;
            }
            if best_w.is_none_or(|bw| w < bw) {
                best_w = Some(w);
                s.best.copy_from(&s.c);
            }
        }
        best_w?;
        Some(s.best.ones().map(|i| s.keep[i]).collect())
    }

    /// Multiplies the listed rows into the first of them, making that row the
    /// desired group element, and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn combine_rows(&mut self, rows: &[usize]) -> usize {
        let (&dst, rest) = rows
            .split_first()
            .expect("combine_rows needs at least one row");
        for &src in rest {
            self.row_mul(dst, src);
        }
        dst
    }

    // ---- Raw row editing (for solvers that rebuild generators) -----------

    /// Zeroes row `row` (letters and phase). The tableau is *invalid* until
    /// the caller installs a new independent generator; intended for solver
    /// internals that replace a generator wholesale.
    pub fn clear_row(&mut self, row: usize) {
        for q in 0..self.n {
            self.xs[q].set(row, false);
            self.zs[q].set(row, false);
        }
        self.phase_lo.set(row, false);
        self.phase_hi.set(row, false);
    }

    /// Zeroes every row. See [`Tableau::clear_row`] for the validity caveat.
    pub fn clear_all_rows(&mut self) {
        for q in 0..self.n {
            self.xs[q].clear();
            self.zs[q].clear();
        }
        self.phase_lo.clear();
        self.phase_hi.clear();
    }

    /// Sets the X bit of (`row`, `q`).
    pub fn set_x_bit(&mut self, row: usize, q: usize, value: bool) {
        self.xs[q].set(row, value);
    }

    /// Sets the Z bit of (`row`, `q`).
    pub fn set_z_bit(&mut self, row: usize, q: usize, value: bool) {
        self.zs[q].set(row, value);
    }

    /// Sets the phase exponent of `row` (mod 4).
    pub fn set_phase(&mut self, row: usize, phase: u8) {
        let p = phase % 4;
        self.phase_lo.set(row, p & 1 != 0);
        self.phase_hi.set(row, p & 2 != 0);
    }

    /// Applies the single-qubit Clifford that maps the Pauli letter of
    /// (`row`, `q`) to `Z`, returning the gate names applied (in application
    /// order) so a circuit can record them. Identity letters are an error.
    ///
    /// # Errors
    ///
    /// Returns [`StabilizerError::IdentityPauli`] if the row acts trivially
    /// on `q`.
    pub fn rotate_to_z(&mut self, row: usize, q: usize) -> Result<Vec<RotGate>, StabilizerError> {
        let mut gates = Vec::new();
        match self.pauli_at(row, q) {
            Pauli::I => return Err(StabilizerError::IdentityPauli { row, qubit: q }),
            Pauli::X => {
                self.h(q);
                gates.push(RotGate::H);
            }
            Pauli::Y => {
                // XZ → S: X-bit set so z flips: Y → X, then H: X → Z.
                self.s(q);
                self.h(q);
                gates.push(RotGate::S);
                gates.push(RotGate::H);
            }
            Pauli::Z => {}
        }
        debug_assert_eq!(self.pauli_at(row, q), Pauli::Z);
        Ok(gates)
    }
}

/// Sum of `weight_of(allowed[i])` over the set bits `i` of a letter mask
/// given word by word, in ascending `i`.
fn mask_weight(
    allowed: &[usize],
    mask: impl Iterator<Item = u64>,
    weight_of: &impl Fn(usize) -> usize,
) -> usize {
    let mut total = 0;
    for (k, mut m) in mask.enumerate() {
        while m != 0 {
            total += weight_of(allowed[k * 64 + m.trailing_zeros() as usize]);
            m &= m - 1;
        }
    }
    total
}

/// `dst ^= src`, word by word.
fn xor_words(dst: &mut [u64], src: &[u64]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d ^= x;
    }
}

/// Set bits of the constraint row `col` at generators outside `killed`,
/// ascending.
fn kept_ones<'a>(col: &'a BitVec, killed: &'a BitVec) -> impl Iterator<Item = usize> + 'a {
    let words = col.words().iter().zip(killed.words());
    words.enumerate().flat_map(|(k, (&w, &kill))| {
        let mut bits = w & !kill;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let g = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                g
            })
        })
    })
}

/// ORs the constraint row `col`, restricted to the generators outside
/// `killed`, into `dst` over the compacted columns: generator `g` lands at
/// bit `rank[g]`.
fn gather_kept(col: &BitVec, killed: &BitVec, rank: &[usize], dst: &mut [u64]) {
    for g in kept_ones(col, killed) {
        dst[rank[g] / 64] |= 1u64 << (rank[g] % 64);
    }
}

/// Reusable scratch storage for the tableau's element searches
/// ([`Tableau::find_element_weighted_in`] and friends).
///
/// One scratch serves any number of tableaux of any size: every query
/// reshapes the buffers it needs via [`BitVec::reset`] /
/// [`BitMatrix::reset`], which reuse the underlying allocations. Solvers
/// that run thousands of small solves hold one `ElementScratch` (inside
/// `epgs_solver`'s `SolverWorkspace`) instead of allocating a constraint
/// system, pivot list, and null-space basis per call.
#[derive(Debug, Clone)]
pub struct ElementScratch {
    /// Constraint system, augmented with the target-pattern columns; its
    /// leading columns are the kept generators (`keep`), not all of them.
    a: BitMatrix,
    /// Null-space basis of `a`'s leading block.
    null: BitMatrix,
    /// RREF pivot columns.
    pivots: Vec<usize>,
    /// Current solution / row combination, over the kept generators.
    c: BitVec,
    /// X / Z letter masks of `c` over `allowed_sorted`.
    c_x: BitVec,
    c_z: BitVec,
    /// X / Z letter masks of each null-space basis row over
    /// `allowed_sorted`.
    null_x: BitMatrix,
    null_z: BitMatrix,
    /// X / Z letter masks of each kept generator over `allowed_sorted`.
    gen_x: BitMatrix,
    gen_z: BitMatrix,
    /// Best combination across target patterns, over the kept generators.
    best: BitVec,
    /// Generators a singleton constraint row forces out of the combination.
    killed: BitVec,
    /// The generators outside `killed`, ascending: compacted column `i` is
    /// generator `keep[i]`.
    keep: Vec<usize>,
    /// Inverse of `keep`: `rank[keep[i]] == i` (other entries are stale).
    rank: Vec<usize>,
    /// Forbidden constraint rows with two or more set bits outside
    /// `killed`, as `(qubit, is_z)`.
    dense: Vec<(usize, bool)>,
    /// Membership masks over qubits.
    in_restrict: Vec<bool>,
    in_allowed: Vec<bool>,
    /// `allowed`, ascending and deduplicated.
    allowed_sorted: Vec<usize>,
    /// Qubits whose product component must vanish.
    forbidden: Vec<usize>,
}

impl ElementScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        ElementScratch {
            a: BitMatrix::zeros(0, 0),
            null: BitMatrix::zeros(0, 0),
            pivots: Vec::new(),
            c: BitVec::zeros(0),
            c_x: BitVec::zeros(0),
            c_z: BitVec::zeros(0),
            null_x: BitMatrix::zeros(0, 0),
            null_z: BitMatrix::zeros(0, 0),
            gen_x: BitMatrix::zeros(0, 0),
            gen_z: BitMatrix::zeros(0, 0),
            best: BitVec::zeros(0),
            killed: BitVec::zeros(0),
            keep: Vec::new(),
            rank: Vec::new(),
            dense: Vec::new(),
            in_restrict: Vec::new(),
            in_allowed: Vec::new(),
            allowed_sorted: Vec::new(),
            forbidden: Vec::new(),
        }
    }
}

impl Default for ElementScratch {
    fn default() -> Self {
        ElementScratch::new()
    }
}

/// Elementary single-qubit gate emitted by [`Tableau::rotate_to_z`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotGate {
    /// Hadamard.
    H,
    /// Phase gate.
    S,
}

impl std::fmt::Debug for Tableau {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Tableau on {} qubits [", self.n)?;
        for row in 0..self.n {
            let sign = match self.phase_of(row) {
                0 => "+",
                1 => "i",
                2 => "-",
                3 => "-i",
                _ => unreachable!(),
            };
            write!(f, "  {sign:>2} ")?;
            for q in 0..self.n {
                write!(f, "{}", self.pauli_at(row, q))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;

    #[test]
    fn zero_state_is_valid() {
        assert!(Tableau::zero_state(5).is_valid_state());
    }

    #[test]
    fn graph_state_is_valid() {
        let g = generators::lattice(2, 3);
        assert!(Tableau::graph_state(&g).is_valid_state());
    }

    #[test]
    fn h_twice_is_identity() {
        let g = generators::path(3);
        let mut t = Tableau::graph_state(&g);
        let orig = t.clone();
        t.h(1);
        t.h(1);
        assert_eq!(t, orig);
    }

    #[test]
    fn s_four_times_is_identity() {
        let mut t = Tableau::graph_state(&generators::path(3));
        let orig = t.clone();
        for _ in 0..4 {
            t.s(1);
        }
        assert_eq!(t, orig);
    }

    #[test]
    fn s_then_sdg_is_identity() {
        let mut t = Tableau::graph_state(&generators::cycle(4));
        let orig = t.clone();
        t.s(2);
        t.sdg(2);
        assert_eq!(t, orig);
    }

    #[test]
    fn cnot_self_inverse() {
        let mut t = Tableau::graph_state(&generators::path(4));
        let orig = t.clone();
        t.cnot(0, 2);
        assert!(t.is_valid_state());
        t.cnot(0, 2);
        assert_eq!(t, orig);
    }

    #[test]
    fn cz_self_inverse_and_symmetric() {
        let mut t1 = Tableau::graph_state(&generators::path(4));
        let mut t2 = t1.clone();
        t1.cz(1, 3);
        t2.cz(3, 1);
        assert_eq!(t1, t2, "CZ is symmetric");
        t1.cz(1, 3);
        assert_eq!(t1, Tableau::graph_state(&generators::path(4)));
    }

    #[test]
    fn bell_state_structure() {
        let mut t = Tableau::zero_state(2);
        t.h(0);
        t.cnot(0, 1);
        // Stabilizers of the Bell state: XX and ZZ.
        t.canonicalize();
        assert!(t.is_valid_state());
        let mut expected = Tableau::zero_state(2);
        expected.clear_all_rows();
        // Build XX, ZZ directly.
        expected.set_x_bit(0, 0, true);
        expected.set_x_bit(0, 1, true);
        expected.set_z_bit(1, 0, true);
        expected.set_z_bit(1, 1, true);
        expected.canonicalize();
        assert_eq!(t, expected);
    }

    #[test]
    fn cz_on_plus_states_builds_graph_state() {
        // H on all qubits then CZ per edge must equal Tableau::graph_state.
        let g = generators::cycle(5);
        let mut t = Tableau::zero_state(5);
        for q in 0..5 {
            t.h(q);
        }
        for (a, b) in g.edges() {
            t.cz(a, b);
        }
        assert!(t.same_state_as(&Tableau::graph_state(&g)));
    }

    #[test]
    fn row_mul_keeps_state_valid() {
        let mut t = Tableau::graph_state(&generators::lattice(2, 2));
        t.row_mul(0, 1);
        assert!(t.is_valid_state());
    }

    #[test]
    fn row_mul_y_sign_bookkeeping() {
        // Rows X⊗X and Z⊗Z (Bell stabilizers) multiply to −Y⊗Y; the packed
        // phase bits must absorb the two reordering signs correctly.
        let mut t = Tableau::zero_state(2);
        t.h(0);
        t.cnot(0, 1);
        t.canonicalize();
        t.row_mul(0, 1);
        assert!(t.is_valid_state(), "product row must stay Hermitian: {t:?}");
    }

    #[test]
    fn mul_row_into_mask_matches_sequential_row_mul() {
        let g = generators::lattice(3, 3);
        let mut a = Tableau::graph_state(&g);
        let mut b = a.clone();
        // Multiply row 4 into rows {0, 2, 7, 8} both ways.
        let rows = [0usize, 2, 7, 8];
        let mut mask = epgs_graph::gf2::BitVec::zeros(a.num_qubits());
        for &r in &rows {
            mask.set(r, true);
        }
        a.mul_row_into_mask(4, &mask);
        for &r in &rows {
            b.row_mul(r, 4);
        }
        assert_eq!(a, b);
        assert!(a.is_valid_state());
    }

    #[test]
    fn measure_z_deterministic_on_zero_state() {
        let mut t = Tableau::zero_state(3);
        assert_eq!(t.measure_z(1, true), MeasureOutcome::Deterministic(false));
    }

    #[test]
    fn measure_z_deterministic_minus() {
        let mut t = Tableau::zero_state(1);
        t.px(0); // |1⟩
        assert_eq!(t.measure_z(0, false), MeasureOutcome::Deterministic(true));
    }

    #[test]
    fn measure_z_random_collapses() {
        let mut t = Tableau::zero_state(1);
        t.h(0); // |+⟩
        let out = t.measure_z(0, true);
        assert_eq!(out, MeasureOutcome::Random(true));
        // Now |1⟩.
        assert_eq!(t.measure_z(0, false), MeasureOutcome::Deterministic(true));
        assert!(t.is_valid_state());
    }

    #[test]
    fn measure_z_on_bell_pair_correlates() {
        for forced in [false, true] {
            let mut t = Tableau::zero_state(2);
            t.h(0);
            t.cnot(0, 1);
            let first = t.measure_z(0, forced);
            assert_eq!(first, MeasureOutcome::Random(forced));
            let second = t.measure_z(1, !forced);
            assert_eq!(second, MeasureOutcome::Deterministic(forced));
        }
    }

    #[test]
    fn same_state_ignores_generator_presentation() {
        let g = generators::path(4);
        let mut a = Tableau::graph_state(&g);
        let b = Tableau::graph_state(&g);
        a.row_mul(0, 1);
        a.swap_rows(2, 3);
        assert!(a.same_state_as(&b));
    }

    #[test]
    fn zero_state_test_needs_plus_z_rows_of_full_rank() {
        let mut t = Tableau::zero_state(3);
        assert!(t.is_zero_state());
        t.row_mul(0, 1); // Z0·Z1 still generates the same group
        assert!(t.is_zero_state());
        let mut flipped = t.clone();
        flipped.px(2);
        assert!(!flipped.is_zero_state());
        let mut plus = t.clone();
        plus.h(1);
        assert!(!plus.is_zero_state());
        let mut cleared = t.clone();
        cleared.clear_row(2);
        assert!(!cleared.is_zero_state());
        let mut odd = t;
        odd.set_phase(1, 1);
        assert!(!odd.is_zero_state());
    }

    #[test]
    fn different_states_differ() {
        let a = Tableau::graph_state(&generators::path(4));
        let b = Tableau::graph_state(&generators::cycle(4));
        assert!(!a.same_state_as(&b));
        let mut c = Tableau::graph_state(&generators::path(4));
        c.pz(0); // sign flip on one stabilizer
        assert!(!a.same_state_as(&c));
    }

    #[test]
    fn rotate_to_z_all_letters() {
        // Prepare rows with X, Y, Z at qubit 0 via |+⟩, |+i⟩, |0⟩.
        let mut t = Tableau::zero_state(1);
        t.h(0); // stabilizer X
        assert_eq!(t.pauli_at(0, 0), Pauli::X);
        let gates = t.rotate_to_z(0, 0).unwrap();
        assert_eq!(gates, vec![RotGate::H]);
        assert_eq!(t.pauli_at(0, 0), Pauli::Z);

        let mut t = Tableau::zero_state(1);
        t.h(0);
        t.s(0); // stabilizer Y
        assert_eq!(t.pauli_at(0, 0), Pauli::Y);
        let gates = t.rotate_to_z(0, 0).unwrap();
        assert_eq!(gates, vec![RotGate::S, RotGate::H]);
        assert!(t.is_valid_state());

        let mut t = Tableau::zero_state(1);
        assert!(t.rotate_to_z(0, 0).unwrap().is_empty());
    }

    #[test]
    fn find_element_on_leaf_photon() {
        // Path 0-1-2: is there a group element touching only vertex 2 among
        // photons {0,1,2}? X_2 Z_1 touches 1 too; Z_2-only? The element
        // X_1 Z_0 Z_2 · … — for a path the answer is no element is supported
        // on {2} alone, so the solver must use an emitter; with vertex 1
        // allowed, g = X_2 Z_1 qualifies.
        let t = Tableau::graph_state(&generators::path(3));
        let mut scratch = ElementScratch::new();
        assert!(t
            .find_element_supported_on_in(&[0, 1, 2], 2, &[], &mut scratch)
            .is_none());
        let rows = t
            .find_element_supported_on_in(&[0, 2], 2, &[1], &mut scratch)
            .expect("X_2 Z_1 exists");
        assert!(!rows.is_empty());
    }

    #[test]
    fn element_search_peels_chained_singletons() {
        // Generator 60 is Z_60 and generator i is Z_{i-1} Z_i for i in
        // 61..=70, so of the chain's Z columns only qubit 70's starts as a
        // singleton, and each kill turns the next one down into one, across
        // the word boundary. Every other qubit but 71 is an isolated X_q.
        let mut t = Tableau::graph_state(&Graph::new(72));
        for q in 60..=70 {
            t.h(q);
        }
        for q in 61..=70 {
            t.cnot(q - 1, q);
        }
        let mut scratch = ElementScratch::new();
        let rows = t.find_element_supported_on_in(&[], 71, &[], &mut scratch);
        assert_eq!(rows, Some(vec![71]));
        for g in 60..=70 {
            assert!(scratch.killed.get(g), "chained generator {g} survived");
        }
        assert!(
            scratch.dense.is_empty(),
            "dense rows left: {:?}",
            scratch.dense
        );
    }

    #[test]
    fn pauli_gates_flip_phases_only() {
        let g = generators::path(3);
        let mut t = Tableau::graph_state(&g);
        t.px(1);
        // X_1 commutes with X-type generator of vertex 1 but flips rows with
        // Z at 1 (the neighbors' generators).
        assert_eq!(t.phase_of(0), 2);
        assert_eq!(t.phase_of(1), 0);
        assert_eq!(t.phase_of(2), 2);
        assert!(t.is_valid_state());
    }

    #[test]
    fn column_views_match_bits() {
        let g = generators::star(5);
        let t = Tableau::graph_state(&g);
        for q in 0..t.num_qubits() {
            for r in 0..t.num_qubits() {
                assert_eq!(t.col_x(q).get(r), t.x_bit(r, q));
                assert_eq!(t.col_z(q).get(r), t.z_bit(r, q));
                assert_eq!(t.rows_touching(q).get(r), t.x_bit(r, q) || t.z_bit(r, q),);
            }
        }
    }

    #[test]
    fn append_zero_qubit_matches_a_wider_reset() {
        // 6 → 7 qubits, then row counts that cross a word: 63 → 64, 64 → 65.
        for (g, pad) in [
            (generators::lattice(2, 3), 0),
            (generators::lattice(2, 3), 1),
            (generators::path(60), 3),
            (generators::path(60), 4),
        ] {
            let mut t = Tableau::zero_state(0);
            t.reset_graph_state_padded(&g, pad);
            assert_eq!(t.append_zero_qubit(), g.vertex_count() + pad);
            let mut wider = Tableau::zero_state(0);
            wider.reset_graph_state_padded(&g, pad + 1);
            assert_eq!(t, wider, "n={} pad={pad}", g.vertex_count());
        }
    }

    #[test]
    fn append_zero_qubit_after_cliffords_adds_a_fresh_zero() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for n in [5, 63, 64] {
            let g = generators::erdos_renyi(n, 0.1, &mut rng);
            let mut t = Tableau::graph_state(&g);
            // The same gates on a tableau that held the extra |0⟩ wire from
            // the start must end bit for bit equal to the appended one.
            let mut wider = Tableau::zero_state(0);
            wider.reset_graph_state_padded(&g, 1);
            for _ in 0..4 * n {
                let (op, a, b) = (
                    rng.gen_range(0..6),
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                );
                for tab in [&mut t, &mut wider] {
                    match op {
                        0 => tab.h(a),
                        1 => tab.s(a),
                        2 => tab.px(a),
                        _ if a == b => tab.pz(a),
                        3 => tab.cnot(a, b),
                        4 => tab.cz(a, b),
                        _ => tab.row_mul(a, b),
                    }
                }
            }
            let q = t.append_zero_qubit();
            assert_eq!(q, n);
            assert!(t.is_valid_state(), "n={n}");
            assert_eq!(t.deterministic_z_sign(q), Some(false), "n={n}");
            assert_eq!(t, wider, "n={n}");
        }
    }

    #[test]
    fn debug_output_shows_paulis() {
        let t = Tableau::graph_state(&generators::path(2));
        let s = format!("{t:?}");
        assert!(s.contains("XZ"), "{s}");
        assert!(s.contains("ZX"), "{s}");
    }
}
