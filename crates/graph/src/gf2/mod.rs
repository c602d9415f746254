//! Dense linear algebra over GF(2) backed by 64-bit words.
//!
//! The compiler needs small, fast boolean kernels in two places: the *height
//! function* of a graph state (rank of an off-diagonal adjacency block, see
//! [`crate::height`]) and the word-parallel stabilizer tableaux of
//! `epgs-stabilizer`. Two containers cover both:
//!
//! * [`BitMatrix`] — a dense row-major matrix (rows are contiguous word
//!   runs); the workhorse for rank / solve / null-space queries.
//! * [`BitVec`] — a packed bit-vector with word-level iteration
//!   ([`BitVec::ones`], [`BitVec::first_one`] via `trailing_zeros`) and
//!   bulk boolean updates ([`BitVec::xor_with`], [`BitVec::parity_and`]).
//!   The bit-sliced tableau stores one `BitVec` per qubit column, packed
//!   over generator rows, so a Clifford gate touches `⌈n/64⌉` words instead
//!   of `n` bits.
//!
//! All sizes in this workspace are at most a few hundred, so no sparse
//! representation is warranted. Bulk word loops (XOR/OR/popcount/inner
//! product) live in the private `kernels` module, one straight-line loop
//! each; reductions go through a transposed kernel for systems of at most
//! 64 rows and 128 columns and through a straight-line word loop otherwise
//! (see [`BitMatrix::rref_within_into`]).
//!
//! # Examples
//!
//! ```
//! use epgs_graph::gf2::BitMatrix;
//!
//! let mut m = BitMatrix::zeros(2, 3);
//! m.set(0, 0, true);
//! m.set(0, 2, true);
//! m.set(1, 2, true);
//! assert_eq!(m.rank(), 2);
//! ```

mod kernels;

/// Iterator over the indices of set bits in a run of 64-bit words, produced
/// by [`BitVec::ones`] and [`BitMatrix::row_ones`].
///
/// Words beyond the logical length must be zero-padded (both containers
/// maintain that invariant), so the iterator never yields out-of-range
/// indices.
#[derive(Clone)]
pub struct Ones<'a> {
    words: &'a [u64],
    /// Remaining bits of the word currently being drained.
    current: u64,
    /// Index of the word after the current one.
    next_word: usize,
}

impl<'a> Ones<'a> {
    fn new(words: &'a [u64]) -> Self {
        let (&first, rest) = words.split_first().unwrap_or((&0, &[]));
        Ones {
            words: rest,
            current: first,
            next_word: 1,
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            let (&w, rest) = self.words.split_first()?;
            self.words = rest;
            self.current = w;
            self.next_word += 1;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some((self.next_word - 1) * 64 + bit)
    }
}

/// A packed bit-vector over GF(2) with word-level access.
///
/// This is the bit-sliced storage unit of the stabilizer engine: one
/// `BitVec` holds, say, the X bits of *every* generator row at one qubit, so
/// a gate update is a handful of word operations rather than a loop of
/// single-bit reads. Bits beyond [`BitVec::len`] are kept zero (the word
/// formulas rely on it).
///
/// # Examples
///
/// ```
/// use epgs_graph::gf2::BitVec;
///
/// let mut v = BitVec::zeros(130);
/// v.set(3, true);
/// v.set(129, true);
/// assert_eq!(v.ones().collect::<Vec<_>>(), vec![3, 129]);
/// assert_eq!(v.first_one(), Some(3));
/// assert_eq!(v.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Reshapes the vector to `len` all-zero bits, reusing the backing
    /// allocation when it is large enough. The workspace-reuse primitive:
    /// `reset` + `set` replaces `BitVec::zeros` in hot loops.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Makes `self` a copy of `other`, reusing the backing allocation
    /// (unlike `clone_from`, which reallocates through `clone`).
    pub fn copy_from(&mut self, other: &BitVec) {
        self.len = other.len;
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// True if the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words, least-significant bit first.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words.
    ///
    /// Callers must keep bits at positions `>= len()` zero; every bulk
    /// operation in this module preserves that invariant.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Returns bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Appends one bit, growing the backing storage by a word when the
    /// last one is full.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, value);
    }

    /// Swaps bits `a` and `b`.
    #[inline]
    pub fn swap_bits(&mut self, a: usize, b: usize) {
        let (ba, bb) = (self.get(a), self.get(b));
        if ba != bb {
            self.flip(a);
            self.flip(b);
        }
    }

    /// Zeroes every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// True if no bit is set.
    pub fn is_zero(&self) -> bool {
        kernels::is_zero_words(&self.words)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        kernels::count_ones_words(&self.words)
    }

    /// Iterates the indices of set bits in increasing order.
    pub fn ones(&self) -> Ones<'_> {
        Ones::new(&self.words)
    }

    /// Index of the first set bit, if any.
    ///
    /// ```
    /// use epgs_graph::gf2::BitVec;
    ///
    /// let mut v = BitVec::zeros(200);
    /// assert_eq!(v.first_one(), None);
    /// v.set(70, true);
    /// assert_eq!(v.first_one(), Some(70));
    /// ```
    pub fn first_one(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|k| k * 64 + self.words[k].trailing_zeros() as usize)
    }

    /// Index of the first set bit at position `start` or later, if any.
    pub fn first_one_at_or_after(&self, start: usize) -> Option<usize> {
        if start >= self.len {
            return None;
        }
        let k0 = start / 64;
        let masked = self.words[k0] & (u64::MAX << (start % 64));
        if masked != 0 {
            return Some(k0 * 64 + masked.trailing_zeros() as usize);
        }
        self.words[k0 + 1..]
            .iter()
            .position(|&w| w != 0)
            .map(|k| (k0 + 1 + k) * 64 + self.words[k0 + 1 + k].trailing_zeros() as usize)
    }

    /// XORs `other` into `self` (`self ^= other`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        kernels::xor_words(&mut self.words, &other.words);
    }

    /// ORs `other` into `self` (`self |= other`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        kernels::or_words(&mut self.words, &other.words);
    }

    /// Parity of the AND with `other`: `popcount(self & other) mod 2`.
    ///
    /// This is the inner product over GF(2) — the word-parallel kernel behind
    /// stabilizer sign tracking.
    ///
    /// ```
    /// use epgs_graph::gf2::BitVec;
    ///
    /// let mut a = BitVec::zeros(100);
    /// let mut b = BitVec::zeros(100);
    /// a.set(5, true);
    /// a.set(80, true);
    /// b.set(80, true);
    /// assert!(a.parity_and(&b)); // one shared bit → odd
    /// b.set(5, true);
    /// assert!(!a.parity_and(&b)); // two shared bits → even
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn parity_and(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "length mismatch");
        kernels::parity_and_words(&self.words, &other.words)
    }
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for i in 0..self.len {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

/// A dense boolean matrix over GF(2).
///
/// Rows are stored as contiguous 64-bit words; XOR of two rows is a word-wise
/// XOR. All mutating elementary operations (`xor_rows`, `swap_rows`) keep the
/// matrix dimensions fixed.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Creates a `rows` × `cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64).max(1);
        BitMatrix {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// Reshapes the matrix to `rows` × `cols` of zeros, reusing the backing
    /// allocation when it is large enough. The workspace-reuse primitive for
    /// the constraint systems the solver assembles per photon.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.words_per_row = cols.div_ceil(64).max(1);
        self.data.clear();
        self.data.resize(rows * self.words_per_row, 0);
    }

    /// Drops all rows past `rows` (e.g. slots reserved by [`BitMatrix::reset`]
    /// that turned out empty during a compacting assembly).
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds the current row count.
    pub fn truncate_rows(&mut self, rows: usize) {
        assert!(rows <= self.rows, "cannot grow with truncate_rows");
        self.rows = rows;
        self.data.truncate(rows * self.words_per_row);
    }

    /// Creates the `n` × `n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from an iterator of rows, each row an iterator of bools.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows<I, R>(rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = bool>,
    {
        let rows: Vec<Vec<bool>> = rows.into_iter().map(|r| r.into_iter().collect()).collect();
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == ncols),
            "all rows must have the same length"
        );
        let mut m = Self::zeros(nrows, ncols);
        for (i, row) in rows.iter().enumerate() {
            for (j, &b) in row.iter().enumerate() {
                m.set(i, j, b);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> (usize, u64) {
        debug_assert!(r < self.rows && c < self.cols);
        (r * self.words_per_row + c / 64, 1u64 << (c % 64))
    }

    /// Returns the bit at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds (in debug builds).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        let (w, mask) = self.idx(r, c);
        self.data[w] & mask != 0
    }

    /// Sets the bit at (`r`, `c`) to `value`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        let (w, mask) = self.idx(r, c);
        if value {
            self.data[w] |= mask;
        } else {
            self.data[w] &= !mask;
        }
    }

    /// Flips the bit at (`r`, `c`).
    #[inline]
    pub fn flip(&mut self, r: usize, c: usize) {
        let (w, mask) = self.idx(r, c);
        self.data[w] ^= mask;
    }

    /// XORs row `src` into row `dst` (`dst ^= src`).
    ///
    /// # Panics
    ///
    /// Panics if `dst == src`.
    pub fn xor_rows(&mut self, dst: usize, src: usize) {
        assert_ne!(dst, src, "xor_rows requires distinct rows");
        let w = self.words_per_row;
        let (lo, hi) = (dst.min(src) * w, dst.max(src) * w);
        let (head, tail) = self.data.split_at_mut(hi);
        if dst < src {
            kernels::xor_words(&mut head[lo..lo + w], &tail[..w]);
        } else {
            kernels::xor_words(&mut tail[..w], &head[lo..lo + w]);
        }
    }

    /// Swaps two rows.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let w = self.words_per_row;
        for k in 0..w {
            self.data.swap(a * w + k, b * w + k);
        }
    }

    /// Returns true if row `r` is all zeros.
    pub fn row_is_zero(&self, r: usize) -> bool {
        kernels::is_zero_words(self.row_words(r))
    }

    /// The backing words of row `r`, least-significant bit first. Bits beyond
    /// [`BitMatrix::cols`] are zero.
    #[inline]
    pub fn row_words(&self, r: usize) -> &[u64] {
        let w = self.words_per_row;
        &self.data[r * w..(r + 1) * w]
    }

    /// Mutable access to the backing words of row `r`.
    ///
    /// Callers must keep bits at columns `>= cols()` zero; every bulk
    /// operation in this module preserves that invariant.
    #[inline]
    pub fn row_words_mut(&mut self, r: usize) -> &mut [u64] {
        let w = self.words_per_row;
        &mut self.data[r * w..(r + 1) * w]
    }

    /// Iterates the column indices of set bits in row `r`, in increasing
    /// order (word-at-a-time via `trailing_zeros`).
    ///
    /// ```
    /// use epgs_graph::gf2::BitMatrix;
    ///
    /// let mut m = BitMatrix::zeros(1, 100);
    /// m.set(0, 2, true);
    /// m.set(0, 99, true);
    /// assert_eq!(m.row_ones(0).collect::<Vec<_>>(), vec![2, 99]);
    /// ```
    pub fn row_ones(&self, r: usize) -> Ones<'_> {
        Ones::new(self.row_words(r))
    }

    /// Number of set bits in row `r`.
    pub fn row_count_ones(&self, r: usize) -> usize {
        kernels::count_ones_words(self.row_words(r))
    }

    /// Overwrites row `r` with the bits of `bits`; columns past `bits.len()`
    /// are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() > self.cols()`.
    pub fn copy_row_from(&mut self, r: usize, bits: &BitVec) {
        assert!(bits.len() <= self.cols, "bit-vector wider than the matrix");
        let w = self.words_per_row;
        let dst = &mut self.data[r * w..(r + 1) * w];
        dst.fill(0);
        dst[..bits.words().len()].copy_from_slice(bits.words());
    }

    /// XORs the bits of row `r` into `acc`.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len() != self.cols()`.
    pub fn xor_row_into(&self, r: usize, acc: &mut BitVec) {
        assert_eq!(acc.len(), self.cols, "bit-vector length must match cols");
        kernels::xor_words(acc.words_mut(), self.row_words(r));
    }

    /// Reduces the matrix in place to reduced row-echelon form and returns the
    /// pivot columns in order.
    pub fn rref(&mut self) -> Vec<usize> {
        self.rref_within(self.cols)
    }

    /// Like [`BitMatrix::rref`], but only the first `lead_cols` columns are
    /// eligible as pivots; trailing columns are carried along by the row
    /// operations. This is the shared-factorization kernel: augment a
    /// coefficient block with several right-hand-side columns, reduce once,
    /// and read every solution (and the null space) out of the same
    /// elimination. The row operations performed are exactly those of
    /// `rref` on the leading block alone, so the leading block ends up in
    /// its canonical reduced form.
    ///
    /// # Panics
    ///
    /// Panics if `lead_cols > self.cols()`.
    pub fn rref_within(&mut self, lead_cols: usize) -> Vec<usize> {
        let mut pivots = Vec::new();
        self.rref_within_into(lead_cols, &mut pivots);
        pivots
    }

    /// Allocation-free [`BitMatrix::rref_within`]: the pivot columns are
    /// written into `pivots` (cleared first), reusing its storage.
    ///
    /// Dispatches on shape alone: systems of ≤ 64 rows and ≤ 128 columns go
    /// through the transposed `rref_small` kernel, every other system takes
    /// the word loop ([`BitMatrix::rref_within_wordloop_into`]). One
    /// single-threaded compile of the `scale_mix` benchmark graphs makes
    /// 10,511 small and 145 word-loop reductions, every word-loop one of
    /// more than 64 rows (109 element-search systems and 36 of stage 5's
    /// square rank tests); the `paper_sweep` graphs make 8,366 and 12, the
    /// 12 all rank tests. Both paths perform the same elementary row
    /// operations and produce bit-identical reduced matrices and pivot
    /// lists.
    pub fn rref_within_into(&mut self, lead_cols: usize, pivots: &mut Vec<usize>) {
        assert!(lead_cols <= self.cols, "lead_cols out of range");
        pivots.clear();
        if self.rows <= 64 && self.cols <= 128 {
            self.rref_small(lead_cols, pivots);
        } else {
            self.rref_within_wordloop_into(lead_cols, pivots);
        }
    }

    /// The straight-line word-loop RREF — the path for every system past
    /// the `rref_small` shape, and the oracle the differential suite reduces
    /// the dispatched path against.
    ///
    /// The elimination works on whole row slices: the pivot row is staged in
    /// a (stack) buffer so every other row is updated with one straight-line
    /// word loop instead of per-bit queries.
    pub fn rref_within_wordloop_into(&mut self, lead_cols: usize, pivots: &mut Vec<usize>) {
        assert!(lead_cols <= self.cols, "lead_cols out of range");
        pivots.clear();
        let wpr = self.words_per_row;
        let mut stack = [0u64; 8];
        let mut heap;
        let buf: &mut [u64] = if wpr <= stack.len() {
            &mut stack[..wpr]
        } else {
            heap = vec![0u64; wpr];
            &mut heap
        };
        let mut pivot_row = 0;
        for col in 0..lead_cols {
            if pivot_row >= self.rows {
                break;
            }
            let (cw, cm) = (col / 64, 1u64 << (col % 64));
            // Find a row at or below pivot_row with a 1 in this column.
            let Some(r) = (pivot_row..self.rows).find(|&r| self.data[r * wpr + cw] & cm != 0)
            else {
                continue;
            };
            self.swap_rows(pivot_row, r);
            buf.copy_from_slice(&self.data[pivot_row * wpr..(pivot_row + 1) * wpr]);
            for (other, row) in self.data.chunks_exact_mut(wpr).enumerate() {
                if other != pivot_row && row[cw] & cm != 0 {
                    for (w, &b) in row.iter_mut().zip(buf.iter()) {
                        *w ^= b;
                    }
                }
            }
            pivots.push(col);
            pivot_row += 1;
        }
    }

    /// [`BitMatrix::rref_within_into`] for matrices of ≤ 64 rows and ≤ 128
    /// columns, operating on the bit-transpose: each column is one `u64`
    /// over the rows, so a pivot search is a `trailing_zeros`, a row swap is
    /// a delta-swap per column, and eliminating *every* row below a pivot is
    /// a single masked XOR per column. Performs exactly the row operations
    /// of the general path (same pivots, same reduced matrix).
    fn rref_small(&mut self, lead_cols: usize, pivots: &mut Vec<usize>) {
        debug_assert!(self.rows <= 64 && self.cols <= 128);
        let wpr = self.words_per_row;
        let mut colw = [0u64; 128];
        for r in 0..self.rows {
            for (k, &w) in self.data[r * wpr..(r + 1) * wpr].iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    let c = k * 64 + w.trailing_zeros() as usize;
                    colw[c] |= 1u64 << r;
                    w &= w - 1;
                }
            }
        }
        let cols = self.cols;
        let mut pivot_row = 0usize;
        for col in 0..lead_cols {
            if pivot_row >= self.rows {
                break;
            }
            // First row at or below pivot_row with a 1 in this column.
            let cand = colw[col] & (!0u64 << pivot_row);
            if cand == 0 {
                continue;
            }
            let r = cand.trailing_zeros() as usize;
            if r != pivot_row {
                for w in colw[..cols].iter_mut() {
                    let x = ((*w >> r) ^ (*w >> pivot_row)) & 1;
                    *w ^= (x << r) | (x << pivot_row);
                }
            }
            let pbit = 1u64 << pivot_row;
            let mask = colw[col] & !pbit;
            if mask != 0 {
                for w in colw[..cols].iter_mut() {
                    if *w & pbit != 0 {
                        *w ^= mask;
                    }
                }
            }
            pivots.push(col);
            pivot_row += 1;
        }
        self.data[..self.rows * wpr].fill(0);
        for (c, &w) in colw[..cols].iter().enumerate() {
            let (cw, cm) = (c / 64, 1u64 << (c % 64));
            let mut w = w;
            while w != 0 {
                let r = w.trailing_zeros() as usize;
                self.data[r * wpr + cw] |= cm;
                w &= w - 1;
            }
        }
    }

    /// Reads the solution of `A x = b_j` out of a matrix already reduced by
    /// [`BitMatrix::rref_within`]`(lead_cols)`, where `b_j` lives in column
    /// `lead_cols + j`. Returns `None` when the system is inconsistent, and
    /// otherwise the same free-variables-zero solution [`BitMatrix::solve`]
    /// produces for the equivalent single-rhs call.
    pub fn solution_from_reduced(
        &self,
        pivots: &[usize],
        lead_cols: usize,
        j: usize,
    ) -> Option<BitVec> {
        let mut x = BitVec::zeros(lead_cols);
        self.solution_from_reduced_into(pivots, lead_cols, j, &mut x)
            .then_some(x)
    }

    /// Allocation-free [`BitMatrix::solution_from_reduced`]: writes the
    /// solution into `out` (resized to `lead_cols`) and returns whether the
    /// system is consistent. `out` is unspecified on `false`.
    pub fn solution_from_reduced_into(
        &self,
        pivots: &[usize],
        lead_cols: usize,
        j: usize,
        out: &mut BitVec,
    ) -> bool {
        let rhs_col = lead_cols + j;
        // Inconsistent iff a zero leading row still carries a rhs bit.
        for row in pivots.len()..self.rows {
            if self.get(row, rhs_col) {
                return false;
            }
        }
        out.reset(lead_cols);
        for (row, &col) in pivots.iter().enumerate() {
            out.set(col, self.get(row, rhs_col));
        }
        true
    }

    /// Null-space basis of the leading `lead_cols`-column block of a matrix
    /// already reduced by [`BitMatrix::rref_within`], as the rows of a
    /// matrix: one basis row per free column, in increasing column order,
    /// with a 1 at that free column and at each pivot column whose reduced
    /// row carries it.
    pub fn null_space_from_reduced(&self, pivots: &[usize], lead_cols: usize) -> BitMatrix {
        let mut basis = BitMatrix::zeros(0, 0);
        self.null_space_from_reduced_into(pivots, lead_cols, &mut basis);
        basis
    }

    /// Allocation-free [`BitMatrix::null_space_from_reduced`]: writes the
    /// basis rows into `out` (reshaped to `(lead_cols - rank) × lead_cols`).
    pub fn null_space_from_reduced_into(
        &self,
        pivots: &[usize],
        lead_cols: usize,
        out: &mut BitMatrix,
    ) {
        out.reset(lead_cols - pivots.len(), lead_cols);
        // Pivot columns are strictly increasing, so the free columns (and a
        // membership test) come from one merge-style sweep.
        let mut next_pivot = 0;
        let mut i = 0;
        for fc in 0..lead_cols {
            if next_pivot < pivots.len() && pivots[next_pivot] == fc {
                next_pivot += 1;
                continue;
            }
            out.set(i, fc, true);
            for (row, &pc) in pivots.iter().enumerate() {
                if self.get(row, fc) {
                    out.set(i, pc, true);
                }
            }
            i += 1;
        }
    }

    /// Returns the GF(2) rank without mutating the matrix.
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        m.rref().len()
    }

    /// Solves `A x = b` over GF(2), returning one solution if any exists.
    ///
    /// `b` must have length `self.rows()`. The returned vector has length
    /// `self.cols()` with free variables set to zero.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.rows()`.
    pub fn solve(&self, b: &[bool]) -> Option<Vec<bool>> {
        assert_eq!(b.len(), self.rows, "rhs length must match row count");
        // Augment with b as an extra column, then RREF.
        let mut aug = BitMatrix::zeros(self.rows, self.cols + 1);
        for (r, &rhs) in b.iter().enumerate() {
            for w in 0..self.words_per_row {
                aug.data[r * aug.words_per_row + w] = self.data[r * self.words_per_row + w];
            }
            // Clear any stray bits beyond self.cols (none: zero-padded), set rhs.
            aug.set(r, self.cols, rhs);
        }
        let pivots = aug.rref();
        // Inconsistent iff a pivot lands in the augmented column.
        if pivots.last() == Some(&self.cols) {
            return None;
        }
        let mut x = vec![false; self.cols];
        for (row, &col) in pivots.iter().enumerate() {
            x[col] = aug.get(row, self.cols);
        }
        Some(x)
    }

    /// Multiplies `self` by a column vector over GF(2).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[bool]) -> Vec<bool> {
        assert_eq!(x.len(), self.cols, "vector length must match column count");
        (0..self.rows)
            .map(|r| {
                let mut acc = false;
                for (c, &xc) in x.iter().enumerate() {
                    if xc && self.get(r, c) {
                        acc = !acc;
                    }
                }
                acc
            })
            .collect()
    }
}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "BitMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{}", if self.get(r, c) { '1' } else { '0' })?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_no_set_bits() {
        let m = BitMatrix::zeros(3, 70);
        for r in 0..3 {
            for c in 0..70 {
                assert!(!m.get(r, c));
            }
        }
    }

    #[test]
    fn set_get_flip_across_word_boundary() {
        let mut m = BitMatrix::zeros(2, 130);
        m.set(1, 129, true);
        assert!(m.get(1, 129));
        m.flip(1, 129);
        assert!(!m.get(1, 129));
        m.flip(0, 63);
        m.flip(0, 64);
        assert!(m.get(0, 63) && m.get(0, 64));
    }

    #[test]
    fn identity_rank_is_n() {
        assert_eq!(BitMatrix::identity(17).rank(), 17);
    }

    #[test]
    fn rank_of_dependent_rows() {
        let m = BitMatrix::from_rows(vec![
            vec![true, false, true],
            vec![false, true, true],
            vec![true, true, false], // row0 ^ row1
        ]);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn rref_pivots_are_increasing() {
        let mut m = BitMatrix::from_rows(vec![
            vec![false, true, true, false],
            vec![true, true, false, true],
            vec![true, false, true, true],
        ]);
        let pivots = m.rref();
        let mut sorted = pivots.clone();
        sorted.sort_unstable();
        assert_eq!(pivots, sorted);
    }

    #[test]
    fn solve_consistent_system() {
        // x0 ^ x2 = 1 ; x1 = 1 ; x0 ^ x1 ^ x2 = 0
        let a = BitMatrix::from_rows(vec![
            vec![true, false, true],
            vec![false, true, false],
            vec![true, true, true],
        ]);
        let b = vec![true, true, false];
        let x = a.solve(&b).expect("system is consistent");
        assert_eq!(a.mul_vec(&x), b);
    }

    #[test]
    fn solve_inconsistent_system() {
        // x0 = 0 and x0 = 1 cannot both hold.
        let a = BitMatrix::from_rows(vec![vec![true], vec![true]]);
        assert!(a.solve(&[false, true]).is_none());
    }

    #[test]
    fn null_space_vectors_are_in_kernel() {
        let a = BitMatrix::from_rows(vec![
            vec![true, true, false, true],
            vec![false, true, true, true],
        ]);
        let mut reduced = a.clone();
        let pivots = reduced.rref();
        let basis = reduced.null_space_from_reduced(&pivots, a.cols());
        assert_eq!(basis.rows(), 2); // 4 cols - rank 2
        for v in 0..basis.rows() {
            let v: Vec<bool> = (0..a.cols()).map(|c| basis.get(v, c)).collect();
            assert!(a.mul_vec(&v).iter().all(|&b| !b));
        }
    }

    #[test]
    fn swap_rows_is_involutive() {
        let mut m = BitMatrix::from_rows(vec![vec![true, false], vec![false, true]]);
        let orig = m.clone();
        m.swap_rows(0, 1);
        m.swap_rows(0, 1);
        assert_eq!(m, orig);
    }

    #[test]
    fn xor_rows_twice_restores() {
        let mut m = BitMatrix::from_rows(vec![vec![true, true, false], vec![false, true, true]]);
        let orig = m.clone();
        m.xor_rows(0, 1);
        m.xor_rows(0, 1);
        assert_eq!(m, orig);
    }

    #[test]
    #[should_panic(expected = "distinct rows")]
    fn xor_rows_same_row_panics() {
        let mut m = BitMatrix::zeros(2, 2);
        m.xor_rows(1, 1);
    }

    #[test]
    fn bitvec_ones_and_first_one() {
        let mut v = BitVec::zeros(200);
        assert!(v.is_zero());
        assert_eq!(v.first_one(), None);
        assert_eq!(v.ones().count(), 0);
        for i in [0usize, 63, 64, 127, 199] {
            v.set(i, true);
        }
        assert_eq!(v.ones().collect::<Vec<_>>(), vec![0, 63, 64, 127, 199]);
        assert_eq!(v.first_one(), Some(0));
        assert_eq!(v.first_one_at_or_after(1), Some(63));
        assert_eq!(v.first_one_at_or_after(64), Some(64));
        assert_eq!(v.first_one_at_or_after(128), Some(199));
        assert_eq!(v.first_one_at_or_after(200), None);
        assert_eq!(v.count_ones(), 5);
    }

    #[test]
    fn bitvec_bulk_ops() {
        let mut a = BitVec::zeros(130);
        let mut b = BitVec::zeros(130);
        a.set(5, true);
        a.set(129, true);
        b.set(5, true);
        b.set(70, true);
        let mut x = a.clone();
        x.xor_with(&b);
        assert_eq!(x.ones().collect::<Vec<_>>(), vec![70, 129]);
        let mut o = a.clone();
        o.or_with(&b);
        assert_eq!(o.count_ones(), 3);
        assert!(a.parity_and(&b)); // bit 5 shared
        a.set(70, true);
        assert!(!a.parity_and(&b)); // bits 5 and 70 shared
        a.swap_bits(70, 71);
        assert!(!a.get(70) && a.get(71));
        a.clear();
        assert!(a.is_zero());
    }

    #[test]
    fn row_ones_matches_get() {
        let mut m = BitMatrix::zeros(3, 150);
        m.set(1, 0, true);
        m.set(1, 64, true);
        m.set(1, 149, true);
        assert_eq!(m.row_ones(1).collect::<Vec<_>>(), vec![0, 64, 149]);
        assert_eq!(m.row_count_ones(1), 3);
        assert_eq!(m.row_ones(0).count(), 0);
    }

    #[test]
    fn copy_row_from_and_xor_row_into() {
        let mut v = BitVec::zeros(100);
        v.set(3, true);
        v.set(99, true);
        let mut m = BitMatrix::zeros(2, 100);
        m.copy_row_from(0, &v);
        assert!(m.get(0, 3) && m.get(0, 99));
        let mut acc = BitVec::zeros(100);
        acc.set(3, true);
        m.xor_row_into(0, &mut acc);
        assert_eq!(acc.ones().collect::<Vec<_>>(), vec![99]);
    }

    #[test]
    fn row_is_zero_detects() {
        let mut m = BitMatrix::zeros(2, 100);
        assert!(m.row_is_zero(0));
        m.set(0, 99, true);
        assert!(!m.row_is_zero(0));
        assert!(m.row_is_zero(1));
    }
}
