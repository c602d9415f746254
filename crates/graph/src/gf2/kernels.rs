//! The word loops behind [`super::BitVec`] / [`super::BitMatrix`].
//!
//! Every bulk boolean loop (XOR, OR, AND-parity, popcount, zero test) is one
//! straight-line loop over `u64` words here. The compiler's vectors are a few
//! words long, so there is no blocked or lane-unrolled variant to dispatch to.
//!
//! The module also hosts the cache-blocked 64×64 bit-transpose
//! ([`transpose_64x64`]) used to move data between the column-major bit-sliced
//! stores and row-major scratch tiles (see `epgs_stabilizer`'s batched row
//! gathers).

/// `dst ^= src`, word-wise over the common length.
#[inline]
pub(super) fn xor_words(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// `dst |= src`, word-wise over the common length.
#[inline]
pub(super) fn or_words(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Parity of `popcount(a & b)` over the common length.
#[inline]
pub(super) fn parity_and_words(a: &[u64], b: &[u64]) -> bool {
    let mut acc = 0u64;
    for (&x, &y) in a.iter().zip(b) {
        acc ^= x & y;
    }
    acc.count_ones() % 2 == 1
}

/// Total set bits.
#[inline]
pub(super) fn count_ones_words(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// True when every word is zero.
#[inline]
pub(super) fn is_zero_words(words: &[u64]) -> bool {
    words.iter().all(|&w| w == 0)
}

/// In-place 64×64 bit-transpose (Hacker's Delight §7-3 delta-swap ladder).
///
/// `a[i]` is row `i` with bit `j` = column `j`; on return `a[j]` holds the
/// former column `j`. Six passes of masked swap-XORs, all in registers/L1 —
/// this is the tile primitive for moving between the bit-sliced column
/// stores and row-major scratch (an involution: applying it twice restores
/// the input).
pub fn transpose_64x64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Naive per-bit 64×64 transpose — the oracle for [`transpose_64x64`].
pub fn transpose_64x64_naive(a: &[u64; 64]) -> [u64; 64] {
    let mut out = [0u64; 64];
    for (i, &row) in a.iter().enumerate() {
        for (j, o) in out.iter_mut().enumerate() {
            *o |= ((row >> j) & 1) << i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_matches_naive_and_is_involutive() {
        let mut s = 42u64 | 1;
        let mut tile = [0u64; 64];
        for w in &mut tile {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *w = s;
        }
        let naive = transpose_64x64_naive(&tile);
        let mut fast = tile;
        transpose_64x64(&mut fast);
        assert_eq!(fast, naive);
        transpose_64x64(&mut fast);
        assert_eq!(fast, tile);
    }
}
