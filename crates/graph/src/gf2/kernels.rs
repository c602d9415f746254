//! The word loops behind [`super::BitVec`] / [`super::BitMatrix`].
//!
//! Every bulk boolean loop (XOR, OR, AND-parity, popcount, zero test) is one
//! straight-line loop over `u64` words here. The compiler's vectors are a few
//! words long, so there is no blocked or lane-unrolled variant to dispatch to.

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
