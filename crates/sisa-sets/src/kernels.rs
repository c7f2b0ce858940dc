//! Word-parallel kernels over raw `u64` word slices.
//!
//! These are the host-side execution kernels behind the dense-bitvector set
//! operations: bulk bitwise combines over 64-bit words with the result's
//! popcount fused into the same pass (`count_ones` reductions), so callers
//! never re-walk the words to recover the cardinality. The inner loops are
//! unrolled four words at a time — 256 set-universe bits per iteration — which
//! lets the compiler keep four independent combine+popcount chains in flight
//! instead of serialising on one accumulator.
//!
//! Three flavours exist for each bitwise operation:
//!
//! * `*_into` — writes the result into a caller-provided buffer (cleared
//!   first), which `DenseBitVector`'s materialising operations then own;
//! * `*_assign` — combines in place into the left operand;
//! * `*_count` — folds the popcount only, materialising nothing.
//!
//! All functions require equally long inputs (dense bitvectors over the same
//! universe always are) and return the number of set bits in the result.

/// Combines `a` and `b` word-by-word into `out` (clearing it first) and
/// returns the popcount of the result, in one unrolled pass.
#[inline(always)]
fn combine_into(a: &[u64], b: &[u64], out: &mut Vec<u64>, f: impl Fn(u64, u64) -> u64) -> u64 {
    assert_eq!(a.len(), b.len(), "word slices must be equally long");
    out.clear();
    out.reserve(a.len());
    let mut ones = 0u64;
    let split = a.len() & !3;
    for (wa, wb) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        let w0 = f(wa[0], wb[0]);
        let w1 = f(wa[1], wb[1]);
        let w2 = f(wa[2], wb[2]);
        let w3 = f(wa[3], wb[3]);
        ones += u64::from(w0.count_ones())
            + u64::from(w1.count_ones())
            + u64::from(w2.count_ones())
            + u64::from(w3.count_ones());
        out.extend_from_slice(&[w0, w1, w2, w3]);
    }
    for (&wa, &wb) in a[split..].iter().zip(&b[split..]) {
        let w = f(wa, wb);
        ones += u64::from(w.count_ones());
        out.push(w);
    }
    ones
}

/// Combines `src` into `dst` in place and returns the popcount of the result,
/// in one unrolled pass.
#[inline(always)]
fn combine_assign(dst: &mut [u64], src: &[u64], f: impl Fn(u64, u64) -> u64) -> u64 {
    assert_eq!(dst.len(), src.len(), "word slices must be equally long");
    let mut ones = 0u64;
    let split = dst.len() & !3;
    for (wd, ws) in dst[..split]
        .chunks_exact_mut(4)
        .zip(src[..split].chunks_exact(4))
    {
        let w0 = f(wd[0], ws[0]);
        let w1 = f(wd[1], ws[1]);
        let w2 = f(wd[2], ws[2]);
        let w3 = f(wd[3], ws[3]);
        ones += u64::from(w0.count_ones())
            + u64::from(w1.count_ones())
            + u64::from(w2.count_ones())
            + u64::from(w3.count_ones());
        wd[0] = w0;
        wd[1] = w1;
        wd[2] = w2;
        wd[3] = w3;
    }
    for (wd, &ws) in dst[split..].iter_mut().zip(&src[split..]) {
        let w = f(*wd, ws);
        ones += u64::from(w.count_ones());
        *wd = w;
    }
    ones
}

/// Folds the popcount of the word-wise combination without materialising it,
/// in one unrolled pass.
#[inline(always)]
fn combine_count(a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) -> u64 {
    assert_eq!(a.len(), b.len(), "word slices must be equally long");
    let mut ones = 0u64;
    let split = a.len() & !3;
    for (wa, wb) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        ones += u64::from(f(wa[0], wb[0]).count_ones())
            + u64::from(f(wa[1], wb[1]).count_ones())
            + u64::from(f(wa[2], wb[2]).count_ones())
            + u64::from(f(wa[3], wb[3]).count_ones());
    }
    for (&wa, &wb) in a[split..].iter().zip(&b[split..]) {
        ones += u64::from(f(wa, wb).count_ones());
    }
    ones
}

/// `out = a & b` (set intersection); returns the result's popcount.
pub fn and_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
    combine_into(a, b, out, |x, y| x & y)
}

/// `out = a | b` (set union); returns the result's popcount.
pub fn or_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
    combine_into(a, b, out, |x, y| x | y)
}

/// `out = a & !b` (set difference); returns the result's popcount.
pub fn and_not_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
    combine_into(a, b, out, |x, y| x & !y)
}

/// `out = a ^ b` (symmetric difference); returns the result's popcount.
pub fn xor_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u64 {
    combine_into(a, b, out, |x, y| x ^ y)
}

/// `dst &= src`; returns the result's popcount.
pub fn and_assign(dst: &mut [u64], src: &[u64]) -> u64 {
    combine_assign(dst, src, |x, y| x & y)
}

/// `dst |= src`; returns the result's popcount.
pub fn or_assign(dst: &mut [u64], src: &[u64]) -> u64 {
    combine_assign(dst, src, |x, y| x | y)
}

/// `dst &= !src`; returns the result's popcount.
pub fn and_not_assign(dst: &mut [u64], src: &[u64]) -> u64 {
    combine_assign(dst, src, |x, y| x & !y)
}

/// `dst ^= src`; returns the result's popcount.
pub fn xor_assign(dst: &mut [u64], src: &[u64]) -> u64 {
    combine_assign(dst, src, |x, y| x ^ y)
}

/// Popcount of `a & b` without materialising it.
#[must_use]
pub fn and_count(a: &[u64], b: &[u64]) -> u64 {
    combine_count(a, b, |x, y| x & y)
}

/// Popcount of `a | b` without materialising it.
#[must_use]
pub fn or_count(a: &[u64], b: &[u64]) -> u64 {
    combine_count(a, b, |x, y| x | y)
}

/// Popcount of `a & !b` without materialising it.
#[must_use]
pub fn and_not_count(a: &[u64], b: &[u64]) -> u64 {
    combine_count(a, b, |x, y| x & !y)
}

/// Popcount of `a ^ b` without materialising it.
#[must_use]
pub fn xor_count(a: &[u64], b: &[u64]) -> u64 {
    combine_count(a, b, |x, y| x ^ y)
}

/// Popcount of a word slice, unrolled four words at a time.
#[must_use]
pub fn popcount(words: &[u64]) -> u64 {
    let mut ones = 0u64;
    let split = words.len() & !3;
    for w in words[..split].chunks_exact(4) {
        ones += u64::from(w[0].count_ones())
            + u64::from(w[1].count_ones())
            + u64::from(w[2].count_ones())
            + u64::from(w[3].count_ones());
    }
    for &w in &words[split..] {
        ones += u64::from(w.count_ones());
    }
    ones
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference: the same combination one word at a time.
    fn reference(a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) -> (Vec<u64>, u64) {
        let words: Vec<u64> = a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect();
        let ones = words.iter().map(|w| u64::from(w.count_ones())).sum();
        (words, ones)
    }

    fn inputs(len: usize) -> (Vec<u64>, Vec<u64>) {
        // Deterministic pseudo-random words exercising every unroll tail.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let a: Vec<u64> = (0..len).map(|_| next()).collect();
        let b: Vec<u64> = (0..len).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn all_flavours_match_the_scalar_reference_at_every_tail_length() {
        type Op = (
            fn(&[u64], &[u64], &mut Vec<u64>) -> u64,
            fn(&mut [u64], &[u64]) -> u64,
            fn(&[u64], &[u64]) -> u64,
            fn(u64, u64) -> u64,
        );
        let ops: [Op; 4] = [
            (and_into, and_assign, and_count, |x, y| x & y),
            (or_into, or_assign, or_count, |x, y| x | y),
            (and_not_into, and_not_assign, and_not_count, |x, y| x & !y),
            (xor_into, xor_assign, xor_count, |x, y| x ^ y),
        ];
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 100] {
            let (a, b) = inputs(len);
            for (into, assign, count, f) in ops {
                let (want_words, want_ones) = reference(&a, &b, f);
                let mut out = Vec::new();
                assert_eq!(into(&a, &b, &mut out), want_ones, "into ones len={len}");
                assert_eq!(out, want_words, "into words len={len}");
                let mut dst = a.clone();
                assert_eq!(assign(&mut dst, &b), want_ones, "assign ones len={len}");
                assert_eq!(dst, want_words, "assign words len={len}");
                assert_eq!(count(&a, &b), want_ones, "count len={len}");
            }
            assert_eq!(
                popcount(&a),
                a.iter().map(|w| u64::from(w.count_ones())).sum::<u64>()
            );
        }
    }

    #[test]
    fn into_reuses_the_buffer_capacity() {
        let (a, b) = inputs(64);
        let mut out = Vec::new();
        and_into(&a, &b, &mut out);
        let ptr = out.as_ptr();
        let cap = out.capacity();
        for _ in 0..10 {
            or_into(&a, &b, &mut out);
        }
        assert_eq!(out.as_ptr(), ptr, "buffer must not be reallocated");
        assert_eq!(out.capacity(), cap, "capacity must not grow");
    }

    #[test]
    #[should_panic(expected = "equally long")]
    fn mismatched_lengths_panic() {
        let _ = and_count(&[1, 2], &[3]);
    }
}
