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
//! The three bulk operations SISA-PUM executes (§8.1) — AND, OR and AND-NOT —
//! each write into a caller-provided buffer (`*_into`, cleared first), which
//! `DenseBitVector`'s materialising operations then own. The one
//! cardinality-only form a SISA instruction reaches, `|A ∩ B|` over two
//! bitvectors, folds the popcount alone (`and_count`), materialising nothing.
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

/// Popcount of `a & b` without materialising it, in one unrolled pass.
#[must_use]
pub fn and_count(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "word slices must be equally long");
    let mut ones = 0u64;
    let split = a.len() & !3;
    for (wa, wb) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        ones += u64::from((wa[0] & wb[0]).count_ones())
            + u64::from((wa[1] & wb[1]).count_ones())
            + u64::from((wa[2] & wb[2]).count_ones())
            + u64::from((wa[3] & wb[3]).count_ones());
    }
    for (&wa, &wb) in a[split..].iter().zip(&b[split..]) {
        ones += u64::from((wa & wb).count_ones());
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
            fn(u64, u64) -> u64,
        );
        let ops: [Op; 3] = [
            (and_into, |x, y| x & y),
            (or_into, |x, y| x | y),
            (and_not_into, |x, y| x & !y),
        ];
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 100] {
            let (a, b) = inputs(len);
            for (into, f) in ops {
                let (want_words, want_ones) = reference(&a, &b, f);
                let mut out = Vec::new();
                assert_eq!(into(&a, &b, &mut out), want_ones, "into ones len={len}");
                assert_eq!(out, want_words, "into words len={len}");
            }
            let (_, want_ones) = reference(&a, &b, |x, y| x & y);
            assert_eq!(and_count(&a, &b), want_ones, "and_count len={len}");
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
