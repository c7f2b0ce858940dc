//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` of the samples at or below it. `p` is a share in `(0, 1]`.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`
/// percentile. A tail percentile is only reported with enough of these.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of share `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(p > 0.0 && p <= 1.0, "percentile share out of range: {p}");
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Sorts the samples ascending (latencies are never NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
}

/// Median of unsorted samples; 0 when there are none (a phase that did not
/// run), so a caller never divides by a missing phase silently — the
/// attempted/failed counts carry that information.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    percentile(&sorted, 0.5)
}

/// The time of a repeated, deterministic piece of work on an undisturbed
/// machine: the fastest sample; 0 when there are none.
///
/// The reference box shares its cores and caches with other tenants of its
/// host, and how much they take changes by the hour.
///
/// On a busy afternoon they slow a job down by anything up to 1.6x, for most
/// of any given minute (a pure ALU loop beside it moves by under 1 %). Over
/// 25 windows of 24 s of one unchanged 25 ms job the median moved by 29 %
/// (quartile distance over median), the lower decile by 8 %, the fastest
/// twentieth by 5 %, the fastest sample by 1 %; of a 75 ms job, of which a
/// window holds 200, the fastest twentieth by 16 %, the fastest sample by
/// 7 %. Interference only ever adds time to fixed work, so the fastest run
/// is the work's own cost, and a change to the program moves it in
/// proportion.
///
/// On a quiet evening everything runs a steady tenth slower than it can, and
/// now and then, for half a second, the machine is all ours. The fastest
/// sample reads that half second when the window has one: over ten runs it
/// moved by 5 % (70 ms job) to 12 % (15 ms job), every quantile from the
/// twentieth to the median by 2 to 3 % plus what the seeds differ by.
///
/// So: the fastest sample for work a window holds tens to hundreds of (long
/// jobs, set-ups, rebuilds), where the twentieth is lost on a busy day;
/// [`fastest_twentieth`] for work it holds a thousand or more of, where the
/// twentieth is steady on both.
#[must_use]
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The fastest twentieth (nearest-rank 5th percentile); 0 when there are no
/// samples. [`fastest`] says when this is the better estimate of undisturbed
/// work. For requests of tens of microseconds there is a second reason: a
/// single request now and then skips a context switch, so the fastest one
/// (7 % between runs), or the fastest block of a hundred (3 to 9 %), reads a
/// rare shortcut; the twentieth (1 %) sits above those and below what
/// interference adds.
#[must_use]
pub fn fastest_twentieth(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    percentile(&sorted, 0.05)
}

/// `min .. p05 .. p25 .. p50 .. p75 .. p95 (k beyond)` of the samples, for
/// the `#` lines printed beside the metrics.
#[must_use]
pub fn summary(samples: &[f64]) -> String {
    if samples.is_empty() {
        return "no samples".to_string();
    }
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    format!(
        "n {} min {:.4} p05 {:.4} p25 {:.4} p50 {:.4} p75 {:.4} p95 {:.4} ({} beyond)",
        sorted.len(),
        sorted[0],
        percentile(&sorted, 0.05),
        percentile(&sorted, 0.25),
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.75),
        percentile(&sorted, 0.95),
        samples_beyond(sorted.len(), 0.95)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&s, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn samples_beyond_counts_the_strict_tail() {
        // 250 jobs: p95 is rank 238, 12 samples beyond it.
        assert_eq!(samples_beyond(250, 0.95), 12);
        // 120 mutations: p90 is rank 108, 12 beyond.
        assert_eq!(samples_beyond(120, 0.90), 12);
        assert_eq!(samples_beyond(1000, 0.95), 50);
        assert_eq!(samples_beyond(10, 1.0), 0);
        assert_eq!(samples_beyond(1, 0.5), 0);
    }

    #[test]
    fn percentile_and_beyond_agree() {
        for n in [1usize, 2, 3, 19, 20, 21, 250, 999] {
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for p in [0.5, 0.9, 0.95, 0.99] {
                let v = percentile(&s, p);
                let beyond = s.iter().filter(|&&x| x > v).count();
                assert_eq!(beyond, samples_beyond(n, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn fastest_reads_through_slow_stretches() {
        // 400 samples of 10 (odd ones 11), slowed by 1.6x for 90 % of the
        // window.
        let samples: Vec<f64> = (0..400)
            .map(|i| {
                let base = 10.0 + f64::from(i % 2);
                if (190..230).contains(&i) {
                    base
                } else {
                    base * 1.6
                }
            })
            .collect();
        assert_eq!(median(&samples), 16.0);
        assert_eq!(fastest(&samples), 10.0);
        assert_eq!(fastest(&[]), 0.0);
        // Forty undisturbed samples in 400: the fastest twentieth is one
        // of them.
        assert_eq!(fastest_twentieth(&samples), 10.0);
        // One freak sample in a hundred does not reach the twentieth.
        let mut freak = vec![10.0; 99];
        freak.push(1.0);
        assert_eq!(fastest(&freak), 1.0);
        assert_eq!(fastest_twentieth(&freak), 10.0);
        assert_eq!(fastest_twentieth(&[]), 0.0);
        assert_eq!(fastest_twentieth(&[5.0, 3.0, 4.0]), 3.0);
    }

    #[test]
    fn median_ignores_input_order_and_handles_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
