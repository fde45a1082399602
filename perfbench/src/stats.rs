//! Small order statistics and the digest used to compare simulated
//! outcomes between repetitions.

/// Median of `values` (mean of the two middle values for an even
/// count); 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: `rank = max(1, ceil(n * p / 100))`, the
/// definition the cluster report uses for its latency percentiles.
/// 0.0 for an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * p as usize).div_ceil(100).max(1);
    v[rank.min(v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: u32) -> usize {
    n - (n * p as usize).div_ceil(100).max(1).min(n)
}

/// FNV-1a over bytes: a stable digest for comparing outcomes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Digest of a value's `Debug` rendering. Every simulated outcome type
/// derives `Debug` with shortest round-trip float formatting, so equal
/// outcomes give equal digests.
pub fn digest_debug<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv(format!("{value:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 60.0);
        assert_eq!(percentile(&v, 90), 108.0);
        assert_eq!(beyond(120, 90), 12);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }
}
