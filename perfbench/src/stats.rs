//! Order statistics over timing samples.

/// Nearest-rank percentile of `samples` (any order), `p` in `(0, 1]`.
/// Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Nearest-rank percentile of ascending `sorted`, `p` in `(0, 1]`.
/// Returns 0 for an empty slice.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = (p * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted(&[10u32, 20, 30, 40], 0.5), 20.0);
    }
}
