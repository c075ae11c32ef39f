//! Seeded randomness for the workload generators: a splitmix64 stream
//! and Zipf proportions. Self-contained so the generated job lists depend
//! only on the seed and this file.

/// A splitmix64 generator: the same seed yields the same stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `total` draws split over ranks `0..n` in Zipf(1) proportions (rank `r`
/// weighs `1 / (r + 1)`), rounded by largest remainder so they sum to
/// `total`.
pub fn zipf_counts(n: usize, total: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let shares: Vec<f64> = (1..=n)
        .map(|r| total as f64 / (r as f64 * harmonic))
        .collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &rank in order.iter().take(missing) {
        counts[rank] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_sum_to_the_total_and_fall_with_rank() {
        let counts = zipf_counts(36, 190);
        assert_eq!(counts.iter().sum::<usize>(), 190);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert!(counts[0] > 5 * counts[35]);
    }
}
