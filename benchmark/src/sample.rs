//! Seeded sampling and the order statistics the reports use.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator for one named stream of a run's seed, so that adding a draw
/// to one part of a workload does not shift every other part.
pub fn stream(seed: u64, name: &str) -> StdRng {
    StdRng::seed_from_u64(seed ^ fnv1a(name.as_bytes()))
}

/// Streaming 64-bit FNV-1a; `.0` is the hash so far.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// One uniformly chosen element.
pub fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

/// How often each of `ranks` items occurs in a sequence of `len` requests
/// whose frequencies follow Zipf(s = 1): rank r gets its expected count
/// `len / (r · H)`, rounded, at least 1, with rank 1 absorbing the rounding
/// remainder. Fixing the counts (and shuffling the order by seed) gives
/// every seed the same request mix; only the interleaving differs.
pub fn zipf_counts(ranks: usize, len: usize) -> Vec<usize> {
    assert!(ranks > 0 && len >= ranks, "need at least one slot per rank");
    let harmonic: f64 = (1..=ranks).map(|r| 1.0 / r as f64).sum();
    let mut counts: Vec<usize> = (1..=ranks)
        .map(|r| ((len as f64 / (r as f64 * harmonic)).round() as usize).max(1))
        .collect();
    let rest: usize = counts[1..].iter().sum();
    assert!(rest < len, "sequence too short for this many ranks");
    counts[0] = len - rest;
    counts
}

/// Nearest-rank percentile of an ascending slice; `p` in (0, 1].
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile ladder reports choose from.
pub const LADDER: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// The highest rung of [`LADDER`] that still has at least ten samples
/// beyond it; `None` below twenty samples, where not even the median has.
pub fn highest_supported(samples: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Median of unordered values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let draw = |seed| {
            let mut rng = stream(seed, "lookup");
            let mut items: Vec<u32> = (0..64).collect();
            shuffle(&mut items, &mut rng);
            let picks: Vec<u32> = (0..64).map(|_| *pick(&items, &mut rng)).collect();
            let bytes: Vec<u8> = items
                .iter()
                .chain(&picks)
                .flat_map(|v| v.to_le_bytes())
                .collect();
            fnv1a(&bytes)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(
            stream(7, "a").random_range(0..u64::MAX),
            stream(7, "b").random_range(0..u64::MAX)
        );
    }

    #[test]
    fn zipf_counts_sum_and_fall() {
        let counts = zipf_counts(128, 1024);
        assert_eq!(counts.iter().sum::<usize>(), 1024);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(counts[127], 1);
        // Rank 1 of Zipf(1) over 128 ranks carries 1/H(128) = 18.4 %.
        assert!((180..=200).contains(&counts[0]), "{}", counts[0]);
    }

    #[test]
    fn highest_supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(199), Some(0.9));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 0.5), 100);
        assert_eq!(percentile(&v, 0.95), 190);
        assert_eq!(percentile(&v, 1.0), 200);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
