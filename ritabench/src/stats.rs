//! Order statistics and arrival schedules shared by every workload.

use rand::Rng;
use rita_tensor::SeedableRng64;

/// A percentile read off a sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at that rank (nearest-rank definition).
    pub value: f64,
    /// Number of samples the value was read from.
    pub samples: usize,
    /// Number of samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest value with at least
/// `q · len` samples at or below it. `None` on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank })
}

/// Median of an unsorted sample (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (NaN on an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Send offsets (seconds from the phase start) of a Poisson arrival process at
/// `rate` requests/second over `duration` seconds. The same seed gives the same
/// schedule.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = rita_tensor::rng_from_seed(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += exponential(&mut rng, rate);
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

fn exponential(rng: &mut SeedableRng64, rate: f64) -> f64 {
    // 1 - U lies in (0, 1], so the logarithm is finite.
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_rank_count_and_tail() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&sorted, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        let p50 = percentile(&sorted, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        // The top rank has nothing beyond it; tiny samples clamp to a valid rank.
        assert_eq!(percentile(&sorted, 1.0).unwrap().beyond, 0);
        assert_eq!(percentile(&[7.0], 0.99).unwrap().value, 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.0001).unwrap().value, 1.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_matches_its_rate() {
        let a = poisson_schedule(1, 300.0, 20.0);
        let b = poisson_schedule(1, 300.0, 20.0);
        let c = poisson_schedule(2, 300.0, 20.0);
        assert_eq!(a, b, "same seed must give the same schedule");
        assert_ne!(a, c, "another seed must give another schedule");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "offsets must increase");
        assert!(a.iter().all(|&t| (0.0..20.0).contains(&t)));
        let expected = 300.0 * 20.0;
        let got = a.len() as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt(),
            "{got} arrivals, expected ~{expected}"
        );
    }
}
