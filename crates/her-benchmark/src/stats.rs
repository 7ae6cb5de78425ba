//! Order statistics over the benchmark's samples.

/// Median of `values` (mean of the middle two for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The rate a run reports for its repetitions: their 90th percentile,
/// interpolated between the two nearest ranks; 0 when empty. On a shared
/// host a repetition is only ever slowed from outside (stolen processor
/// time, a neighbour's cache traffic), for seconds at a time, so the upper
/// end of a run's rates repeats from run to run where the median moves
/// with however much of the run was disturbed. Not the maximum, so that
/// one lucky repetition does not set the result.
pub fn upper_rate(rates: &[f64]) -> f64 {
    let mut v = rates.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let at = 0.9 * (n - 1) as f64;
            let below = v[at.floor() as usize];
            let above = v[at.ceil() as usize];
            below + (above - below) * at.fract()
        }
    }
}

/// Nearest-rank percentile `p` in `(0, 100]` of already sorted samples; 0 when empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            sorted[rank.clamp(1, n) - 1]
        }
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Pooled latency samples in nanoseconds, reported as p50/p99 microseconds.
#[derive(Default)]
pub struct Latencies(pub Vec<u64>);

impl Latencies {
    pub fn extend(&mut self, more: &[u64]) {
        self.0.extend_from_slice(more);
    }

    /// `(p50_us, p99_us)`; p99 has ten samples beyond it from 1000 samples up.
    pub fn p50_p99_us(&self) -> (f64, f64) {
        let mut v = self.0.clone();
        v.sort_unstable();
        (
            percentile_sorted(&v, 50.0) as f64 / 1e3,
            percentile_sorted(&v, 99.0) as f64 / 1e3,
        )
    }

    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<u64>() as f64 / self.0.len() as f64 / 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn upper_rate_is_the_interpolated_ninetieth_percentile() {
        assert_eq!(upper_rate(&[]), 0.0);
        assert_eq!(upper_rate(&[7.0]), 7.0);
        // eleven values: rank 0.9 * 10 = 9 exactly, the second largest
        let v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(upper_rate(&v), 9.0);
        // five values: rank 3.6, six tenths of the way from 40 to 50
        let got = upper_rate(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert!((got - 46.0).abs() < 1e-9, "{got}");
        // a stalled half of the run does not move it, a lucky repetition barely
        let calm = [
            100.0, 101.0, 99.0, 100.0, 102.0, 100.0, 101.0, 99.0, 100.0, 101.0,
        ];
        let stalled = [
            100.0, 101.0, 55.0, 48.0, 102.0, 51.0, 101.0, 60.0, 47.0, 101.0,
        ];
        assert!((upper_rate(&calm) - upper_rate(&stalled)).abs() < 1.0);
        assert!((median(&calm) - median(&stalled)).abs() > 15.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500);
        // ten samples lie beyond the 99th percentile of 1000
        assert_eq!(percentile_sorted(&v, 99.0), 990);
        assert_eq!(percentile_sorted(&v, 100.0), 1000);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        assert_eq!(percentile_sorted(&[], 99.0), 0);
    }

    #[test]
    fn latencies_report_microseconds() {
        let l = Latencies((1..=100).map(|i| i * 1000).collect());
        assert_eq!(l.p50_p99_us(), (50.0, 99.0));
        assert_eq!(l.mean_us(), 50.5);
    }
}
