//! Order statistics over timing samples.

/// Linearly interpolated quantile `q` ∈ [0, 1] of `xs` (sorted in place);
/// 0 for an empty sample.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Median of `xs` (sorted in place).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Samples bucketed into fixed windows of a run by completion time, so a
/// statistic can be taken per window and the median taken across windows:
/// a burst of host noise then spoils one window, not the result.
#[derive(Debug)]
pub struct Windows {
    width_s: f64,
    buckets: Vec<Vec<f64>>,
}

impl Windows {
    /// Windows of `width_s` seconds from the run's start.
    pub fn new(width_s: f64) -> Windows {
        Windows {
            width_s,
            buckets: Vec::new(),
        }
    }

    /// Record `value`, completed `t_s` seconds into the run.
    pub fn push(&mut self, t_s: f64, value: f64) {
        let w = (t_s / self.width_s) as usize;
        if self.buckets.len() <= w {
            self.buckets.resize_with(w + 1, Vec::new);
        }
        self.buckets[w].push(value);
    }

    /// Every sample, in window order.
    pub fn all(&self) -> Vec<f64> {
        self.buckets.iter().flatten().copied().collect()
    }

    /// The windows that lie wholly inside a run of `run_s` seconds.
    fn complete(&self, run_s: f64) -> &[Vec<f64>] {
        let n = ((run_s / self.width_s) as usize)
            .max(1)
            .min(self.buckets.len());
        &self.buckets[..n]
    }

    /// Median across complete windows of samples completed per second.
    pub fn median_rate(&self, run_s: f64) -> f64 {
        let mut rates: Vec<f64> = self
            .complete(run_s)
            .iter()
            .map(|b| b.len() as f64 / self.width_s)
            .collect();
        median(&mut rates)
    }

    /// Median across complete windows of each window's quantile `q`.
    pub fn median_quantile(&self, run_s: f64, q: f64) -> f64 {
        let mut per: Vec<f64> = self
            .complete(run_s)
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| quantile(&mut b.clone(), q))
            .collect();
        median(&mut per)
    }
}

/// Microseconds in `d`.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds in `d`.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether two `f32` slices are equal bit for bit.
pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn windows_take_medians_across_complete_windows() {
        let mut w = Windows::new(1.0);
        for (t, v) in [(0.1, 1.0), (0.5, 3.0), (1.2, 2.0), (2.5, 9.0), (3.1, 100.0)] {
            w.push(t, v);
        }
        // Windows 0..3 are complete in a 3 s run; the sample at 3.1 s is not.
        assert_eq!(w.median_rate(3.0), 1.0);
        assert_eq!(w.median_quantile(3.0, 0.5), 2.0);
        assert_eq!(w.all().len(), 5);
    }
}
