//! Order statistics over one run's samples.

/// `xs` sorted ascending (NaN-free input is the caller's contract).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` with linear interpolation between order
/// statistics (the "inclusive" definition); 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The tail beside a median: the most extreme order statistic that still
/// has at least ten samples beyond it, on the bad side of the metric.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// The percentile `value` sits at (50 when the run has too few samples
    /// for any tail beyond the median).
    pub pct: f64,
    pub samples: usize,
}

/// `higher_is_worse` picks the side: latencies look up, rates look down.
pub fn tail(xs: &[f64], higher_is_worse: bool) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            pct: 50.0,
            samples: 0,
        };
    }
    let v = sorted(xs);
    let mid = (n - 1) / 2;
    let (idx, pct) = if higher_is_worse {
        let idx = n.saturating_sub(11).max(mid);
        (idx, 100.0 * (idx + 1) as f64 / n as f64)
    } else {
        let idx = 10.min(n - 1 - mid);
        (idx, 100.0 * idx as f64 / n as f64)
    };
    let pct = if idx == mid { 50.0 } else { pct };
    Tail {
        value: v[idx],
        pct,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs, true);
        assert_eq!(t.value, 989.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        let low = tail(&xs, false);
        assert_eq!(low.value, 10.0);
        assert_eq!(xs.iter().filter(|&&x| x < low.value).count(), 10);
        // Too few samples for a tail beyond the median: report the median.
        let few = tail(&[1.0, 2.0, 3.0], true);
        assert_eq!((few.value, few.pct), (2.0, 50.0));
    }
}
