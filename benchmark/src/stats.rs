//! Sample summaries: median plus the highest percentile that still has at
//! least ten samples beyond it.

/// Summary of one timing's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// The tail percentile reported (e.g. 90 for p90); `None` when fewer
    /// than twenty samples leave no percentile above the median with ten
    /// samples beyond it.
    pub tail_pct: Option<u32>,
    pub tail: f64,
}

/// Nearest-rank percentile of sorted samples, `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Summarise samples (any order). Panics on an empty slice: every leg
/// takes at least one sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    };
    let tail_pct = [99u32, 95, 90, 75]
        .into_iter()
        .find(|&q| n * (100 - q as usize) >= 1000);
    let tail = tail_pct.map_or(median, |q| percentile(&s, f64::from(q) / 100.0));
    Summary {
        n,
        median,
        tail_pct,
        tail,
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.4} (n = {}", self.median, self.n)?;
        match self.tail_pct {
            Some(q) => write!(f, ", p{q} {:.4})", self.tail),
            None => write!(f, ", too few samples for a tail percentile)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail_pct, Some(90));
        assert_eq!(s.tail, 90.0);
        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(few.median, 2.0);
        assert_eq!(few.tail_pct, None);
    }
}
