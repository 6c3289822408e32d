//! Order statistics over latency samples (nanoseconds).

/// Sorted samples of one statement class or span name.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn count(&self) -> usize {
        self.ns.len()
    }

    pub fn sum(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The `q`-quantile (nearest rank), 0 when there are no samples.
    pub fn quantile(&mut self, q: f64) -> u64 {
        if self.ns.is_empty() {
            return 0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = (q * self.ns.len() as f64).ceil() as usize;
        self.ns[rank.clamp(1, self.ns.len()) - 1]
    }

    pub fn median(&mut self) -> u64 {
        self.quantile(0.5)
    }

    pub fn p95(&mut self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&mut self) -> u64 {
        self.quantile(0.99)
    }

    pub fn max(&self) -> u64 {
        self.ns.iter().copied().max().unwrap_or(0)
    }
}

/// Median of a few floats (set-up and reopen repetitions).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(v);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.median(), 50);
        assert_eq!(s.p95(), 95);
        assert_eq!(s.p99(), 99);
        assert_eq!(s.max(), 100);
        assert_eq!(s.sum(), 5050);
        assert_eq!(Samples::default().median(), 0);
    }

    #[test]
    fn float_median() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
