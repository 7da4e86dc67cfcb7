//! Result assembly: metrics with units, percentiles, per-round medians,
//! peak memory and the one-line JSON summary the benchmark ends with.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced: correctness tallies plus metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that returned an error or a wrong output.
    pub failed: u64,
    /// Operations whose returned output was wrong (a subset of `failed`).
    pub wrong: u64,
    /// Checks outside the per-operation tallies (equivalence gates,
    /// durability, protocol errors, health) that failed, by description.
    pub check_failures: Vec<String>,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the JSON summary: metrics that
    /// apply to this workload only, run context, reconciliation.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records one operation whose output was checked.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
        }
    }

    /// Records one operation that returned an error instead of an output;
    /// the first few errors are kept for the report.
    pub fn op_error(&mut self, error: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 4 {
            self.notes.push(format!("op error: {error}"));
        }
    }

    /// Records a failed whole-run check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    /// True when no output was wrong and every whole-run check passed.
    /// An operation that failed with an error is counted in `failed` but
    /// returned no output to be wrong.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.check_failures.is_empty()
    }
}

/// Median of a set of values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `i`-th quartile (1, 2 or 3) of a set of values, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives it.
fn quartile(values: &[f64], i: usize) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let m = i as f64 * (n as f64 + 1.0) / 4.0;
            let j = (m.floor() as usize).clamp(1, n - 1);
            let delta = m - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * delta
        }
    }
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (quartile(values, 3) - quartile(values, 1)).abs() / med.abs()
    }
}

/// The quartile of per-round figures on the fast side: the upper quartile
/// of a figure where higher is better, the lower one otherwise. The host
/// only ever slows a round down, in spells of several seconds that hit
/// some rounds and not others; the fast quartile reads the rounds the
/// host left alone, where the median would read how many rounds a spell
/// happened to hit.
pub fn fast_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    quartile(values, if higher_is_better { 3 } else { 1 })
}

/// Rounds the traced requests are split into to measure their spread.
pub const ROUNDS: usize = 10;

/// Per-round figures of a closed-loop window.
#[derive(Default)]
pub struct Rounds {
    pub throughput: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p95_us: Vec<f64>,
}

impl Rounds {
    /// Adds a round whose latencies are in `h`, completed in `round_ns`.
    pub fn push(&mut self, h: &Histogram, round_ns: u64) {
        self.throughput
            .push(h.len() as f64 / (round_ns.max(1) as f64 / 1e9));
        self.p50_us.push(h.percentile_us(50.0));
        self.p95_us.push(h.percentile_us(95.0));
    }
}

/// A latency histogram of fixed size, so a client that records millions of
/// operations does not grow with them (which `peak_rss_mb` would count).
/// Values below 128 ns have a bucket each; above, every power of two is
/// split into 64 buckets, so a percentile is within 1.6% of the true value.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; Histogram::BUCKETS],
            n: 0,
        }
    }
}

impl Histogram {
    const SUB: u64 = 64;
    /// Enough buckets for any `u64`.
    const BUCKETS: usize = 64 * Histogram::SUB as usize;

    fn index(ns: u64) -> usize {
        let msb = 63 - ns.max(1).leading_zeros() as u64;
        if msb < 7 {
            return ns as usize;
        }
        let shift = msb - 6;
        ((shift + 1) * Self::SUB + (ns >> shift) - Self::SUB) as usize
    }

    /// The middle of bucket `i`.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < 2 * Self::SUB {
            return i as f64;
        }
        let shift = i / Self::SUB - 1;
        let low = (i % Self::SUB + Self::SUB) << shift;
        low as f64 + (1u64 << shift) as f64 / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile, in microseconds (0 when empty).
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i) / 1e3;
            }
        }
        0.0
    }
}

/// A memory figure of this process from `/proc/self/status`, in MiB.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process (VmRSS), in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Resets the peak resident set size to the current one, so a workload's
/// `peak_rss_mb` leaves out the workloads run before it in the same
/// process. Returns false when the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A JSON number with all its digits (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The one-line JSON summary: correctness tallies plus `metrics`.
pub fn summary_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v);
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(fast_quartile(&v, true), 8.25);
        assert_eq!(fast_quartile(&v, false), 2.75);
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket() {
        let mut h = Histogram::default();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        for p in [1.0, 50.0, 95.0, 99.0] {
            let want = p / 100.0 * 1_000.0; // us
            let got = h.percentile_us(p);
            assert!((got - want).abs() / want < 0.016, "p{p}: {got} vs {want}");
        }
        for ns in [0, 1, 127, 128, 129, 1 << 20, u64::MAX] {
            let i = Histogram::index(ns);
            assert!(i < Histogram::BUCKETS);
            let v = Histogram::value(i);
            assert!(
                (v - ns as f64).abs() <= (ns as f64 / 64.0).max(0.5),
                "{ns} -> {v}"
            );
        }
    }
}
