//! Measurement helpers: a log-linear latency histogram with ≤ 1% bucket
//! error, medians and quartiles over per-window values, the metric sheet
//! every workload fills, and readers for `/proc` memory and CPU figures.

use std::fmt::Write as _;
use std::time::Duration;

/// Sub-buckets per power of two. 128 gives a worst-case relative error of
/// 1/128 < 1%, enough to resolve a 10% latency change.
const SUB: u64 = 128;
const SUB_BITS: u32 = 7;
/// Values up to 2^40 ns (~18 min) are bucketed; larger ones saturate.
const BUCKETS: usize = ((40 - SUB_BITS as usize + 1) + 1) * SUB as usize;

/// Latency histogram in nanoseconds. Values below 128 ns are exact; above,
/// each power of two is split into 128 linear buckets.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = msb - SUB_BITS;
    let idx = ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize;
    idx.min(BUCKETS - 1)
}

/// Midpoint of a bucket (exact below 128 ns).
fn value_of(idx: usize) -> f64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx as f64;
    }
    let shift = idx / SUB - 1;
    let low = (SUB + idx % SUB) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.total as f64
    }

    /// Samples at or below `ns` (to bucket resolution).
    pub fn count_le(&self, ns: u64) -> u64 {
        self.counts[..=bucket_of(ns)].iter().sum()
    }

    /// Nearest-rank quantile in nanoseconds (`q` in 0..=1).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        let mut cum = 0;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return value_of(i);
            }
        }
        value_of(BUCKETS - 1)
    }
}

/// Median of a list (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Times `f` over `reps` repetitions and returns the median wall time in
/// seconds together with the last repetition's value.
pub fn median_time<T>(reps: usize, mut f: impl FnMut(usize) -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps {
        drop(last.take()); // one set-up alive at a time
        let t = std::time::Instant::now();
        let v = f(i);
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Latency summary of a measured phase cut into fixed windows: the
/// `q`-quantile over windows of each window's p50 and p99, so one
/// descheduled window cannot move the reported figure.
pub struct WindowedLatency {
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: u64,
    pub windows: usize,
}

pub fn windowed(windows: &[Hist], q: f64) -> WindowedLatency {
    let used: Vec<&Hist> = windows.iter().filter(|h| h.count() >= 100).collect();
    let p50: Vec<f64> = used.iter().map(|h| h.quantile_ns(0.50) / 1e3).collect();
    let p99: Vec<f64> = used.iter().map(|h| h.quantile_ns(0.99) / 1e3).collect();
    WindowedLatency {
        p50_us: quantile(&p50, q),
        p99_us: quantile(&p99, q),
        samples: windows.iter().map(Hist::count).sum(),
        windows: used.len(),
    }
}

/// Linear-interpolated `q`-quantile of a list (`q` = 0.5 is the median).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 when it is a single reading).
    pub samples: u64,
}

/// The metric sheet of one run, printed as human-readable lines and as the
/// `metrics` object of the final JSON line.
#[derive(Default)]
pub struct Sheet {
    pub metrics: Vec<Metric>,
}

impl Sheet {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        let value = if value.is_finite() { value } else { f64::MAX };
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) {
            m.value = value;
            m.unit = unit;
            m.samples = samples;
            return;
        }
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Keeps only the named metrics, in the given order.
    pub fn select(&self, names: &[&str]) -> Sheet {
        let mut out = Sheet::default();
        for n in names {
            if let Some(m) = self.metrics.iter().find(|m| m.name == *n) {
                out.put(&m.name, m.value, m.unit, m.samples);
            }
        }
        out
    }

    pub fn print_table(&self, title: &str) {
        println!("# {title}");
        for m in &self.metrics {
            let n = if m.samples > 0 {
                format!("  (n={})", m.samples)
            } else {
                String::new()
            };
            println!("#   {:<32} {:>16.6} {}{}", m.name, m.value, m.unit, n);
        }
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with all its digits (integers stay integers).
pub fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// `/proc/<pid>/status` field in KiB (`pid` None = this process).
fn status_kib(pid: Option<u32>, field: &str) -> u64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Anonymous resident memory in MiB. A heap-backed region lives here too;
/// a file-backed one does not.
pub fn rss_anon_mib(pid: Option<u32>) -> f64 {
    status_kib(pid, "RssAnon:") as f64 / 1024.0
}

/// User + system CPU time a process has used so far.
pub fn cpu_time(pid: u32) -> Duration {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime/stime are the
    // 14th and 15th fields overall (11th and 12th after the name).
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let hz = 100.0; // USER_HZ is 100 on every Linux ABI
    Duration::from_secs_f64((ticks(11) + ticks(12)) as f64 / hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_error_is_below_one_percent() {
        for v in [
            1u64,
            127,
            128,
            129,
            1000,
            4095,
            65_537,
            1 << 30,
            123_456_789,
        ] {
            let mid = value_of(bucket_of(v));
            assert!((mid - v as f64).abs() / v as f64 <= 0.01, "{v} -> {mid}");
        }
    }

    #[test]
    fn quantiles_follow_samples() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.01, "{p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.01, "{p99}");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
