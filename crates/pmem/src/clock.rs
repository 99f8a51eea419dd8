//! Calibrated cycle/time injection and the NVMM performance model.
//!
//! The paper measured its proposed instructions on gem5 and then evaluated
//! the file system on real hardware by **adding the measured 46-cycle
//! jmpp/pret delta to every Simurgh call** (§5.1). We take the same
//! approach in reverse: modelled costs (security calls, syscalls, media
//! latency) are injected as real busy-wait delays so that throughput
//! comparisons between file systems include them.
//!
//! [`SpinClock`] calibrates how many `spin_loop` iterations one microsecond
//! takes on this host, once, and then converts "N cycles at 2.5 GHz" into a
//! spin count. The fractional part of each count is carried per thread into
//! the next call, so the mean spins per call equal the model even when one
//! delay is shorter than one iteration: an 18-ns (46-cycle) delay costs one
//! spin on some calls and none on others, in the modelled proportion.

use std::cell::Cell;
use std::hint::spin_loop;
use std::sync::OnceLock;
use std::time::Instant;

thread_local! {
    /// Spins owed but not yet issued by this thread's earlier delays.
    static CARRY: Cell<f64> = const { Cell::new(0.0) };
}

/// Whole spins to issue now for a delay worth `want` spins, given the
/// fractional `carry` of earlier calls; returns them with the new carry.
fn spins_with_carry(want: f64, carry: f64) -> (u64, f64) {
    let total = want + carry;
    let spins = total.floor();
    (spins as u64, total - spins)
}

/// Clock frequency of the paper's evaluation machine (Xeon Gold 5212/5215).
pub const PAPER_GHZ: f64 = 2.5;

/// A calibrated busy-wait clock.
#[derive(Debug, Clone, Copy)]
pub struct SpinClock {
    spins_per_us: f64,
}

impl SpinClock {
    /// Calibrates the spin loop against `Instant`. Takes a few milliseconds;
    /// do it once and reuse (see [`SpinClock::global`]).
    pub fn calibrate() -> Self {
        // Warm up.
        for _ in 0..10_000 {
            spin_loop();
        }
        let mut best = f64::MAX;
        for _ in 0..3 {
            let iters: u64 = 2_000_000;
            let start = Instant::now();
            for _ in 0..iters {
                spin_loop();
            }
            let us = start.elapsed().as_secs_f64() * 1e6;
            if us > 0.0 {
                best = best.min(us / iters as f64);
            }
        }
        let per_iter_us = if best.is_finite() && best > 0.0 { best } else { 1e-3 };
        SpinClock { spins_per_us: 1.0 / per_iter_us }
    }

    /// The lazily calibrated process-wide clock.
    pub fn global() -> &'static SpinClock {
        static GLOBAL: OnceLock<SpinClock> = OnceLock::new();
        GLOBAL.get_or_init(SpinClock::calibrate)
    }

    /// Busy-waits approximately `ns` nanoseconds (exactly, on average over
    /// a thread's calls).
    #[inline]
    pub fn delay_ns(&self, ns: f64) {
        let want = self.spins_per_us * ns / 1000.0;
        let spins = CARRY.with(|c| {
            let (spins, rest) = spins_with_carry(want, c.get());
            c.set(rest);
            spins
        });
        for _ in 0..spins {
            spin_loop();
        }
    }

    /// Busy-waits for `cycles` CPU cycles at `ghz` GHz.
    #[inline]
    pub fn delay_cycles(&self, cycles: u64, ghz: f64) {
        self.delay_ns(cycles as f64 / ghz)
    }

    /// Calibrated spin-loop iterations per microsecond (diagnostic).
    pub fn spins_per_us(&self) -> f64 {
        self.spins_per_us
    }
}

/// Performance envelope of the emulated NVMM device, used (a) to draw the
/// "max bandwidth" reference lines of Fig. 6 / Fig. 7i and (b) optionally to
/// throttle bulk data transfers so DRAM does not masquerade as Optane.
///
/// Defaults approximate six interleaved Optane DC 128-GB DIMMs as measured
/// in the literature: reads ~6.6 GB/s/DIMM sequential, writes ~2.3 GB/s/DIMM,
/// with the paper's setup saturating around 40 GB/s read / 14 GB/s write.
#[derive(Debug, Clone, Copy)]
pub struct NvmmPerfModel {
    /// Aggregate sequential read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Aggregate write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Idle read latency, nanoseconds (Optane ~300 ns medium-size reads).
    pub read_latency_ns: f64,
    /// Write (to WPQ) latency, nanoseconds.
    pub write_latency_ns: f64,
}

impl Default for NvmmPerfModel {
    fn default() -> Self {
        NvmmPerfModel {
            read_bw: 40.0e9,
            write_bw: 14.0e9,
            read_latency_ns: 170.0,
            write_latency_ns: 90.0,
        }
    }
}

impl NvmmPerfModel {
    /// Modelled duration of a read of `bytes`.
    pub fn read_ns(&self, bytes: usize) -> f64 {
        self.read_latency_ns + bytes as f64 / self.read_bw * 1e9
    }

    /// Modelled duration of a write of `bytes`.
    pub fn write_ns(&self, bytes: usize) -> f64 {
        self.write_latency_ns + bytes as f64 / self.write_bw * 1e9
    }

    /// Max achievable random-read throughput in GiB/s for the reference line
    /// of Fig. 6 / 7i, given the access granularity.
    pub fn max_read_gibs(&self, access_bytes: usize) -> f64 {
        let per_access_ns = self.read_ns(access_bytes);
        access_bytes as f64 / (per_access_ns * 1e-9) / (1u64 << 30) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive() {
        let c = SpinClock::calibrate();
        assert!(c.spins_per_us() > 0.0);
    }

    #[test]
    fn delay_scales_roughly_with_duration() {
        let c = SpinClock::global();
        let start = Instant::now();
        for _ in 0..100 {
            c.delay_ns(10_000.0); // 1 ms total
        }
        let elapsed = start.elapsed().as_secs_f64();
        // Very loose bounds: busy environments can stretch this.
        assert!(elapsed > 0.0003, "1ms of requested delay took {elapsed}s");
    }

    #[test]
    fn carried_fraction_makes_the_mean_exact() {
        // The jmpp delta at a calibration of 50 spins/µs: 0.92 spins per
        // call. Truncation issued none; the carry issues 92 per 100 calls.
        let want = 50.0 * 18.4 / 1000.0;
        let (mut carry, mut issued) = (0.0, 0u64);
        for _ in 0..10_000 {
            let (spins, rest) = spins_with_carry(want, carry);
            assert!(spins <= 1 && (0.0..1.0).contains(&rest));
            issued += spins;
            carry = rest;
        }
        assert!(issued.abs_diff(9_200) <= 1, "issued {issued} spins for 10k calls");
        // Above one spin per call the whole part is issued every time.
        let (spins, rest) = spins_with_carry(2.5, 0.75);
        assert_eq!(spins, 3);
        assert!((rest - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_delay_is_fine() {
        SpinClock::global().delay_ns(0.0);
        SpinClock::global().delay_cycles(0, PAPER_GHZ);
    }

    #[test]
    fn perf_model_bandwidth_math() {
        let m = NvmmPerfModel::default();
        // Latency dominates small accesses, bandwidth dominates large ones.
        assert!(m.read_ns(64) < m.read_ns(1 << 20));
        let big = m.read_ns(1 << 30);
        let seconds = big * 1e-9;
        let gbps = (1u64 << 30) as f64 / seconds;
        assert!((gbps - 40.0e9).abs() / 40.0e9 < 0.01, "1 GiB read ~ line rate");
        assert!(m.max_read_gibs(4096) > 0.0);
        assert!(m.max_read_gibs(1 << 20) > m.max_read_gibs(4096));
    }
}
