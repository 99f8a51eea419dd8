//! Calibrated cycle/time injection and the NVMM performance model.
//!
//! The paper measured its proposed instructions on gem5 and then evaluated
//! the file system on real hardware by **adding the measured 46-cycle
//! jmpp/pret delta to every Simurgh call** (§5.1). We take the same
//! approach in reverse: modelled costs (security calls, syscalls, media
//! latency) are injected as real busy-wait delays so that throughput
//! comparisons between file systems include them.
//!
//! [`SpinClock`] calibrates, once, what a delay call costs on this host:
//! every call costs a few ns of bookkeeping, and a call that issues `k`
//! `spin_loop` iterations costs a fixed part more plus `k` times a per-spin
//! part (one spin issued alone costs far more than a spin of a long run).
//! It then converts "N cycles at 2.5 GHz" into whole spins and carries the
//! nanoseconds it could not spend into the thread's next call, so the mean
//! cost per call equals the model even when one delay is cheaper than the
//! cheapest call that spins: an 18-ns (46-cycle) delay spins on some calls
//! and not on others, in the modelled proportion.

use std::cell::Cell;
use std::hint::{black_box, spin_loop};
use std::sync::OnceLock;
use std::time::Instant;

thread_local! {
    /// Nanoseconds of delay owed but not yet spent by this thread's
    /// earlier calls.
    static OWED_NS: Cell<f64> = const { Cell::new(0.0) };
}

/// Spins per call of the calibration's long calls.
const LONG_CALL_SPINS: u64 = 32;

/// Interleaved calibration rounds, about 6 ms each on a 2-vCPU Xeon. Their
/// median rides out the short stalls of a shared host.
const ROUNDS: usize = 21;

/// Clock frequency of the paper's evaluation machine (Xeon Gold 5212/5215).
pub const PAPER_GHZ: f64 = 2.5;

/// A calibrated busy-wait clock.
#[derive(Debug, Clone, Copy)]
pub struct SpinClock {
    /// Cost of every call, in ns.
    base_ns: f64,
    /// Fixed cost a call that spins pays on top, in ns.
    call_ns: f64,
    /// Cost of each spin of such a call, in ns.
    spin_ns: f64,
}

impl SpinClock {
    /// Calibrates against `Instant` by timing delay calls that issue no
    /// spin, one spin and `LONG_CALL_SPINS` (32) spins each: the first is the
    /// cost of every call, the line through the other two gives the fixed
    /// and the per-spin part. Each is the median of [`ROUNDS`] interleaved
    /// rounds of 100k spins. Takes about 130 ms; do it once and reuse (see
    /// [`SpinClock::global`]).
    pub fn calibrate() -> Self {
        // Charging 1 ns per spin and nothing per call, `delay_ns(k)`
        // issues exactly `k` spins through the same code as a real delay.
        let unit = SpinClock { base_ns: 0.0, call_ns: 0.0, spin_ns: 1.0 };
        unit.delay_ns(10_000.0); // warm up
        let per_call_ns = |spins: u64| {
            let calls = 100_000 / spins.max(1);
            let start = Instant::now();
            for _ in 0..calls {
                unit.delay_ns(black_box(spins as f64));
            }
            start.elapsed().as_secs_f64() * 1e9 / calls as f64
        };
        let mut rounds: Vec<[f64; 3]> =
            (0..ROUNDS).map(|_| [0, 1, LONG_CALL_SPINS].map(per_call_ns)).collect();
        let mut median = |i: usize| {
            rounds.sort_by(|a, b| a[i].total_cmp(&b[i]));
            rounds[ROUNDS / 2][i]
        };
        let (none, one, long) = (median(0), median(1), median(2));
        let spin_ns = ((long - one) / (LONG_CALL_SPINS - 1) as f64).max(0.1);
        SpinClock { base_ns: none, call_ns: (one - none - spin_ns).max(0.0), spin_ns }
    }

    /// The lazily calibrated process-wide clock.
    pub fn global() -> &'static SpinClock {
        static GLOBAL: OnceLock<SpinClock> = OnceLock::new();
        GLOBAL.get_or_init(SpinClock::calibrate)
    }

    /// Whole spins to issue for a delay of `ns` when earlier calls left
    /// `owed_ns` unspent; returns them with the nanoseconds still owed.
    #[inline]
    fn spins_for(&self, owed_ns: f64, ns: f64) -> (u64, f64) {
        // Every call pays `base_ns`; a delay shorter than that owes nothing.
        let due = (owed_ns + ns - self.base_ns).max(0.0);
        if due < self.call_ns + self.spin_ns {
            return (0, due);
        }
        let spins = ((due - self.call_ns) / self.spin_ns).floor();
        (spins as u64, due - self.call_ns - spins * self.spin_ns)
    }

    /// Busy-waits approximately `ns` nanoseconds (exactly, on average over
    /// a thread's calls).
    #[inline]
    pub fn delay_ns(&self, ns: f64) {
        let spins = OWED_NS.with(|owed| {
            let (spins, rest) = self.spins_for(owed.get(), ns);
            owed.set(rest);
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
        assert!(c.base_ns > 0.0 && c.call_ns >= 0.0 && c.spin_ns > 0.0, "{c:?}");
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
        // Every call costs 5 ns, and one that spins 20 ns more plus 13 ns
        // per spin. No single call can cost the jmpp delta's 18.4 ns, so
        // about two calls in five spin once, and over 10k calls each
        // delay is spent to within one call's cost.
        let c = SpinClock { base_ns: 5.0, call_ns: 20.0, spin_ns: 13.0 };
        for ns in [18.4, 160.0, 480.0] {
            let (mut owed, mut spent) = (0.0, 0.0);
            for _ in 0..10_000 {
                let (spins, rest) = c.spins_for(owed, ns);
                assert!((0.0..c.call_ns + c.spin_ns).contains(&rest), "carry {rest} unbounded");
                spent += c.base_ns;
                if spins > 0 {
                    spent += c.call_ns + spins as f64 * c.spin_ns;
                }
                owed = rest;
            }
            let mean = spent / 10_000.0;
            assert!((mean - ns).abs() * 10_000.0 < 40.0, "{ns} ns: mean {mean}");
        }
        assert_eq!(c.spins_for(0.0, 18.4).0, 0, "one call cannot spend 18.4 ns");
        // Past the cheapest spinning call, every whole spin is issued now.
        let (spins, rest) = c.spins_for(0.0, 160.0);
        assert_eq!(spins, 10);
        assert!((rest - 5.0).abs() < 1e-9);
        // A delay shorter than the call itself leaves nothing owed.
        assert_eq!(c.spins_for(0.0, 2.0), (0, 0.0));
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
