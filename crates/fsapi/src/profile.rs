//! Execution-time breakdown instrumentation.
//!
//! Table 1 of the paper splits application runtime into *application*,
//! *data copy* and *file system* shares (measured with `perf` for NOVA);
//! Fig. 10 repeats the split for Simurgh under YCSB. Here each file-system
//! implementation charges the time of every public operation to
//! [`OpTimers::fs_ns`], and the bulk memcpy portions of the data path to
//! [`OpTimers::copy_ns`]; the harness derives the application share from
//! wall-clock time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Where a measured span of time is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerCategory {
    /// Time inside file-system code (excluding data copies).
    Fs,
    /// Time moving data between NVMM and application buffers.
    Copy,
}

/// Accumulated time counters for one file-system instance.
#[derive(Default)]
pub struct OpTimers {
    fs_ns: AtomicU64,
    copy_ns: AtomicU64,
    ops: AtomicU64,
}

impl OpTimers {
    /// Runs `f`, charging its duration to `cat`. Nested spans are the
    /// caller's responsibility: the FS charges `Fs` around whole operations
    /// and `Copy` around the inner memcpy, and the harness subtracts.
    #[inline]
    pub fn time<R>(&self, cat: TimerCategory, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.charge(cat, start.elapsed().as_nanos() as u64);
        out
    }

    /// Charges `ns` already measured by the caller to `cat`; an `Fs`
    /// charge counts one op.
    #[inline]
    pub fn charge(&self, cat: TimerCategory, ns: u64) {
        match cat {
            TimerCategory::Fs => {
                self.fs_ns.fetch_add(ns, Ordering::Relaxed);
                self.ops.fetch_add(1, Ordering::Relaxed);
            }
            TimerCategory::Copy => {
                self.copy_ns.fetch_add(ns, Ordering::Relaxed);
            }
        }
    }

    /// Total nanoseconds charged to file-system code (copies included;
    /// subtract [`copy_ns`](Self::copy_ns) for the exclusive share).
    pub fn fs_ns(&self) -> u64 {
        self.fs_ns.load(Ordering::Relaxed)
    }

    /// Total nanoseconds charged to data copies.
    pub fn copy_ns(&self) -> u64 {
        self.copy_ns.load(Ordering::Relaxed)
    }

    /// Number of `Fs` spans recorded.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Renders the counters as a single-line JSON object, for embedding in
    /// the unified observability registry (`simurgh_core::obs`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"fs_ns\":{},\"copy_ns\":{},\"ops\":{}}}",
            self.fs_ns(),
            self.copy_ns(),
            self.ops()
        )
    }

    /// Resets all counters (between benchmark phases).
    pub fn reset(&self) {
        self.fs_ns.store(0, Ordering::Relaxed);
        self.copy_ns.store(0, Ordering::Relaxed);
        self.ops.store(0, Ordering::Relaxed);
    }

    /// Derives the paper-style three-way breakdown from total wall time.
    pub fn breakdown(&self, wall_ns: u64) -> Breakdown {
        let fs_total = self.fs_ns();
        let copy = self.copy_ns().min(fs_total);
        let fs_excl = fs_total - copy;
        let app = wall_ns.saturating_sub(fs_total);
        Breakdown { app_ns: app, copy_ns: copy, fs_ns: fs_excl }
    }
}

/// The paper's three-way execution-time split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Breakdown {
    /// Wall time outside any file-system call.
    pub app_ns: u64,
    /// Time copying file data inside file-system calls.
    pub copy_ns: u64,
    /// File-system time excluding the data copy.
    pub fs_ns: u64,
}

impl Breakdown {
    /// Sum of the three components.
    pub fn total_ns(&self) -> u64 {
        self.app_ns + self.copy_ns + self.fs_ns
    }

    /// Percentages in the order Table 1 reports them:
    /// (application, data copy, file system).
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total_ns().max(1) as f64;
        (
            self.app_ns as f64 / t * 100.0,
            self.copy_ns as f64 / t * 100.0,
            self.fs_ns as f64 / t * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate() {
        let t = OpTimers::default();
        t.time(TimerCategory::Fs, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.time(TimerCategory::Copy, || std::thread::sleep(std::time::Duration::from_millis(1)));
        assert!(t.fs_ns() >= 2_000_000);
        assert!(t.copy_ns() >= 1_000_000);
        assert_eq!(t.ops(), 1, "only Fs spans count as ops");
        t.reset();
        assert_eq!(t.fs_ns(), 0);
        assert_eq!(t.ops(), 0);
    }

    #[test]
    fn breakdown_partitions_wall_time() {
        let t = OpTimers::default();
        t.time(TimerCategory::Fs, || {
            t.time(TimerCategory::Copy, || std::hint::black_box(()));
        });
        let b = t.breakdown(t.fs_ns() + 500);
        assert_eq!(b.app_ns, 500);
        assert_eq!(b.copy_ns + b.fs_ns, t.fs_ns());
        let (a, c, f) = b.percentages();
        assert!((a + c + f - 100.0).abs() < 1e-6);
    }

    #[test]
    fn breakdown_saturates_when_fs_exceeds_wall() {
        let t = OpTimers::default();
        t.time(TimerCategory::Fs, || std::thread::sleep(std::time::Duration::from_millis(1)));
        let b = t.breakdown(10); // tiny wall clock
        assert_eq!(b.app_ns, 0);
    }
}
