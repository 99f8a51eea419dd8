//! Execution-time breakdown of the paper's Table 1 and Fig. 10.
//!
//! Table 1 splits application runtime into *application*, *data copy* and
//! *file system* shares (measured with `perf` for NOVA); Fig. 10 repeats the
//! split for Simurgh under YCSB. Each file system measures two totals over
//! a phase: the time inside its public operations (copies included) and
//! the time of its data copies. [`Breakdown::new`] derives the three shares
//! from those totals and the phase's wall-clock time.

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
    /// Splits `wall_ns` of a phase that spent `fs_ns` inside file-system
    /// operations, `copy_ns` of it copying data. Clamps so the three
    /// shares never exceed the measured totals.
    pub fn new(wall_ns: u64, fs_ns: u64, copy_ns: u64) -> Breakdown {
        let copy_ns = copy_ns.min(fs_ns);
        Breakdown { app_ns: wall_ns.saturating_sub(fs_ns), copy_ns, fs_ns: fs_ns - copy_ns }
    }

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
    fn breakdown_partitions_wall_time() {
        let b = Breakdown::new(1_500, 1_000, 300);
        assert_eq!(b, Breakdown { app_ns: 500, copy_ns: 300, fs_ns: 700 });
        assert_eq!(b.total_ns(), 1_500);
        let (a, c, f) = b.percentages();
        assert!((a + c + f - 100.0).abs() < 1e-6);
    }

    #[test]
    fn breakdown_saturates_when_fs_exceeds_wall() {
        let b = Breakdown::new(10, 1_000_000, 2_000_000); // tiny wall clock
        assert_eq!(b.app_ns, 0);
        assert_eq!(b.copy_ns, 1_000_000, "copy time is part of fs time");
        assert_eq!(b.fs_ns, 0);
    }
}
