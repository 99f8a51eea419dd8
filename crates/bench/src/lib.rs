//! Benchmark harness for the Simurgh reproduction.
//!
//! [`FsKind`] builds each evaluated file system in its benchmark
//! configuration (Simurgh charging the 46-cycle jmpp delta per call, the
//! kernel baselines charging a host syscall per crossing — §5.1's
//! methodology), [`experiments`] regenerates every table and figure of the
//! paper's evaluation, and the `paper` binary prints them.

pub mod experiments;

use std::sync::Arc;

use simurgh_baselines::KernelFs;
use simurgh_core::{SimurghConfig, SimurghFs};
use simurgh_fsapi::FileSystem;
use simurgh_pmem::PmemRegion;
use simurgh_protfn::SecurityMode;

/// The evaluated file systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsKind {
    Simurgh,
    /// Simurgh with per-file write locking disabled (Fig. 7k "relaxed").
    SimurghRelaxed,
    /// Simurgh without the security cost (ablation upper bound).
    SimurghNoSec,
    /// Simurgh charged as if each call were a host syscall (ablation).
    SimurghSyscall,
    Nova,
    Pmfs,
    Ext4Dax,
    SplitFs,
}

impl FsKind {
    /// The five systems every paper figure compares.
    pub const COMPARED: [FsKind; 5] =
        [FsKind::Simurgh, FsKind::Nova, FsKind::Pmfs, FsKind::Ext4Dax, FsKind::SplitFs];

    pub fn label(self) -> &'static str {
        match self {
            FsKind::Simurgh => "simurgh",
            FsKind::SimurghRelaxed => "simurgh-relaxed",
            FsKind::SimurghNoSec => "simurgh-nosec",
            FsKind::SimurghSyscall => "simurgh-syscall",
            FsKind::Nova => "nova",
            FsKind::Pmfs => "pmfs",
            FsKind::Ext4Dax => "ext4-dax",
            FsKind::SplitFs => "splitfs",
        }
    }

    /// Builds a fresh instance over `bytes` of emulated NVMM.
    pub fn make(self, bytes: usize) -> Box<dyn FileSystem> {
        // Calibrate the cost-injection clock before any timed phase so the
        // one-time calibration never lands inside a measurement.
        let _ = simurgh_pmem::SpinClock::global();
        let region = Arc::new(PmemRegion::new(bytes));
        region.prewarm(); // take first-touch faults outside the timed phase
        match self {
            FsKind::Simurgh | FsKind::SimurghRelaxed | FsKind::SimurghNoSec
            | FsKind::SimurghSyscall => {
                let cfg = SimurghConfig {
                    security: match self {
                        FsKind::SimurghNoSec => SecurityMode::Zero,
                        FsKind::SimurghSyscall => SecurityMode::SyscallHost,
                        _ => SecurityMode::Jmpp,
                    },
                    charge_security_cost: true,
                    relaxed_writes: self == FsKind::SimurghRelaxed,
                    ..SimurghConfig::default()
                };
                Box::new(SimurghFs::format(region, cfg).expect("format simurgh"))
            }
            FsKind::Nova => Box::new(simurgh_baselines::nova(region)),
            FsKind::Pmfs => Box::new(simurgh_baselines::pmfs(region)),
            FsKind::Ext4Dax => Box::new(simurgh_baselines::ext4dax(region)),
            FsKind::SplitFs => Box::new(simurgh_baselines::splitfs(region)),
        }
    }

    /// Builds an instrumented SimurghFs (for breakdown experiments).
    pub fn make_simurgh(bytes: usize) -> SimurghFs {
        let _ = simurgh_pmem::SpinClock::global();
        let region = Arc::new(PmemRegion::new(bytes));
        region.prewarm();
        let cfg = SimurghConfig { charge_security_cost: true, ..SimurghConfig::default() };
        SimurghFs::format(region, cfg).expect("format simurgh")
    }

    /// Builds an instrumented NOVA model (for Table 1).
    pub fn make_nova(bytes: usize) -> KernelFs {
        let _ = simurgh_pmem::SpinClock::global();
        let region = Arc::new(PmemRegion::new(bytes));
        region.prewarm();
        simurgh_baselines::nova(region)
    }
}

/// One plotted series: `(threads, value)` points for one file system.
#[derive(Debug, Clone)]
pub struct Series {
    pub fs: &'static str,
    pub unit: &'static str,
    pub points: Vec<(usize, f64)>,
}

impl Series {
    pub fn value_at(&self, threads: usize) -> Option<f64> {
        self.points.iter().find(|(t, _)| *t == threads).map(|(_, v)| *v)
    }

    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }
}

/// Experiment scale knobs. `quick` keeps every figure under a few seconds
/// per point; `paper` approaches the published workload sizes.
#[derive(Debug, Clone)]
pub struct Scale {
    pub threads: Vec<usize>,
    /// Files per process in create/unlink/rename benches.
    pub meta_files: usize,
    /// 4-KB appends per process.
    pub appends: usize,
    /// 4-MB fallocate chunks per process.
    pub fallocate_chunks: usize,
    /// Random 4-KB reads/writes per process.
    pub data_ops: usize,
    /// Shared/private file size for read/overwrite benches.
    pub file_bytes: usize,
    /// Path resolutions per process.
    pub resolves: usize,
    /// Filebench scale factor and iterations.
    pub fb_scale: f64,
    pub fb_iters: usize,
    /// YCSB records / operations.
    pub ycsb_records: usize,
    pub ycsb_ops: usize,
    /// Source-tree scale for tar/git (1.0 = one Linux tree).
    pub tree_scale: f64,
    /// Trees for the recovery test (paper: 10).
    pub recovery_trees: usize,
    /// Region size for metadata benches / data benches.
    pub meta_region: usize,
    pub data_region: usize,
}

impl Scale {
    /// Sub-second-per-point scale for CI and Criterion.
    pub fn quick() -> Scale {
        Scale {
            threads: vec![1, 2, 4],
            meta_files: 10_000,
            appends: 5_000,
            fallocate_chunks: 8,
            data_ops: 10_000,
            file_bytes: 16 << 20,
            resolves: 20_000,
            fb_scale: 0.02,
            fb_iters: 10,
            ycsb_records: 2000,
            ycsb_ops: 2000,
            tree_scale: 0.02,
            recovery_trees: 2,
            meta_region: 512 << 20,
            data_region: 1 << 30,
        }
    }

    /// Closer to the paper's sizes (minutes per figure).
    pub fn paper() -> Scale {
        Scale {
            threads: vec![1, 2, 4, 6, 8, 10],
            meta_files: 100_000,
            appends: 100_000,
            fallocate_chunks: 100,
            data_ops: 100_000,
            file_bytes: 256 << 20,
            resolves: 200_000,
            fb_scale: 1.0,
            fb_iters: 50,
            ycsb_records: 100_000,
            ycsb_ops: 100_000,
            tree_scale: 1.0,
            recovery_trees: 10,
            meta_region: 4 << 30,
            data_region: 8 << 30,
        }
    }
}

/// Pretty-prints a figure's series as an aligned table.
pub fn print_series(title: &str, series: &[Series]) {
    println!("\n== {title} ==");
    let threads: Vec<usize> = series
        .first()
        .map(|s| s.points.iter().map(|(t, _)| *t).collect())
        .unwrap_or_default();
    print!("{:<18}", "fs \\ threads");
    for t in &threads {
        print!("{t:>12}");
    }
    println!("  [{}]", series.first().map_or("", |s| s.unit));
    for s in series {
        print!("{:<18}", s.fs);
        for (_, v) in &s.points {
            print!("{v:>12.2}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simurgh_fsapi::{FileMode, ProcCtx};

    #[test]
    fn every_kind_builds_and_works() {
        for kind in [
            FsKind::Simurgh,
            FsKind::SimurghRelaxed,
            FsKind::SimurghNoSec,
            FsKind::SimurghSyscall,
            FsKind::Nova,
            FsKind::Pmfs,
            FsKind::Ext4Dax,
            FsKind::SplitFs,
        ] {
            let fs = kind.make(32 << 20);
            let ctx = ProcCtx::root(1);
            fs.mkdir(&ctx, "/x", FileMode::dir(0o755)).unwrap();
            fs.write_file(&ctx, "/x/f", b"abc").unwrap();
            assert_eq!(fs.read_to_vec(&ctx, "/x/f").unwrap(), b"abc", "{}", kind.label());
        }
    }

    #[test]
    fn series_helpers() {
        let s = Series { fs: "x", unit: "kops/s", points: vec![(1, 2.0), (2, 5.0)] };
        assert_eq!(s.value_at(2), Some(5.0));
        assert_eq!(s.value_at(3), None);
        assert_eq!(s.max_value(), 5.0);
    }

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let p = Scale::paper();
        assert!(q.meta_files < p.meta_files);
        assert!(q.threads.len() <= p.threads.len());
    }
}
