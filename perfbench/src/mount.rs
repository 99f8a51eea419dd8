//! Building, power-cutting and checking in-process mounts in the paper's
//! configuration, plus the closed-loop runner the library workloads share.

use std::sync::Arc;
use std::time::{Duration, Instant};

use simurgh_core::{check, RecoveryReport, SimurghConfig, SimurghFs};
use simurgh_fsapi::{FileSystem, ProcCtx};
use simurgh_pmem::{PmemRegion, SpinClock};
use simurgh_protfn::SecurityMode;

use crate::layers::{Op, Spans};
use crate::stats::{median, Hist};

/// Simurgh as the paper evaluates it (and as `FsKind::Simurgh` builds it):
/// protected-function entry with the 46-cycle jmpp delta charged per call.
pub fn config() -> SimurghConfig {
    SimurghConfig {
        security: SecurityMode::Jmpp,
        charge_security_cost: true,
        ..SimurghConfig::default()
    }
}

/// Formats a fresh heap-backed region of `bytes`, first-touching every page.
pub fn format(bytes: usize) -> SimurghFs {
    let _ = SpinClock::global();
    let region = Arc::new(PmemRegion::new(bytes));
    region.prewarm();
    SimurghFs::format(region, config()).expect("format simurgh")
}

/// Recovery mounts per run; `recover_s` is their median.
pub const RECOVER_REPS: usize = 7;

/// Drops `fs` without unmounting (a power cut: the clean flag stays unset)
/// and runs [`recover`] on its region.
pub fn power_cut_remount(fs: SimurghFs) -> (f64, SimurghFs, RecoveryReport) {
    let region = Arc::clone(fs.region());
    drop(fs);
    recover(|| Arc::clone(&region))
}

/// Mounts the region `open` yields `RECOVER_REPS` times, each time without
/// a clean unmount in between, so every mount runs mark/repair/sweep.
/// Returns the median mount time, the last mount and its recovery report.
pub fn recover(open: impl Fn() -> Arc<PmemRegion>) -> (f64, SimurghFs, RecoveryReport) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..RECOVER_REPS {
        drop(last.take());
        let t = Instant::now();
        let m = SimurghFs::mount(open(), config()).expect("recovery mount");
        times.push(t.elapsed().as_secs_f64());
        last = Some(m);
    }
    let fs = last.expect("one mount");
    let report = fs.recovery_report().clone();
    (median(&times), fs, report)
}

/// Size of the data blocks the workloads write.
pub const BLOCK: usize = 4096;
const MAGIC: u32 = 0x5349_4d42;

/// Writes a 16-byte stamp naming what the block holds at both ends of a
/// 4 KiB block: `kind`, the owning thread or connection, the stream, the
/// block index and its version.
pub fn stamp(buf: &mut [u8], kind: u8, owner: usize, stream: usize, block: u64, version: u32) {
    let mut s = [0u8; 16];
    s[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    s[4] = kind;
    s[5] = owner as u8;
    s[6..8].copy_from_slice(&(stream as u16).to_le_bytes());
    s[8..12].copy_from_slice(&(block as u32).to_le_bytes());
    s[12..16].copy_from_slice(&version.to_le_bytes());
    buf[..16].copy_from_slice(&s);
    buf[BLOCK - 16..BLOCK].copy_from_slice(&s);
}

/// Whether `buf` is a whole block carrying exactly this stamp.
pub fn stamped(
    buf: &[u8],
    kind: u8,
    owner: usize,
    stream: usize,
    block: u64,
    version: u32,
) -> bool {
    let mut want = [0u8; BLOCK];
    stamp(&mut want, kind, owner, stream, block, version);
    buf.len() == BLOCK && buf[..16] == want[..16] && buf[BLOCK - 16..] == want[BLOCK - 16..]
}

/// Runs the full consistency check; prints the first violations and
/// returns how many there were.
pub fn fsck_violations(fs: &SimurghFs, label: &str) -> u64 {
    let r = check::check(fs, true);
    for v in r.violations.iter().take(20) {
        println!("# fsck {label}: {v:?}");
    }
    r.violations.len() as u64
}

/// Live user bytes: file sizes plus name lengths over the whole tree.
pub fn live_bytes(fs: &dyn FileSystem) -> u64 {
    let rows = fs
        .snapshot_tree(&ProcCtx::root(1), "/")
        .expect("snapshot tree");
    rows.iter()
        .map(|(path, _, size)| size + path.rsplit('/').next().map_or(0, |n| n.len() as u64))
        .sum()
}

/// What one worker thread of a closed-loop phase recorded.
pub struct Recorder {
    start: Instant,
    end: Instant,
    window: Duration,
    pub windows: Vec<Hist>,
    pub spans: Spans,
    pub failed: u64,
    /// Record per-op spans (the traced run); latency windows are always kept.
    traced: bool,
}

impl Recorder {
    fn new(start: Instant, secs: f64, nwin: usize, traced: bool) -> Self {
        Recorder {
            start,
            end: start + Duration::from_secs_f64(secs),
            window: Duration::from_secs_f64(secs / nwin as f64),
            windows: vec![Hist::default(); nwin],
            spans: Spans::default(),
            failed: 0,
            traced,
        }
    }

    /// Times one logical op (`calls` trait calls) and files the sample
    /// under its window. Errors count as failed ops.
    #[inline]
    pub fn time<T, E: std::fmt::Debug>(
        &mut self,
        op: Op,
        calls: u64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        let w = ((t1 - self.start).as_nanos() / self.window.as_nanos().max(1)) as usize;
        let last = self.windows.len() - 1;
        self.windows[w.min(last)].record(ns);
        if self.traced {
            self.spans.add(op, ns, calls);
        }
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                if self.failed < 5 {
                    println!("# op {op:?} failed: {e:?}");
                }
                self.failed += 1;
                None
            }
        }
    }

    pub fn done(&self) -> bool {
        Instant::now() >= self.end
    }
}

/// A closed-loop client: `step` issues one iteration of its op cycle.
pub trait Worker: Send {
    fn step(&mut self, rec: &mut Recorder);
}

/// Result of one measured closed-loop phase.
pub struct Phase {
    pub windows: Vec<Hist>,
    pub spans: Spans,
    pub failed: u64,
    pub wall_s: f64,
}

impl Phase {
    pub fn ops(&self) -> u64 {
        self.windows.iter().map(Hist::count).sum()
    }

    /// Median over windows of each window's ops per second.
    pub fn throughput(&self) -> f64 {
        let per_win = self.wall_s / self.windows.len() as f64;
        let v: Vec<f64> = self
            .windows
            .iter()
            .map(|h| h.count() as f64 / per_win)
            .collect();
        median(&v)
    }
}

/// Runs every worker on its own thread for `secs`, cut into `nwin` latency
/// windows.
pub fn closed_loop<W: Worker>(workers: &mut [W], secs: f64, nwin: usize, traced: bool) -> Phase {
    let start = Instant::now();
    let recs: Vec<Recorder> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                s.spawn(move || {
                    let mut rec = Recorder::new(start, secs, nwin, traced);
                    while !rec.done() {
                        w.step(&mut rec);
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut windows = vec![Hist::default(); nwin];
    let mut spans = Spans::default();
    let mut failed = 0;
    for r in &recs {
        for (a, b) in windows.iter_mut().zip(&r.windows) {
            a.merge(b);
        }
        spans.merge(&r.spans);
        failed += r.failed;
    }
    Phase {
        windows,
        spans,
        failed,
        wall_s,
    }
}
