//! Per-layer readings of an in-process mount, taken from outside: counter
//! batteries the layers already export, the floor table (hardware and
//! primitive costs each layer's time is read against), and the spans the
//! benchmark records around each trait call.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use simurgh_core::alloc::lock_stats;
use simurgh_core::dir::DirStatsSnapshot;
use simurgh_core::file::DataStatsSnapshot;
use simurgh_core::super_block::PoolKind;
use simurgh_core::{RecoveryReport, SimurghFs};
use simurgh_pmem::stats::StatsSnapshot;
use simurgh_pmem::{PPtr, PmemRegion, SpinClock};
use simurgh_protfn::{CostModel, SecurityMode};

use crate::stats::{median, Sheet};

/// Span kinds the benchmark records around calls into the `FileSystem`
/// trait (the `fsapi` boundary).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Create,
    Stat,
    Rename,
    OpenClose,
    Unlink,
    Append,
    Overwrite,
    Pread,
}

impl Op {
    pub const ALL: [Op; 8] = [
        Op::Create,
        Op::Stat,
        Op::Rename,
        Op::OpenClose,
        Op::Unlink,
        Op::Append,
        Op::Overwrite,
        Op::Pread,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Op::Create => "op.create_us",
            Op::Stat => "op.stat_us",
            Op::Rename => "op.rename_us",
            Op::OpenClose => "op.open_close_us",
            Op::Unlink => "op.unlink_us",
            Op::Append => "op.append_us",
            Op::Overwrite => "op.overwrite_us",
            Op::Pread => "op.pread_us",
        }
    }
}

/// Per-op-kind span totals: time inside the trait calls and how many
/// protected calls (trait methods) each span made.
#[derive(Clone, Default)]
pub struct Spans {
    pub ns: [u64; 8],
    pub count: [u64; 8],
    pub calls: u64,
}

impl Spans {
    #[inline]
    pub fn add(&mut self, op: Op, ns: u64, calls: u64) {
        self.ns[op as usize] += ns;
        self.count[op as usize] += 1;
        self.calls += calls;
    }

    pub fn merge(&mut self, o: &Spans) {
        for i in 0..8 {
            self.ns[i] += o.ns[i];
            self.count[i] += o.count[i];
        }
        self.calls += o.calls;
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn ops(&self) -> u64 {
        self.count.iter().sum()
    }

    /// `op.*_us` means, `op.busy_frac` (span time over thread-time of the
    /// phase) and `protfn.share` (entry charge × calls over span time).
    pub fn report(&self, sheet: &mut Sheet, threads: usize, wall_s: f64, protcall_ns: f64) {
        for op in Op::ALL {
            let i = op as usize;
            let mean = if self.count[i] > 0 {
                self.ns[i] as f64 / self.count[i] as f64 / 1e3
            } else {
                0.0
            };
            sheet.put(op.metric(), mean, "us", self.count[i]);
        }
        let total = self.total_ns() as f64;
        sheet.put(
            "op.busy_frac",
            total / (threads as f64 * wall_s * 1e9),
            "ratio",
            self.ops(),
        );
        let share = if total > 0.0 {
            protcall_ns * self.calls as f64 / total
        } else {
            0.0
        };
        sheet.put("protfn.share", share, "ratio", self.calls);
    }
}

/// Every counter battery of one mount at one instant.
#[derive(Clone, Copy)]
pub struct Counters {
    dir: DirStatsSnapshot,
    data: DataStatsSnapshot,
    pmem: StatsSnapshot,
    pool_trips: u64,
    seg_trips: u64,
    lock_acquires: u64,
    lock_spins: u64,
    lock_steals: u64,
}

impl Counters {
    pub fn read(fs: &SimurghFs) -> Counters {
        let lock = lock_stats();
        Counters {
            dir: fs.dir_stats(),
            data: fs.data_stats(),
            pmem: fs.region().stats().snapshot(),
            pool_trips: fs.meta_alloc().pool_trips(),
            seg_trips: fs.block_alloc().seg_trips(),
            lock_acquires: lock.acquires.load(Ordering::Relaxed),
            lock_spins: lock.spin_rounds.load(Ordering::Relaxed),
            lock_steals: lock.steals.load(Ordering::Relaxed),
        }
    }

    /// Counter-derived per-layer metrics for `ops` logical ops of which
    /// `inserts` added a directory entry (create, rename).
    pub fn report_since(&self, base: &Counters, ops: u64, inserts: u64, sheet: &mut Sheet) {
        let d = self.dir.since(&base.dir);
        let f = self.data.since(&base.data);
        let p = self.pmem.since(&base.pmem);
        let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
        let kop = |x: u64| per(x, ops) * 1000.0;
        sheet.put("dir.lookups_per_op", per(d.lookups, ops), "count", ops);
        sheet.put(
            "dir.probes_per_lookup",
            d.probes_per_lookup(),
            "count",
            d.lookups,
        );
        sheet.put(
            "dir.slot_probes_per_insert",
            per(d.slot_probes, inserts),
            "count",
            inserts,
        );
        sheet.put(
            "dir.hint_hit_frac",
            per(d.hint_hits, d.hint_hits + d.hint_stale),
            "ratio",
            d.hint_hits + d.hint_stale,
        );
        sheet.put("dir.chain_walks", d.chain_walks as f64, "count", 0);
        sheet.put("dir.stale_evicted", d.stale_evicted as f64, "count", 0);
        sheet.put(
            "alloc.pool_trips_per_kop",
            kop(self.pool_trips - base.pool_trips),
            "count",
            ops,
        );
        sheet.put(
            "alloc.seg_trips_per_kop",
            kop(self.seg_trips - base.seg_trips),
            "count",
            ops,
        );
        sheet.put(
            "data.tail_extend_frac",
            f.tail_extend_rate(),
            "ratio",
            f.appends,
        );
        sheet.put(
            "data.alloc_fallbacks_per_kop",
            kop(f.alloc_fallbacks),
            "count",
            ops,
        );
        sheet.put(
            "data.walk_steps_per_op",
            f.walk_steps_per_op(),
            "count",
            f.reads + f.writes,
        );
        sheet.put("data.map_walks_per_kop", kop(f.map_walks), "count", ops);
        sheet.put(
            "data.cursor_hit_frac",
            per(f.cursor_hits, f.cursor_hits + f.cursor_rebuilds),
            "ratio",
            f.cursor_hits + f.cursor_rebuilds,
        );
        sheet.put(
            "lock.acquires_per_op",
            per(self.lock_acquires - base.lock_acquires, ops),
            "count",
            ops,
        );
        sheet.put(
            "lock.spin_rounds_per_kop",
            kop(self.lock_spins - base.lock_spins),
            "count",
            ops,
        );
        sheet.put(
            "lock.steals",
            (self.lock_steals - base.lock_steals) as f64,
            "count",
            0,
        );
        sheet.put("pmem.fences_per_op", per(p.fences, ops), "count", ops);
        sheet.put(
            "pmem.fences_elided_per_op",
            per(p.fences_elided, ops),
            "count",
            ops,
        );
        sheet.put(
            "pmem.flushed_lines_per_op",
            per(p.flushed_lines, ops),
            "count",
            ops,
        );
        sheet.put(
            "pmem.nt_kib_per_op",
            per(p.bytes_nt_written, ops) / 1024.0,
            "KiB",
            ops,
        );
        sheet.put(
            "pmem.read_kib_per_op",
            per(p.bytes_read, ops) / 1024.0,
            "KiB",
            ops,
        );
    }
}

/// Allocator gauges at the end of a run: the `frag` battery's free-space
/// shape and reserved-but-idle tail blocks, plus extents per regular file.
pub fn report_frag(fs: &SimurghFs, sheet: &mut Sheet) {
    let blocks = fs.block_alloc();
    let snap = blocks.frag_snapshot();
    sheet.put(
        "frag.free_runs",
        snap.iter().map(|&(r, _)| r).sum::<u64>() as f64,
        "count",
        0,
    );
    sheet.put(
        "frag.max_free_run",
        snap.iter().map(|&(_, m)| m).max().unwrap_or(0) as f64,
        "blocks",
        0,
    );
    sheet.put(
        "frag.reserved_idle",
        blocks.reserved_idle_blocks() as f64,
        "blocks",
        0,
    );
    let (files, extents) = fs.extent_census();
    sheet.put(
        "frag.extents_per_file",
        if files > 0 {
            extents as f64 / files as f64
        } else {
            0.0
        },
        "count",
        files,
    );
    let fr = fs.frag_stats();
    sheet.put(
        "compact.relocated_files",
        fr.relocated_files.load(Ordering::Relaxed) as f64,
        "count",
        0,
    );
    sheet.put(
        "compact.relocated_blocks",
        fr.relocated_blocks.load(Ordering::Relaxed) as f64,
        "count",
        0,
    );
}

/// The §5.5 recovery phases of the mount that produced `r`.
pub fn report_recovery(r: &RecoveryReport, sheet: &mut Sheet) {
    sheet.put("recovery.mark_s", r.mark_time.as_secs_f64(), "s", 0);
    sheet.put("recovery.repair_s", r.repair_time.as_secs_f64(), "s", 0);
    sheet.put("recovery.sweep_s", r.sweep_time.as_secs_f64(), "s", 0);
    sheet.put("recovery.rebuild_s", r.rebuild_time.as_secs_f64(), "s", 0);
    sheet.put(
        "recovery.reclaimed_objects",
        r.reclaimed_objects as f64,
        "count",
        0,
    );
}

/// Data blocks in use (allocated, including metadata pools and reserved
/// tails) × 4 KiB.
pub fn used_bytes(fs: &SimurghFs) -> u64 {
    let b = fs.block_alloc();
    (b.capacity_blocks() - b.free_blocks()) * simurgh_core::BLOCK_SIZE as u64
}

/// Median nanoseconds per call of `f`, over `rounds` batches of `n` calls.
fn per_call_ns(rounds: usize, n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut v = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let t = Instant::now();
        for i in 0..n {
            f(r * n + i);
        }
        v.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&v)
}

/// The floor table: primitive costs measured on a scratch region and
/// mount, so each layer's time reads as overhead above them.
pub fn floors(sheet: &mut Sheet, scale: f64) -> f64 {
    let n = ((20_000.0 * scale) as usize).max(200);
    let region = Arc::new(PmemRegion::new(32 << 20));
    region.prewarm();
    let span = (16 << 20) / 4096;
    let buf = vec![0xa5u8; 4096];
    let mut out = vec![0u8; 4096];
    let fence = per_call_ns(7, n, |_| region.fence());
    let persist = per_call_ns(7, n, |i| {
        region.persist(PPtr::new(((i % 4096) * 64) as u64), 64)
    });
    let nt = per_call_ns(7, n / 4, |i| {
        region.nt_write_from(PPtr::new(((i % span) * 4096) as u64), &buf)
    });
    let rd = per_call_ns(7, n / 4, |i| {
        region.read_into(PPtr::new(((i % span) * 4096) as u64), &mut out);
        std::hint::black_box(&mut out);
    });
    let model = CostModel::default();
    let clock = SpinClock::global();
    let prot = per_call_ns(7, n, |_| SecurityMode::Jmpp.charge(&model, clock));
    let pair = per_call_ns(7, n, |_| {
        let t = Instant::now();
        std::hint::black_box(t.elapsed());
    });
    let fs = crate::mount::format(64 << 20);
    let meta = fs.meta_alloc();
    let meta_pair = per_call_ns(7, n, |_| {
        let p = meta.alloc(PoolKind::Inode).expect("scratch inode");
        meta.free(PoolKind::Inode, p);
    });
    let blocks = fs.block_alloc();
    let block_pair = per_call_ns(7, n, |i| {
        let p = blocks.alloc(i as u64, 1).expect("scratch block");
        blocks.free(p, 1);
    });
    sheet.put("floor.fence_ns", fence, "ns", n as u64);
    sheet.put("floor.persist_line_ns", persist, "ns", n as u64);
    sheet.put("floor.nt_copy4k_ns", nt, "ns", n as u64 / 4);
    sheet.put("floor.read4k_ns", rd, "ns", n as u64 / 4);
    sheet.put("floor.protcall_ns", prot, "ns", n as u64);
    sheet.put("floor.clock_pair_ns", pair, "ns", n as u64);
    sheet.put("floor.meta_alloc_pair_ns", meta_pair, "ns", n as u64);
    sheet.put("floor.block_alloc_pair_ns", block_pair, "ns", n as u64);
    prot
}
