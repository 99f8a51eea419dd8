//! The file data path (§4.3 "Data operations").
//!
//! File bytes live in 4-KB blocks from the segmented allocator, described
//! by extents: three inline in the inode, the rest in chained overflow
//! extent blocks. Writes use emulated non-temporal stores and are fenced
//! **before** the size field is updated, giving the paper's guarantee that
//! "metadata updates occur after the data has been persisted".
//!
//! The data path sees a file's extent map only through the inode's one
//! [`FileCursor`]: a volatile DRAM mirror of the persistent map (sorted
//! `(logical_start, extent)` pairs plus the allocated size and the tail
//! overflow block), shared by every descriptor and every internal user of
//! the inode. Reads, writes and appends binary-search the mirror once and
//! stream, so they are O(1) in the number of extents. `push_extent` grows
//! the map at the mirror's tail and updates the mirror in place; truncate
//! and relocation bump a generation counter, so the next access rebuilds
//! the mirror from the persistent map. A post-crash open starts from a
//! fresh cursor.
//!
//! Appends grow the tail extent in place instead of adding a map entry.
//! The cursor also holds the file's block reservation: a run parked
//! right after the tail, which the next appends merge into the tail
//! without a segment lock. A growth the run cannot cover claims the need
//! plus a surplus that doubles per miss (0 on a cursor's first growth,
//! capped at 64 KiB), first at the tail
//! ([`crate::alloc::BlockAlloc::extend_at`]) and otherwise as one fresh
//! run, and parks the surplus after the data. The run goes back to the
//! allocator on last close, truncate, relocation, unmount and allocation
//! pressure; after a crash nothing references it and the mark-and-sweep
//! frees it. [`DataStats`] counts walk steps, mirror hits and tail
//! extensions so the O(1) claim is asserted by tests, not eyeballed.
//!
//! Each file has one reader/writer lock embedded in its inode — writes are
//! exclusive, reads concurrent. The *relaxed* mode of Fig. 7k disables the
//! write lock for applications that coordinate their own writers.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use simurgh_fsapi::{FsError, FsResult};
use simurgh_pmem::stats::Counter;
use simurgh_pmem::{PPtr, PmemRegion};

use crate::alloc::{lock_stats, AllocFaults, Backoff, BlockAlloc, Grace};
use crate::obj::inode::{extblock, Extent, Inode, INLINE_EXTENTS};
use crate::BLOCK_SIZE;

/// Writer bit of the per-file lock word.
const WRITER: u64 = 1 << 63;

/// Default lock-hold limit before a waiter presumes the holder crashed and
/// resets the lock (the lock word is volatile state; see module docs).
const DEFAULT_FILE_MAX_HOLD: Duration = Duration::from_millis(500);

/// Largest run, in blocks, an open file parks after its tail (64 KiB).
const PARK_CAP: u64 = 16;

// ---------------------------------------------------------------------------
// Probe accounting
// ---------------------------------------------------------------------------

simurgh_pmem::counters! {
    /// Probe accounting for the data hot paths, mirroring [`crate::dir::DirStats`].
    /// Counters are bumped with relaxed atomics and exist so the O(1) claim of
    /// the extent cursor cache is *asserted* by tests and exported through the
    /// observability registry (`paper obs --json`), not eyeballed.
    pub struct DataStats / DataStatsSnapshot {
        /// `read_at` calls.
        reads,
        /// `write_at` calls.
        writes,
        /// Extents examined while streaming a byte range: exactly the
        /// extents the op touches, since the mirror locates the first one by
        /// binary search.
        walk_steps,
        /// Full walks of the persistent extent map. Every one is a cursor
        /// rebuild, so this equals `cursor_rebuilds`.
        map_walks,
        /// Operations answered from a fresh cursor mirror.
        cursor_hits,
        /// Cursor mirrors rebuilt from the persistent map (invalidation or
        /// first use).
        cursor_rebuilds,
        /// Allocation growths (`ensure_allocated` calls that added blocks).
        appends,
        /// Growths that extended the tail extent in place via `extend_at`.
        tail_extends,
        /// Growths that (also) fell back to the general allocator.
        alloc_fallbacks,
        /// General allocations served by a different segment than the thread's
        /// affinity hint asked for (contention-induced rehashing).
        seg_hops,
        /// Nanoseconds spent in the copy loop of `read_at`/`write_at`: the
        /// *data copy* share of the paper's Table 1 and Fig. 10.
        copy_ns,
    }
}

impl DataStatsSnapshot {
    /// Extents examined per read/write, averaged: the number the scaling
    /// tests pin down as O(1) — it must stay flat as files fragment.
    pub fn walk_steps_per_op(&self) -> f64 {
        let ops = self.reads + self.writes;
        if ops == 0 {
            return 0.0;
        }
        self.walk_steps as f64 / ops as f64
    }

    /// Fraction of allocation growths that extended the tail in place.
    pub fn tail_extend_rate(&self) -> f64 {
        if self.appends == 0 {
            return 0.0;
        }
        self.tail_extends as f64 / self.appends as f64
    }
}

// ---------------------------------------------------------------------------
// Extent cursor cache
// ---------------------------------------------------------------------------

/// Volatile DRAM mirror of one file's persistent extent map, shared by
/// every user of the inode (hung off the sharded open state in `fs`).
///
/// Coherence rule: the mirror is only trusted when `inner.built_gen`
/// matches `gen`. Mutators that keep the mirror exact (`push_extent`)
/// update it in place under the write half of `inner`; mutators that
/// restructure the map (`truncate` shrink, relocation) bump `gen` so the
/// next access rebuilds from the persistent map. A post-crash open starts
/// from a fresh cursor, so nothing volatile survives a crash.
///
/// The cursor also holds the file's [`Reservation`] under a lock of its
/// own: relaxed-mode writers skip the file lock, and must not spend one
/// run twice. That lock is never held across an allocator call, so the
/// allocator's pressure hook may take it from inside `BlockAlloc::alloc`.
#[derive(Default)]
pub struct FileCursor {
    gen: AtomicU64,
    inner: RwLock<CursorInner>,
    reserve: Mutex<Reservation>,
}

/// Blocks parked right after an open file's tail extent: claimed from the
/// allocator (and counted in its parked gauge), referenced by no extent.
#[derive(Default)]
struct Reservation {
    /// First parked block (allocator index) and the run's length.
    first: u64,
    blocks: u64,
    /// Surplus to claim on the next miss: 0 on the cursor's first growth,
    /// then doubling per miss up to [`PARK_CAP`].
    next: u64,
    /// The allocator the run came from, so that dropping the cursor
    /// returns it even when a write raced the last close.
    alloc: Option<Arc<BlockAlloc>>,
}

#[derive(Default)]
struct CursorInner {
    /// Generation the mirror was built at; `None` before the first build.
    built_gen: Option<u64>,
    /// `(logical_start, extent)`, sorted by logical start.
    map: Vec<(u64, Extent)>,
    /// Total allocated bytes (== logical end of the last extent).
    allocated: u64,
    /// Last block of the overflow chain, so `push_extent` skips the chain
    /// walk; `None` while the map fits the inline slots.
    tail_blk: Option<PPtr>,
}

impl FileCursor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the mirror stale; the next access rebuilds it from the
    /// persistent map.
    pub fn invalidate(&self) {
        self.gen.fetch_add(1, Ordering::Release);
    }

    /// Runs `f` against a mirror guaranteed fresh at entry, rebuilding it
    /// first if a generation bump (or first use) made it stale.
    fn with_fresh<R>(&self, env: &FileEnv<'_>, ino: Inode, f: impl FnOnce(&CursorInner) -> R) -> R {
        {
            let g = self.inner.read();
            if g.built_gen == Some(self.gen.load(Ordering::Acquire)) {
                env.bump(|s| &s.cursor_hits);
                return f(&g);
            }
        }
        let (g, hit) = self.write_fresh(env, ino);
        if hit {
            env.bump(|s| &s.cursor_hits);
        }
        f(&g)
    }

    /// The write half of the mirror, rebuilt from the persistent map first
    /// if stale. The flag says whether it was fresh already (another user
    /// may have rebuilt it while this one waited).
    fn write_fresh(
        &self,
        env: &FileEnv<'_>,
        ino: Inode,
    ) -> (RwLockWriteGuard<'_, CursorInner>, bool) {
        let mut g = self.inner.write();
        let gen = self.gen.load(Ordering::Acquire);
        if g.built_gen == Some(gen) {
            return (g, true);
        }
        env.bump(|s| &s.cursor_rebuilds);
        env.bump(|s| &s.map_walks);
        g.rebuild(env.region, ino, gen);
        (g, false)
    }

    /// Spends up to `want` parked blocks at block `tail` (the block after
    /// the tail extent) and returns how many it took. A run that does not
    /// start there — the map changed under it — goes back to the
    /// allocator. When the run falls short the growth is a miss, and the
    /// second value is the surplus to claim beyond the need.
    fn take_parked(&self, blocks: &BlockAlloc, tail: Option<u64>, want: u64) -> (u64, u64) {
        let mut r = self.reserve.lock();
        let (mut got, mut stale) = (0, 0);
        if tail == Some(r.first) {
            got = want.min(r.blocks);
            r.first += got;
            r.blocks -= got;
        } else {
            stale = std::mem::take(&mut r.blocks);
        }
        let spare = if got < want {
            let spare = r.next;
            r.next = (2 * spare).clamp(1, PARK_CAP);
            spare
        } else {
            0
        };
        let first = r.first;
        drop(r);
        if got > 0 {
            blocks.note_spent(got);
        }
        if stale > 0 {
            blocks.free_parked(first, stale);
        }
        (got, spare)
    }

    /// Parks `n` claimed blocks at block `b`, right after the tail extent.
    /// A run already parked (a concurrent relaxed-mode grower's) goes back.
    fn park_surplus(&self, blocks: &Arc<BlockAlloc>, b: u64, n: u64) {
        if n == 0 {
            return;
        }
        blocks.note_parked(n);
        let mut r = self.reserve.lock();
        let old = (r.first, std::mem::replace(&mut r.blocks, n));
        r.first = b;
        r.alloc.get_or_insert_with(|| blocks.clone());
        drop(r);
        if old.1 > 0 {
            blocks.free_parked(old.0, old.1);
        }
    }

    /// Returns the parked run, if any, to `blocks`.
    pub fn return_parked(&self, blocks: &BlockAlloc) {
        let mut r = self.reserve.lock();
        let (first, n) = (r.first, std::mem::take(&mut r.blocks));
        drop(r);
        if n > 0 {
            blocks.free_parked(first, n);
        }
    }
}

impl Drop for FileCursor {
    fn drop(&mut self) {
        let r = self.reserve.get_mut();
        if let Some(alloc) = r.alloc.as_ref().filter(|_| r.blocks > 0) {
            alloc.free_parked(r.first, r.blocks);
        }
    }
}

impl std::fmt::Debug for FileCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileCursor")
            .field("gen", &self.gen.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl CursorInner {
    fn rebuild(&mut self, r: &PmemRegion, ino: Inode, gen: u64) {
        self.map.clear();
        self.tail_blk = None;
        let mut logical = 0u64;
        let mut inline_full = true;
        for i in 0..INLINE_EXTENTS {
            let e = ino.extent(r, i);
            if e.is_empty() {
                inline_full = false;
                break;
            }
            self.map.push((logical, e));
            logical += e.len;
        }
        if inline_full {
            let mut blk = ino.ext_next(r);
            while !blk.is_null() {
                self.tail_blk = Some(blk);
                let n = extblock::count(r, blk);
                for i in 0..n {
                    let e = extblock::get(r, blk, i);
                    self.map.push((logical, e));
                    logical += e.len;
                }
                blk = extblock::next(r, blk);
            }
        }
        self.allocated = logical;
        self.built_gen = Some(gen);
    }
}

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

/// Context for data-path operations on one inode.
#[derive(Clone, Copy)]
pub struct FileEnv<'a> {
    pub region: &'a PmemRegion,
    pub blocks: &'a Arc<BlockAlloc>,
    /// Skip the per-file write lock (paper's relaxed shared-file writes).
    pub relaxed: bool,
    pub max_hold: Duration,
    /// The inode's shared extent mirror: the data path's only view of the
    /// file's extent map.
    pub cursor: &'a FileCursor,
    /// Probe accounting (see [`DataStats`]).
    pub stats: &'a DataStats,
    /// Resource-fault injector (crash-matrix ENOSPC testing).
    pub faults: &'a AllocFaults,
}

impl<'a> FileEnv<'a> {
    pub fn new(
        region: &'a PmemRegion,
        blocks: &'a Arc<BlockAlloc>,
        cursor: &'a FileCursor,
        stats: &'a DataStats,
        faults: &'a AllocFaults,
    ) -> Self {
        FileEnv {
            region,
            blocks,
            relaxed: false,
            max_hold: DEFAULT_FILE_MAX_HOLD,
            cursor,
            stats,
            faults,
        }
    }

    #[inline]
    fn bump(&self, counter: impl Fn(&DataStats) -> &Counter) {
        counter(self.stats).add(1);
    }

    /// Runs the copy loop `f`, charging its duration to
    /// [`DataStats::copy_ns`].
    #[inline]
    fn time_copy<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.stats.copy_ns.add(start.elapsed().as_nanos() as u64);
        out
    }
}

// ---------------------------------------------------------------------------
// Per-file reader/writer lock
// ---------------------------------------------------------------------------

/// Shared-read guard on a file.
pub struct ReadGuard<'a> {
    region: &'a PmemRegion,
    lock: PPtr,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        self.region.atomic_u64(self.lock).fetch_sub(1, Ordering::AcqRel);
    }
}

/// Exclusive-write guard on a file. `None` inside means relaxed mode.
pub struct WriteGuard<'a> {
    region: Option<&'a PmemRegion>,
    lock: PPtr,
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        if let Some(r) = self.region {
            r.atomic_u64(self.lock).fetch_and(!WRITER, Ordering::AcqRel);
        }
    }
}

/// Acquires the shared side of a file's lock; a stuck writer is presumed
/// crashed after `max_hold` and its bit is cleared.
pub fn lock_read<'a>(env: &FileEnv<'a>, ino: Inode) -> ReadGuard<'a> {
    let lock = ino.lock_ptr();
    let a = env.region.atomic_u64(lock);
    let mut grace = Grace::default();
    let mut backoff = Backoff::default();
    loop {
        let s = a.load(Ordering::Acquire);
        if s & WRITER == 0 {
            if a.compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                lock_stats().acquires.add(1);
                return ReadGuard { region: env.region, lock };
            }
        } else if grace.expired(env.max_hold) {
            // Crashed writer: clear *only* the writer bit. A blanket
            // store(0) would also wipe reader counts that raced in after
            // another waiter's reset, making their guards underflow on drop.
            crate::obs::trace(crate::obs::EventKind::BusyTimeout, lock.off(), s);
            a.fetch_and(!WRITER, Ordering::AcqRel);
            lock_stats().steals.add(1);
        }
        backoff.wait();
    }
}

/// Acquires the exclusive side; no-op in relaxed mode.
pub fn lock_write<'a>(env: &FileEnv<'a>, ino: Inode) -> WriteGuard<'a> {
    let lock = ino.lock_ptr();
    if env.relaxed {
        return WriteGuard { region: None, lock };
    }
    let a = env.region.atomic_u64(lock);
    let mut grace = Grace::default();
    let mut backoff = Backoff::default();
    loop {
        if a.compare_exchange_weak(0, WRITER, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            lock_stats().acquires.add(1);
            return WriteGuard { region: Some(env.region), lock };
        }
        // Whoever survives an expiry's reset gets a fresh grace period.
        if grace.expired(env.max_hold) {
            let s = a.load(Ordering::Acquire);
            if s & WRITER != 0 {
                // Crashed writer: clear only its bit (see lock_read) so
                // reader counts that raced in survive the steal.
                crate::obs::trace(crate::obs::EventKind::BusyTimeout, lock.off(), s);
                a.fetch_and(!WRITER, Ordering::AcqRel);
                lock_stats().steals.add(1);
            } else if s != 0 {
                // Readers still pinned after a full extra grace period are
                // presumed crashed. CAS the exact observed count — never a
                // blind store — so a live reader arriving concurrently
                // keeps its slot and we simply retry.
                let _ = a.compare_exchange(s, 0, Ordering::AcqRel, Ordering::Acquire);
            }
        }
        backoff.wait();
    }
}

// ---------------------------------------------------------------------------
// Extent map
// ---------------------------------------------------------------------------

/// Calls `f(logical_start, extent)` for each extent in file order; returns
/// the total allocated bytes. This walks the persistent map — hot paths go
/// through the cursor mirror instead (`stream_extents`).
pub fn for_each_extent(r: &PmemRegion, ino: Inode, mut f: impl FnMut(u64, Extent)) -> u64 {
    let mut logical = 0u64;
    for i in 0..INLINE_EXTENTS {
        let e = ino.extent(r, i);
        if e.is_empty() {
            return logical;
        }
        f(logical, e);
        logical += e.len;
    }
    let mut blk = ino.ext_next(r);
    while !blk.is_null() {
        let n = extblock::count(r, blk);
        for i in 0..n {
            let e = extblock::get(r, blk, i);
            f(logical, e);
            logical += e.len;
        }
        blk = extblock::next(r, blk);
    }
    logical
}

/// Streams `(pmem address, contiguous bytes)` runs covering the file from
/// logical `off` onward, calling `f` for each run until it returns `false`
/// or the allocated range ends. The start extent is located **once**, by
/// binary search in the cursor mirror; subsequent extents continue from
/// there without re-walking the map.
fn stream_extents(env: &FileEnv<'_>, ino: Inode, off: u64, f: &mut impl FnMut(PPtr, u64) -> bool) {
    for attempt in 0..2u32 {
        let cb = &mut *f;
        let covered = env.cursor.with_fresh(env, ino, |g| {
            if off >= g.allocated {
                return false;
            }
            // First extent whose logical start is <= off.
            let idx = g.map.partition_point(|&(start, _)| start <= off) - 1;
            let mut pos = off;
            for &(start, e) in &g.map[idx..] {
                env.bump(|s| &s.walk_steps);
                let within = pos - start;
                if !cb(PPtr::new(e.start + within), e.len - within) {
                    break;
                }
                pos = start + e.len;
            }
            true
        });
        if covered || attempt == 1 {
            return;
        }
        // A relaxed-mode grower may have extended the map since the mirror
        // was built; rebuild once before concluding the range is
        // unallocated.
        env.cursor.invalidate();
    }
}

/// `(allocated bytes, physical end of the tail extent)` per the mirror.
fn allocation_info(env: &FileEnv<'_>, ino: Inode) -> (u64, Option<PPtr>) {
    env.cursor.with_fresh(env, ino, |g| {
        (g.allocated, g.map.last().map(|&(_, e)| PPtr::new(e.start + e.len)))
    })
}

/// Appends an extent to the file's map at the tail the mirror records:
/// the last inline slot in use, or the last entry of the tail overflow
/// block. `e` grows the tail extent in place when it starts where that
/// extent ends; otherwise it takes the next inline slot, the next entry of
/// the tail block, or the first entry of a new overflow block, which is
/// initialised before it is linked and linked before that entry is
/// written. The mirror is updated in place under its write lock.
fn push_extent(env: &FileEnv<'_>, ino: Inode, e: Extent) -> FsResult<()> {
    let r = env.region;
    let (mut g, _) = env.cursor.write_fresh(env, ino);
    let n = g.map.len();
    let tail = g.map.last().map(|&(_, t)| t).filter(|t| t.start + t.len == e.start);
    if let Some(tail) = tail {
        let len = tail.len + e.len;
        let merged = match g.tail_blk {
            None => {
                ino.set_extent(r, n - 1, Extent { start: tail.start, len });
                true
            }
            // An empty tail block (a crash between its link and its first
            // entry) holds no tail extent: `e` becomes its first entry.
            Some(blk) => match extblock::count(r, blk) {
                0 => false,
                c => {
                    extblock::set_len(r, blk, c - 1, len);
                    true
                }
            },
        };
        if merged {
            g.map[n - 1].1.len = len;
            g.allocated += e.len;
            return Ok(());
        }
    }
    match g.tail_blk {
        // The next inline slot, else the tail block's next entry.
        None if n < INLINE_EXTENTS => ino.set_extent(r, n, e),
        Some(blk) if extblock::push(r, blk, e) => {}
        // Inline slots or tail block full: a new overflow block.
        last_blk => {
            env.faults.check("extent-block-alloc")?;
            let nb = env.blocks.alloc(ino.ptr().off() / 64, 1).ok_or(FsError::NoSpace)?;
            extblock::init(r, nb);
            match last_blk {
                None => ino.set_ext_next(r, nb),
                Some(blk) => extblock::set_next(r, blk, nb),
            }
            extblock::push(r, nb, e);
            g.tail_blk = Some(nb);
        }
    }
    let logical = g.allocated;
    g.map.push((logical, e));
    g.allocated += e.len;
    Ok(())
}

thread_local! {
    /// Segment this thread last allocated from (`u64::MAX` = unset).
    /// Appenders keep returning to "their" segment instead of rehashing
    /// into whatever segment the inode pointer happens to select, which
    /// under concurrency means contending with every other appender.
    static SEG_AFFINITY: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// General allocation with the per-thread segment-affinity hint. Without
/// `wait` only the opportunistic pass runs ([`BlockAlloc::try_alloc`]).
fn alloc_affine(env: &FileEnv<'_>, ino: Inode, count: u64, wait: bool) -> Option<PPtr> {
    let hint = match SEG_AFFINITY.get() {
        u64::MAX => ino.ptr().off() / 64,
        h => h,
    };
    let p = if wait { env.blocks.alloc(hint, count) } else { env.blocks.try_alloc(hint, count) }?;
    let seg = env.blocks.seg_of_ptr(p) as u64;
    if seg != hint % env.blocks.segments() as u64 {
        env.bump(|s| &s.seg_hops);
    }
    SEG_AFFINITY.set(seg);
    Some(p)
}

/// Grows the allocation to at least `want` bytes (block-granular). Newly
/// allocated space is *not* zeroed here; writers zero holes they skip.
///
/// Append fast path: blocks the cursor parked after the file's tail merge
/// into the tail extent with no segment lock. On a miss the need plus the
/// reservation's surplus is claimed, first right after the tail
/// (`extend_at`, which also merges) and otherwise as one fresh run, and
/// the surplus is parked after the data. Only what neither covers goes
/// through the general allocator in halving chunks.
pub fn ensure_allocated(env: &FileEnv<'_>, ino: Inode, want: u64) -> FsResult<()> {
    let (have, tail_end) = allocation_info(env, ino);
    if want <= have {
        return Ok(());
    }
    env.bump(|s| &s.appends);
    let blocks = env.blocks;
    let mut need_blocks = (want - have).div_ceil(BLOCK_SIZE as u64);
    let mut tail = tail_end.map(|end| blocks.ptr_block(end));
    let (hit, mut spare) = env.cursor.take_parked(blocks, tail, need_blocks);
    let mut extended = hit > 0;
    if let Some(t) = tail.filter(|_| hit > 0) {
        push_extent(env, ino, Extent { start: blocks.block_ptr(t).off(), len: hit * BLOCK_SIZE as u64 })?;
        need_blocks -= hit;
        tail = Some(t + hit);
    }
    if let Some(t) = tail.filter(|_| need_blocks > 0) {
        env.faults.check("tail-extend")?;
        let got = blocks.extend_at(t, need_blocks + spare);
        if got > 0 {
            let data = got.min(need_blocks);
            env.cursor.park_surplus(blocks, t + data, got - data);
            push_extent(env, ino, Extent { start: blocks.block_ptr(t).off(), len: data * BLOCK_SIZE as u64 })?;
            need_blocks -= data;
            extended = true;
        }
    }
    if extended {
        env.bump(|s| &s.tail_extends);
    }
    if need_blocks == 0 {
        return Ok(());
    }
    env.bump(|s| &s.alloc_fallbacks);
    // Allocate in as few contiguous chunks as the allocator can provide:
    // the need plus the surplus if the free lists show such a run without
    // waiting, else the whole need, halving on failure.
    while need_blocks > 0 {
        env.faults.check("data-block-alloc")?;
        let mut chunk = need_blocks;
        let ptr = loop {
            if spare > 0 {
                match alloc_affine(env, ino, chunk + spare, false) {
                    Some(p) => break Some(p),
                    None => spare = 0,
                }
            }
            match alloc_affine(env, ino, chunk, true) {
                Some(p) => break Some(p),
                None if chunk > 1 => chunk = chunk.div_ceil(2),
                None => break None,
            }
        };
        let Some(p) = ptr else {
            return Err(FsError::NoSpace);
        };
        env.cursor.park_surplus(blocks, blocks.ptr_block(p) + chunk, std::mem::take(&mut spare));
        push_extent(env, ino, Extent { start: p.off(), len: chunk * BLOCK_SIZE as u64 })?;
        need_blocks -= chunk;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Read / write / truncate
// ---------------------------------------------------------------------------

/// Reads up to `buf.len()` bytes at `off`; returns bytes read (0 at EOF).
/// Caller holds the read lock.
pub fn read_at(env: &FileEnv<'_>, ino: Inode, off: u64, buf: &mut [u8]) -> usize {
    env.bump(|s| &s.reads);
    let size = ino.size(env.region);
    if off >= size || buf.is_empty() {
        return 0;
    }
    let want = buf.len().min((size - off) as usize);
    let mut done = 0usize;
    env.time_copy(|| {
        stream_extents(env, ino, off, &mut |addr, avail| {
            let n = (want - done).min(avail as usize);
            env.region.read_into(addr, &mut buf[done..done + n]);
            done += n;
            done < want
        })
    });
    done
}

/// Writes `data` at `off`, extending allocation and size as needed; returns
/// bytes written. Caller holds the write lock (or runs relaxed).
pub fn write_at(env: &FileEnv<'_>, ino: Inode, off: u64, data: &[u8]) -> FsResult<usize> {
    env.bump(|s| &s.writes);
    let r = env.region;
    let end = off + data.len() as u64;
    // Group commit: extent-map persists from the allocation growth coalesce
    // into the data fence below — they only need to be durable before the
    // size update, exactly like the payload itself.
    let scope = r.fence_scope();
    ensure_allocated(env, ino, end)?;
    let old_size = ino.size(r);
    // Zero any hole between the current end and the write start.
    if off > old_size {
        zero_range(env, ino, old_size, off - old_size);
    }
    // Non-temporal copy of the payload, streaming extent to extent.
    let mut done = 0usize;
    env.time_copy(|| {
        stream_extents(env, ino, off, &mut |addr, avail| {
            let n = (data.len() - done).min(avail as usize);
            r.nt_write_from(addr, &data[done..done + n]);
            done += n;
            done < data.len()
        })
    });
    if done < data.len() {
        return Err(FsError::Corrupt("write past allocation"));
    }
    // sfence: data + extent map durable before the size update (paper
    // ordering). The commit is the one fence of the whole growth path.
    scope.commit();
    drop(scope);
    if end > old_size {
        ino.set_size(r, end);
    }
    Ok(data.len())
}

fn zero_range(env: &FileEnv<'_>, ino: Inode, off: u64, len: u64) {
    const ZEROS: [u8; BLOCK_SIZE] = [0u8; BLOCK_SIZE];
    let mut done = 0u64;
    stream_extents(env, ino, off, &mut |addr, avail| {
        let run = avail.min(len - done);
        let mut within = 0u64;
        while within < run {
            let n = (run - within).min(BLOCK_SIZE as u64);
            env.region.nt_write_from(addr.add(within), &ZEROS[..n as usize]);
            within += n;
        }
        done += run;
        done < len
    });
}

/// Preallocates `[off, off+len)` without zeroing (FxMark DWTL). Extends the
/// size like `fallocate(2)` without `KEEP_SIZE`.
pub fn fallocate(env: &FileEnv<'_>, ino: Inode, off: u64, len: u64) -> FsResult<()> {
    let end = off + len;
    ensure_allocated(env, ino, end)?;
    if end > ino.size(env.region) {
        ino.set_size(env.region, end);
    }
    Ok(())
}

/// Truncates to `len`: shrinking frees whole blocks beyond the new end;
/// growing allocates and zero-fills.
pub fn truncate(env: &FileEnv<'_>, ino: Inode, len: u64) -> FsResult<()> {
    let r = env.region;
    let old = ino.size(r);
    if len > old {
        // Group commit: extent-map persists coalesce into the fence that
        // orders the zero-fill before the size update.
        let scope = r.fence_scope();
        ensure_allocated(env, ino, len)?;
        zero_range(env, ino, old, len - old);
        scope.commit();
        drop(scope);
        ino.set_size(r, len);
        return Ok(());
    }
    ino.set_size(r, len);
    // The trimmed size must be durable *before* any block is freed: a crash
    // between the two must never expose reusable blocks under a stale
    // larger size. set_size persists its own line; the fence below also
    // orders it against the map rewrite that follows.
    r.fence();
    shrink_allocation(env, ino, len);
    Ok(())
}

/// Frees every whole block past `keep` bytes and trims the extent map.
///
/// The trimmed map is rewritten **in place** (inline slots, then the
/// existing overflow blocks — shrinking never needs new space), persisted,
/// and only then are the surplus data and chain blocks released. A crash
/// anywhere in between leaks blocks at worst; it never leaves the map
/// pointing at freed ones.
fn shrink_allocation(env: &FileEnv<'_>, ino: Inode, keep: u64) {
    env.cursor.invalidate();
    env.cursor.return_parked(env.blocks);
    let r = env.region;
    let keep_alloc = keep.div_ceil(BLOCK_SIZE as u64) * BLOCK_SIZE as u64;
    // Snapshot the current map and overflow chain.
    let mut map: Vec<Extent> = Vec::new();
    for_each_extent(r, ino, |_, e| map.push(e));
    let mut chain: Vec<PPtr> = Vec::new();
    let mut blk = ino.ext_next(r);
    while !blk.is_null() {
        chain.push(blk);
        blk = extblock::next(r, blk);
    }
    // Split into the trimmed map and the block runs to release.
    let mut kept: Vec<Extent> = Vec::new();
    let mut frees: Vec<(PPtr, u64)> = Vec::new();
    let mut logical = 0u64;
    for e in &map {
        if logical + e.len <= keep_alloc {
            kept.push(*e);
        } else if logical < keep_alloc {
            let keep_len = keep_alloc - logical;
            kept.push(Extent { start: e.start, len: keep_len });
            frees.push((PPtr::new(e.start + keep_len), (e.len - keep_len) / BLOCK_SIZE as u64));
        } else {
            frees.push((PPtr::new(e.start), e.len / BLOCK_SIZE as u64));
        }
        logical += e.len;
    }
    // Rewrite the trimmed map in place, coalescing the per-slot persists
    // into the single commit below.
    let scope = r.fence_scope();
    for i in 0..INLINE_EXTENTS {
        ino.set_extent(r, i, kept.get(i).copied().unwrap_or_default());
    }
    let mut rest = &kept[kept.len().min(INLINE_EXTENTS)..];
    let mut used = 0usize;
    while !rest.is_empty() {
        let n = rest.len().min(extblock::CAPACITY);
        let next = if rest.len() > n { chain[used + 1] } else { PPtr::NULL };
        extblock::rewrite(r, chain[used], &rest[..n], next);
        rest = &rest[n..];
        used += 1;
    }
    if used == 0 {
        ino.set_ext_next(r, PPtr::NULL);
    }
    // Trimmed map durable; only now do the surplus blocks go back.
    scope.commit();
    drop(scope);
    for b in &chain[used..] {
        env.blocks.free(*b, 1);
    }
    for (p, n) in frees {
        if n > 0 {
            env.blocks.free(p, n);
        }
    }
}

/// Frees all data and extent blocks of a file (unlink of the last link).
/// No cursor is involved: the file's last one has dropped and returned
/// its parked run before the inode is destroyed.
pub fn free_all(r: &PmemRegion, blocks: &BlockAlloc, ino: Inode) {
    let mut map: Vec<Extent> = Vec::new();
    for_each_extent(r, ino, |_, e| map.push(e));
    for e in map {
        blocks.free(PPtr::new(e.start), e.len / BLOCK_SIZE as u64);
    }
    let mut blk = ino.ext_next(r);
    while !blk.is_null() {
        let next = extblock::next(r, blk);
        blocks.free(blk, 1);
        blk = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj::inode::INODE_SIZE;
    use simurgh_fsapi::types::FileMode;
    use simurgh_pmem::layout::Extent as LExtent;
    use std::sync::Arc;

    struct Fx {
        region: Arc<PmemRegion>,
        blocks: Arc<BlockAlloc>,
        stats: DataStats,
        faults: AllocFaults,
        cursor: FileCursor,
    }

    impl Fx {
        fn new(bytes: usize) -> Self {
            let region = Arc::new(PmemRegion::new(bytes));
            let data = LExtent { start: PPtr::new(64 * 1024), len: bytes as u64 - 64 * 1024 };
            let blocks = Arc::new(BlockAlloc::new(data, 2));
            let (stats, faults, cursor) = Default::default();
            Fx { region, blocks, stats, faults, cursor }
        }

        /// Env on the fixture's file, the way the file system drives the
        /// data path through an inode's shared cursor.
        fn env(&self) -> FileEnv<'_> {
            self.env_on(&self.cursor)
        }

        /// Env on another cursor: a second file, or a second view of one.
        fn env_on<'a>(&'a self, cursor: &'a FileCursor) -> FileEnv<'a> {
            FileEnv::new(&self.region, &self.blocks, cursor, &self.stats, &self.faults)
        }

        fn inode(&self) -> Inode {
            self.inode_at(4096)
        }

        fn inode_at(&self, off: u64) -> Inode {
            let ino = Inode(PPtr::new(off));
            ino.init(&self.region, FileMode::file(0o644), 0, 0, 1, 0);
            ino
        }

        /// Writes `n` 4-KB chunks, claiming the block physically after the
        /// tail between writes so the append fast path can never extend in
        /// place: a file with exactly `n` extents. The run the cursor
        /// parks after the tail goes back first, so the guard can take it.
        fn fragmented(&self, env: &FileEnv<'_>, ino: Inode, n: u64) {
            for i in 0..n {
                write_at(env, ino, i * 4096, &[i as u8; 4096]).unwrap();
                env.cursor.return_parked(&self.blocks);
                let mut tail = 0u64;
                for_each_extent(&self.region, ino, |_, e| tail = e.start + e.len);
                let b = self.blocks.ptr_block(PPtr::new(tail));
                // Claim may find the block already taken (e.g. by a chain
                // block) — equally good: tail extension stays impossible.
                let _ = self.blocks.extend_at(b, 1);
            }
            let mut extents = 0u64;
            for_each_extent(&self.region, ino, |_, _| extents += 1);
            assert_eq!(extents, n, "guards kept every chunk a separate extent");
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let fx = Fx::new(8 << 20);
        let env = fx.env();
        let ino = fx.inode();
        let data = b"the quick brown fox";
        assert_eq!(write_at(&env, ino, 0, data).unwrap(), data.len());
        assert_eq!(ino.size(&fx.region), data.len() as u64);
        let mut buf = vec![0u8; 64];
        let n = read_at(&env, ino, 0, &mut buf);
        assert_eq!(&buf[..n], data);
    }

    #[test]
    fn sparse_write_zero_fills_hole() {
        let fx = Fx::new(8 << 20);
        let env = fx.env();
        let ino = fx.inode();
        write_at(&env, ino, 0, b"head").unwrap();
        write_at(&env, ino, 10_000, b"tail").unwrap();
        assert_eq!(ino.size(&fx.region), 10_004);
        let mut buf = vec![0xffu8; 10_004];
        assert_eq!(read_at(&env, ino, 0, &mut buf), 10_004);
        assert_eq!(&buf[..4], b"head");
        assert!(buf[4..10_000].iter().all(|&b| b == 0), "hole reads as zeros");
        assert_eq!(&buf[10_000..], b"tail");
    }

    #[test]
    fn appends_grow_and_merge_extents() {
        let fx = Fx::new(32 << 20);
        let env = fx.env();
        let ino = fx.inode();
        let chunk = vec![7u8; 4096];
        for i in 0..100u64 {
            write_at(&env, ino, i * 4096, &chunk).unwrap();
        }
        assert_eq!(ino.size(&fx.region), 100 * 4096);
        let mut n_extents = 0;
        for_each_extent(&fx.region, ino, |_, _| n_extents += 1);
        assert!(n_extents <= 10, "contiguous appends merge ({n_extents} extents)");
        let mut buf = vec![0u8; 4096];
        assert_eq!(read_at(&env, ino, 99 * 4096, &mut buf), 4096);
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    fn append_fast_path_extends_tail_in_place() {
        let fx = Fx::new(32 << 20);
        let env = fx.env();
        let ino = fx.inode();
        let chunk = vec![5u8; 4096];
        for i in 0..64u64 {
            write_at(&env, ino, i * 4096, &chunk).unwrap();
        }
        let d = fx.stats.snapshot();
        assert_eq!(d.appends, 64, "every chunk grew the allocation");
        // Only the first append (empty file, no tail) may miss.
        assert!(
            d.tail_extend_rate() >= 0.9,
            "contiguous single-thread appends extend in place (rate {})",
            d.tail_extend_rate()
        );
        let mut n_extents = 0;
        for_each_extent(&fx.region, ino, |_, _| n_extents += 1);
        assert_eq!(n_extents, 1, "tail extension never adds a map entry");
        let mut buf = vec![0u8; 4096];
        assert_eq!(read_at(&env, ino, 63 * 4096, &mut buf), 4096);
        assert!(buf.iter().all(|&b| b == 5));
    }

    #[test]
    fn reservation_serves_interleaved_appends_without_segment_trips() {
        // Two open files appended round-robin: each file's next blocks come
        // from the run parked after its own tail. Once the surplus reaches
        // its cap, one growth in 17 misses, and a miss takes two segment
        // trips (a failed `extend_at`, then one allocation).
        let fx = Fx::new(32 << 20);
        let files = [(fx.inode_at(4096), FileCursor::new()), (fx.inode_at(8192), FileCursor::new())];
        let env = |c| fx.env_on(c);
        let mut round = 0u64;
        let mut append_rounds = |n: u64| {
            for _ in 0..n {
                for (ino, c) in &files {
                    write_at(&env(c), *ino, round * 4096, &[round as u8; 4096]).unwrap();
                }
                round += 1;
            }
        };
        // Warm-up: the surplus grows 0, 1, 2, 4, 8, 16 over the first
        // 21 growths of each file.
        append_rounds(32);
        let (trips, base) = (fx.blocks.seg_trips(), fx.stats.snapshot());
        append_rounds(4 * 17);
        let d = fx.stats.snapshot().since(&base);
        assert_eq!(d.appends, 2 * 4 * 17);
        assert_eq!(d.alloc_fallbacks, 2 * 4, "one miss per 17 appends per file");
        assert_eq!(d.appends - d.tail_extends, 2 * 4, "every hit merged into the tail");
        assert!(fx.blocks.seg_trips() - trips <= 2 * 2 * 4, "only misses take segment trips");
        assert!(fx.blocks.reserved_idle_blocks() <= 2 * PARK_CAP);
        for (ino, c) in &files {
            for i in [0, 31, round - 1] {
                let mut buf = [0u8; 4096];
                assert_eq!(read_at(&env(c), *ino, i * 4096, &mut buf), 4096);
                assert!(buf.iter().all(|&b| b == i as u8), "block {i} intact");
            }
        }
    }

    #[test]
    fn stale_reservation_is_returned_not_leaked() {
        // A run stops following the tail when the map changes under the
        // cursor; the next growth hands it back instead of spending it.
        let fx = Fx::new(32 << 20);
        let env = fx.env();
        let ino = fx.inode();
        let free0 = fx.blocks.free_blocks();
        write_at(&env, ino, 0, &[1u8; 4096]).unwrap();
        write_at(&env, ino, 4096, &[2u8; 4096]).unwrap();
        assert_eq!(fx.blocks.reserved_idle_blocks(), 1, "the second growth parks one block");
        let tail = ino.extent(&fx.region, 0);
        let parked = fx.blocks.ptr_block(PPtr::new(tail.start + tail.len));
        // A writer through a second cursor grows the map elsewhere.
        let other = FileCursor::new();
        write_at(&fx.env_on(&other), ino, 2 * 4096, &[3u8; 4096]).unwrap();
        fx.cursor.invalidate();
        write_at(&env, ino, 3 * 4096, &[4u8; 4096]).unwrap();
        assert_eq!(fx.blocks.extend_at(parked, 1), 1, "the stale run is free again");
        fx.blocks.free(fx.blocks.block_ptr(parked), 1);
        assert_eq!(
            free0 - fx.blocks.free_blocks(),
            4 + fx.blocks.reserved_idle_blocks(),
            "allocated = the four data blocks + what is parked now"
        );
    }

    #[test]
    fn free_all_coalesces_with_the_parked_run() {
        // An unlinked file's last close drops its cursor, which returns the
        // run parked after its tail; freeing the file then coalesces its
        // blocks and the run back into one free run.
        let fx = Fx::new(8 << 20);
        let cursor = FileCursor::new();
        let env = fx.env_on(&cursor);
        let ino = fx.inode();
        let before = fx.blocks.free_blocks();
        for i in 0..8u64 {
            write_at(&env, ino, i * 4096, &[i as u8; 4096]).unwrap();
        }
        assert!(fx.blocks.reserved_idle_blocks() > 0, "the appends parked a run");
        drop(cursor);
        free_all(&fx.region, &fx.blocks, ino);
        assert_eq!(fx.blocks.reserved_idle_blocks(), 0);
        assert_eq!(fx.blocks.free_blocks(), before);
        assert!(
            fx.blocks.frag_snapshot().iter().all(|&(runs, _)| runs == 1),
            "every segment is one free run again"
        );
    }

    #[test]
    fn cursor_makes_reads_single_step() {
        let fx = Fx::new(32 << 20);
        let env = fx.env();
        let ino = fx.inode();
        fx.fragmented(&env, ino, 8);
        let base = fx.stats.snapshot();
        for i in 0..8u64 {
            let mut buf = [0u8; 4096];
            assert_eq!(read_at(&env, ino, i * 4096, &mut buf), 4096);
            assert!(buf.iter().all(|&b| b == i as u8), "extent {i} intact");
        }
        let d = fx.stats.snapshot().since(&base);
        assert_eq!(d.reads, 8);
        assert_eq!(d.walk_steps, 8, "one extent examined per read, at any offset");
        assert_eq!(d.cursor_rebuilds, 0, "mirror stayed fresh across the appends");
        assert_eq!(d.map_walks, 0, "no persistent-map walk on the hot path");
        assert!(d.cursor_hits >= 8);
    }

    #[test]
    fn cursor_invalidated_by_truncate_then_rebuilds() {
        let fx = Fx::new(32 << 20);
        let env = fx.env();
        let ino = fx.inode();
        fx.fragmented(&env, ino, 6);
        truncate(&env, ino, 2 * 4096 + 10).unwrap();
        let base = fx.stats.snapshot();
        let mut buf = [0u8; 4096];
        assert_eq!(read_at(&env, ino, 4096, &mut buf), 4096);
        assert!(buf.iter().all(|&b| b == 1), "surviving extent intact after rebuild");
        let d = fx.stats.snapshot().since(&base);
        assert_eq!(d.cursor_rebuilds, 1, "generation bump forced one rebuild");
        assert_eq!(read_at(&env, ino, 2 * 4096, &mut buf), 10, "size trimmed");
    }

    #[test]
    fn large_file_uses_overflow_extents() {
        let fx = Fx::new(64 << 20);
        let env = fx.env();
        let ino = fx.inode();
        // Force fragmentation: allocate a guard block between writes so
        // extents cannot merge.
        for i in 0..8u64 {
            write_at(&env, ino, i * 4096, &[i as u8; 4096]).unwrap();
            let _guard = fx.blocks.alloc(i, 1).unwrap();
        }
        let mut n = 0;
        for_each_extent(&fx.region, ino, |_, _| n += 1);
        assert!(n > INLINE_EXTENTS, "spilled to overflow chain");
        assert!(!ino.ext_next(&fx.region).is_null());
        for i in 0..8u64 {
            let mut buf = [0u8; 4096];
            assert_eq!(read_at(&env, ino, i * 4096, &mut buf), 4096);
            assert!(buf.iter().all(|&b| b == i as u8), "extent {i} intact");
        }
    }

    #[test]
    fn read_past_eof_is_empty() {
        let fx = Fx::new(8 << 20);
        let env = fx.env();
        let ino = fx.inode();
        write_at(&env, ino, 0, b"xy").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(read_at(&env, ino, 2, &mut buf), 0);
        assert_eq!(read_at(&env, ino, 100, &mut buf), 0);
        assert_eq!(read_at(&env, ino, 0, &mut buf), 2, "short read at boundary");
    }

    #[test]
    fn fallocate_reserves_without_zeroing() {
        let fx = Fx::new(32 << 20);
        let env = fx.env();
        let ino = fx.inode();
        let before = fx.blocks.free_blocks();
        fallocate(&env, ino, 0, 4 << 20).unwrap();
        assert_eq!(ino.size(&fx.region), 4 << 20);
        assert_eq!(before - fx.blocks.free_blocks(), (4 << 20) / 4096);
    }

    #[test]
    fn truncate_shrinks_and_frees() {
        let fx = Fx::new(16 << 20);
        let env = fx.env();
        let ino = fx.inode();
        write_at(&env, ino, 0, &vec![1u8; 1 << 20]).unwrap();
        let after_write = fx.blocks.free_blocks();
        truncate(&env, ino, 4096).unwrap();
        assert_eq!(ino.size(&fx.region), 4096);
        assert!(fx.blocks.free_blocks() > after_write, "blocks returned");
        let mut buf = [0u8; 4096];
        assert_eq!(read_at(&env, ino, 0, &mut buf), 4096);
        assert!(buf.iter().all(|&b| b == 1));
    }

    #[test]
    fn truncate_shrink_preserves_overflow_chain_prefix() {
        // A 12-extent file spills into the overflow chain; truncating to
        // five extents must keep the first five intact (the in-place chain
        // rewrite path) and free the rest.
        let fx = Fx::new(64 << 20);
        let env = fx.env();
        let ino = fx.inode();
        fx.fragmented(&env, ino, 12);
        let free_before = fx.blocks.free_blocks();
        truncate(&env, ino, 5 * 4096).unwrap();
        assert!(fx.blocks.free_blocks() > free_before, "surplus data blocks freed");
        let mut n = 0;
        for_each_extent(&fx.region, ino, |_, _| n += 1);
        assert_eq!(n, 5);
        for i in 0..5u64 {
            let mut buf = [0u8; 4096];
            assert_eq!(read_at(&env, ino, i * 4096, &mut buf), 4096);
            assert!(buf.iter().all(|&b| b == i as u8), "extent {i} survived the rewrite");
        }
    }

    #[test]
    fn truncate_grow_zero_fills() {
        let fx = Fx::new(8 << 20);
        let env = fx.env();
        let ino = fx.inode();
        write_at(&env, ino, 0, b"abc").unwrap();
        truncate(&env, ino, 10_000).unwrap();
        assert_eq!(ino.size(&fx.region), 10_000);
        let mut buf = vec![0xffu8; 10_000];
        assert_eq!(read_at(&env, ino, 0, &mut buf), 10_000);
        assert_eq!(&buf[..3], b"abc");
        assert!(buf[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn free_all_returns_every_block() {
        let fx = Fx::new(16 << 20);
        let env = fx.env();
        let ino = fx.inode();
        let before = fx.blocks.free_blocks();
        write_at(&env, ino, 0, &vec![9u8; 2 << 20]).unwrap();
        assert!(fx.blocks.free_blocks() < before);
        free_all(&fx.region, &fx.blocks, ino);
        assert_eq!(fx.blocks.free_blocks(), before);
    }

    #[test]
    fn rw_lock_excludes_writers() {
        let fx = Fx::new(8 << 20);
        let env = fx.env();
        let ino = fx.inode();
        let g = lock_write(&env, ino);
        // A reader in another thread must not get in while the writer holds.
        let held = std::sync::atomic::AtomicBool::new(true);
        crossbeam::thread::scope(|s| {
            s.spawn(|_| {
                let env2 = fx.env();
                let _r = lock_read(&env2, ino);
                assert!(!held.load(Ordering::SeqCst), "reader entered while writer held");
            });
            std::thread::sleep(Duration::from_millis(20));
            held.store(false, Ordering::SeqCst);
            drop(g);
        })
        .unwrap();
    }

    #[test]
    fn readers_are_concurrent() {
        let fx = Fx::new(8 << 20);
        let env = fx.env();
        let ino = fx.inode();
        let r1 = lock_read(&env, ino);
        let r2 = lock_read(&env, ino);
        assert_eq!(fx.region.atomic_u64(ino.lock_ptr()).load(Ordering::SeqCst), 2);
        drop(r1);
        drop(r2);
        assert_eq!(fx.region.atomic_u64(ino.lock_ptr()).load(Ordering::SeqCst), 0);
    }

    #[test]
    fn crashed_writer_lock_is_reset() {
        let fx = Fx::new(8 << 20);
        let mut env = fx.env();
        env.max_hold = Duration::from_millis(10);
        let ino = fx.inode();
        // Simulate a crashed writer: set the writer bit by hand.
        fx.region.atomic_u64(ino.lock_ptr()).store(WRITER, Ordering::SeqCst);
        let start = Instant::now();
        let g = lock_read(&env, ino);
        assert!(start.elapsed() >= Duration::from_millis(10));
        drop(g);
    }

    #[test]
    fn crashed_writer_reset_preserves_raced_reader_counts() {
        // Regression: the old reset did `store(0)`, wiping reader counts
        // that raced in after another waiter already cleared the writer
        // bit. The steal must clear *only* the writer bit.
        let fx = Fx::new(8 << 20);
        let mut env = fx.env();
        env.max_hold = Duration::from_millis(5);
        let ino = fx.inode();
        let a = fx.region.atomic_u64(ino.lock_ptr());
        // Crashed writer plus two readers that raced in around a reset.
        a.store(WRITER | 2, Ordering::SeqCst);
        let g = lock_read(&env, ino);
        assert_eq!(a.load(Ordering::SeqCst), 3, "both raced-in readers kept their counts");
        drop(g);
        assert_eq!(a.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_readers_survive_writer_steal() {
        let fx = Fx::new(8 << 20);
        let ino = fx.inode();
        let a = fx.region.atomic_u64(ino.lock_ptr());
        a.store(WRITER, Ordering::SeqCst); // crashed writer
        let barrier = std::sync::Barrier::new(5);
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    let mut env = fx.env();
                    env.max_hold = Duration::from_millis(5);
                    barrier.wait();
                    let g = lock_read(&env, ino);
                    barrier.wait(); // all four hold
                    barrier.wait(); // main has asserted
                    drop(g);
                });
            }
            barrier.wait(); // start together
            barrier.wait(); // every reader acquired
            let w = a.load(Ordering::SeqCst);
            assert_eq!(w, 4, "steal cleared only the writer bit (word {w:#x})");
            barrier.wait(); // release
        })
        .unwrap();
        assert_eq!(a.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn crashed_readers_do_not_hang_writers() {
        let fx = Fx::new(8 << 20);
        let mut env = fx.env();
        env.max_hold = Duration::from_millis(5);
        let ino = fx.inode();
        let a = fx.region.atomic_u64(ino.lock_ptr());
        a.store(3, Ordering::SeqCst); // three dead readers
        let g = lock_write(&env, ino);
        assert_eq!(a.load(Ordering::SeqCst), WRITER);
        drop(g);
        assert_eq!(a.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn write_steal_clears_writer_bit_before_reader_counts() {
        // Escalation order: a write waiter first clears a dead writer's
        // bit, then gives remaining readers a *fresh* grace period before
        // presuming them dead too — two hold periods minimum, so readers
        // that raced in behind the first steal are not clobbered instantly.
        let fx = Fx::new(8 << 20);
        let mut env = fx.env();
        env.max_hold = Duration::from_millis(5);
        let ino = fx.inode();
        let a = fx.region.atomic_u64(ino.lock_ptr());
        a.store(WRITER | 2, Ordering::SeqCst);
        let t0 = Instant::now();
        let g = lock_write(&env, ino);
        assert!(t0.elapsed() >= Duration::from_millis(10), "two grace periods elapsed");
        assert_eq!(a.load(Ordering::SeqCst), WRITER);
        drop(g);
    }

    #[test]
    fn relaxed_mode_skips_write_lock() {
        let fx = Fx::new(8 << 20);
        let mut env = fx.env();
        env.relaxed = true;
        let ino = fx.inode();
        let g1 = lock_write(&env, ino);
        let g2 = lock_write(&env, ino); // would deadlock if not relaxed
        drop(g1);
        drop(g2);
    }

    #[test]
    fn inode_size_constant_holds() {
        // The lock word and extent map must fit the fixed object.
        assert_eq!(INODE_SIZE, 128);
    }

    #[test]
    fn data_persists_before_size_metadata() {
        // In tracked mode: after write_at returns, a crash must preserve
        // both data and size (fence-then-size ordering).
        let region = Arc::new(PmemRegion::new_tracked(4 << 20));
        let data_ext = LExtent { start: PPtr::new(64 * 1024), len: (4 << 20) - 64 * 1024 };
        let blocks = Arc::new(BlockAlloc::new(data_ext, 1));
        let (stats, faults) = (DataStats::default(), AllocFaults::default());
        let cursor = FileCursor::new();
        let env = FileEnv::new(&region, &blocks, &cursor, &stats, &faults);
        let ino = Inode(PPtr::new(4096));
        ino.init(&region, FileMode::file(0o644), 0, 0, 1, 0);
        region.persist(PPtr::new(4096), 128);
        write_at(&env, ino, 0, b"durable payload").unwrap();
        let crashed = region.simulate_crash();
        let ino2 = Inode(PPtr::new(4096));
        assert_eq!(ino2.size(&crashed), 15);
        let blocks2 = Arc::new(BlockAlloc::new(data_ext, 1));
        let cursor2 = FileCursor::new();
        let env2 = FileEnv::new(&crashed, &blocks2, &cursor2, &stats, &faults);
        let mut buf = [0u8; 15];
        assert_eq!(read_at(&env2, ino2, 0, &mut buf), 15);
        assert_eq!(&buf, b"durable payload");
    }

    #[test]
    fn truncate_shrink_crash_keeps_size_and_surviving_data() {
        // Tracked-region coverage for the shrink ordering: after truncate
        // returns, a crash must see the trimmed size, the trimmed map, and
        // the kept prefix — never a larger size over freed blocks.
        let region = Arc::new(PmemRegion::new_tracked(4 << 20));
        let data_ext = LExtent { start: PPtr::new(64 * 1024), len: (4 << 20) - 64 * 1024 };
        let blocks = Arc::new(BlockAlloc::new(data_ext, 1));
        let (stats, faults) = (DataStats::default(), AllocFaults::default());
        let cursor = FileCursor::new();
        let env = FileEnv::new(&region, &blocks, &cursor, &stats, &faults);
        let ino = Inode(PPtr::new(4096));
        ino.init(&region, FileMode::file(0o644), 0, 0, 1, 0);
        region.persist(PPtr::new(4096), 128);
        write_at(&env, ino, 0, &vec![0xabu8; 64 * 1024]).unwrap();
        truncate(&env, ino, 4096).unwrap();
        let crashed = region.simulate_crash();
        let ino2 = Inode(PPtr::new(4096));
        assert_eq!(ino2.size(&crashed), 4096, "trimmed size durable");
        assert_eq!(for_each_extent(&crashed, ino2, |_, _| {}), 4096, "trimmed map durable");
        let blocks2 = Arc::new(BlockAlloc::new(data_ext, 1));
        let cursor2 = FileCursor::new();
        let env2 = FileEnv::new(&crashed, &blocks2, &cursor2, &stats, &faults);
        let mut buf = [0u8; 4096];
        assert_eq!(read_at(&env2, ino2, 0, &mut buf), 4096);
        assert!(buf.iter().all(|&b| b == 0xab), "kept prefix intact");
    }
}
