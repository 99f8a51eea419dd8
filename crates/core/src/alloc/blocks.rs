//! The segmented data-block allocator (§4.2 "Block allocation").
//!
//! The data area is divided into segments — the paper uses twice the number
//! of CPU cores, after Hoard — each owning a contiguous block range with its
//! own first-fit free list guarded by a [`TsLock`]. Threads pick a segment
//! by hashing the owning inode's persistent pointer (placing blocks of the
//! same file near each other and spreading files across segments) and
//! simply move to the next segment when theirs is busy.
//!
//! The free lists are **volatile** shared state: they are rebuilt at mount
//! by the mark-and-sweep scan, so block allocation itself never needs
//! journaling.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use simurgh_pmem::layout::Extent;
use simurgh_pmem::stats::Counter;
use simurgh_pmem::{PPtr, PmemRegion};

use super::tslock::{Acquired, TsGuard, TsLock};
use crate::BLOCK_SIZE;

/// Default maximum lock-hold duration before a waiter presumes a crash.
pub const DEFAULT_MAX_HOLD: Duration = Duration::from_millis(500);

/// Returns parked runs to the allocator under pressure; see
/// [`BlockAlloc::set_reclaim_hook`].
type ReclaimHook = Box<dyn Fn(&BlockAlloc) + Send + Sync>;

struct Segment {
    lock: TsLock,
    /// Sorted, coalesced `(first_block, count)` runs. Only accessed while
    /// holding `lock` — the shared-DRAM discipline of the paper.
    free: UnsafeCell<Vec<(u64, u64)>>,
    free_blocks: AtomicU64,
}

// SAFETY: `free` is only touched under `lock`; see module docs.
unsafe impl Sync for Segment {}

/// Returned by a critical section that discovered — at its publish point —
/// that its lock was stolen by a waiter that presumed us crashed (we were
/// merely slow). The work must be discarded and retried under a fresh
/// acquisition; publishing would race the thief's view of the free list.
struct LockLost;

/// The cross-process claim arbiter: one bit per block, living **in the
/// shared region** (see `crate::shared` for the geometry words). The local
/// free lists remain the fast path; under a shared mount every allocation
/// additionally sets its bits here with `fetch_or`, and a set bit someone
/// else owns means a peer process claimed the block first — our local view
/// was stale, so we carve the block out and move on. The bitmap has
/// volatile semantics: the recovering mount republishes it from its
/// mark-and-sweep free lists, and nothing trusts it across a crash.
struct SharedBits {
    region: Arc<PmemRegion>,
    base: PPtr,
    words: u64,
}

impl SharedBits {
    #[inline]
    fn word(&self, w: u64) -> &AtomicU64 {
        debug_assert!(w < self.words);
        self.region.atomic_u64(self.base.add(w * 8))
    }

    /// Whether block `b` is claimed (attach-time snapshot).
    fn used(&self, b: u64) -> bool {
        self.word(b / 64).load(Ordering::Acquire) & (1 << (b % 64)) != 0
    }

    /// Claims `[start, start + count)`. On hitting a bit a peer already
    /// owns, rolls back the bits set so far and returns the conflicting
    /// block index.
    fn claim(&self, start: u64, count: u64) -> Result<(), u64> {
        for b in start..start + count {
            let bit = 1u64 << (b % 64);
            if self.word(b / 64).fetch_or(bit, Ordering::AcqRel) & bit != 0 {
                for ours in start..b {
                    self.word(ours / 64).fetch_and(!(1 << (ours % 64)), Ordering::AcqRel);
                }
                return Err(b);
            }
        }
        Ok(())
    }

    /// Releases `[start, start + count)`.
    fn clear(&self, start: u64, count: u64) {
        for b in start..start + count {
            self.word(b / 64).fetch_and(!(1 << (b % 64)), Ordering::AcqRel);
        }
    }
}

/// The segmented block allocator over a data extent.
pub struct BlockAlloc {
    data_start: u64,
    nblocks: u64,
    blocks_per_seg: u64,
    segments: Box<[Segment]>,
    max_hold: Duration,
    /// Test-only stall injector: when nonzero, the next critical section
    /// parks for that many µs between deciding and publishing (one-shot),
    /// so tests can force a steal mid-section deterministically.
    stall_us: AtomicU64,
    /// Segment-lock round trips: critical sections entered on any segment
    /// (alloc, tail-extension, free). Exported through the `ObsRegistry`
    /// alloc section; the append reservations assert this drops per op.
    seg_trips: Counter,
    /// Fragmentation-pressure events: the opportunistic allocation pass
    /// came up empty even though `free_blocks()` plus the parked blocks
    /// could have covered the request — capacity exists but not as a
    /// visible contiguous run. The compactor's water-mark trigger watches
    /// this counter.
    frag_pressure: Counter,
    /// Gauge of parked blocks: claimed from the free lists (and, under a
    /// shared mount, in the bitmap) by an open file's append reservation
    /// (`file::FileCursor`) but referenced by no extent yet.
    parked: Counter,
    /// Returns every parked run to the free lists; installed by the mount,
    /// called by [`alloc`](Self::alloc) under pressure.
    reclaim: OnceLock<ReclaimHook>,
    /// Cross-process claim bitmap; unset for exclusive (single-process)
    /// mounts, where the local free lists are already authoritative.
    shared: OnceLock<SharedBits>,
}

impl BlockAlloc {
    /// An allocator over `data` with `nsegs` segments; all blocks free.
    pub fn new(data: Extent, nsegs: usize) -> Self {
        Self::rebuild(data, nsegs, |_| false)
    }

    /// Rebuilds free lists, skipping blocks for which `used` returns true —
    /// the mount-time path fed by the mark phase of recovery.
    pub fn rebuild(data: Extent, nsegs: usize, used: impl Fn(u64) -> bool) -> Self {
        let nsegs = nsegs.max(1);
        let data_start = data.start.align_up(BLOCK_SIZE as u64).off();
        let nblocks = (data.start.off() + data.len - data_start) / BLOCK_SIZE as u64;
        let blocks_per_seg = nblocks.div_ceil(nsegs as u64).max(1);
        let mut segments = Vec::with_capacity(nsegs);
        for s in 0..nsegs as u64 {
            let first = s * blocks_per_seg;
            let last = ((s + 1) * blocks_per_seg).min(nblocks);
            let mut free = Vec::new();
            let mut total = 0u64;
            let mut run_start = None;
            for b in first..last {
                if used(b) {
                    if let Some(rs) = run_start.take() {
                        free.push((rs, b - rs));
                        total += b - rs;
                    }
                } else if run_start.is_none() {
                    run_start = Some(b);
                }
            }
            if let Some(rs) = run_start {
                free.push((rs, last - rs));
                total += last - rs;
            }
            segments.push(Segment {
                lock: TsLock::new(),
                free: UnsafeCell::new(free),
                free_blocks: AtomicU64::new(total),
            });
        }
        BlockAlloc {
            data_start,
            nblocks,
            blocks_per_seg,
            segments: segments.into_boxed_slice(),
            max_hold: DEFAULT_MAX_HOLD,
            stall_us: AtomicU64::new(0),
            seg_trips: Counter::new(),
            frag_pressure: Counter::new(),
            parked: Counter::new(),
            reclaim: OnceLock::new(),
            shared: OnceLock::new(),
        }
    }

    /// Installs the pressure hook: `hook` must return every parked run it
    /// can reach (through [`free_parked`](Self::free_parked)). The mount
    /// installs one that walks its open files; the first install wins.
    pub fn set_reclaim_hook(&self, hook: impl Fn(&BlockAlloc) + Send + Sync + 'static) {
        let _ = self.reclaim.set(Box::new(hook));
    }

    /// Segment-lock round trips so far (diagnostics / perf assertions).
    pub fn seg_trips(&self) -> u64 {
        self.seg_trips.load(Ordering::Relaxed)
    }

    /// Recoverer path of a shared mount: writes this allocator's post-sweep
    /// view into the region-resident claim bitmap (free lists become clear
    /// bits, everything else — including slack past `nblocks` — stays set),
    /// then arms per-allocation claims. Must run before `shared::publish_up`
    /// so no attacher reads a half-written bitmap.
    pub fn publish_shared(&self, region: Arc<PmemRegion>, base: PPtr, words: u64) {
        assert!(words * 64 >= self.nblocks, "bitmap too small for data area");
        let bits = SharedBits { region, base, words };
        let mut image = vec![u64::MAX; words as usize];
        for seg in self.segments.iter() {
            let (guard, how) = seg.lock.acquire(self.max_hold);
            if how == Acquired::Stolen {
                self.repair(seg);
            }
            // SAFETY: lock held.
            let free = unsafe { &*seg.free.get() };
            for &(s, l) in free.iter() {
                for b in s..s + l {
                    image[(b / 64) as usize] &= !(1 << (b % 64));
                }
            }
            drop(guard);
        }
        for (w, val) in image.into_iter().enumerate() {
            bits.word(w as u64).store(val, Ordering::Release);
        }
        let _ = self.shared.set(bits);
    }

    /// Attacher path of a shared mount: rebuilds the local free lists from
    /// the published claim bitmap — media only, never a peer's DRAM. The
    /// snapshot races live peers, but every subsequent allocation is
    /// re-arbitrated by the bitmap CAS, so a stale run merely conflicts and
    /// gets carved out.
    pub fn attach(data: Extent, nsegs: usize, region: Arc<PmemRegion>, base: PPtr, words: u64) -> Self {
        let bits = SharedBits { region, base, words };
        let a = Self::rebuild(data, nsegs, |b| bits.used(b));
        assert!(words * 64 >= a.nblocks, "bitmap too small for data area");
        let _ = a.shared.set(bits);
        a
    }

    /// One-shot test stall between a critical section's decision and its
    /// publish point. Disarmed: one relaxed load.
    fn test_stall(&self) {
        if self.stall_us.load(Ordering::Relaxed) != 0 {
            let us = self.stall_us.swap(0, Ordering::Relaxed);
            if us > 0 {
                std::thread::sleep(Duration::from_micros(us));
            }
        }
    }

    /// Total blocks managed.
    pub fn capacity_blocks(&self) -> u64 {
        self.nblocks
    }

    /// Currently free blocks (racy snapshot).
    pub fn free_blocks(&self) -> u64 {
        self.segments.iter().map(|s| s.free_blocks.load(Ordering::Relaxed)).sum()
    }

    /// Number of segments (diagnostics / ablation harness).
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Byte offset of block index `b`.
    #[inline]
    pub fn block_ptr(&self, b: u64) -> PPtr {
        PPtr::new(self.data_start + b * BLOCK_SIZE as u64)
    }

    /// Block index of a byte offset inside the data area.
    #[inline]
    pub fn ptr_block(&self, p: PPtr) -> u64 {
        debug_assert!(p.off() >= self.data_start);
        (p.off() - self.data_start) / BLOCK_SIZE as u64
    }

    /// Whether `p` lies inside the managed data area (recovery validation).
    pub fn contains(&self, p: PPtr) -> bool {
        p.off() >= self.data_start && p.off() < self.data_start + self.nblocks * BLOCK_SIZE as u64
    }

    fn seg_of_block(&self, b: u64) -> usize {
        ((b / self.blocks_per_seg) as usize).min(self.segments.len() - 1)
    }

    /// Allocates `count` contiguous blocks. `hint` selects the starting
    /// segment (the file-system passes the inode pointer); busy segments
    /// are skipped, as in the paper.
    pub fn alloc(&self, hint: u64, count: u64) -> Option<PPtr> {
        if let Some(p) = self.try_alloc(hint, count) {
            return Some(p);
        }
        // Pass 1 found nothing: allocation pressure. Parked runs are
        // capacity the free lists cannot see; return them before the
        // blocking pass so allocation only fails when space is truly out.
        if self.free_blocks() + self.reserved_idle_blocks() >= count {
            self.frag_pressure.add(1);
        }
        if let Some(reclaim) = self.reclaim.get() {
            reclaim(self);
        }
        // Pass 2: blocking, so allocation only fails when space is truly out.
        // A lost lock here retries the same segment under a fresh acquire.
        let n = self.segments.len();
        let start = (hint as usize) % n;
        for i in 0..n {
            let seg = &self.segments[(start + i) % n];
            let got = loop {
                let (guard, how) = seg.lock.acquire(self.max_hold);
                self.seg_trips.add(1);
                if how == Acquired::Stolen {
                    self.repair(seg);
                }
                let got = self.take_first_fit(seg, &guard, count);
                drop(guard);
                match got {
                    Ok(got) => break got,
                    Err(LockLost) => continue,
                }
            };
            if let Some(b) = got {
                return Some(self.block_ptr(b));
            }
        }
        None
    }

    /// The opportunistic pass of [`alloc`](Self::alloc) alone: skips busy
    /// segments and never returns parked runs, so a failure costs no one
    /// else's reservation. A lost lock (stolen mid-section by a waiter that
    /// presumed us crashed) is treated like a busy segment.
    pub fn try_alloc(&self, hint: u64, count: u64) -> Option<PPtr> {
        debug_assert!(count > 0);
        let n = self.segments.len();
        let start = (hint as usize) % n;
        for i in 0..n {
            let seg = &self.segments[(start + i) % n];
            if let Some(guard) = seg.lock.try_acquire() {
                self.seg_trips.add(1);
                let got = self.take_first_fit(seg, &guard, count);
                drop(guard);
                if let Ok(Some(b)) = got {
                    return Some(self.block_ptr(b));
                }
            }
        }
        None
    }

    /// Segment owning the block at `p` (placement diagnostics and the
    /// file layer's per-thread affinity hint).
    pub fn seg_of_ptr(&self, p: PPtr) -> usize {
        self.seg_of_block(self.ptr_block(p))
    }

    /// Claims up to `want` blocks starting **exactly** at block index `b`:
    /// the tail-extension entry point of the append path (§4.3). The file
    /// layer asks for the blocks physically following a file's tail extent
    /// so the extent map grows in place instead of gaining an entry.
    /// Returns the number of blocks claimed (0 when `b` is taken or its
    /// segment is busy), clamped to the free run containing `b` and to the
    /// owning segment. At most one segment-lock round trip.
    pub fn extend_at(&self, b: u64, want: u64) -> u64 {
        debug_assert!(want > 0);
        if b >= self.nblocks {
            return 0;
        }
        let seg = &self.segments[self.seg_of_block(b)];
        let Some(guard) = seg.lock.try_acquire() else {
            // Busy segment: the caller falls back to the general allocator
            // rather than stalling the append on a neighbour's work.
            return 0;
        };
        self.seg_trips.add(1);
        let free_ptr = seg.free.get();
        // Decide: read-only scan, no exclusive borrow across validation.
        let (idx, start, len) = {
            // SAFETY: lock held.
            let free = unsafe { &*free_ptr };
            let idx = match free.partition_point(|&(s, _)| s <= b).checked_sub(1) {
                Some(i) => i,
                None => {
                    drop(guard);
                    return 0;
                }
            };
            let (start, len) = free[idx];
            if b >= start + len {
                drop(guard);
                return 0;
            }
            (idx, start, len)
        };
        let got = want.min(start + len - b);
        self.test_stall();
        if !guard.still_owned() {
            // Stolen mid-section: the run we decided on is the thief's now.
            // The append path simply falls back to the general allocator,
            // like any other failed extension.
            drop(guard);
            return 0;
        }
        // Under a shared mount the bitmap arbitrates; a conflict means a
        // peer claimed part of the run our stale list shows free. Carve the
        // conflicting block out locally (so retries converge) and fall back
        // to the general allocator.
        if let Some(bits) = self.shared.get() {
            if let Err(conflict) = bits.claim(b, got) {
                // SAFETY: lock held (ownership re-validated above).
                let free = unsafe { &mut *free_ptr };
                Self::carve_run(free, idx, start, len, conflict, 1);
                seg.free_blocks.fetch_sub(1, Ordering::Relaxed);
                drop(guard);
                return 0;
            }
        }
        // Carve `[b, b+got)` out of the run.
        // SAFETY: lock held (ownership re-validated above).
        let free = unsafe { &mut *free_ptr };
        Self::carve_run(free, idx, start, len, b, got);
        seg.free_blocks.fetch_sub(got, Ordering::Relaxed);
        drop(guard);
        got
    }

    /// Counts `n` claimed blocks into the parked gauge: an open file holds
    /// them after its tail, and no extent references them yet.
    pub fn note_parked(&self, n: u64) {
        self.parked.add(n);
    }

    /// Takes `n` parked blocks out of the gauge as a file's map spends them.
    pub fn note_spent(&self, n: u64) {
        self.parked.sub(n);
    }

    /// Returns a parked run of `n` blocks at block index `b` to the free
    /// lists.
    pub fn free_parked(&self, b: u64, n: u64) {
        self.parked.sub(n);
        self.free(self.block_ptr(b), n);
    }

    /// Blocks parked in open files' append reservations: claimed (bitmap
    /// set, carved out of the free lists) but referenced by no extent yet.
    /// The `FragStats` "reserved-but-idle" gauge; exact when quiescent.
    pub fn reserved_idle_blocks(&self) -> u64 {
        self.parked.load(Ordering::Relaxed)
    }

    /// Fragmentation-pressure events so far (see the field doc).
    pub fn frag_pressure(&self) -> u64 {
        self.frag_pressure.load(Ordering::Relaxed)
    }

    /// Frees `count` blocks starting at `p` back to their owning segment,
    /// coalescing with neighbours.
    pub fn free(&self, p: PPtr, count: u64) {
        debug_assert!(count > 0);
        let b = self.ptr_block(p);
        let seg = &self.segments[self.seg_of_block(b)];
        loop {
            let (guard, how) = seg.lock.acquire(self.max_hold);
            self.seg_trips.add(1);
            if how == Acquired::Stolen {
                self.repair(seg);
            }
            let free_ptr = seg.free.get();
            // Decide the coalesce plan under a shared view only.
            let (idx, merged_prev, merged_next) = {
                // SAFETY: lock held.
                let free = unsafe { &*free_ptr };
                let idx = free.partition_point(|&(s, _)| s < b);
                // Coalesce with predecessor and/or successor.
                let merged_prev = idx > 0 && free[idx - 1].0 + free[idx - 1].1 == b;
                let merged_next = idx < free.len() && b + count == free[idx].0;
                (idx, merged_prev, merged_next)
            };
            self.test_stall();
            if !guard.still_owned() {
                // Stolen mid-section: `idx` and the merge plan describe a
                // list the thief may have rewritten. Retry from scratch.
                drop(guard);
                continue;
            }
            // SAFETY: lock held (ownership re-validated above).
            let free = unsafe { &mut *free_ptr };
            match (merged_prev, merged_next) {
                (true, true) => {
                    free[idx - 1].1 += count + free[idx].1;
                    free.remove(idx);
                }
                (true, false) => free[idx - 1].1 += count,
                (false, true) => {
                    free[idx].0 = b;
                    free[idx].1 += count;
                }
                (false, false) => free.insert(idx, (b, count)),
            }
            seg.free_blocks.fetch_add(count, Ordering::Relaxed);
            // Release the cross-process claims only *after* the local insert
            // landed. Clearing first opened a window where a peer claimed
            // the blocks and our insert then listed them free anyway — the
            // counter double-counted (`free_blocks()` above
            // `capacity − used-bitmap popcount`) until some later conflict
            // carved the run back out. Clear-last keeps the drift direction
            // safe: a block is never bitmap-free before the freeing
            // instance's list owns it.
            if let Some(bits) = self.shared.get() {
                bits.clear(b, count);
            }
            drop(guard);
            return;
        }
    }

    /// First-fit take under `guard`. `Err(LockLost)` means the guard lost
    /// ownership to a steal before the publish point: nothing was taken and
    /// the caller must retry under a fresh acquisition. The re-validation
    /// narrows the live-holder race to the publishing stores themselves;
    /// the thief's [`repair`](Self::repair) pass covers that residue.
    fn take_first_fit(
        &self,
        seg: &Segment,
        guard: &TsGuard<'_>,
        count: u64,
    ) -> Result<Option<u64>, LockLost> {
        let free_ptr = seg.free.get();
        loop {
            // Decide: read-only scan, no exclusive borrow held across the
            // validation window.
            let (idx, start, len) = {
                // SAFETY: caller holds seg.lock.
                let free = unsafe { &*free_ptr };
                let Some(idx) = free.iter().position(|&(_, len)| len >= count) else {
                    return Ok(None);
                };
                let (start, len) = free[idx];
                (idx, start, len)
            };
            self.test_stall();
            if !guard.still_owned() {
                return Err(LockLost);
            }
            // Under a shared mount, the bitmap is the cross-process arbiter:
            // claim there before touching the local list. A conflict means a
            // peer owns a block our list still shows free — carve just that
            // block out (lock held, so the mutation is safe) and rescan.
            if let Some(bits) = self.shared.get() {
                if let Err(conflict) = bits.claim(start, count) {
                    // SAFETY: caller holds seg.lock (re-validated above).
                    let free = unsafe { &mut *free_ptr };
                    Self::carve_run(free, idx, start, len, conflict, 1);
                    seg.free_blocks.fetch_sub(1, Ordering::Relaxed);
                    continue;
                }
            }
            // Publish: ownership just re-validated, so no thief is editing.
            // SAFETY: caller holds seg.lock (re-validated above).
            let free = unsafe { &mut *free_ptr };
            if len == count {
                free.remove(idx);
            } else {
                free[idx] = (start + count, len - count);
            }
            seg.free_blocks.fetch_sub(count, Ordering::Relaxed);
            return Ok(Some(start));
        }
    }

    /// Removes `[at, at + take)` from the run `(start, len)` stored at
    /// `free[idx]`, splitting when the cut is interior. Caller holds the
    /// segment lock and guarantees the cut lies inside the run.
    fn carve_run(free: &mut Vec<(u64, u64)>, idx: usize, start: u64, len: u64, at: u64, take: u64) {
        let head = at - start;
        let tail = (start + len) - (at + take);
        match (head > 0, tail > 0) {
            (false, false) => {
                free.remove(idx);
            }
            (false, true) => free[idx] = (at + take, tail),
            (true, false) => free[idx] = (start, head),
            (true, true) => {
                free[idx] = (start, head);
                free.insert(idx + 1, (at + take, tail));
            }
        }
    }

    /// Repairs a segment free list after a stolen lock: re-sorts and merges
    /// overlapping runs so a half-completed update cannot double-allocate.
    fn repair(&self, seg: &Segment) {
        // SAFETY: caller holds seg.lock.
        let free = unsafe { &mut *seg.free.get() };
        free.sort_unstable();
        let mut repaired: Vec<(u64, u64)> = Vec::with_capacity(free.len());
        for &(s, l) in free.iter() {
            if let Some(last) = repaired.last_mut() {
                if s <= last.0 + last.1 {
                    let end = (s + l).max(last.0 + last.1);
                    last.1 = end - last.0;
                    continue;
                }
            }
            repaired.push((s, l));
        }
        let total: u64 = repaired.iter().map(|&(_, l)| l).sum();
        *free = repaired;
        seg.free_blocks.store(total, Ordering::Relaxed);
    }

    /// Popcount of the claim bitmap over the managed block range (slack
    /// bits past `nblocks` stay permanently set and are masked out), or
    /// `None` for an exclusive mount with no bitmap armed.
    pub fn shared_used_blocks(&self) -> Option<u64> {
        let bits = self.shared.get()?;
        let mut used = 0u64;
        let full_words = self.nblocks / 64;
        for w in 0..full_words {
            used += bits.word(w).load(Ordering::Acquire).count_ones() as u64;
        }
        let rem = self.nblocks % 64;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            used += (bits.word(full_words).load(Ordering::Acquire) & mask).count_ones() as u64;
        }
        Some(used)
    }

    /// Resynchronizes the local free lists with the shared claim bitmap at
    /// a quiescent point (fsck, post-recovery): each segment's list is
    /// rebuilt from the bitmap, dropping runs a peer has claimed out from
    /// under our stale view and adopting blocks peers freed since our
    /// attach snapshot. Returns `(dropped, adopted)` block counts. After
    /// it, `free_blocks() == capacity − used-bitmap popcount` holds — the
    /// fsck invariant. No-op (0, 0) for exclusive mounts.
    pub fn reconcile_shared(&self) -> (u64, u64) {
        let Some(bits) = self.shared.get() else {
            return (0, 0);
        };
        let (mut dropped, mut adopted) = (0u64, 0u64);
        for (s, seg) in self.segments.iter().enumerate() {
            let first = s as u64 * self.blocks_per_seg;
            let last = ((s as u64 + 1) * self.blocks_per_seg).min(self.nblocks);
            let (guard, how) = seg.lock.acquire(self.max_hold);
            if how == Acquired::Stolen {
                self.repair(seg);
            }
            let before = seg.free_blocks.load(Ordering::Relaxed);
            let mut rebuilt = Vec::new();
            let mut total = 0u64;
            let mut run_start = None;
            for b in first..last {
                if bits.used(b) {
                    if let Some(rs) = run_start.take() {
                        rebuilt.push((rs, b - rs));
                        total += b - rs;
                    }
                } else if run_start.is_none() {
                    run_start = Some(b);
                }
            }
            if let Some(rs) = run_start {
                rebuilt.push((rs, last - rs));
                total += last - rs;
            }
            // SAFETY: lock held.
            let free = unsafe { &mut *seg.free.get() };
            *free = rebuilt;
            seg.free_blocks.store(total, Ordering::Relaxed);
            if total < before {
                dropped += before - total;
            } else {
                adopted += total - before;
            }
            drop(guard);
        }
        (dropped, adopted)
    }

    /// Per-segment fragmentation snapshot: `(free runs, largest free run)`
    /// for each segment — the `FragStats` raw material. Takes each segment
    /// lock briefly; a diagnostics path, not a hot one.
    pub fn frag_snapshot(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.segments.len());
        for seg in self.segments.iter() {
            let (guard, how) = seg.lock.acquire(self.max_hold);
            if how == Acquired::Stolen {
                self.repair(seg);
            }
            // SAFETY: lock held.
            let free = unsafe { &*seg.free.get() };
            let runs = free.len() as u64;
            let largest = free.iter().map(|&(_, l)| l).max().unwrap_or(0);
            out.push((runs, largest));
            drop(guard);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extent(bytes: u64) -> Extent {
        Extent { start: PPtr::new(1 << 16), len: bytes }
    }

    fn alloc_with(bytes: u64, nsegs: usize) -> BlockAlloc {
        BlockAlloc::new(extent(bytes), nsegs)
    }

    #[test]
    fn capacity_accounts_alignment() {
        let a = alloc_with(40 * 4096, 4);
        assert_eq!(a.capacity_blocks(), 40);
        assert_eq!(a.free_blocks(), 40);
        assert_eq!(a.segments(), 4);
    }

    #[test]
    fn alloc_free_roundtrip() {
        let a = alloc_with(64 * 4096, 2);
        let p = a.alloc(0, 4).unwrap();
        assert!(p.is_aligned(4096));
        assert!(a.contains(p));
        assert_eq!(a.free_blocks(), 60);
        a.free(p, 4);
        assert_eq!(a.free_blocks(), 64);
    }

    #[test]
    fn exhaustion_returns_none() {
        let a = alloc_with(8 * 4096, 2);
        let mut got = Vec::new();
        while let Some(p) = a.alloc(0, 1) {
            got.push(p);
        }
        assert_eq!(got.len(), 8);
        assert_eq!(a.free_blocks(), 0);
        assert!(a.alloc(0, 1).is_none());
        for p in got {
            a.free(p, 1);
        }
        assert_eq!(a.free_blocks(), 8);
    }

    #[test]
    fn contiguous_requests_respect_fragmentation() {
        // One segment so we control the layout precisely.
        let a = alloc_with(8 * 4096, 1);
        let p0 = a.alloc(0, 3).unwrap();
        let _p1 = a.alloc(0, 3).unwrap();
        a.free(p0, 3);
        // 3 free at the front, 2 free at the back: a 4-block request must fail.
        assert_eq!(a.free_blocks(), 5);
        assert!(a.alloc(0, 4).is_none());
        assert!(a.alloc(0, 3).is_some());
    }

    #[test]
    fn coalescing_merges_all_neighbours() {
        let a = alloc_with(6 * 4096, 1);
        let p = a.alloc(0, 6).unwrap();
        let b = a.ptr_block(p);
        // Free middle, then left, then right: ends fully merged.
        a.free(a.block_ptr(b + 2), 2);
        a.free(a.block_ptr(b), 2);
        a.free(a.block_ptr(b + 4), 2);
        assert_eq!(a.free_blocks(), 6);
        assert!(a.alloc(0, 6).is_some(), "coalesced back to one run");
    }

    #[test]
    fn rebuild_skips_used_blocks() {
        let a = BlockAlloc::rebuild(extent(16 * 4096), 2, |b| b % 2 == 0);
        assert_eq!(a.free_blocks(), 8);
        // Only single blocks available (every other block used).
        assert!(a.alloc(0, 2).is_none());
        assert!(a.alloc(0, 1).is_some());
    }

    #[test]
    fn extend_at_claims_the_physically_next_blocks() {
        let a = alloc_with(32 * 4096, 1);
        let p = a.alloc(0, 4).unwrap();
        let next = a.ptr_block(p) + 4;
        // The run after the allocation is free: a tail extension succeeds
        // and hands out exactly the requested position.
        assert_eq!(a.extend_at(next, 2), 2);
        assert_eq!(a.ptr_block(a.alloc(0, 1).unwrap()), next + 2, "carved in place");
        a.free(a.block_ptr(next), 2);
        assert_eq!(a.free_blocks(), 32 - 4 - 1);
    }

    #[test]
    fn extend_at_is_clamped_and_fails_when_taken() {
        let a = alloc_with(16 * 4096, 1);
        let p0 = a.alloc(0, 2).unwrap();
        let b0 = a.ptr_block(p0);
        // Occupy the block right after a 3-block gap: [p0 p0 gap gap gap X ...]
        let gap_end = b0 + 5;
        assert_eq!(a.extend_at(gap_end, 1), 1);
        // Extending past the 3-block gap is clamped to the gap.
        assert_eq!(a.extend_at(b0 + 2, 8), 3);
        // The gap is now taken: extending into it fails outright.
        assert_eq!(a.extend_at(b0 + 2, 1), 0);
        assert_eq!(a.extend_at(b0, 1), 0, "allocated blocks are never handed out");
        // Out-of-range positions fail cleanly.
        assert_eq!(a.extend_at(1 << 40, 1), 0);
    }

    #[test]
    fn pressure_returns_parked_runs_through_the_reclaim_hook() {
        // A run an open file parks after its tail is invisible to the free
        // lists. When the opportunistic pass finds nothing, the hook must
        // hand it back before the blocking pass, so allocation fails only
        // when space is truly out.
        let a = alloc_with(16 * 4096, 1);
        let p = a.alloc(0, 1).unwrap(); // [0, 1)
        let run = a.ptr_block(p) + 1;
        assert_eq!(a.extend_at(run, 8), 8); // [1, 9), parked
        a.note_parked(8);
        let parked = std::sync::Mutex::new(Some(run));
        a.set_reclaim_hook(move |a| {
            if let Some(b) = parked.lock().unwrap().take() {
                a.free_parked(b, 8);
            }
        });
        assert_eq!(a.free_blocks(), 7, "free list only sees [9, 16)");
        assert_eq!(a.reserved_idle_blocks(), 8);
        assert!(a.try_alloc(0, 14).is_none(), "the opportunistic pass leaves parks alone");
        assert_eq!(a.reserved_idle_blocks(), 8);
        // 14 contiguous blocks only exist if the park [1, 9) comes back.
        let p = a.alloc(0, 14).expect("pressure returns the parked run");
        assert_eq!(a.ptr_block(p), 1);
        assert_eq!(a.reserved_idle_blocks(), 0);
        assert_eq!(a.frag_pressure(), 1, "capacity was there, just parked");
    }

    #[test]
    fn hint_spreads_across_segments() {
        let a = alloc_with(400 * 4096, 4);
        let p0 = a.alloc(0, 1).unwrap();
        let p1 = a.alloc(1, 1).unwrap();
        let p2 = a.alloc(2, 1).unwrap();
        let s0 = a.seg_of_block(a.ptr_block(p0));
        let s1 = a.seg_of_block(a.ptr_block(p1));
        let s2 = a.seg_of_block(a.ptr_block(p2));
        assert!(s0 != s1 || s1 != s2, "different hints land in different segments");
    }

    #[test]
    fn concurrent_alloc_free_is_consistent() {
        let a = std::sync::Arc::new(alloc_with(512 * 4096, 4));
        crossbeam::thread::scope(|s| {
            for t in 0..4u64 {
                let a = &a;
                s.spawn(move |_| {
                    let mut held = Vec::new();
                    for i in 0..200 {
                        if let Some(p) = a.alloc(t * 7 + i, 1) {
                            held.push(p);
                        }
                        if i % 3 == 0 {
                            if let Some(p) = held.pop() {
                                a.free(p, 1);
                            }
                        }
                    }
                    for p in held {
                        a.free(p, 1);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(a.free_blocks(), 512);
        // All blocks coalesce back: one full-range allocation succeeds.
        assert!(a.alloc(0, 128).is_some());
    }

    #[test]
    fn live_but_slow_holder_does_not_double_allocate() {
        // Regression (lock steal vs. live holder): a holder that stalls
        // mid-critical-section past `max_hold` loses its lock to a waiter.
        // Before the `still_owned` re-validation, the slow holder would
        // wake and publish its stale decision — handing out the same block
        // the thief just took and corrupting the segment count.
        let mut a = alloc_with(16 * 4096, 1);
        a.max_hold = Duration::from_millis(5);
        let a = std::sync::Arc::new(a);
        a.stall_us.store(200_000, Ordering::Relaxed); // next section parks 200 ms
        crossbeam::thread::scope(|s| {
            let slow = s.spawn(|_| a.alloc(0, 1));
            // Let the slow holder enter its critical section and park, then
            // come in as the thief: acquire() sees a holder older than
            // max_hold, steals, repairs, and allocates.
            std::thread::sleep(Duration::from_millis(40));
            let thief = a.alloc(0, 1).expect("thief allocates");
            let victim = slow.join().unwrap().expect("slow holder retries and allocates");
            assert_ne!(victim.off(), thief.off(), "double allocation after steal");
        })
        .unwrap();
        assert_eq!(a.free_blocks(), 14, "segment count corrupted");
        // And the count is real: exactly 14 more single blocks fit.
        let mut got = 0;
        while a.alloc(0, 1).is_some() {
            got += 1;
        }
        assert_eq!(got, 14);
    }

    fn shared_pair(
        bytes: u64,
        nsegs: usize,
    ) -> (Arc<PmemRegion>, BlockAlloc, BlockAlloc) {
        let r = Arc::new(PmemRegion::new(64 * 1024));
        let base = PPtr::new(4096);
        let words = 64; // covers up to 4096 blocks, plenty for these tests
        let a = BlockAlloc::new(extent(bytes), nsegs);
        a.publish_shared(r.clone(), base, words);
        let b = BlockAlloc::attach(extent(bytes), nsegs, r.clone(), base, words);
        (r, a, b)
    }

    #[test]
    fn shared_bitmap_arbitrates_two_instances() {
        // Two allocator instances (two "processes") with identical, fully
        // free local lists over the same claim bitmap: every block is
        // granted exactly once across both.
        let (_r, a, b) = shared_pair(64 * 4096, 2);
        assert_eq!(b.free_blocks(), 64, "attach sees the published view");
        let mut seen = std::collections::HashSet::new();
        let (mut hint, mut from_a, mut from_b) = (0, 0, 0);
        loop {
            let pa = a.alloc(hint, 1);
            let pb = b.alloc(hint, 1);
            hint += 1;
            if pa.is_none() && pb.is_none() {
                break;
            }
            if let Some(p) = pa {
                assert!(seen.insert(p.off()), "double grant at {p}");
                from_a += 1;
            }
            if let Some(p) = pb {
                assert!(seen.insert(p.off()), "double grant at {p}");
                from_b += 1;
            }
        }
        assert_eq!(seen.len(), 64, "exactly capacity granted in total");
        assert!(from_a > 0 && from_b > 0, "both instances got blocks");
    }

    #[test]
    fn peer_claims_defeat_stale_extend_at() {
        let (_r, a, b) = shared_pair(16 * 4096, 1);
        // B claims the first 4 blocks; A's local list still shows them free.
        let pb = b.alloc(0, 4).unwrap();
        let first = b.ptr_block(pb);
        // A's tail-extension into the claimed range must fail cleanly...
        assert_eq!(a.extend_at(first, 2), 0);
        // ...and A's general allocations never overlap B's claim.
        let mut got = Vec::new();
        while let Some(p) = a.alloc(0, 1) {
            let blk = a.ptr_block(p);
            assert!(!(first..first + 4).contains(&blk), "A granted B's block {blk}");
            got.push(p);
        }
        assert_eq!(got.len(), 12, "A gets exactly the unclaimed remainder");
    }

    #[test]
    fn fsck_invariant_free_blocks_matches_bitmap_popcount() {
        // Regression: an attacher's snapshot view drifts as peers allocate
        // and free — `free_blocks()` double-counts blocks a peer claimed
        // out from under the stale list. The fsck invariant is
        // `free_blocks() == capacity − used-bitmap popcount`, restored at
        // any quiescent point by `reconcile_shared`.
        let (_r, a, b) = shared_pair(64 * 4096, 2);
        let pa = a.alloc(0, 4).unwrap();
        assert_eq!(a.shared_used_blocks(), Some(4));
        // A is consistent; B's stale list still counts A's blocks as free.
        assert_eq!(a.free_blocks(), a.capacity_blocks() - 4);
        assert_eq!(b.free_blocks(), 64, "B double-counts A's claim");
        let (dropped, adopted) = b.reconcile_shared();
        assert_eq!((dropped, adopted), (4, 0));
        assert_eq!(b.free_blocks(), b.capacity_blocks() - b.shared_used_blocks().unwrap());
        // The drift also runs the other way: A frees two blocks, which B's
        // (now exact) view is missing until the next reconcile.
        a.free(pa, 2);
        assert_eq!(a.free_blocks(), a.capacity_blocks() - a.shared_used_blocks().unwrap());
        let (dropped, adopted) = b.reconcile_shared();
        assert_eq!((dropped, adopted), (0, 2));
        assert_eq!(b.free_blocks(), b.capacity_blocks() - b.shared_used_blocks().unwrap());
    }

    #[test]
    fn freed_blocks_return_to_the_shared_pool() {
        let (r, a, _b) = shared_pair(32 * 4096, 1);
        let p = a.alloc(0, 32).unwrap();
        a.free(p, 32);
        // A fresh attach (cold cache, media only) sees everything free again.
        let c = BlockAlloc::attach(extent(32 * 4096), 1, r, PPtr::new(4096), 64);
        assert_eq!(c.free_blocks(), 32);
        assert!(c.alloc(0, 32).is_some());
    }

    #[test]
    fn shared_instances_stay_disjoint_under_contention() {
        let (_r, a, b) = shared_pair(256 * 4096, 4);
        let pair = [a, b];
        let seen = std::sync::Arc::new(parking_lot::Mutex::new(std::collections::HashSet::new()));
        crossbeam::thread::scope(|s| {
            for t in 0..4u64 {
                let alloc = &pair[(t % 2) as usize];
                let seen = &seen;
                s.spawn(move |_| {
                    for i in 0..50 {
                        if let Some(p) = alloc.alloc(t + i, 1) {
                            assert!(seen.lock().insert(p.off()), "cross-process double grant");
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(seen.lock().len(), 200);
    }

    #[test]
    fn no_double_allocation_under_contention() {
        let a = std::sync::Arc::new(alloc_with(256 * 4096, 4));
        let seen = std::sync::Arc::new(parking_lot::Mutex::new(std::collections::HashSet::new()));
        crossbeam::thread::scope(|s| {
            for t in 0..4u64 {
                let a = &a;
                let seen = &seen;
                s.spawn(move |_| {
                    for i in 0..60 {
                        if let Some(p) = a.alloc(t + i, 1) {
                            assert!(seen.lock().insert(p.off()), "double allocation at {p}");
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(seen.lock().len(), 240);
    }
}
