//! The metadata-object slab allocator (§4.2 "Data structure allocator").
//!
//! Fixed-size pools of inodes, file entries and directory blocks, modelled
//! on the Linux slab allocator. The volatile side is a lock-free free stack
//! per pool; the persistent side is the object header's atomic
//! valid/dirty bits:
//!
//! * **alloc**: pop a candidate, claim it by CAS-ing the zero header to
//!   `valid|dirty|tag`, persist. Losing the CAS just means another process
//!   raced us — pop the next candidate.
//! * **free**: clear `valid` (keeping `dirty`), persist; zero the body,
//!   persist; clear the header entirely, persist; push. A crash anywhere in
//!   this sequence leaves a state the recovery scan maps to a unique action.
//!
//! Pools grow on demand by carving new segments from the block allocator
//! and recording them in the superblock, so recovery always knows where
//! objects live.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::queue::SegQueue;
use parking_lot::Mutex;
use simurgh_fsapi::{FsError, FsResult};
use simurgh_pmem::stats::Counter;
use simurgh_pmem::{PPtr, PmemRegion};

use super::blocks::BlockAlloc;
use super::AllocFaults;
use crate::obj::{H_DIRTY, H_VALID};
use crate::super_block::{PoolKind, PoolSeg, Superblock};
use crate::BLOCK_SIZE;

/// Blocks carved from the data area by the first pool-growth step; each
/// further segment doubles (capped), keeping growth O(log n) superblock
/// records for arbitrarily large file populations.
const GROW_BLOCKS: u64 = 64; // 256 KB
const GROW_CAP_BLOCKS: u64 = 1 << 18; // 1 GB

/// Slots pre-claimed from the shared pool per thread-cache refill. One
/// refill amortizes one pool round trip (and, with flush-then-fence
/// batching, one sfence) over `REFILL_SLOTS` allocations.
const REFILL_SLOTS: usize = 8;

/// Distinguishes allocator instances across remounts: thread-local caches
/// are keyed by instance id so a cache filled against a previous mount of
/// the same region can never leak stale claims into a new one.
static NEXT_ALLOC_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's refill batches: pre-claimed object offsets keyed by
/// `(allocator id, pool kind)`.
type RefillCache = Vec<((u64, u8), Vec<u64>)>;

thread_local! {
    /// Per-thread refill caches: pre-claimed (header already `valid|dirty`,
    /// persisted) object offsets, keyed by (allocator id, pool kind). The
    /// cache is volatile: slots a thread never hands out are exactly the
    /// "allocated but unreachable" state the mark-and-sweep recovery frees,
    /// so a kill-9 (or just a dropped mount) leaks nothing durable.
    static REFILL: RefCell<RefillCache> = const { RefCell::new(Vec::new()) };
}

/// The slab allocator. One instance is shared by all processes of a mount.
pub struct MetaAllocator {
    /// Instance id keying the per-thread refill caches (see [`REFILL`]).
    id: u64,
    region: Arc<PmemRegion>,
    blocks: Arc<BlockAlloc>,
    free: [SegQueue<u64>; 3],
    grow_lock: Mutex<()>,
    /// Resource-fault injector shared with the data path (see
    /// [`AllocFaults`]); disarmed by default.
    faults: Arc<AllocFaults>,
    /// Round trips to the shared free stacks / grow path (the contended
    /// structures): one per [`refill`](Self::refill), not per alloc, so the
    /// group-commit tests can assert the k-fold amortization directly.
    pool_trips: Counter,
}

impl MetaAllocator {
    /// An allocator with empty free stacks; populate with
    /// [`adopt_free`](Self::adopt_free) (mount) or let it grow on demand.
    pub fn new(region: Arc<PmemRegion>, blocks: Arc<BlockAlloc>) -> Self {
        MetaAllocator {
            id: NEXT_ALLOC_ID.fetch_add(1, Ordering::Relaxed),
            region,
            blocks,
            free: [SegQueue::new(), SegQueue::new(), SegQueue::new()],
            grow_lock: Mutex::new(()),
            faults: Arc::new(AllocFaults::default()),
            pool_trips: Counter::new(),
        }
    }

    /// Shared-pool round trips so far (diagnostics / perf assertions).
    pub fn pool_trips(&self) -> u64 {
        self.pool_trips.load(Ordering::Relaxed)
    }

    /// The mount's shared resource-fault injector.
    pub fn faults(&self) -> &Arc<AllocFaults> {
        &self.faults
    }

    /// Registers an already-zeroed free object (mount-time rebuild).
    pub fn adopt_free(&self, kind: PoolKind, obj: PPtr) {
        self.free[kind as usize].push(obj.off());
    }

    /// Number of free objects of `kind` currently stacked (diagnostics).
    pub fn free_count(&self, kind: PoolKind) -> usize {
        self.free[kind as usize].len()
    }

    /// Allocates one object: returns it with `valid|dirty` set and the body
    /// zeroed. The caller initializes fields, links the object, and finally
    /// clears the dirty bit.
    ///
    /// The fast path pops a pre-claimed slot from this thread's refill
    /// cache — no shared-stack traffic, no header CAS, no persist. A miss
    /// claims a batch of [`REFILL_SLOTS`] in one pool round trip
    /// ([`refill`](Self::refill)) and caches the surplus.
    pub fn alloc(&self, kind: PoolKind) -> FsResult<PPtr> {
        self.faults.check("meta-alloc")?;
        let key = (self.id, kind as u8);
        let cached = REFILL.with(|c| {
            let mut c = c.borrow_mut();
            c.iter_mut().find(|(k, _)| *k == key).and_then(|(_, batch)| batch.pop())
        });
        if let Some(off) = cached {
            return Ok(PPtr::new(off));
        }
        let mut batch = self.refill(kind)?;
        let obj = PPtr::new(batch.pop().expect("refill returns at least one slot"));
        if !batch.is_empty() {
            REFILL.with(|c| {
                let mut c = c.borrow_mut();
                match c.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, slots)) => slots.extend_from_slice(&batch),
                    None => c.push((key, batch)),
                }
            });
        }
        Ok(obj)
    }

    /// Claims up to [`REFILL_SLOTS`] objects from the shared pool in one
    /// round trip: each winning header CAS is noted and flushed, then one
    /// ordering point arms the whole batch (a single sfence eagerly; elided
    /// inside a [`FenceScope`](simurgh_pmem::FenceScope), whose close or
    /// commit covers it). A crash before that fence leaves the claims
    /// volatile — the objects are still free after the remount scan; a crash
    /// after it leaves claimed-but-unreachable objects, exactly the
    /// `valid|dirty` state the mark-and-sweep recovery frees. Either way the
    /// cache itself is never trusted across a crash.
    fn refill(&self, kind: PoolKind) -> FsResult<Vec<u64>> {
        let claim = H_VALID | H_DIRTY | kind.tag().bits();
        loop {
            self.pool_trips.add(1);
            let mut got = Vec::with_capacity(REFILL_SLOTS);
            while got.len() < REFILL_SLOTS {
                let Some(off) = self.free[kind as usize].pop() else { break };
                let obj = PPtr::new(off);
                let header = self.region.atomic_u64(obj);
                if header.compare_exchange(0, claim, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                    self.region.note_atomic(obj, 8);
                    self.region.flush(obj, 8);
                    got.push(off);
                }
                // A lost CAS means another process claimed this object
                // through a stale stack entry; try the next candidate.
            }
            if !got.is_empty() {
                self.region.fence();
                return Ok(got);
            }
            // Never grow while holding claims: a short stack just yields a
            // short batch, so the pool only grows when it is truly empty.
            self.grow(kind)?;
        }
    }

    /// Returns every pre-claimed slot in the calling thread's refill cache
    /// to the shared pools, un-claiming the headers (the bodies were never
    /// touched, so a zeroed header makes them free again). The quiesce path
    /// for orderly handoffs; a crashed thread's cache is reclaimed by the
    /// mark-and-sweep recovery instead.
    pub fn drain_thread_cache(&self) {
        let mut any = false;
        for kind in [PoolKind::Inode, PoolKind::FileEntry, PoolKind::DirBlock] {
            let key = (self.id, kind as u8);
            let batch = REFILL.with(|c| {
                let mut c = c.borrow_mut();
                c.iter().position(|(k, _)| *k == key).map(|i| c.remove(i).1)
            });
            let Some(batch) = batch else { continue };
            for off in batch {
                let obj = PPtr::new(off);
                self.region.atomic_u64(obj).store(0, Ordering::Release);
                self.region.note_atomic(obj, 8);
                self.region.flush(obj, 8);
                self.free[kind as usize].push(off);
                any = true;
            }
        }
        if any {
            self.region.fence();
        }
    }

    /// Pre-claimed slots of `kind` sitting in the calling thread's refill
    /// cache (diagnostics / tests).
    pub fn thread_cached(&self, kind: PoolKind) -> usize {
        let key = (self.id, kind as u8);
        REFILL.with(|c| {
            c.borrow().iter().find(|(k, _)| *k == key).map_or(0, |(_, batch)| batch.len())
        })
    }

    /// Frees an object following the paper's unset-valid → zero → unset-dirty
    /// order. Accepts objects in any live or half-freed state (recovery
    /// reuses this to finish interrupted frees).
    pub fn free(&self, kind: PoolKind, obj: PPtr) {
        self.free_no_recycle(kind, obj);
        self.recycle(kind, obj);
    }

    /// The persistent half of [`free`](Self::free): clears valid, zeroes,
    /// clears dirty — but does **not** make the object allocatable again.
    ///
    /// The delete protocol (Fig. 5b) zeroes the file entry *before* zeroing
    /// the hash-line pointer to it; splitting the free keeps that order
    /// while guaranteeing no other process can re-allocate the object while
    /// a published pointer still references it. Call
    /// [`recycle`](Self::recycle) once the object is unreachable.
    pub fn free_no_recycle(&self, kind: PoolKind, obj: PPtr) {
        let r = &*self.region;
        let header = r.atomic_u64(obj);
        // Step 1: valid off, dirty on.
        header.store(H_DIRTY | kind.tag().bits(), Ordering::Release);
        r.note_atomic(obj, 8);
        r.persist(obj, 8);
        // Step 2: zero the body.
        let size = kind.obj_size();
        r.zero(obj.add(8), (size - 8) as usize);
        r.persist(obj.add(8), (size - 8) as usize);
        // Step 3: header fully clear — the object is now allocatable.
        header.store(0, Ordering::Release);
        r.note_atomic(obj, 8);
        r.persist(obj, 8);
    }

    /// Makes a fully-freed object allocatable again (volatile push).
    pub fn recycle(&self, kind: PoolKind, obj: PPtr) {
        self.free[kind as usize].push(obj.off());
    }

    /// Grows a pool by one segment carved from the block allocator and
    /// records it in the superblock.
    fn grow(&self, kind: PoolKind) -> FsResult<()> {
        let _g = self.grow_lock.lock();
        if !self.free[kind as usize].is_empty() {
            return Ok(()); // another process grew the pool while we waited
        }
        let existing = Superblock::pool_segs(&self.region, kind).len() as u32;
        let mut grow_blocks = (GROW_BLOCKS << existing.min(14)).min(GROW_CAP_BLOCKS);
        let seg_ptr = loop {
            match self.blocks.alloc(kind as u64, grow_blocks) {
                Some(p) => break p,
                None if grow_blocks > 1 => grow_blocks /= 2,
                None => return Err(FsError::NoSpace),
            }
        };
        let bytes = grow_blocks * BLOCK_SIZE as u64;
        let count = bytes / kind.obj_size();
        self.region.zero(seg_ptr, bytes as usize);
        self.region.persist(seg_ptr, bytes as usize);
        if !Superblock::add_pool_seg(&self.region, kind, PoolSeg { start: seg_ptr.off(), count }) {
            // Pool table full: hand the blocks back and report no space.
            self.blocks.free(seg_ptr, grow_blocks);
            return Err(FsError::NoSpace);
        }
        for i in 0..count {
            self.free[kind as usize].push(seg_ptr.off() + i * kind.obj_size());
        }
        Ok(())
    }

    /// Attach path of a shared mount: refills the volatile free stacks from
    /// a header scan of every recorded pool segment — media only, never a
    /// peer's DRAM. The snapshot can race a live peer's alloc/free, but the
    /// persistent header CAS in [`alloc`](Self::alloc) arbitrates: a stale
    /// stack entry whose header is no longer zero simply loses and the next
    /// candidate is tried.
    pub fn adopt_from_scan(&self) {
        for kind in [PoolKind::Inode, PoolKind::FileEntry, PoolKind::DirBlock] {
            Self::for_each_slot(&self.region, kind, |obj| {
                if self.region.atomic_u64(obj).load(Ordering::Acquire) == 0 {
                    self.adopt_free(kind, obj);
                }
            });
        }
    }

    /// Iterates every object slot of every recorded segment of `kind`,
    /// calling `f(obj)`. Used by the recovery scan.
    pub fn for_each_slot(region: &PmemRegion, kind: PoolKind, mut f: impl FnMut(PPtr)) {
        for seg in Superblock::pool_segs(region, kind) {
            for i in 0..seg.count {
                f(PPtr::new(seg.start + i * kind.obj_size()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj::{self, Tag};
    use simurgh_pmem::layout::Extent;

    fn setup(bytes: usize) -> (Arc<PmemRegion>, Arc<BlockAlloc>, MetaAllocator) {
        let region = Arc::new(PmemRegion::new(bytes));
        let data = Extent { start: PPtr::new(4096), len: bytes as u64 - 4096 };
        Superblock::format(&region, PPtr::NULL, data);
        let blocks = Arc::new(BlockAlloc::new(data, 2));
        let meta = MetaAllocator::new(region.clone(), blocks.clone());
        (region, blocks, meta)
    }

    #[test]
    fn alloc_sets_valid_dirty_and_tag() {
        let (region, _, meta) = setup(1 << 20);
        let p = meta.alloc(PoolKind::Inode).unwrap();
        let h = obj::header(&region, p);
        assert!(obj::is_valid(h) && obj::is_dirty(h));
        assert_eq!(Tag::from_header(h), Some(Tag::Inode));
        assert!(p.is_aligned(PoolKind::Inode.obj_size()));
    }

    #[test]
    fn free_returns_object_to_pool_zeroed() {
        let (region, _, meta) = setup(1 << 20);
        let p = meta.alloc(PoolKind::FileEntry).unwrap();
        region.write(p.add(8), 0xdeadbeef_u32);
        meta.free(PoolKind::FileEntry, p);
        assert_eq!(obj::header(&region, p), 0);
        assert_eq!(region.read::<u32>(p.add(8)), 0);
        // The freed object comes back.
        let mut seen = false;
        for _ in 0..10_000 {
            let q = meta.alloc(PoolKind::FileEntry).unwrap();
            if q == p {
                seen = true;
                break;
            }
        }
        assert!(seen, "freed object is reused");
    }

    #[test]
    fn growth_records_segments_in_superblock() {
        let (region, _, meta) = setup(1 << 20);
        assert!(Superblock::pool_segs(&region, PoolKind::DirBlock).is_empty());
        let _ = meta.alloc(PoolKind::DirBlock).unwrap();
        let segs = Superblock::pool_segs(&region, PoolKind::DirBlock);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].count, GROW_BLOCKS * 4096 / 4096);
    }

    #[test]
    fn exhaustion_is_nospace() {
        // Region with a tiny data area: pool growth fails quickly.
        let (_, blocks, meta) = setup(64 * 4096);
        // Drain the block allocator so growth cannot find GROW_BLOCKS.
        let mut held = Vec::new();
        while let Some(p) = blocks.alloc(0, 1) {
            held.push(p);
        }
        assert_eq!(meta.alloc(PoolKind::Inode), Err(FsError::NoSpace));
    }

    #[test]
    fn distinct_objects_under_concurrency() {
        let (_, _, meta) = setup(4 << 20);
        let meta = Arc::new(meta);
        let all = Arc::new(Mutex::new(std::collections::HashSet::new()));
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                let meta = &meta;
                let all = &all;
                s.spawn(move |_| {
                    for _ in 0..300 {
                        let p = meta.alloc(PoolKind::FileEntry).unwrap();
                        assert!(all.lock().insert(p.off()), "double allocation");
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(all.lock().len(), 1200);
    }

    #[test]
    fn for_each_slot_covers_all_segments() {
        let (region, _, meta) = setup(2 << 20);
        // Force at least two segments of inodes.
        let per_seg = GROW_BLOCKS * 4096 / PoolKind::Inode.obj_size();
        for _ in 0..per_seg + 1 {
            meta.alloc(PoolKind::Inode).unwrap();
        }
        let mut n = 0;
        MetaAllocator::for_each_slot(&region, PoolKind::Inode, |_| n += 1);
        // The second segment doubles the first (geometric growth).
        assert_eq!(n as u64, per_seg * 3);
    }

    #[test]
    fn refill_amortizes_pool_trips() {
        let (region, _, meta) = setup(1 << 20);
        // First alloc: one failed pop round + grow + one claiming round.
        let first = meta.alloc(PoolKind::Inode).unwrap();
        let trips_after_first = meta.pool_trips();
        assert_eq!(meta.thread_cached(PoolKind::Inode), REFILL_SLOTS - 1);
        // The rest of the batch comes from the thread cache: zero new trips,
        // and every slot is already claimed (valid|dirty|tag) on media.
        let mut got = vec![first];
        for _ in 0..REFILL_SLOTS - 1 {
            let p = meta.alloc(PoolKind::Inode).unwrap();
            let h = obj::header(&region, p);
            assert!(obj::is_valid(h) && obj::is_dirty(h));
            assert_eq!(Tag::from_header(h), Some(Tag::Inode));
            got.push(p);
        }
        assert_eq!(meta.pool_trips(), trips_after_first, "cache hits take no pool trip");
        assert_eq!(meta.thread_cached(PoolKind::Inode), 0);
        got.sort();
        got.dedup();
        assert_eq!(got.len(), REFILL_SLOTS, "batch slots are distinct");
        // The next alloc refills again: exactly one more trip.
        let _ = meta.alloc(PoolKind::Inode).unwrap();
        assert_eq!(meta.pool_trips(), trips_after_first + 1);
    }

    #[test]
    fn caches_are_instance_scoped() {
        // A second allocator over the same region must never see the first
        // one's cached claims (remount hygiene: ids differ, keys miss).
        let (_, blocks, meta) = setup(1 << 20);
        let _ = meta.alloc(PoolKind::FileEntry).unwrap();
        assert!(meta.thread_cached(PoolKind::FileEntry) > 0);
        let fresh = MetaAllocator::new(meta.region.clone(), blocks);
        assert_eq!(fresh.thread_cached(PoolKind::FileEntry), 0);
    }

    #[test]
    fn adopt_free_feeds_allocations() {
        let (region, blocks, meta) = setup(1 << 20);
        // Simulate mount: hand-carve one "recovered" free object.
        let seg = blocks.alloc(0, 1).unwrap();
        region.zero(seg, 4096);
        Superblock::add_pool_seg(&region, PoolKind::Inode, PoolSeg { start: seg.off(), count: 1 });
        meta.adopt_free(PoolKind::Inode, seg);
        assert_eq!(meta.free_count(PoolKind::Inode), 1);
        let got = meta.alloc(PoolKind::Inode).unwrap();
        assert_eq!(got, seg);
    }
}
