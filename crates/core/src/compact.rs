//! Online compaction: relocating fragmented files into contiguous runs.
//!
//! Aging is where NVMM filesystems lose their flatness claims: after enough
//! create/delete/append/truncate churn the free lists splinter, files
//! accumulate extents, and both the walk-steps-per-op and probes-per-op
//! counters drift up. The compactor walks cold files and rewrites each
//! fragmented map onto one freshly allocated contiguous run, using the
//! paper's recovery philosophy instead of a data journal: data is copied
//! and persisted *before* any pointer can reach it, the map swap itself is
//! guarded by a single-slot **relocation journal** in the superblock's
//! reserved bytes, and unreferenced blocks on either side of a crash are
//! reclaimed by the ordinary mark-and-sweep.
//!
//! # Relocation ordering invariant
//!
//! For every relocation, in persist order:
//!
//! 1. **alloc** the new contiguous run (volatile only — a crash here leaves
//!    it unreferenced, the sweep reclaims it);
//! 2. **copy** the file bytes into the run and persist them;
//! 3. **arm** the journal with the *old* map (inline slots + overflow head)
//!    — payload persisted before the ARMED state word;
//! 4. **swap** the map to the single new extent under one [`FenceScope`],
//!    sealed by an eager `commit()`;
//! 5. **clear** the journal (the new map is now the persistent truth);
//! 6. **free** the old data blocks and overflow-chain blocks.
//!
//! A crash before 4's commit lands on the *old* extents (recovery rolls a
//! torn swap back from the journal); a crash after lands on the *new*
//! extent (the old blocks are unreachable and swept). fsck therefore sees
//! exactly old-or-new, never a mixture, and no block leaks either way.
//!
//! [`FenceScope`]: simurgh_pmem::region::FenceScope

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use simurgh_fsapi::FsResult;
use simurgh_pmem::stats::json_object;
use simurgh_pmem::{PPtr, PmemRegion};

use crate::alloc::BlockAlloc;
use crate::file::{self, FileEnv};
use crate::obj::inode::{extblock, Extent, Inode, INLINE_EXTENTS};
use crate::obj::{self, Tag};
use crate::BLOCK_SIZE;

/// The single-slot relocation journal living in the superblock's reserved
/// bytes ([`crate::super_block::O_RELOC`], 1600..2048). One slot suffices:
/// a compactor relocates one file map at a time, and peers contend for the
/// slot with a CAS.
pub mod journal {
    use super::*;
    use crate::super_block::O_RELOC;

    /// State word values. `CLAIMED` is a volatile claim — the payload is
    /// not yet trusted; only `ARMED` (persisted after the payload) makes
    /// recovery roll the map back.
    const IDLE: u64 = 0;
    const CLAIMED: u64 = 1;
    /// "RELOC!!" in LE bytes — never a plausible torn value.
    const ARMED: u64 = 0x2121_434f_4c45_5221;

    const O_STATE: u64 = O_RELOC;
    const O_INO: u64 = O_RELOC + 8;
    const O_EXTENTS: u64 = O_RELOC + 16; // 3 × 16 bytes
    const O_NEXT: u64 = O_RELOC + 64;

    /// Claims the journal and arms it with `ino`'s *current* (old) map.
    /// Returns false when a peer holds the slot — the caller skips the
    /// file rather than waiting. Persist order: payload, then state.
    pub fn arm(r: &PmemRegion, ino: Inode) -> bool {
        let state = r.atomic_u64(PPtr::new(O_STATE));
        if state
            .compare_exchange(IDLE, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        r.write(PPtr::new(O_INO), ino.ptr().off());
        for i in 0..INLINE_EXTENTS {
            r.write(PPtr::new(O_EXTENTS + (i as u64) * 16), ino.extent(r, i));
        }
        r.write(PPtr::new(O_NEXT), ino.ext_next(r).off());
        r.persist(PPtr::new(O_INO), 64);
        state.store(ARMED, Ordering::Release);
        r.note_atomic(PPtr::new(O_STATE), 8);
        r.persist_now(PPtr::new(O_STATE), 8);
        true
    }

    /// Disarms the journal after the map swap committed: the relocated map
    /// is the persistent truth, so a crash from here on resolves forward.
    pub fn clear(r: &PmemRegion) {
        r.atomic_u64(PPtr::new(O_STATE)).store(IDLE, Ordering::Release);
        r.note_atomic(PPtr::new(O_STATE), 8);
        r.persist_now(PPtr::new(O_STATE), 8);
    }

    /// Whether the journal currently holds an armed relocation for `ino`.
    /// fsck uses this to tell a relocation-swapped map apart from a crash
    /// hole.
    pub fn armed_for(r: &PmemRegion, ino: Inode) -> bool {
        r.read::<u64>(PPtr::new(O_STATE)) == ARMED
            && r.read::<u64>(PPtr::new(O_INO)) == ino.ptr().off()
    }

    /// Mount-time recovery hook: rolls a crashed mid-swap relocation back
    /// to the journaled old map, then clears the slot (a bare `CLAIMED`
    /// claim is simply dropped — its payload was never trusted). Runs
    /// before the mark phase so the walk sees the restored extents; the
    /// abandoned new run is unreferenced and swept. Returns the number of
    /// rollbacks performed (0 or 1).
    pub fn recover(r: &PmemRegion) -> u64 {
        let state = r.read::<u64>(PPtr::new(O_STATE));
        if state == IDLE {
            return 0;
        }
        let mut rolled = 0;
        if state == ARMED {
            let ip = PPtr::new(r.read(PPtr::new(O_INO)));
            let valid = r.in_bounds(ip, 8) && ip.is_aligned(8) && {
                let h = obj::header(r, ip);
                obj::is_valid(h) && Tag::from_header(h) == Some(Tag::Inode)
            };
            if valid {
                let ino = Inode(ip);
                for i in 0..INLINE_EXTENTS {
                    let e: Extent = r.read(PPtr::new(O_EXTENTS + (i as u64) * 16));
                    ino.set_extent(r, i, e);
                }
                ino.set_ext_next(r, PPtr::new(r.read(PPtr::new(O_NEXT))));
                rolled = 1;
            }
        }
        clear(r);
        rolled
    }
}

simurgh_pmem::counters! {
    /// Counter battery for fragmentation and compaction, exported through
    /// [`ObsRegistry::to_json`] as the `frag` section of `paper obs`.
    ///
    /// [`ObsRegistry::to_json`]: crate::obs::ObsRegistry::to_json
    pub struct FragStats / FragStatsSnapshot {
        /// Completed compaction passes.
        passes,
        /// Files whose maps were relocated onto a contiguous run.
        relocated_files,
        /// Data blocks moved by those relocations.
        relocated_blocks,
        /// Extent-map entries eliminated (old extents − 1 per relocation).
        extents_merged,
        /// Relocations skipped because the journal slot was held by a peer.
        skipped_busy,
        /// Relocations skipped for lack of a contiguous destination run.
        skipped_nospace,
        /// Mid-swap crashes rolled back by mount-time recovery.
        rollbacks,
    }
}

/// The `"frag"` JSON object: the counters above plus the live
/// fragmentation gauges read off the allocator (free runs, largest
/// run, the smallest per-segment largest run, reserved-but-idle tail
/// blocks, allocation-pressure events) and the caller-supplied extent
/// census (files walked, total extents).
pub fn frag_json(stats: &FragStats, blocks: &BlockAlloc, census: (u64, u64)) -> String {
    let snap = blocks.frag_snapshot();
    let gauges = [
        ("free_runs", snap.iter().map(|&(r, _)| r).sum()),
        ("max_free_run", snap.iter().map(|&(_, m)| m).max().unwrap_or(0)),
        ("min_seg_max_run", snap.iter().map(|&(_, m)| m).min().unwrap_or(0)),
        ("reserved_idle", blocks.reserved_idle_blocks()),
        ("frag_pressure", blocks.frag_pressure()),
        ("files", census.0),
        ("extents", census.1),
    ];
    json_object(gauges.into_iter().chain(stats.snapshot().fields()))
}

/// Volatile compaction work queue: candidate inodes harvested by the last
/// tree walk, plus the allocator-pressure level that walk observed. Purely
/// DRAM state — it is listed in [`crate::shared::REBUILDABLE_CACHES`] and a
/// fresh mount simply starts empty and re-walks.
#[derive(Debug, Default)]
pub struct CompactQueue {
    /// Fragmented files (inode pointers) awaiting relocation, most
    /// fragmented first.
    pub queue: Mutex<Vec<PPtr>>,
    /// `BlockAlloc::frag_pressure` as of the last pass, so the incremental
    /// trigger only fires when new pressure accumulated.
    pub seen_pressure: AtomicU64,
}

/// Outcome of a single-file relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reloc {
    /// Map rewritten onto one contiguous run of this many blocks.
    Moved(u64),
    /// Already contiguous (≤ 1 extent) — nothing to do.
    Contiguous,
    /// Journal slot held by a peer; try again later.
    Busy,
    /// No contiguous destination run large enough.
    NoSpace,
}

/// Relocates `ino`'s data onto one contiguous run, following the module's
/// ordering invariant. The caller must hold the file's write lock (the
/// compaction pass takes it per file) and pass an env on `ino`'s shared
/// cursor; the cursor generation is bumped on success so every user of the
/// inode rebuilds its mirror from the relocated map.
pub fn relocate_file(env: &FileEnv<'_>, ino: Inode, stats: &FragStats) -> FsResult<Reloc> {
    let r = env.region;
    // Snapshot the old map and overflow chain before anything moves.
    let mut map: Vec<Extent> = Vec::new();
    file::for_each_extent(r, ino, |_, e| map.push(e));
    let mut chain: Vec<PPtr> = Vec::new();
    let mut blk = ino.ext_next(r);
    while !blk.is_null() {
        chain.push(blk);
        blk = extblock::next(r, blk);
    }
    if map.len() <= 1 && chain.is_empty() {
        return Ok(Reloc::Contiguous);
    }
    let total: u64 = map.iter().map(|e| e.len).sum();
    debug_assert!(total.is_multiple_of(BLOCK_SIZE as u64));
    let nblocks = total / BLOCK_SIZE as u64;
    if nblocks == 0 {
        return Ok(Reloc::Contiguous);
    }
    // Blocks parked after the old tail would not follow the new one.
    env.cursor.return_parked(env.blocks);
    // 1. New home: one contiguous run, placed by the usual inode hint.
    let Some(dst) = env.blocks.alloc(ino.ptr().off() / 64, nblocks) else {
        stats.skipped_nospace.add(1);
        return Ok(Reloc::NoSpace);
    };
    // 2. Copy and persist the bytes before any pointer can reach them.
    let mut buf = vec![0u8; 64 * 1024];
    let mut off = 0u64;
    for e in &map {
        let mut done = 0u64;
        while done < e.len {
            let n = buf.len().min((e.len - done) as usize);
            r.read_into(PPtr::new(e.start + done), &mut buf[..n]);
            r.nt_write_from(dst.add(off + done), &buf[..n]);
            done += n as u64;
        }
        off += e.len;
    }
    r.persist(dst, total as usize);
    // 3. Arm the journal with the old map.
    if !journal::arm(r, ino) {
        env.blocks.free(dst, nblocks);
        stats.skipped_busy.add(1);
        return Ok(Reloc::Busy);
    }
    // 4. Swap the map under one fence scope, sealed by an eager commit:
    // the new single extent and the cleared slots become durable together,
    // strictly after the copy above and strictly before any free below.
    let scope = r.fence_scope();
    ino.set_extent(r, 0, Extent { start: dst.off(), len: total });
    for i in 1..INLINE_EXTENTS {
        ino.set_extent(r, i, Extent::default());
    }
    ino.set_ext_next(r, PPtr::NULL);
    scope.commit();
    drop(scope);
    // 5. The relocated map is the persistent truth; disarm.
    journal::clear(r);
    // 6. Only now do the old blocks go back — old data extents first, then
    // the overflow-chain blocks.
    for e in &map {
        env.blocks.free(PPtr::new(e.start), e.len / BLOCK_SIZE as u64);
    }
    for b in &chain {
        env.blocks.free(*b, 1);
    }
    // Relocation restructured the map: the cursor's mirror is stale.
    env.cursor.invalidate();
    stats.relocated_files.add(1);
    stats.relocated_blocks.add(nblocks);
    stats.extents_merged.add(map.len() as u64 - 1);
    Ok(Reloc::Moved(nblocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocFaults;
    use crate::file::{DataStats, FileCursor};
    use crate::obj::H_VALID;
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

    fn fixture(bytes: usize) -> Fx {
        let region = Arc::new(PmemRegion::new(bytes));
        // Data area past the first 64 KiB, like the file-layer tests.
        let blocks = Arc::new(BlockAlloc::new(
            LExtent { start: PPtr::new(64 * 1024), len: bytes as u64 - 64 * 1024 },
            1,
        ));
        let (stats, faults, cursor) = Default::default();
        Fx { region, blocks, stats, faults, cursor }
    }

    impl Fx {
        /// Env on the fixture's one file, through its shared cursor.
        fn env(&self) -> FileEnv<'_> {
            FileEnv::new(&self.region, &self.blocks, &self.cursor, &self.stats, &self.faults)
        }

        /// Places an inode at a fixed metadata offset with a valid tagged
        /// header, the way the pool allocator would hand it out.
        fn inode_at(&self, off: u64) -> Inode {
            let p = PPtr::new(off);
            self.region.write::<u64>(p, H_VALID | Tag::Inode.bits());
            self.region.persist(p, 8);
            let ino = Inode(p);
            ino.init(&self.region, FileMode::file(0o644), 0, 0, 1, 0);
            ino
        }

        /// Writes `n` 4-KB chunks, claiming the block after the tail
        /// between writes so the append fast path can never extend in
        /// place: a file with exactly `n` extents. The run the cursor
        /// parks after the tail goes back first, so the guard can take it.
        fn fragmented(&self, env: &FileEnv<'_>, ino: Inode, n: u64) {
            for i in 0..n {
                file::write_at(env, ino, i * BLOCK_SIZE as u64, &[i as u8; BLOCK_SIZE])
                    .unwrap();
                env.cursor.return_parked(&self.blocks);
                let mut tail = 0u64;
                file::for_each_extent(&self.region, ino, |_, e| tail = e.start + e.len);
                let b = self.blocks.ptr_block(PPtr::new(tail));
                let _ = self.blocks.extend_at(b, 1);
            }
            let mut extents = 0u64;
            file::for_each_extent(&self.region, ino, |_, _| extents += 1);
            assert_eq!(extents, n, "guards kept every chunk a separate extent");
        }
    }

    fn extent_count(r: &PmemRegion, ino: Inode) -> usize {
        let mut n = 0;
        file::for_each_extent(r, ino, |_, _| n += 1);
        n
    }

    fn chain_len(r: &PmemRegion, ino: Inode) -> u64 {
        let mut n = 0;
        let mut blk = ino.ext_next(r);
        while !blk.is_null() {
            n += 1;
            blk = extblock::next(r, blk);
        }
        n
    }

    #[test]
    fn relocation_merges_extents_and_preserves_bytes() {
        let fx = fixture(4 << 20);
        let env = fx.env();
        let ino = fx.inode_at(4096);
        fx.fragmented(&env, ino, 5);
        let free_before = fx.blocks.free_blocks();
        let chain = chain_len(&fx.region, ino);
        assert!(chain >= 1, "5 extents overflow the 3 inline slots");
        let stats = FragStats::default();
        let got = relocate_file(&env, ino, &stats).unwrap();
        assert_eq!(got, Reloc::Moved(5));
        assert_eq!(extent_count(&fx.region, ino), 1, "one contiguous extent");
        // Data blocks are swapped one-for-one; the overflow-chain blocks
        // become pure profit.
        assert_eq!(fx.blocks.free_blocks(), free_before + chain, "no leaked blocks");
        for i in 0..5u64 {
            let mut buf = [0u8; BLOCK_SIZE];
            assert_eq!(
                file::read_at(&env, ino, i * BLOCK_SIZE as u64, &mut buf),
                BLOCK_SIZE
            );
            assert!(buf.iter().all(|&b| b == i as u8), "bytes moved intact");
        }
        assert_eq!(stats.relocated_files.load(Ordering::Relaxed), 1);
        assert_eq!(stats.relocated_blocks.load(Ordering::Relaxed), 5);
        assert_eq!(stats.extents_merged.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn contiguous_files_are_left_alone() {
        let fx = fixture(4 << 20);
        let env = fx.env();
        let ino = fx.inode_at(4096);
        file::write_at(&env, ino, 0, &[7u8; 2 * BLOCK_SIZE]).unwrap();
        let stats = FragStats::default();
        assert_eq!(relocate_file(&env, ino, &stats).unwrap(), Reloc::Contiguous);
        assert_eq!(stats.relocated_files.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn armed_journal_rolls_back_to_the_old_map() {
        // Simulate a crash between map-swap stores: arm the journal, trash
        // the inline slots, and let `journal::recover` restore them.
        let fx = fixture(4 << 20);
        let env = fx.env();
        let ino = fx.inode_at(4096);
        fx.fragmented(&env, ino, 3);
        let before: Vec<Extent> = {
            let mut v = Vec::new();
            file::for_each_extent(&fx.region, ino, |_, e| v.push(e));
            v
        };
        assert!(journal::arm(&fx.region, ino));
        assert!(journal::armed_for(&fx.region, ino));
        // Torn swap: slot 0 points at garbage, slot 1 emptied.
        ino.set_extent(&fx.region, 0, Extent { start: 1 << 17, len: BLOCK_SIZE as u64 });
        ino.set_extent(&fx.region, 1, Extent::default());
        assert_eq!(journal::recover(&fx.region), 1);
        let after: Vec<Extent> = {
            let mut v = Vec::new();
            file::for_each_extent(&fx.region, ino, |_, e| v.push(e));
            v
        };
        assert_eq!(before, after, "rolled back to exactly the old map");
        assert!(!journal::armed_for(&fx.region, ino));
        assert_eq!(journal::recover(&fx.region), 0, "idle journal is a no-op");
    }

    #[test]
    fn busy_journal_skips_and_frees_the_staged_run() {
        let fx = fixture(4 << 20);
        let env = fx.env();
        let ino = fx.inode_at(4096);
        let other = fx.inode_at(8192);
        fx.fragmented(&env, ino, 3);
        assert!(journal::arm(&fx.region, other), "peer holds the slot");
        let free_before = fx.blocks.free_blocks();
        let stats = FragStats::default();
        assert_eq!(relocate_file(&env, ino, &stats).unwrap(), Reloc::Busy);
        assert_eq!(fx.blocks.free_blocks(), free_before, "staged run returned");
        assert_eq!(stats.skipped_busy.load(Ordering::Relaxed), 1);
        journal::clear(&fx.region);
    }
}
