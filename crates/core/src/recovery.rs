//! Whole-system crash recovery: mark-and-sweep over the persistent image
//! (§4.3 "Crash recovery", §5.5).
//!
//! After an unclean shutdown nothing volatile survives — allocator free
//! lists, open-file maps and lock words are gone, and any number of Fig. 5
//! protocols may have been cut mid-step. Recovery rebuilds everything from
//! the persistent truth alone:
//!
//! 1. **Mark** — walk the tree from the root inode, tolerantly (invalid
//!    pointers and half-written entries are skipped), collecting reachable
//!    metadata objects and used data blocks.
//! 2. **Repair** — if the shutdown was unclean, run the decentralized
//!    repair of [`crate::dir::repair_dir`] over every reachable directory,
//!    completing or rolling back interrupted creates/deletes/renames and
//!    clearing stale busy flags, then walk again (repairs may have changed
//!    reachability). On every mount, clean or not, splice each emptied
//!    non-first block out of its directory chain: a mounted chain only
//!    grows, so this is where Fig. 5b's optional step 6 runs.
//! 3. **Sweep** — rebuild the block allocator's volatile free lists from
//!    the used-block set, and sweep every pool slot: free slots feed the
//!    metadata allocator, reachable objects get their volatile lock words
//!    cleared, and allocated-but-unreachable objects (the paper's "assigned
//!    but unused metadata objects") are reclaimed. After an unclean
//!    shutdown the sweep also sets the link count of every reachable file
//!    and symlink to the number of entries naming it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simurgh_fsapi::types::FileType;
use simurgh_fsapi::{FsError, FsResult};
use simurgh_pmem::{PPtr, PmemRegion};

use crate::alloc::{BlockAlloc, MetaAllocator};
use crate::dir::{self, DirEnv};
use crate::obj::dirblock::{DirBlock, DIRBLOCK_SIZE, NLINES};
use crate::obj::inode::{extblock, Inode};
use crate::obj::{self, Tag};
use crate::super_block::{PoolKind, Superblock};
use crate::BLOCK_SIZE;

/// Outcome of a recovery run.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// The region was cleanly unmounted (no repairs needed).
    pub was_clean: bool,
    pub files: u64,
    pub directories: u64,
    pub symlinks: u64,
    /// Allocated-but-unreachable metadata objects reclaimed by the sweep.
    pub reclaimed_objects: u64,
    /// Mid-swap compactor relocations rolled back from the relocation
    /// journal (0 or 1 — the journal has one slot).
    pub reloc_rollbacks: u64,
    /// Data blocks found in use.
    pub used_blocks: u64,
    /// Wall-clock time of the scan (mark), repair and sweep phases.
    pub mark_time: Duration,
    pub repair_time: Duration,
    pub sweep_time: Duration,
    /// Time to rebuild the shared-DRAM structures (directory index) — the
    /// second half of the paper's reported recovery time.
    pub rebuild_time: Duration,
}

impl RecoveryReport {
    pub fn total_time(&self) -> Duration {
        self.mark_time + self.repair_time + self.sweep_time + self.rebuild_time
    }
}

// analyze:allow(shared-region): per-recovery scratch, dropped before the
// mount returns; no process ever shares it.
#[derive(Default)]
struct Marked {
    /// Offsets of reachable metadata objects.
    meta: HashSet<u64>,
    /// Block indices (relative to the data area) in use.
    blocks: HashSet<u64>,
    /// First hash blocks of every reachable directory.
    dir_firsts: Vec<u64>,
    /// Names beyond the first, per inode named more than once (hard
    /// links); an inode's entry count is 1 plus its value here.
    extra_names: HashMap<u64, u32>,
    files: u64,
    dirs: u64,
    symlinks: u64,
}

struct Walker<'a> {
    region: &'a PmemRegion,
    data_start: u64,
    data_blocks: u64,
}

impl<'a> Walker<'a> {
    fn block_range(&self, start: u64, len: u64, out: &mut HashSet<u64>) {
        if len == 0 || start < self.data_start {
            return;
        }
        let first = (start - self.data_start) / BLOCK_SIZE as u64;
        let last = (start - self.data_start + len - 1) / BLOCK_SIZE as u64;
        for b in first..=last.min(self.data_blocks.saturating_sub(1)) {
            out.insert(b);
        }
    }

    fn valid_obj(&self, p: PPtr, tag: Tag) -> bool {
        self.region.in_bounds(p, 8)
            && p.is_aligned(8)
            && {
                let h = obj::header(self.region, p);
                obj::is_valid(h) && Tag::from_header(h) == Some(tag)
            }
    }

    fn mark(&self, root: PPtr) -> Marked {
        let mut m = Marked::default();
        // Pool segments themselves occupy data blocks.
        for kind in PoolKind::ALL {
            for seg in Superblock::pool_segs(self.region, kind) {
                self.block_range(seg.start, seg.count * kind.obj_size(), &mut m.blocks);
            }
        }
        let mut stack = vec![root];
        let mut visited: HashSet<u64> = HashSet::new();
        while let Some(ip) = stack.pop() {
            // Every entry naming an inode pushes it once, so a repeat pop is
            // one more name: count it, but walk the inode only once.
            if !visited.insert(ip.off()) {
                *m.extra_names.entry(ip.off()).or_insert(0) += 1;
                continue;
            }
            if !self.valid_obj(ip, Tag::Inode) {
                continue;
            }
            m.meta.insert(ip.off());
            let ino = Inode(ip);
            match ino.mode(self.region).ftype {
                FileType::Directory => {
                    m.dirs += 1;
                    let e = ino.extent(self.region, 0);
                    if e.is_empty() || !self.region.in_bounds(PPtr::new(e.start), 8) {
                        continue;
                    }
                    m.dir_firsts.push(e.start);
                    let mut blk = PPtr::new(e.start);
                    let mut seen_blocks: HashSet<u64> = HashSet::new();
                    while !blk.is_null()
                        && self.region.in_bounds(blk, DIRBLOCK_SIZE as usize)
                        && seen_blocks.insert(blk.off())
                    {
                        m.meta.insert(blk.off());
                        let db = DirBlock(blk);
                        for line in 0..NLINES {
                            let slot = db.line(self.region, line);
                            if slot.is_null() || !self.valid_obj(slot, Tag::FileEntry) {
                                continue;
                            }
                            m.meta.insert(slot.off());
                            let fe = crate::obj::fentry::FileEntry(slot);
                            let child = fe.inode(self.region);
                            if !child.is_null() {
                                stack.push(child);
                            }
                        }
                        blk = db.next(self.region);
                    }
                }
                FileType::Regular | FileType::Symlink => {
                    if ino.mode(self.region).ftype == FileType::Symlink {
                        m.symlinks += 1;
                    } else {
                        m.files += 1;
                    }
                    // Inline extents. Scan *every* slot: a crash between a
                    // shrink and a regrow can leave a hole (empty slot
                    // followed by live extents), and breaking at the first
                    // empty slot would leak the later extents to the sweep —
                    // the block allocator would then be rebuilt over live
                    // data. The writer keeps slots prefix-dense; recovery
                    // tolerates holes and fsck flags them.
                    for i in 0..crate::obj::inode::INLINE_EXTENTS {
                        let e = ino.extent(self.region, i);
                        if e.is_empty() {
                            continue;
                        }
                        self.block_range(e.start, e.len, &mut m.blocks);
                    }
                    // Overflow extent blocks.
                    let mut blk = ino.ext_next(self.region);
                    let mut seen: HashSet<u64> = HashSet::new();
                    while !blk.is_null()
                        && self.region.in_bounds(blk, BLOCK_SIZE)
                        && seen.insert(blk.off())
                    {
                        self.block_range(blk.off(), BLOCK_SIZE as u64, &mut m.blocks);
                        let n = extblock::count(self.region, blk).min(extblock::CAPACITY);
                        for i in 0..n {
                            let e = extblock::get(self.region, blk, i);
                            self.block_range(e.start, e.len, &mut m.blocks);
                        }
                        blk = extblock::next(self.region, blk);
                    }
                }
            }
        }
        m
    }
}

/// Splices every non-first block whose lines are all null out of its
/// directory chain and drops it from the marked set, so the sweep frees it
/// and counts it in `reclaimed_objects`. Recovery owns the region, so the
/// splice needs no line lock; a cut after it leaves an unreachable block,
/// which the next sweep reclaims the same way.
fn drop_empty_blocks(region: &PmemRegion, m: &mut Marked) {
    for &first in &m.dir_firsts {
        let mut kept = DirBlock(PPtr::new(first));
        let mut seen: HashSet<u64> = HashSet::from([first]);
        let mut blk = kept.next(region);
        while !blk.is_null()
            && region.in_bounds(blk, DIRBLOCK_SIZE as usize)
            && seen.insert(blk.off())
        {
            let db = DirBlock(blk);
            let next = db.next(region);
            if (0..NLINES).all(|l| db.line(region, l).is_null()) {
                kept.set_next(region, next);
                m.meta.remove(&blk.off());
            } else {
                kept = db;
            }
            blk = next;
        }
    }
}

/// Runs recovery on a mounted region, returning rebuilt allocators and the
/// report. Used by [`crate::SimurghFs::mount`]; also callable directly by
/// the benchmark harness (§5.5 measures exactly this).
pub fn recover(
    region: &Arc<PmemRegion>,
    segments: usize,
) -> FsResult<(Arc<BlockAlloc>, Arc<MetaAllocator>, RecoveryReport)> {
    if !Superblock::is_valid(region) {
        return Err(FsError::Corrupt("bad superblock"));
    }
    let was_clean = Superblock::is_clean(region);
    // Release pool-table slots a crashed grower left mid-claim; recovery
    // runs exclusively, so no live claimer can be racing us.
    Superblock::clear_torn_pool_claims(region);
    // Roll back a relocation that crashed mid map-swap *before* the mark
    // phase, so the walk sees the restored (old) map and the abandoned new
    // run stays unreferenced for the sweep.
    let reloc_rollbacks = crate::compact::journal::recover(region);
    let data = Superblock::data_extent(region);
    let data_start = data.start.align_up(BLOCK_SIZE as u64).off();
    let data_blocks = (data.start.off() + data.len - data_start) / BLOCK_SIZE as u64;
    let root = Superblock::root_inode(region);
    let walker = Walker { region, data_start, data_blocks };

    let mut report = RecoveryReport { was_clean, reloc_rollbacks, ..Default::default() };

    // Phase 1: mark.
    let t = Instant::now();
    let m1 = walker.mark(root);
    report.mark_time = t.elapsed();
    if !m1.meta.contains(&root.off()) {
        return Err(FsError::Corrupt("root inode unreachable"));
    }

    // Phase 2: repair (unclean shutdown only), then drop emptied blocks.
    let t = Instant::now();
    let mut m_final = if was_clean {
        m1
    } else {
        let tmp_blocks =
            Arc::new(BlockAlloc::rebuild(data, segments, |b| m1.blocks.contains(&b)));
        let tmp_meta = MetaAllocator::new(region.clone(), tmp_blocks);
        let env = DirEnv::new(region, &tmp_meta);
        for first in &m1.dir_firsts {
            dir::repair_dir(&env, DirBlock(PPtr::new(*first)));
        }
        // Repairs change reachability; walk again for the final truth.
        walker.mark(root)
    };
    drop_empty_blocks(region, &mut m_final);
    report.repair_time = t.elapsed();

    // Phase 3: rebuild allocators and sweep the pools.
    let t = Instant::now();
    let blocks =
        Arc::new(BlockAlloc::rebuild(data, segments, |b| m_final.blocks.contains(&b)));
    let meta = Arc::new(MetaAllocator::new(region.clone(), blocks.clone()));
    for kind in PoolKind::ALL {
        MetaAllocator::for_each_slot(region, kind, |slot| {
            if m_final.meta.contains(&slot.off()) {
                // Reachable: reset the volatile lock word of inodes.
                if kind == PoolKind::Inode {
                    let ino = Inode(slot);
                    region.write(ino.lock_ptr(), 0u64);
                    // `link` persists the raised count before it inserts the
                    // entry, and `unlink` retires the entry before it drops
                    // the count: a cut between the two leaves nlink one too
                    // high. Directories keep their fixed nlink of 2.
                    if !was_clean && ino.mode(region).ftype != FileType::Directory {
                        let names = 1 + m_final.extra_names.get(&slot.off()).copied().unwrap_or(0);
                        if ino.nlink(region) != names {
                            ino.set_nlink(region, names);
                        }
                    }
                }
                return;
            }
            let h = obj::header(region, slot);
            if h == 0 {
                meta.adopt_free(kind, slot);
            } else {
                // Allocated but unreachable: reclaim (finishes interrupted
                // allocations and deallocations alike).
                meta.free(kind, slot);
                report.reclaimed_objects += 1;
            }
        });
    }
    report.sweep_time = t.elapsed();

    report.files = m_final.files;
    report.directories = m_final.dirs;
    report.symlinks = m_final.symlinks;
    report.used_blocks = m_final.blocks.len() as u64;
    Ok((blocks, meta, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{SimurghConfig, SimurghFs};
    use simurgh_fsapi::{FileMode, FileSystem, ProcCtx};

    fn tracked_fs(bytes: usize) -> (SimurghFs, ProcCtx) {
        let region = Arc::new(PmemRegion::new_tracked(bytes));
        let fs = SimurghFs::format(region, SimurghConfig::default()).unwrap();
        (fs, ProcCtx::root(1))
    }

    /// Crash the region under a live fs and remount from the media image.
    fn crash_and_remount(fs: &SimurghFs) -> SimurghFs {
        let crashed = Arc::new(fs.region().simulate_crash());
        SimurghFs::mount(crashed, SimurghConfig::default()).unwrap()
    }

    #[test]
    fn clean_remount_preserves_tree() {
        let region = Arc::new(PmemRegion::new(16 << 20));
        let fs = SimurghFs::format(region.clone(), SimurghConfig::default()).unwrap();
        let ctx = ProcCtx::root(1);
        fs.mkdir(&ctx, "/d", FileMode::dir(0o755)).unwrap();
        fs.write_file(&ctx, "/d/f", b"persist me").unwrap();
        fs.unmount();
        let fs2 = SimurghFs::mount(region, SimurghConfig::default()).unwrap();
        assert!(fs2.recovery_report().was_clean);
        assert_eq!(fs2.recovery_report().files, 1);
        assert_eq!(fs2.recovery_report().directories, 2, "root + /d");
        assert_eq!(fs2.read_to_vec(&ctx, "/d/f").unwrap(), b"persist me");
    }

    #[test]
    fn crash_recovery_rebuilds_from_media() {
        let (fs, ctx) = tracked_fs(16 << 20);
        fs.mkdir(&ctx, "/a", FileMode::dir(0o755)).unwrap();
        fs.write_file(&ctx, "/a/one", b"1111").unwrap();
        fs.write_file(&ctx, "/a/two", b"2222").unwrap();
        // No unmount: simulated power failure.
        let fs2 = crash_and_remount(&fs);
        assert!(!fs2.recovery_report().was_clean);
        assert_eq!(fs2.read_to_vec(&ctx, "/a/one").unwrap(), b"1111");
        assert_eq!(fs2.read_to_vec(&ctx, "/a/two").unwrap(), b"2222");
    }

    #[test]
    fn sweep_reclaims_unreachable_objects() {
        let (fs, ctx) = tracked_fs(16 << 20);
        fs.write_file(&ctx, "/keep", b"k").unwrap();
        // Leak: allocate metadata objects and never link them (simulates a
        // crash between Fig. 5a steps 2 and 5).
        use crate::super_block::PoolKind;
        for _ in 0..5 {
            let p = fs.region(); // keep names short
            let obj = {
                let meta = MetaAllocator::new(p.clone(), {
                    // use the fs's own allocator via a fresh handle
                    fs.block_alloc().clone()
                });
                meta.alloc(PoolKind::FileEntry).unwrap()
            };
            fs.region().persist(obj, 8);
        }
        let fs2 = crash_and_remount(&fs);
        assert!(fs2.recovery_report().reclaimed_objects >= 5);
        assert_eq!(fs2.read_to_vec(&ctx, "/keep").unwrap(), b"k");
    }

    #[test]
    fn usable_after_recovery() {
        let (fs, ctx) = tracked_fs(16 << 20);
        fs.mkdir(&ctx, "/work", FileMode::dir(0o755)).unwrap();
        for i in 0..20 {
            fs.write_file(&ctx, &format!("/work/f{i}"), format!("data{i}").as_bytes()).unwrap();
        }
        let fs2 = crash_and_remount(&fs);
        // All twenty files intact and the fs accepts new work.
        for i in 0..20 {
            assert_eq!(
                fs2.read_to_vec(&ctx, &format!("/work/f{i}")).unwrap(),
                format!("data{i}").as_bytes()
            );
        }
        fs2.write_file(&ctx, "/work/after-crash", b"new").unwrap();
        fs2.unlink(&ctx, "/work/f0").unwrap();
        assert_eq!(fs2.readdir(&ctx, "/work").unwrap().len(), 20);
    }

    #[test]
    fn recovery_counts_match_tree() {
        let (fs, ctx) = tracked_fs(32 << 20);
        for d in 0..3 {
            fs.mkdir(&ctx, &format!("/d{d}"), FileMode::dir(0o755)).unwrap();
            for f in 0..4 {
                fs.write_file(&ctx, &format!("/d{d}/f{f}"), b"x").unwrap();
            }
        }
        fs.symlink(&ctx, "/d0/f0", "/ln").unwrap();
        let fs2 = crash_and_remount(&fs);
        let r = fs2.recovery_report();
        assert_eq!(r.files, 12);
        assert_eq!(r.directories, 4, "root + 3");
        assert_eq!(r.symlinks, 1);
        assert!(r.used_blocks > 0);
        assert!(r.total_time() > Duration::ZERO);
    }

    #[test]
    fn holes_in_inline_extents_survive_crash_sweep() {
        // Regression: `Walker::mark` used to stop at the first empty inline
        // slot, so an inode with a hole (crash between shrink and regrow)
        // leaked every later extent to the sweep — the rebuilt block
        // allocator would hand live data blocks to new files.
        use crate::obj::inode::{Extent, Inode};
        use simurgh_fsapi::OpenFlags;

        let (fs, ctx) = tracked_fs(16 << 20);
        // Fragment /hole into three inline extents: the decoy claims the
        // block after /hole's tail each round, so the tail-extend fast
        // path never merges the appends.
        let rw = OpenFlags { read: true, ..OpenFlags::CREATE };
        let main = fs.open(&ctx, "/hole", rw, FileMode::default()).unwrap();
        let decoy = fs.open(&ctx, "/decoy", OpenFlags::CREATE, FileMode::default()).unwrap();
        for i in 0..3u64 {
            let pat = vec![0x10 + i as u8; 4096];
            fs.pwrite(&ctx, main, &pat, i * 4096).unwrap();
            // Return the run /hole parked after its tail, so the decoy's
            // next block can take that place.
            fs.quiesce_thread_caches();
            fs.pwrite(&ctx, decoy, &pat, i * 4096).unwrap();
        }
        let st = fs.fstat(&ctx, main).unwrap();
        fs.close(&ctx, main).unwrap();
        fs.close(&ctx, decoy).unwrap();
        let ino = Inode(PPtr::new(st.ino));
        let e2 = ino.extent(fs.region(), 2);
        assert!(
            !ino.extent(fs.region(), 1).is_empty() && !e2.is_empty(),
            "setup must produce three inline extents"
        );
        // Punch slot 1: the persistent image a crash can leave behind —
        // an empty slot followed by a live extent.
        ino.set_extent(fs.region(), 1, Extent::default());

        let fs2 = crash_and_remount(&fs);
        // The extent after the hole must be in the used-block set: drain
        // the rebuilt allocator and assert it never hands out that block.
        let alloc = fs2.block_alloc();
        while let Some(b) = alloc.alloc(0, 1) {
            assert_ne!(
                b.off(),
                e2.start,
                "sweep freed a live block sitting after the hole"
            );
        }
        // And the bytes themselves are still there.
        let mut buf = vec![0u8; 4096];
        fs2.region().read_into(PPtr::new(e2.start), &mut buf);
        assert!(buf.iter().all(|&b| b == 0x12), "data after the hole was lost");
    }

    #[test]
    fn unclean_recovery_recounts_link_counts() {
        // A cut inside `link` (count raised, entry never inserted) leaves
        // nlink above the number of names; recovery recounts it.
        let (fs, ctx) = tracked_fs(16 << 20);
        fs.write_file(&ctx, "/f", b"x").unwrap();
        fs.link(&ctx, "/f", "/g").unwrap();
        let ino = Inode(PPtr::new(fs.stat(&ctx, "/f").unwrap().ino));
        ino.set_nlink(fs.region(), 3);
        let fs2 = crash_and_remount(&fs);
        assert_eq!(fs2.stat(&ctx, "/g").unwrap().nlink, 2);
        assert!(crate::check::check(&fs2, true).is_clean());
    }

    #[test]
    fn mount_rejects_unformatted_region() {
        let region = Arc::new(PmemRegion::new(1 << 20));
        assert!(SimurghFs::mount(region, SimurghConfig::default()).is_err());
    }
}
