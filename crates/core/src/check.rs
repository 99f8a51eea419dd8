//! `fsck`-style consistency checker.
//!
//! Walks the persistent image and verifies every invariant the Simurgh
//! design promises after any completed operation or recovery:
//!
//! * every reachable object is valid, correctly tagged and **not dirty**
//!   (dirty bits only live while an operation is in flight);
//! * every hash-line slot points at a live file entry whose name hashes to
//!   that line;
//! * every inode's link count equals the number of file entries that
//!   reference it;
//! * file extents lie inside the data area and no data block is referenced
//!   by two files (or by a file and a metadata pool);
//! * directories referenced by entries have a first hash block; no rename
//!   logs are left armed; no busy flags are left set (when `quiescent`).
//!
//! Tests call [`check`] after stress runs and after every crash-recovery
//! to prove the tree is not just readable but structurally sound.

use std::collections::HashMap;

use simurgh_fsapi::types::FileType;
use simurgh_pmem::PPtr;

use crate::fs::SimurghFs;
use crate::hash::dir_line;
use crate::obj::dirblock::{logop, DirBlock, NLINES};
use crate::obj::fentry::FileEntry;
use crate::obj::inode::{extblock, Inode};
use crate::obj::{self, Tag};
use crate::super_block::{PoolKind, Superblock};
use crate::BLOCK_SIZE;

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub at: PPtr,
    pub what: String,
}

/// Result of a full check.
#[derive(Debug, Default, Clone)]
pub struct CheckReport {
    pub violations: Vec<Violation>,
    pub files: u64,
    pub directories: u64,
    pub symlinks: u64,
    pub entries: u64,
}

impl CheckReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn flag(&mut self, at: PPtr, what: impl Into<String>) {
        self.violations.push(Violation { at, what: what.into() });
    }
}

/// Runs the full consistency check on a mounted file system. When
/// `quiescent` is true (no concurrent operations), busy flags and dirty
/// bits are also violations.
pub fn check(fs: &SimurghFs, quiescent: bool) -> CheckReport {
    let region = fs.region().as_ref();
    let mut report = CheckReport::default();
    let data = Superblock::data_extent(region);
    let data_start = data.start.align_up(BLOCK_SIZE as u64).off();
    let data_end = data.start.off() + data.len;

    // block byte-offset -> owner description, to catch double references.
    let mut block_owner: HashMap<u64, String> = HashMap::new();
    for kind in PoolKind::ALL {
        for seg in Superblock::pool_segs(region, kind) {
            let mut b = seg.start;
            let end = seg.start + seg.count * kind.obj_size();
            while b < end {
                block_owner.insert(b / BLOCK_SIZE as u64, format!("pool {kind:?}"));
                b += BLOCK_SIZE as u64;
            }
        }
    }
    let mut claim_blocks =
        |report: &mut CheckReport, start: u64, len: u64, owner: &str| {
            if len == 0 {
                return;
            }
            if start < data_start || start + len > data_end {
                report.flag(PPtr::new(start), format!("extent outside data area ({owner})"));
                return;
            }
            let first = start / BLOCK_SIZE as u64;
            let last = (start + len - 1) / BLOCK_SIZE as u64;
            for b in first..=last {
                if let Some(prev) = block_owner.insert(b, owner.to_owned()) {
                    report.flag(
                        PPtr::new(b * BLOCK_SIZE as u64),
                        format!("block referenced by both {prev} and {owner}"),
                    );
                }
            }
        };

    // inode -> observed reference count from file entries.
    let mut refs: HashMap<u64, u32> = HashMap::new();
    let mut stack = vec![Superblock::root_inode(region)];
    let mut visited: std::collections::HashSet<u64> = std::collections::HashSet::new();
    refs.insert(Superblock::root_inode(region).off(), 1); // root is self-referenced

    while let Some(ip) = stack.pop() {
        if !visited.insert(ip.off()) {
            continue;
        }
        let h = obj::header(region, ip);
        if !obj::is_valid(h) || Tag::from_header(h) != Some(Tag::Inode) {
            report.flag(ip, "reachable inode has invalid header");
            continue;
        }
        if quiescent && obj::is_dirty(h) {
            report.flag(ip, "inode dirty at quiescence");
        }
        let ino = Inode(ip);
        match ino.mode(region).ftype {
            FileType::Directory => {
                report.directories += 1;
                let e = ino.extent(region, 0);
                if e.is_empty() {
                    report.flag(ip, "directory inode without hash block");
                    continue;
                }
                let first = DirBlock(PPtr::new(e.start));
                if first.read_log(region).op != logop::IDLE {
                    report.flag(first.ptr(), "rename log left armed");
                }
                let mut seen = std::collections::HashSet::new();
                let mut blk = first.ptr();
                while !blk.is_null() {
                    if !seen.insert(blk.off()) {
                        report.flag(blk, "directory chain cycle");
                        break;
                    }
                    let bh = obj::header(region, blk);
                    if !obj::is_valid(bh) || Tag::from_header(bh) != Some(Tag::DirBlock) {
                        report.flag(blk, "chained block has invalid header");
                        break;
                    }
                    if quiescent && obj::is_dirty(bh) {
                        report.flag(blk, "dir block dirty at quiescence");
                    }
                    let db = DirBlock(blk);
                    for line in 0..NLINES {
                        if quiescent && db == first && db.is_busy(region, line) {
                            report.flag(blk, format!("line {line} busy at quiescence"));
                        }
                        let slot = db.line(region, line);
                        if slot.is_null() {
                            continue;
                        }
                        let fh = obj::header(region, slot);
                        if !obj::is_valid(fh) || Tag::from_header(fh) != Some(Tag::FileEntry) {
                            report.flag(slot, format!("line {line} points at non-live entry"));
                            continue;
                        }
                        if quiescent && obj::is_dirty(fh) {
                            report.flag(slot, "file entry dirty at quiescence");
                        }
                        let fe = FileEntry(slot);
                        let name = fe.name(region);
                        if dir_line(&name, NLINES) != line {
                            report.flag(slot, format!("entry '{name}' on wrong line {line}"));
                        }
                        report.entries += 1;
                        let child = fe.inode(region);
                        if child.is_null() {
                            report.flag(slot, format!("entry '{name}' has null inode"));
                            continue;
                        }
                        *refs.entry(child.off()).or_insert(0) += 1;
                        stack.push(child);
                    }
                    blk = db.next(region);
                }
            }
            FileType::Regular | FileType::Symlink => {
                if ino.mode(region).ftype == FileType::Symlink {
                    report.symlinks += 1;
                } else {
                    report.files += 1;
                }
                let owner = format!("inode {:#x}", ip.off());
                let mut allocated = 0u64;
                // Scan every inline slot (not just the dense prefix): the
                // writer keeps slots prefix-dense, so an empty slot followed
                // by a live extent means a torn shrink/regrow — flag it, but
                // still account the later extents so the double-reference
                // and size checks see the whole file. Exception: while the
                // relocation journal is armed *for this inode* the map is
                // mid-swap by design — recovery will roll it back to the
                // journaled old map, so a transient hole is not a defect.
                let mid_relocation = crate::compact::journal::armed_for(region, ino);
                let mut seen_empty = false;
                for i in 0..crate::obj::inode::INLINE_EXTENTS {
                    let e = ino.extent(region, i);
                    if e.is_empty() {
                        seen_empty = true;
                        continue;
                    }
                    if seen_empty {
                        if !mid_relocation {
                            report.flag(ip, format!(
                                "inline extents not prefix-dense (slot {i} live after a hole)"
                            ));
                        }
                        seen_empty = false;
                    }
                    claim_blocks(&mut report, e.start, e.len, &owner);
                    allocated += e.len;
                }
                let mut blk = ino.ext_next(region);
                let mut seen = std::collections::HashSet::new();
                while !blk.is_null() && seen.insert(blk.off()) {
                    claim_blocks(&mut report, blk.off(), BLOCK_SIZE as u64, &owner);
                    let n = extblock::count(region, blk).min(extblock::CAPACITY);
                    for i in 0..n {
                        let e = extblock::get(region, blk, i);
                        claim_blocks(&mut report, e.start, e.len, &owner);
                        allocated += e.len;
                    }
                    blk = extblock::next(region, blk);
                }
                // Same exception as above: a mid-swap map may transiently
                // under-cover the size until recovery rolls it back.
                if ino.size(region) > allocated && !mid_relocation {
                    report.flag(ip, format!(
                        "size {} exceeds allocation {allocated}",
                        ino.size(region)
                    ));
                }
            }
        }
    }

    // Link counts: only regular files and symlinks (directories use the
    // conventional fixed nlink=2).
    for (ino_off, &observed) in &refs {
        let ip = PPtr::new(*ino_off);
        let h = obj::header(region, ip);
        if !obj::is_valid(h) {
            continue;
        }
        let ino = Inode(ip);
        if ino.mode(region).ftype == FileType::Directory {
            continue;
        }
        let recorded = ino.nlink(region);
        if recorded != observed {
            report.flag(ip, format!("nlink {recorded} but {observed} entries reference it"));
        }
    }

    // Allocator accounting vs. the shared claim bitmap (shared mounts
    // only). At quiescence the volatile free counter plus the bitmap's
    // used popcount must cover the capacity exactly. `reconcile_shared`
    // first drops free-list entries for blocks peers claimed (ordinary
    // optimistic staleness, not a defect) and adopts blocks a dead peer
    // released — the kill-9 convergence step — so what remains is real
    // drift: a claim/clear ordering bug or mis-masked slack bits.
    if quiescent {
        let blocks = fs.block_alloc();
        if let Some(used) = {
            blocks.reconcile_shared();
            blocks.shared_used_blocks()
        } {
            // Open files' parked block runs stay claimed in the bitmap, so
            // they count as used, not free — no correction term needed.
            let free = blocks.free_blocks();
            let cap = blocks.capacity_blocks();
            if free + used != cap {
                report.flag(
                    PPtr::NULL,
                    format!(
                        "allocator accounting drift: free {free} + bitmap-used {used} \
                         != capacity {cap}"
                    ),
                );
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::SimurghConfig;
    use simurgh_fsapi::{FileMode, FileSystem, ProcCtx};
    use std::sync::Arc;

    fn fresh() -> (SimurghFs, ProcCtx) {
        let fs = SimurghFs::format(
            Arc::new(simurgh_pmem::PmemRegion::new(64 << 20)),
            SimurghConfig::default(),
        )
        .unwrap();
        (fs, ProcCtx::root(1))
    }

    #[test]
    fn fresh_fs_is_clean() {
        let (fs, _) = fresh();
        let r = check(&fs, true);
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.directories, 1);
    }

    #[test]
    fn populated_fs_is_clean_and_counted() {
        let (fs, ctx) = fresh();
        fs.mkdir(&ctx, "/a", FileMode::dir(0o755)).unwrap();
        for i in 0..50 {
            fs.write_file(&ctx, &format!("/a/f{i}"), &vec![1u8; 5000]).unwrap();
        }
        fs.link(&ctx, "/a/f0", "/a/hard").unwrap();
        fs.symlink(&ctx, "/a/f1", "/a/soft").unwrap();
        fs.rename(&ctx, "/a/f2", "/a/renamed").unwrap();
        fs.unlink(&ctx, "/a/f3").unwrap();
        let r = check(&fs, true);
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.files, 49);
        assert_eq!(r.symlinks, 1);
        assert_eq!(r.directories, 2);
        assert_eq!(r.entries, 52, "49 file entries + hard link + symlink + the /a dirent");
    }

    #[test]
    fn detects_wrong_nlink() {
        let (fs, ctx) = fresh();
        fs.write_file(&ctx, "/f", b"x").unwrap();
        let st = fs.stat(&ctx, "/f").unwrap();
        Inode(PPtr::new(st.ino)).set_nlink(fs.region(), 9);
        let r = check(&fs, true);
        assert!(!r.is_clean());
        assert!(r.violations[0].what.contains("nlink 9"));
    }

    #[test]
    fn detects_armed_log_and_busy_line() {
        let (fs, ctx) = fresh();
        fs.mkdir(&ctx, "/d", FileMode::dir(0o755)).unwrap();
        let (_, first) = fs.testing_dir_block("/d").unwrap();
        first.try_busy(fs.region(), 3);
        let log = crate::obj::dirblock::RenameLog { op: logop::CROSS_RENAME, ..Default::default() };
        first.write_log(fs.region(), &log);
        let r = check(&fs, true);
        assert!(r.violations.iter().any(|v| v.what.contains("busy")));
        assert!(r.violations.iter().any(|v| v.what.contains("log")));
        // Non-quiescent mode tolerates busy flags (concurrent writers).
        first.clear_log(fs.region());
        let r = check(&fs, false);
        assert!(r.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn detects_dirty_entry_at_quiescence() {
        let (fs, ctx) = fresh();
        fs.write_file(&ctx, "/f", b"x").unwrap();
        let env = fs.testing_dir_env();
        let (_, first) = fs.testing_dir_block("/").unwrap();
        let fe = crate::dir::lookup(&env, first, "f").unwrap();
        obj::set_dirty(fs.region(), fe.ptr());
        let r = check(&fs, true);
        assert!(r.violations.iter().any(|v| v.what.contains("dirty")));
    }

    #[test]
    fn flags_non_prefix_dense_inline_extents() {
        use crate::obj::inode::{Extent, Inode};
        use simurgh_fsapi::OpenFlags;

        let (fs, ctx) = fresh();
        let rw = OpenFlags { read: true, ..OpenFlags::CREATE };
        let main = fs.open(&ctx, "/f", rw, FileMode::default()).unwrap();
        let decoy = fs.open(&ctx, "/decoy", OpenFlags::CREATE, FileMode::default()).unwrap();
        let chunk = vec![1u8; 4096];
        for i in 0..3u64 {
            fs.pwrite(&ctx, main, &chunk, i * 4096).unwrap();
            // Return the run /f parked after its tail, so the decoy's next
            // block can take that place and /f cannot extend in place.
            fs.quiesce_thread_caches();
            fs.pwrite(&ctx, decoy, &chunk, i * 4096).unwrap();
        }
        let st = fs.fstat(&ctx, main).unwrap();
        fs.close(&ctx, main).unwrap();
        fs.close(&ctx, decoy).unwrap();
        let ino = Inode(PPtr::new(st.ino));
        assert!(!ino.extent(fs.region(), 2).is_empty(), "need three inline extents");
        ino.set_extent(fs.region(), 1, Extent::default());
        let r = check(&fs, true);
        assert!(
            r.violations.iter().any(|v| v.what.contains("prefix")),
            "expected a prefix-density violation, got {:?}",
            r.violations
        );
    }

    #[test]
    fn mid_relocation_hole_is_not_a_crash_hole() {
        use crate::obj::inode::{Extent, Inode};
        use simurgh_fsapi::OpenFlags;

        let (fs, ctx) = fresh();
        let rw = OpenFlags { read: true, ..OpenFlags::CREATE };
        let main = fs.open(&ctx, "/f", rw, FileMode::default()).unwrap();
        let decoy = fs.open(&ctx, "/decoy", OpenFlags::CREATE, FileMode::default()).unwrap();
        let chunk = vec![1u8; 4096];
        for i in 0..3u64 {
            fs.pwrite(&ctx, main, &chunk, i * 4096).unwrap();
            // Return the run /f parked after its tail, so the decoy's next
            // block can take that place and /f cannot extend in place.
            fs.quiesce_thread_caches();
            fs.pwrite(&ctx, decoy, &chunk, i * 4096).unwrap();
        }
        let st = fs.fstat(&ctx, main).unwrap();
        fs.close(&ctx, main).unwrap();
        fs.close(&ctx, decoy).unwrap();
        let ino = Inode(PPtr::new(st.ino));
        assert!(!ino.extent(fs.region(), 2).is_empty(), "need three inline extents");

        // A mid-swap crash image: the relocation journal is armed for this
        // inode and the map has a hole. Not a defect — recovery rolls it
        // back — so fsck must not raise the prefix-density flag.
        assert!(crate::compact::journal::arm(fs.region(), ino));
        let saved = ino.extent(fs.region(), 1);
        ino.set_extent(fs.region(), 1, Extent::default());
        let r = check(&fs, false);
        assert!(
            !r.violations.iter().any(|v| v.what.contains("prefix")),
            "armed relocation misread as a crash hole: {:?}",
            r.violations
        );

        // The same hole with the journal idle IS a crash hole.
        crate::compact::journal::clear(fs.region());
        let r = check(&fs, false);
        assert!(
            r.violations.iter().any(|v| v.what.contains("prefix")),
            "genuine hole must still be flagged, got {:?}",
            r.violations
        );

        // A journal armed for a *different* inode gives no cover either.
        ino.set_extent(fs.region(), 1, saved);
        let other = fs.stat(&ctx, "/decoy").unwrap();
        assert!(crate::compact::journal::arm(fs.region(), Inode(PPtr::new(other.ino))));
        ino.set_extent(fs.region(), 1, Extent::default());
        let r = check(&fs, false);
        assert!(
            r.violations.iter().any(|v| v.what.contains("prefix")),
            "peer relocation must not mask this inode's hole, got {:?}",
            r.violations
        );
        crate::compact::journal::clear(fs.region());
    }

    #[test]
    fn clean_after_heavy_churn() {
        let (fs, ctx) = fresh();
        for round in 0..3 {
            for i in 0..40 {
                fs.write_file(&ctx, &format!("/r{round}-{i}"), &vec![round; 2000]).unwrap();
            }
            for i in (0..40).step_by(2) {
                fs.unlink(&ctx, &format!("/r{round}-{i}")).unwrap();
            }
            for i in (1..40).step_by(4) {
                fs.rename(&ctx, &format!("/r{round}-{i}"), &format!("/m{round}-{i}")).unwrap();
            }
        }
        let r = check(&fs, true);
        assert!(r.is_clean(), "{:?}", r.violations);
    }
}
