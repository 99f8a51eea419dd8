//! Inode layout.
//!
//! Simurgh inodes have no inode *number*: the 64-bit persistent pointer to
//! the inode is its unique identifier (§4.3 "Inode"), which removes the
//! number→location index kernel file systems need. The inode embeds three
//! inline extents and chains overflow extents through 4-KB extent blocks;
//! it also embeds the per-file reader/writer lock word (§4.3 "Data
//! operations"), which is logically volatile and reset at mount.

use std::sync::atomic::Ordering;

use simurgh_fsapi::types::{FileMode, FileType};
use simurgh_pmem::{PPtr, PmemRegion};

/// Size of one inode object.
pub const INODE_SIZE: u64 = 128;

/// Number of extents stored inline in the inode.
pub const INLINE_EXTENTS: usize = 3;

// Field offsets.
const O_MODE: u64 = 8;
const O_UID: u64 = 12;
const O_GID: u64 = 16;
const O_NLINK: u64 = 20;
const O_SIZE: u64 = 24;
const O_ATIME: u64 = 32;
const O_MTIME: u64 = 40;
const O_CTIME: u64 = 48;
/// Per-file rwlock word (volatile-in-NVMM; cleared on mount).
pub const O_LOCK: u64 = 56;
const O_EXTENTS: u64 = 72;
const O_EXT_NEXT: u64 = 120;

simurgh_pmem::media_struct! {
    /// One extent: a contiguous run of file bytes in the data area. An
    /// entry of the inline extent table (`O_EXTENTS`) and of extent blocks.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct Extent (size 16, align 8) {
        /// Byte offset of the run in the region (block aligned), or 0 if unset.
        @0 pub start: u64,
        /// Length in bytes.
        @8 pub len: u64,
    }
}

impl Extent {
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Typed view over an inode object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inode(pub PPtr);

impl Inode {
    #[inline]
    pub fn ptr(self) -> PPtr {
        self.0
    }

    /// Writes the full initial field set (create path). Caller persists.
    #[allow(clippy::too_many_arguments)]
    pub fn init(
        self,
        r: &PmemRegion,
        mode: FileMode,
        uid: u32,
        gid: u32,
        nlink: u32,
        now: u64,
    ) {
        self.set_mode(r, mode);
        r.write(self.0.add(O_UID), uid);
        r.write(self.0.add(O_GID), gid);
        r.write(self.0.add(O_NLINK), nlink);
        r.write(self.0.add(O_SIZE), 0u64);
        r.write(self.0.add(O_ATIME), now);
        r.write(self.0.add(O_MTIME), now);
        r.write(self.0.add(O_CTIME), now);
        r.write(self.0.add(O_LOCK), 0u64);
        for i in 0..INLINE_EXTENTS {
            self.set_extent(r, i, Extent::default());
        }
        r.write(self.0.add(O_EXT_NEXT), 0u64);
    }

    pub fn mode(self, r: &PmemRegion) -> FileMode {
        let raw: u32 = r.read(self.0.add(O_MODE));
        let ftype = match raw >> 16 {
            1 => FileType::Directory,
            2 => FileType::Symlink,
            _ => FileType::Regular,
        };
        FileMode { ftype, perm: (raw & 0o777) as u16 }
    }

    pub fn set_mode(self, r: &PmemRegion, mode: FileMode) {
        let t: u32 = match mode.ftype {
            FileType::Regular => 0,
            FileType::Directory => 1,
            FileType::Symlink => 2,
        };
        r.write(self.0.add(O_MODE), (t << 16) | (mode.perm as u32 & 0o777));
    }

    pub fn uid(self, r: &PmemRegion) -> u32 {
        r.read(self.0.add(O_UID))
    }

    pub fn gid(self, r: &PmemRegion) -> u32 {
        r.read(self.0.add(O_GID))
    }

    pub fn nlink(self, r: &PmemRegion) -> u32 {
        r.read(self.0.add(O_NLINK))
    }

    pub fn set_nlink(self, r: &PmemRegion, n: u32) {
        r.write(self.0.add(O_NLINK), n);
        r.persist(self.0.add(O_NLINK), 4);
    }

    /// Adds one link unless the count already reached 0 (the last name is
    /// gone and the inode is being retired). Returns whether it was added.
    pub fn inc_nlink(self, r: &PmemRegion) -> bool {
        self.update_nlink(r, |n| if n == 0 { None } else { Some(n + 1) }).is_some()
    }

    /// Drops one link; returns the count before the drop, or `None` if it
    /// was already 0.
    pub fn dec_nlink(self, r: &PmemRegion) -> Option<u32> {
        self.update_nlink(r, |n| n.checked_sub(1))
    }

    /// One atomic read-modify-write of the media link count, then made
    /// durable: concurrent link/unlink of one inode from different
    /// directories hold no common lock, so a load-then-store would lose
    /// updates. `f` returning `None` leaves the count as it is.
    fn update_nlink(self, r: &PmemRegion, f: impl FnMut(u32) -> Option<u32>) -> Option<u32> {
        let p = self.0.add(O_NLINK);
        let prev = r.atomic_u32(p).fetch_update(Ordering::AcqRel, Ordering::Acquire, f).ok()?;
        r.note_atomic(p, 4);
        r.persist(p, 4);
        Some(prev)
    }

    pub fn size(self, r: &PmemRegion) -> u64 {
        r.read(self.0.add(O_SIZE))
    }

    /// Sets the size field; the caller orders this after the data persist
    /// ("metadata updates occur after the data has been persisted").
    pub fn set_size(self, r: &PmemRegion, size: u64) {
        r.write(self.0.add(O_SIZE), size);
        r.persist(self.0.add(O_SIZE), 8);
    }

    pub fn times(self, r: &PmemRegion) -> (u64, u64, u64) {
        (r.read(self.0.add(O_ATIME)), r.read(self.0.add(O_MTIME)), r.read(self.0.add(O_CTIME)))
    }

    pub fn set_atime(self, r: &PmemRegion, t: u64) {
        r.write(self.0.add(O_ATIME), t);
    }

    pub fn set_mtime(self, r: &PmemRegion, t: u64) {
        r.write(self.0.add(O_MTIME), t);
    }

    pub fn set_ctime(self, r: &PmemRegion, t: u64) {
        r.write(self.0.add(O_CTIME), t);
    }

    pub fn extent(self, r: &PmemRegion, i: usize) -> Extent {
        debug_assert!(i < INLINE_EXTENTS);
        let base = self.0.add(O_EXTENTS + (i as u64) * 16);
        r.read::<Extent>(base)
    }

    pub fn set_extent(self, r: &PmemRegion, i: usize, e: Extent) {
        debug_assert!(i < INLINE_EXTENTS);
        let base = self.0.add(O_EXTENTS + (i as u64) * 16);
        r.write(base, e.start);
        r.write(base.add(8), e.len);
        r.persist(base, 16);
    }

    /// Pointer to the first overflow extent block (or NULL).
    pub fn ext_next(self, r: &PmemRegion) -> PPtr {
        PPtr::new(r.read(self.0.add(O_EXT_NEXT)))
    }

    pub fn set_ext_next(self, r: &PmemRegion, p: PPtr) {
        r.write(self.0.add(O_EXT_NEXT), p.off());
        r.persist(self.0.add(O_EXT_NEXT), 8);
    }

    /// The per-file rwlock word address (used by `file::FileLock`).
    pub fn lock_ptr(self) -> PPtr {
        self.0.add(O_LOCK)
    }

    pub fn stat(self, r: &PmemRegion) -> simurgh_fsapi::Stat {
        let (atime, mtime, ctime) = self.times(r);
        simurgh_fsapi::Stat {
            ino: self.0.off(),
            mode: self.mode(r),
            uid: self.uid(r),
            gid: self.gid(r),
            size: self.size(r),
            nlink: self.nlink(r),
            atime,
            mtime,
            ctime,
        }
    }
}

/// Overflow extent block layout (one 4-KB data block).
pub mod extblock {
    use super::Extent;
    use simurgh_pmem::{PPtr, PmemRegion};

    const O_NEXT: u64 = 0;
    const O_COUNT: u64 = 8;
    const O_ENTRIES: u64 = 16;
    /// Extents per overflow block.
    pub const CAPACITY: usize = (crate::BLOCK_SIZE - 16) / 16;

    pub fn init(r: &PmemRegion, blk: PPtr) {
        r.zero(blk, crate::BLOCK_SIZE);
        r.persist(blk, crate::BLOCK_SIZE);
    }

    pub fn next(r: &PmemRegion, blk: PPtr) -> PPtr {
        PPtr::new(r.read(blk.add(O_NEXT)))
    }

    pub fn set_next(r: &PmemRegion, blk: PPtr, p: PPtr) {
        r.write(blk.add(O_NEXT), p.off());
        r.persist(blk.add(O_NEXT), 8);
    }

    pub fn count(r: &PmemRegion, blk: PPtr) -> usize {
        r.read::<u64>(blk.add(O_COUNT)) as usize
    }

    pub fn get(r: &PmemRegion, blk: PPtr, i: usize) -> Extent {
        debug_assert!(i < CAPACITY);
        let base = blk.add(O_ENTRIES + (i as u64) * 16);
        Extent { start: r.read(base), len: r.read(base.add(8)) }
    }

    /// Appends an extent; persists entry before count so a crash never
    /// exposes an uninitialized entry.
    pub fn push(r: &PmemRegion, blk: PPtr, e: Extent) -> bool {
        let c = count(r, blk);
        if c >= CAPACITY {
            return false;
        }
        let base = blk.add(O_ENTRIES + (c as u64) * 16);
        r.write(base, e.start);
        r.write(base.add(8), e.len);
        r.persist(base, 16);
        r.write(blk.add(O_COUNT), (c + 1) as u64);
        r.persist(blk.add(O_COUNT), 8);
        true
    }

    /// Rewrites the length of extent `i` (used when growing the tail).
    pub fn set_len(r: &PmemRegion, blk: PPtr, i: usize, len: u64) {
        let base = blk.add(O_ENTRIES + (i as u64) * 16 + 8);
        r.write(base, len);
        r.persist(base, 8);
    }

    /// Replaces the whole block in place: entries are persisted before the
    /// count so a crash mid-rewrite never exposes stale slots beyond the
    /// new count. Used by truncate, which only ever shrinks the map.
    pub fn rewrite(r: &PmemRegion, blk: PPtr, entries: &[Extent], next_blk: PPtr) {
        assert!(entries.len() <= CAPACITY);
        for (i, e) in entries.iter().enumerate() {
            let base = blk.add(O_ENTRIES + (i as u64) * 16);
            r.write(base, e.start);
            r.write(base.add(8), e.len);
        }
        if !entries.is_empty() {
            r.persist(blk.add(O_ENTRIES), entries.len() * 16);
        }
        r.write(blk.add(O_COUNT), entries.len() as u64);
        r.write(blk.add(O_NEXT), next_blk.off());
        r.persist(blk, 16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> PmemRegion {
        PmemRegion::new(64 * 1024)
    }

    #[test]
    fn init_and_field_roundtrip() {
        let r = region();
        let ino = Inode(PPtr::new(4096));
        ino.init(&r, FileMode::dir(0o750), 10, 20, 2, 99);
        assert_eq!(ino.mode(&r), FileMode::dir(0o750));
        assert_eq!(ino.uid(&r), 10);
        assert_eq!(ino.gid(&r), 20);
        assert_eq!(ino.nlink(&r), 2);
        assert_eq!(ino.size(&r), 0);
        assert_eq!(ino.times(&r), (99, 99, 99));
        assert!(ino.extent(&r, 0).is_empty());
        assert!(ino.ext_next(&r).is_null());
    }

    #[test]
    fn mode_encodings() {
        let r = region();
        let ino = Inode(PPtr::new(4096));
        for m in [FileMode::file(0o644), FileMode::dir(0o700), FileMode::symlink()] {
            ino.set_mode(&r, m);
            assert_eq!(ino.mode(&r), m);
        }
    }

    #[test]
    fn extents_roundtrip() {
        let r = region();
        let ino = Inode(PPtr::new(4096));
        ino.init(&r, FileMode::file(0o644), 0, 0, 1, 0);
        ino.set_extent(&r, 1, Extent { start: 8192, len: 12288 });
        assert_eq!(ino.extent(&r, 1), Extent { start: 8192, len: 12288 });
        assert!(ino.extent(&r, 0).is_empty());
    }

    #[test]
    fn stat_mirrors_fields() {
        let r = region();
        let ino = Inode(PPtr::new(4096));
        ino.init(&r, FileMode::file(0o600), 7, 8, 1, 5);
        ino.set_size(&r, 1234);
        let st = ino.stat(&r);
        assert_eq!(st.ino, 4096);
        assert_eq!(st.size, 1234);
        assert_eq!((st.uid, st.gid, st.nlink), (7, 8, 1));
        assert!(st.is_file());
    }

    #[test]
    fn extent_block_push_and_walk() {
        let r = region();
        let blk = PPtr::new(8192);
        extblock::init(&r, blk);
        assert_eq!(extblock::count(&r, blk), 0);
        for i in 0..10 {
            assert!(extblock::push(&r, blk, Extent { start: (i + 4) * 4096, len: 4096 }));
        }
        assert_eq!(extblock::count(&r, blk), 10);
        assert_eq!(extblock::get(&r, blk, 3).start, 7 * 4096);
        extblock::set_len(&r, blk, 9, 8192);
        assert_eq!(extblock::get(&r, blk, 9).len, 8192);
        assert!(extblock::next(&r, blk).is_null());
        extblock::set_next(&r, blk, PPtr::new(12288));
        assert_eq!(extblock::next(&r, blk), PPtr::new(12288));
    }

    #[test]
    fn extent_block_capacity_bound() {
        let r = PmemRegion::new(2 << 20);
        let blk = PPtr::new(8192);
        extblock::init(&r, blk);
        for i in 0..extblock::CAPACITY {
            assert!(extblock::push(&r, blk, Extent { start: (i as u64 + 10) * 4096, len: 1 }));
        }
        assert!(!extblock::push(&r, blk, Extent { start: 4096, len: 1 }), "block full");
        assert_eq!(extblock::count(&r, blk), extblock::CAPACITY);
    }
}
