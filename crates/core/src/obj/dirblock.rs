//! Directory hash-block layout.
//!
//! A directory is a chain of 4-KB hash blocks (§4.3 "Directory blocks").
//! Each block is a linear hash map with [`NLINES`] lines; a line holds one
//! persistent pointer per block, so collisions extend the chain through the
//! `next` field. Only the **first** block of a directory carries the
//! per-line busy flags and the single log entry used by cross-directory
//! renames — exactly as described in the paper.

use std::sync::atomic::Ordering;

use simurgh_pmem::{PPtr, PmemRegion};

/// Size of one directory hash block.
pub const DIRBLOCK_SIZE: u64 = 4096;

/// Hash lines per directory.
pub const NLINES: usize = 256;

const O_NEXT: u64 = 8;
const O_FLAGS: u64 = 16;
const O_LOG: u64 = 24;
const O_BUSY: u64 = 128;
const O_LINES: u64 = 384;

/// Block flag: this is the first block of its directory. The paper's
/// "dirty directory bit" of Fig. 5c is not kept: recovery detects an
/// interrupted rename from the line/name mismatch and the rename log.
pub const DF_FIRST: u64 = 1 << 0;

/// Typed view over one directory hash block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirBlock(pub PPtr);

simurgh_pmem::media_struct! {
    /// The per-directory log entry (stored in the first block at `O_LOG`).
    /// There is one entry per directory, but the busy flags serialize
    /// renames only per hash line: two cross-directory renames out of one
    /// directory on different lines write the same entry, a known race
    /// (ROADMAP.md, open items).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct RenameLog (size 64, align 8) {
        /// 0 = idle, 1 = cross-directory rename (this dir is the source).
        @0 pub op: u64,
        @8 pub src_dir: u64,
        @16 pub dst_dir: u64,
        @24 pub inode: u64,
        @32 pub old_fentry: u64,
        @40 pub new_fentry: u64,
        @48 pub old_line: u64,
        @56 pub new_line: u64,
    }
}

/// Log operation codes.
pub mod logop {
    pub const IDLE: u64 = 0;
    pub const CROSS_RENAME: u64 = 1;
}

impl DirBlock {
    #[inline]
    pub fn ptr(self) -> PPtr {
        self.0
    }

    /// Zero-initializes the block body and writes its flags. The caller
    /// sets the header via the metadata allocator.
    pub fn init(self, r: &PmemRegion, first: bool) {
        r.zero(self.0.add(8), (DIRBLOCK_SIZE - 8) as usize);
        if first {
            r.write(self.0.add(O_FLAGS), DF_FIRST);
        }
        r.persist(self.0.add(8), (DIRBLOCK_SIZE - 8) as usize);
    }

    pub fn next(self, r: &PmemRegion) -> PPtr {
        PPtr::new(r.atomic_u64(self.0.add(O_NEXT)).load(Ordering::Acquire))
    }

    /// Overwrites the next-block link. Only the exclusive mount uses this,
    /// to splice an emptied block out of the chain; a mounted chain only
    /// grows, through [`try_set_next`](Self::try_set_next).
    pub fn set_next(self, r: &PmemRegion, p: PPtr) {
        r.atomic_u64(self.0.add(O_NEXT)).store(p.off(), Ordering::Release);
        r.note_atomic(self.0.add(O_NEXT), 8);
        r.persist_now(self.0.add(O_NEXT), 8);
    }

    /// Links `p` after this block (Fig. 5a step 4) only if no other writer
    /// extended the chain first. Writers on *different* lines hold
    /// different busy flags, so two of them can reach the same chain tail
    /// concurrently; a plain store would let the second overwrite the
    /// first's link and lose its block.
    pub fn try_set_next(self, r: &PmemRegion, p: PPtr) -> bool {
        let won = r
            .atomic_u64(self.0.add(O_NEXT))
            .compare_exchange(0, p.off(), Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            r.note_atomic(self.0.add(O_NEXT), 8);
            r.persist_now(self.0.add(O_NEXT), 8);
        }
        won
    }

    pub fn is_first(self, r: &PmemRegion) -> bool {
        r.atomic_u64(self.0.add(O_FLAGS)).load(Ordering::Acquire) & DF_FIRST != 0
    }

    // ----- lines ------------------------------------------------------------

    /// Reads the file-entry pointer of `line` in this block.
    #[inline]
    pub fn line(self, r: &PmemRegion, line: usize) -> PPtr {
        debug_assert!(line < NLINES);
        PPtr::new(r.atomic_u64(self.0.add(O_LINES + (line as u64) * 8)).load(Ordering::Acquire))
    }

    /// Atomically publishes (or clears, with NULL) the file-entry pointer
    /// of `line` and persists it — the single-pointer update every Fig. 5
    /// protocol step hinges on.
    #[inline]
    pub fn set_line(self, r: &PmemRegion, line: usize, p: PPtr) {
        debug_assert!(line < NLINES);
        let addr = self.0.add(O_LINES + (line as u64) * 8);
        r.atomic_u64(addr).store(p.off(), Ordering::Release);
        r.note_atomic(addr, 8);
        r.persist_now(addr, 8);
    }

    // ----- busy flags (first block only) -------------------------------------

    /// Tries to acquire the busy flag of `line`. Returns false if held.
    #[inline]
    pub fn try_busy(self, r: &PmemRegion, line: usize) -> bool {
        debug_assert!(line < NLINES);
        r.atomic_u8(self.0.add(O_BUSY + line as u64))
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Releases the busy flag of `line`.
    #[inline]
    pub fn release_busy(self, r: &PmemRegion, line: usize) {
        debug_assert!(line < NLINES);
        r.atomic_u8(self.0.add(O_BUSY + line as u64)).store(0, Ordering::Release);
    }

    /// Whether `line` is currently busy.
    #[inline]
    pub fn is_busy(self, r: &PmemRegion, line: usize) -> bool {
        r.atomic_u8(self.0.add(O_BUSY + line as u64)).load(Ordering::Acquire) != 0
    }

    /// Force-clears every busy flag (mount-time recovery: busy flags are
    /// meaningless after a whole-system crash).
    pub fn clear_all_busy(self, r: &PmemRegion) {
        for l in 0..NLINES {
            r.atomic_u8(self.0.add(O_BUSY + l as u64)).store(0, Ordering::Release);
        }
    }

    // ----- rename log (first block only) --------------------------------------

    pub fn read_log(self, r: &PmemRegion) -> RenameLog {
        r.read::<RenameLog>(self.0.add(O_LOG))
    }

    /// Writes and persists the log entry; the `op` field is persisted last
    /// so a torn log write never reads as an armed log.
    pub fn write_log(self, r: &PmemRegion, log: &RenameLog) {
        let b = self.0.add(O_LOG);
        r.write(b.add(8), log.src_dir);
        r.write(b.add(16), log.dst_dir);
        r.write(b.add(24), log.inode);
        r.write(b.add(32), log.old_fentry);
        r.write(b.add(40), log.new_fentry);
        r.write(b.add(48), log.old_line);
        r.write(b.add(56), log.new_line);
        r.persist_now(b.add(8), 56);
        r.write(b, log.op);
        r.persist_now(b, 8);
    }

    /// Disarms the log (operation completed).
    pub fn clear_log(self, r: &PmemRegion) {
        r.write(self.0.add(O_LOG), logop::IDLE);
        r.persist_now(self.0.add(O_LOG), 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> PmemRegion {
        PmemRegion::new(64 * 1024)
    }

    #[test]
    fn layout_fits_one_block() {
        let (lines, busy, log) = (O_LINES, O_BUSY, O_LOG);
        assert!(lines + (NLINES as u64) * 8 <= DIRBLOCK_SIZE);
        assert!(busy + NLINES as u64 <= lines);
        assert!(log + 64 <= busy);
    }

    #[test]
    fn init_sets_first_flag_only_on_first() {
        let r = region();
        let a = DirBlock(PPtr::new(4096));
        let b = DirBlock(PPtr::new(8192));
        a.init(&r, true);
        b.init(&r, false);
        assert!(a.is_first(&r));
        assert!(!b.is_first(&r));
        for l in [0, 100, NLINES - 1] {
            assert!(a.line(&r, l).is_null());
        }
    }

    #[test]
    fn lines_roundtrip() {
        let r = region();
        let b = DirBlock(PPtr::new(4096));
        b.init(&r, true);
        b.set_line(&r, 7, PPtr::new(0xbeef0));
        assert_eq!(b.line(&r, 7), PPtr::new(0xbeef0));
        b.set_line(&r, 7, PPtr::NULL);
        assert!(b.line(&r, 7).is_null());
    }

    #[test]
    fn chain_linking() {
        let r = region();
        let a = DirBlock(PPtr::new(4096));
        let b = DirBlock(PPtr::new(8192));
        a.init(&r, true);
        b.init(&r, false);
        assert!(a.next(&r).is_null());
        assert!(a.try_set_next(&r, b.ptr()));
        assert_eq!(a.next(&r), b.ptr());
    }

    #[test]
    fn try_set_next_loses_to_existing_link() {
        let r = region();
        let a = DirBlock(PPtr::new(4096));
        let b = DirBlock(PPtr::new(8192));
        let c = DirBlock(PPtr::new(12288));
        a.init(&r, true);
        b.init(&r, false);
        c.init(&r, false);
        assert!(a.try_set_next(&r, b.ptr()));
        assert!(!a.try_set_next(&r, c.ptr()), "second extender must lose");
        assert_eq!(a.next(&r), b.ptr(), "winner's link survives");
    }

    #[test]
    fn busy_flags_are_per_line() {
        let r = region();
        let b = DirBlock(PPtr::new(4096));
        b.init(&r, true);
        assert!(b.try_busy(&r, 3));
        assert!(!b.try_busy(&r, 3), "second acquire fails");
        assert!(b.try_busy(&r, 4), "other lines unaffected");
        assert!(b.is_busy(&r, 3));
        b.release_busy(&r, 3);
        assert!(!b.is_busy(&r, 3));
        assert!(b.try_busy(&r, 3));
        b.clear_all_busy(&r);
        assert!(!b.is_busy(&r, 3) && !b.is_busy(&r, 4));
    }

    #[test]
    fn rename_log_roundtrip() {
        let r = region();
        let b = DirBlock(PPtr::new(4096));
        b.init(&r, true);
        assert_eq!(b.read_log(&r).op, logop::IDLE);
        let log = RenameLog {
            op: logop::CROSS_RENAME,
            src_dir: 4096,
            dst_dir: 8192,
            inode: 111,
            old_fentry: 222,
            new_fentry: 333,
            old_line: 7,
            new_line: 9,
        };
        b.write_log(&r, &log);
        assert_eq!(b.read_log(&r), log);
        b.clear_log(&r);
        assert_eq!(b.read_log(&r).op, logop::IDLE);
    }
}
