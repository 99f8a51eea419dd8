//! The superblock: format identity, layout table and clean-shutdown flag.
//!
//! Page 0 of the region. Besides the usual magic/epoch/root fields it holds
//! the **pool segment table**: the paper's metadata allocator "saves the
//! layout of the preallocated metadata spaces inside the superblock"
//! (§4.2), so after a crash the mark-and-sweep scan knows exactly where
//! metadata objects live without trusting any volatile state.

use simurgh_pmem::layout::Extent;
use simurgh_pmem::{PPtr, PmemRegion};

use crate::obj::Tag;

/// "SIMURGH1" in LE bytes.
pub const MAGIC: u64 = 0x3148_4752_554d_4953;
pub const VERSION: u64 = 1;

/// Maximum pool segments per object kind. Segments double in size as a
/// pool grows, so 32 slots cover terabyte-scale pools.
pub const MAX_POOL_SEGS: usize = 32;

const O_MAGIC: u64 = 0;
const O_VERSION: u64 = 8;
const O_CLEAN: u64 = 16;
const O_REGION_LEN: u64 = 24;
const O_ROOT: u64 = 32;
const O_DATA_START: u64 = 40;
const O_DATA_LEN: u64 = 48;
const O_EPOCH: u64 = 56;
const O_POOLS: u64 = 64; // 3 kinds x 32 segs x (start,count) = 1536 bytes; ends at 1600

// Bytes 1600..2048 hold the single-slot relocation journal used by the
// online compactor — see `crate::compact` for the record layout. Bytes
// 2048.. hold the shared-mount coordination words and block-bitmap
// geometry — see `crate::shared` for their semantics.

/// Byte offset of the compactor's relocation journal (one slot; the
/// compactor relocates one file map at a time). Layout and crash
/// semantics live in [`crate::compact`].
pub const O_RELOC: u64 = 1600;

/// In-progress marker for a pool table slot being claimed by
/// [`Superblock::add_pool_seg`] (never a real object count).
const SEG_CLAIM: u64 = u64::MAX;

/// Metadata pool kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    Inode = 0,
    FileEntry = 1,
    DirBlock = 2,
}

impl PoolKind {
    pub const ALL: [PoolKind; 3] = [PoolKind::Inode, PoolKind::FileEntry, PoolKind::DirBlock];

    /// Object size of this pool.
    pub fn obj_size(self) -> u64 {
        match self {
            PoolKind::Inode => crate::obj::inode::INODE_SIZE,
            PoolKind::FileEntry => crate::obj::fentry::FENTRY_SIZE,
            PoolKind::DirBlock => crate::obj::dirblock::DIRBLOCK_SIZE,
        }
    }

    /// Header tag objects of this pool carry.
    pub fn tag(self) -> Tag {
        match self {
            PoolKind::Inode => Tag::Inode,
            PoolKind::FileEntry => Tag::FileEntry,
            PoolKind::DirBlock => Tag::DirBlock,
        }
    }
}

simurgh_pmem::media_struct! {
    /// One pool segment: `count` objects starting at byte offset `start`.
    /// An entry of the superblock's pool segment table (`O_POOLS`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PoolSeg (size 16, align 8) {
        @0 pub start: u64,
        @8 pub count: u64,
    }
}

/// Typed view over the superblock.
#[derive(Debug, Clone, Copy)]
pub struct Superblock;

impl Superblock {
    /// Formats the superblock fields. The pool table starts empty; segments
    /// are added as [`add_pool_seg`](Self::add_pool_seg) carves them.
    pub fn format(r: &PmemRegion, root_inode: PPtr, data: Extent) {
        r.write(PPtr::new(O_VERSION), VERSION);
        r.write(PPtr::new(O_CLEAN), 0u64);
        r.write(PPtr::new(O_REGION_LEN), r.len() as u64);
        r.write(PPtr::new(O_ROOT), root_inode.off());
        r.write(PPtr::new(O_DATA_START), data.start.off());
        r.write(PPtr::new(O_DATA_LEN), data.len);
        r.write(PPtr::new(O_EPOCH), 1u64);
        r.zero(PPtr::new(O_POOLS), 3 * MAX_POOL_SEGS * 16);
        r.persist(PPtr::new(8), (O_POOLS + 3 * MAX_POOL_SEGS as u64 * 16 - 8) as usize);
        // Magic last: a torn format never looks mountable.
        r.write(PPtr::new(O_MAGIC), MAGIC);
        r.persist(PPtr::new(O_MAGIC), 8);
    }

    /// Whether the region carries a valid Simurgh superblock. Besides the
    /// magic/version identity this checks the recorded region length against
    /// the actual mapping: a mapping *shorter* than the recorded length
    /// means media was truncated behind our back and is rejected. A mapping
    /// *longer* than the recorded length is a grown backing file whose new
    /// capacity has not been adopted yet — still mountable; the next
    /// exclusive mount re-records the geometry ([`record_growth`]
    /// (Self::record_growth)).
    pub fn is_valid(r: &PmemRegion) -> bool {
        if r.len() < simurgh_pmem::PAGE_SIZE
            || r.read::<u64>(PPtr::new(O_MAGIC)) != MAGIC
            || r.read::<u64>(PPtr::new(O_VERSION)) != VERSION
        {
            return false;
        }
        let recorded = r.read::<u64>(PPtr::new(O_REGION_LEN));
        recorded >= simurgh_pmem::PAGE_SIZE as u64 && recorded <= r.len() as u64
    }

    /// Region length recorded at format (or last growth adoption).
    pub fn region_len(r: &PmemRegion) -> u64 {
        r.read(PPtr::new(O_REGION_LEN))
    }

    /// Re-records the geometry after the backing file was grown. The data
    /// extent is persisted before the region length, so a crash mid-adoption
    /// leaves either the old geometry intact or a new data extent that the
    /// next mount's re-run of adoption recomputes identically — adoption is
    /// idempotent and keyed off `r.len() > region_len(r)`.
    pub fn record_growth(r: &PmemRegion, data: Extent) {
        r.write(PPtr::new(O_DATA_START), data.start.off());
        r.write(PPtr::new(O_DATA_LEN), data.len);
        r.persist(PPtr::new(O_DATA_START), 16);
        r.write(PPtr::new(O_REGION_LEN), r.len() as u64);
        r.persist(PPtr::new(O_REGION_LEN), 8);
    }

    pub fn root_inode(r: &PmemRegion) -> PPtr {
        PPtr::new(r.read(PPtr::new(O_ROOT)))
    }

    /// Publishes the root inode pointer (format writes it after allocating
    /// the root from the freshly grown pools).
    pub fn set_root(r: &PmemRegion, root: PPtr) {
        r.write(PPtr::new(O_ROOT), root.off());
        r.persist(PPtr::new(O_ROOT), 8);
    }

    pub fn data_extent(r: &PmemRegion) -> Extent {
        Extent {
            start: PPtr::new(r.read(PPtr::new(O_DATA_START))),
            len: r.read(PPtr::new(O_DATA_LEN)),
        }
    }

    /// Clean-shutdown flag: set at unmount, cleared right after mount so a
    /// crash while mounted is detected next time.
    pub fn is_clean(r: &PmemRegion) -> bool {
        r.read::<u64>(PPtr::new(O_CLEAN)) == 1
    }

    pub fn set_clean(r: &PmemRegion, clean: bool) {
        r.write(PPtr::new(O_CLEAN), clean as u64);
        r.persist(PPtr::new(O_CLEAN), 8);
    }

    pub fn epoch(r: &PmemRegion) -> u64 {
        r.read(PPtr::new(O_EPOCH))
    }

    pub fn bump_epoch(r: &PmemRegion) {
        let e = Self::epoch(r);
        r.write(PPtr::new(O_EPOCH), e + 1);
        r.persist(PPtr::new(O_EPOCH), 8);
    }

    fn seg_addr(kind: PoolKind, idx: usize) -> PPtr {
        PPtr::new(O_POOLS + ((kind as usize * MAX_POOL_SEGS + idx) as u64) * 16)
    }

    /// Reads pool segment `idx` of `kind`, if present. A slot mid-claim by
    /// a concurrent (or crashed) `add_pool_seg` reads as absent, exactly
    /// like a torn record.
    pub fn pool_seg(r: &PmemRegion, kind: PoolKind, idx: usize) -> Option<PoolSeg> {
        if idx >= MAX_POOL_SEGS {
            return None;
        }
        let a = Self::seg_addr(kind, idx);
        let seg = r.read::<PoolSeg>(a);
        if seg.count == 0 || seg.count == SEG_CLAIM {
            return None;
        }
        Some(seg)
    }

    /// All segments of a pool.
    pub fn pool_segs(r: &PmemRegion, kind: PoolKind) -> Vec<PoolSeg> {
        (0..MAX_POOL_SEGS).map_while(|i| Self::pool_seg(r, kind, i)).collect()
    }

    /// Records a new pool segment. The slot is claimed with a CAS on the
    /// count word (0 → [`SEG_CLAIM`]) so two processes growing the same
    /// pool through a shared mapping never write the same slot; start is
    /// then persisted before the real count so a torn record reads as
    /// absent. Returns false if the table is full.
    pub fn add_pool_seg(r: &PmemRegion, kind: PoolKind, seg: PoolSeg) -> bool {
        debug_assert!(seg.count != 0 && seg.count != SEG_CLAIM);
        for i in 0..MAX_POOL_SEGS {
            let a = Self::seg_addr(kind, i);
            let count_word = r.atomic_u64(a.add(8));
            if count_word
                .compare_exchange(
                    0,
                    SEG_CLAIM,
                    std::sync::atomic::Ordering::AcqRel,
                    std::sync::atomic::Ordering::Acquire,
                )
                .is_err()
            {
                continue; // occupied or being claimed by a peer
            }
            r.write(a, seg.start);
            r.persist(a, 8);
            count_word.store(seg.count, std::sync::atomic::Ordering::Release);
            r.note_atomic(a.add(8), 8);
            r.persist(a.add(8), 8);
            return true;
        }
        false
    }

    /// Releases pool table slots whose claimer crashed mid-`add_pool_seg`
    /// (count still [`SEG_CLAIM`]), making them recordable again. Called by
    /// mount-time recovery, which runs exclusively — no live claimers exist.
    pub fn clear_torn_pool_claims(r: &PmemRegion) {
        for kind in PoolKind::ALL {
            for i in 0..MAX_POOL_SEGS {
                let a = Self::seg_addr(kind, i);
                if r.read::<u64>(a.add(8)) == SEG_CLAIM {
                    r.write(a.add(8), 0u64);
                    r.persist(a.add(8), 8);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn formatted() -> PmemRegion {
        let r = PmemRegion::new(1 << 20);
        Superblock::format(
            &r,
            PPtr::new(8192),
            Extent { start: PPtr::new(65536), len: (1 << 20) - 65536 },
        );
        r
    }

    #[test]
    fn format_and_identity() {
        let r = formatted();
        assert!(Superblock::is_valid(&r));
        assert_eq!(Superblock::root_inode(&r), PPtr::new(8192));
        assert_eq!(Superblock::data_extent(&r).start, PPtr::new(65536));
        assert_eq!(Superblock::epoch(&r), 1);
        assert!(!Superblock::is_clean(&r));
    }

    #[test]
    fn blank_region_is_invalid() {
        let r = PmemRegion::new(1 << 16);
        assert!(!Superblock::is_valid(&r));
    }

    #[test]
    fn grown_mapping_stays_valid_truncated_does_not() {
        let r = formatted();
        // A recorded length lagging the mapping is a grown-but-unadopted
        // backing file: still mountable.
        r.write(PPtr::new(O_REGION_LEN), (1u64 << 20) / 2);
        assert!(Superblock::is_valid(&r));
        // A recorded length exceeding the mapping is truncated media: never.
        r.write(PPtr::new(O_REGION_LEN), (1u64 << 20) * 2);
        assert!(!Superblock::is_valid(&r));
    }

    #[test]
    fn record_growth_updates_data_extent_and_region_len() {
        let r = formatted();
        Superblock::record_growth(
            &r,
            Extent { start: PPtr::new(65536), len: (1 << 20) - 65536 - 4096 },
        );
        assert_eq!(Superblock::region_len(&r), 1 << 20);
        assert_eq!(Superblock::data_extent(&r).len, (1 << 20) - 65536 - 4096);
        assert!(Superblock::is_valid(&r));
    }

    #[test]
    fn clean_flag_roundtrip() {
        let r = formatted();
        Superblock::set_clean(&r, true);
        assert!(Superblock::is_clean(&r));
        Superblock::set_clean(&r, false);
        assert!(!Superblock::is_clean(&r));
    }

    #[test]
    fn pool_table_append_and_enumerate() {
        let r = formatted();
        assert!(Superblock::pool_segs(&r, PoolKind::Inode).is_empty());
        assert!(Superblock::add_pool_seg(&r, PoolKind::Inode, PoolSeg { start: 100_000, count: 64 }));
        assert!(Superblock::add_pool_seg(&r, PoolKind::Inode, PoolSeg { start: 200_000, count: 32 }));
        assert!(Superblock::add_pool_seg(&r, PoolKind::DirBlock, PoolSeg { start: 300_000, count: 8 }));
        let segs = Superblock::pool_segs(&r, PoolKind::Inode);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1], PoolSeg { start: 200_000, count: 32 });
        assert_eq!(Superblock::pool_segs(&r, PoolKind::DirBlock).len(), 1);
        assert!(Superblock::pool_segs(&r, PoolKind::FileEntry).is_empty());
    }

    #[test]
    fn pool_table_capacity() {
        let r = formatted();
        for i in 0..MAX_POOL_SEGS {
            assert!(Superblock::add_pool_seg(
                &r,
                PoolKind::FileEntry,
                PoolSeg { start: (i as u64 + 1) * 1000, count: 1 }
            ));
        }
        assert!(!Superblock::add_pool_seg(&r, PoolKind::FileEntry, PoolSeg { start: 1, count: 1 }));
        assert_eq!(Superblock::pool_segs(&r, PoolKind::FileEntry).len(), MAX_POOL_SEGS);
    }

    #[test]
    fn epoch_bumps() {
        let r = formatted();
        Superblock::bump_epoch(&r);
        Superblock::bump_epoch(&r);
        assert_eq!(Superblock::epoch(&r), 3);
    }

    #[test]
    fn pool_kind_properties() {
        assert_eq!(PoolKind::Inode.obj_size(), 128);
        assert_eq!(PoolKind::FileEntry.obj_size(), 256);
        assert_eq!(PoolKind::DirBlock.obj_size(), 4096);
        assert_eq!(PoolKind::Inode.tag(), Tag::Inode);
        assert_eq!(PoolKind::FileEntry.tag(), Tag::FileEntry);
        assert_eq!(PoolKind::DirBlock.tag(), Tag::DirBlock);
    }
}
