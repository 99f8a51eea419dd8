//! Shared-region mount coordination (multi-process attach, §1 "fully
//! decentralized").
//!
//! When the region is a `MAP_SHARED` file mapping, several OS processes
//! mount the same bytes. Everything they coordinate through lives **in the
//! region** — this module owns the superblock words that arbitrate who runs
//! recovery and the geometry of the shared block-claim bitmap; nothing here
//! ever trusts another process's DRAM.
//!
//! ## Ownership protocol
//!
//! The words at [`O_STATE`]/[`O_ATTACH`] have *volatile* semantics: they are
//! meaningful only while at least one process is alive, and an exclusive
//! [`crate::fs::SimurghFs::mount`] (the crash-recovery entry point) resets
//! them unconditionally. The lifecycle:
//!
//! 1. `mount_shared` CASes the state word `DOWN → INITIALIZING`. The winner
//!    is the **recoverer**: it runs the full mount (mark / repair / sweep),
//!    publishes the block bitmap, then stores `UP`.
//! 2. Losers spin until `UP` and **attach**: they rebuild every volatile
//!    cache from media (block free lists from the bitmap, metadata free
//!    stacks from a header scan, an empty directory index that verifies on
//!    use) — never from a peer's DRAM.
//! 3. `unmount` decrements the attach count; the last process out stores
//!    `DOWN` and sets the clean flag. A `kill -9`'d process never
//!    decrements, so the region stays unclean and the *next* exclusive
//!    mount runs full recovery — exactly the paper's model.
//!
//! ## What is volatile-per-process vs. media
//!
//! [`REBUILDABLE_CACHES`] is the audited registry of every volatile cache
//! struct in this crate, each with its rebuild story. The `simurgh-analyze`
//! `shared-region` rule fails the build if a cache-shaped struct appears in
//! `core` without being listed here.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use simurgh_fsapi::{FsError, FsResult};
use simurgh_pmem::{PPtr, PmemRegion, PAGE_SIZE};

use crate::BLOCK_SIZE;

/// Every volatile (DRAM) cache struct in `simurgh-core`, with its
/// per-process rebuild story. A second mount of the same region file must
/// converge from media alone; adding a cache without a rebuild story is a
/// build error (analyze rule `shared-region`).
///
/// * `DirIndex` / `DirState` — shared-DRAM directory index: name hints,
///   free-slot hints, chain tails, completeness bits. Rebuilt by
///   `reindex_dir` on full mounts; attachers start **empty** and converge
///   by verify-on-use (an unknown line falls back to the chain walk).
/// * `FileCursor` / `CursorInner` — extent-map mirror of one inode in use:
///   every descriptor on it, an O_TRUNC open and the compactor share it
///   through an open reference. Built lazily from the persistent extent
///   map on first use; generation bumps invalidate it, and a fresh process
///   starts with no cursors. The
///   cursor also parks the file's block reservation: blocks claimed (in
///   the bitmap, under a shared mount) but referenced by no extent. Only
///   this process can spend them; it returns them on last close, truncate,
///   relocation, unmount and allocation pressure, and after a crash the
///   mark-and-sweep of the next exclusive mount frees them.
/// * `OpenState` / `OpenFile` — sharded open-file table (`open_states`).
///   Strictly process-local bookkeeping (fds, positions, refcounts);
///   nothing on media references it, so a new process starts empty.
/// * `Segment` / `BlockAlloc` — per-segment block free lists. Rebuilt by
///   recovery's mark-and-sweep on full mounts; attachers rebuild from the
///   shared claim bitmap, and every allocation is arbitrated by bitmap CAS
///   so stale local lists can never double-allocate.
/// * `MetaAllocator` — slab free stacks (`SegQueue`). Refilled by the
///   recovery sweep or, on attach, by a header scan; the persistent header
///   CAS in `alloc` arbitrates races, so a stale stack entry just loses.
/// * `SimurghFs` — the mount object itself: aggregates the above plus
///   counters; reconstructed wholesale by mount/attach.
/// * `CompactQueue` — the compactor's candidate list and pressure
///   water-mark. Pure work-queue state: a fresh mount starts empty and the
///   next compaction pass re-harvests candidates from the tree walk. The
///   *in-flight* relocation itself is protected by the persistent
///   relocation journal (`compact::journal`), not by this cache.
/// * `FragStats` — fragmentation/compaction counters, same contract as the
///   other `ObsRegistry` batteries: diagnostics reset to zero per process.
pub const REBUILDABLE_CACHES: &[&str] = &[
    "DirIndex",
    "DirState",
    "FileCursor",
    "CursorInner",
    "OpenState",
    "OpenFile",
    "Segment",
    "BlockAlloc",
    "MetaAllocator",
    "SimurghFs",
    "CompactQueue",
    "FragStats",
];

// ---------------------------------------------------------------------------
// Superblock coordination words (page 0; see super_block.rs for 0..1600)
// ---------------------------------------------------------------------------

/// Shared mount state: [`ST_DOWN`] / [`ST_INIT`] / [`ST_UP`].
const O_STATE: u64 = 2048;
/// Live attached-process count (approximate: killed processes leak it).
const O_ATTACH: u64 = 2056;
/// Block-claim bitmap geometry, recorded at format time.
const O_BITMAP_START: u64 = 2064;
const O_BITMAP_WORDS: u64 = 2072;
/// Scratch words for multi-process test harnesses (phase gates). The file
/// system never reads them; `crashlab procs` uses them as its cross-process
/// barrier so the harness needs no IPC beyond the region file itself.
pub const O_SCRATCH: u64 = 2080;

const ST_DOWN: u64 = 0;
const ST_INIT: u64 = 1;
const ST_UP: u64 = 2;

/// How long an attacher waits for a recoverer stuck in `INITIALIZING`.
const INIT_WAIT: Duration = Duration::from_secs(30);

/// Which side of the attach race this process landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachRole {
    /// Won the `DOWN → INITIALIZING` CAS: runs full recovery and publishes.
    Recoverer,
    /// Found the system `UP`: rebuilds volatile state from media only.
    Attacher,
}

/// Resets the coordination words. Called by format and by every exclusive
/// `mount` — an exclusive mount *is* the fence against stale `UP` state left
/// by a crashed process group (the words are volatile semantics, so no
/// persist ordering applies).
pub fn reset(r: &PmemRegion) {
    r.atomic_u64(PPtr::new(O_STATE)).store(ST_DOWN, Ordering::Release);
    r.atomic_u64(PPtr::new(O_ATTACH)).store(0, Ordering::Release);
}

/// Joins the shared mount group, arbitrating who runs recovery. Errors if a
/// recoverer holds `INITIALIZING` for longer than the wait budget (it
/// presumably crashed mid-recovery; an exclusive mount is then required).
pub fn begin_attach(r: &PmemRegion) -> FsResult<AttachRole> {
    let state = r.atomic_u64(PPtr::new(O_STATE));
    let deadline = Instant::now() + INIT_WAIT;
    loop {
        match state.load(Ordering::Acquire) {
            ST_DOWN => {
                if state
                    .compare_exchange(ST_DOWN, ST_INIT, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    r.atomic_u64(PPtr::new(O_ATTACH)).fetch_add(1, Ordering::AcqRel);
                    return Ok(AttachRole::Recoverer);
                }
            }
            ST_UP => {
                r.atomic_u64(PPtr::new(O_ATTACH)).fetch_add(1, Ordering::AcqRel);
                return Ok(AttachRole::Attacher);
            }
            _ => {
                if Instant::now() > deadline {
                    return Err(FsError::Corrupt("shared-mount recoverer stuck in init"));
                }
            }
        }
        std::thread::yield_now();
    }
}

/// Recoverer: publishes the system as up (volatile caches may now be built
/// from the bitmap by attachers).
pub fn publish_up(r: &PmemRegion) {
    r.atomic_u64(PPtr::new(O_STATE)).store(ST_UP, Ordering::Release);
}

/// Recoverer: backs out of a failed init so peers don't wait forever.
pub fn abort_init(r: &PmemRegion) {
    r.atomic_u64(PPtr::new(O_ATTACH)).fetch_sub(1, Ordering::AcqRel);
    r.atomic_u64(PPtr::new(O_STATE)).store(ST_DOWN, Ordering::Release);
}

/// Leaves the mount group. Returns true for the last process out (which
/// then owns the clean-unmount write).
pub fn detach(r: &PmemRegion) -> bool {
    let prev = r.atomic_u64(PPtr::new(O_ATTACH)).fetch_sub(1, Ordering::AcqRel);
    if prev == 1 {
        r.atomic_u64(PPtr::new(O_STATE)).store(ST_DOWN, Ordering::Release);
        true
    } else {
        false
    }
}

/// Live attached-process count (diagnostics / harness barriers).
pub fn attach_count(r: &PmemRegion) -> u64 {
    r.atomic_u64(PPtr::new(O_ATTACH)).load(Ordering::Acquire)
}

// ---------------------------------------------------------------------------
// Block-claim bitmap geometry
// ---------------------------------------------------------------------------

/// Bytes to carve for the claim bitmap of a region of `region_len` bytes:
/// one bit per data block, rounded up to whole pages. Slightly oversized
/// (it counts the superblock and the bitmap itself as blocks), which only
/// wastes a few trailing bits.
pub fn bitmap_bytes(region_len: usize) -> u64 {
    let blocks = (region_len / BLOCK_SIZE) as u64;
    let words = blocks.div_ceil(64);
    (words * 8).div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64
}

/// Records the bitmap area chosen at format time.
pub fn record_bitmap_geometry(r: &PmemRegion, start: PPtr, words: u64) {
    r.write(PPtr::new(O_BITMAP_START), start.off());
    r.write(PPtr::new(O_BITMAP_WORDS), words);
    r.persist(PPtr::new(O_BITMAP_START), 16);
}

/// The bitmap area, if this region was formatted with one.
pub fn bitmap_geometry(r: &PmemRegion) -> Option<(PPtr, u64)> {
    let words = r.read::<u64>(PPtr::new(O_BITMAP_WORDS));
    if words == 0 {
        return None;
    }
    let start = PPtr::new(r.read::<u64>(PPtr::new(O_BITMAP_START)));
    if !r.in_bounds(start, (words * 8) as usize) {
        return None;
    }
    Some((start, words))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::super_block::Superblock;
    use simurgh_pmem::layout::Extent;

    fn region() -> PmemRegion {
        let r = PmemRegion::new(1 << 20);
        Superblock::format(
            &r,
            PPtr::NULL,
            Extent { start: PPtr::new(65536), len: (1 << 20) - 65536 },
        );
        reset(&r);
        r
    }

    #[test]
    fn first_in_recovers_rest_attach() {
        let r = region();
        assert_eq!(begin_attach(&r).unwrap(), AttachRole::Recoverer);
        publish_up(&r);
        assert_eq!(begin_attach(&r).unwrap(), AttachRole::Attacher);
        assert_eq!(begin_attach(&r).unwrap(), AttachRole::Attacher);
        assert_eq!(attach_count(&r), 3);
        assert!(!detach(&r));
        assert!(!detach(&r));
        assert!(detach(&r), "last one out");
        // System is down again: the next joiner recovers.
        assert_eq!(begin_attach(&r).unwrap(), AttachRole::Recoverer);
    }

    #[test]
    fn aborted_init_lets_a_peer_recover() {
        let r = region();
        assert_eq!(begin_attach(&r).unwrap(), AttachRole::Recoverer);
        abort_init(&r);
        assert_eq!(attach_count(&r), 0);
        assert_eq!(begin_attach(&r).unwrap(), AttachRole::Recoverer);
    }

    #[test]
    fn bitmap_geometry_roundtrip() {
        let r = region();
        assert!(bitmap_geometry(&r).is_none(), "not recorded yet");
        record_bitmap_geometry(&r, PPtr::new(4096), 32);
        assert_eq!(bitmap_geometry(&r), Some((PPtr::new(4096), 32)));
    }

    #[test]
    fn bitmap_sizing_covers_all_blocks() {
        // 8 MiB region → 2048 blocks → 256 bytes of bits → one page.
        assert_eq!(bitmap_bytes(8 << 20), 4096);
        // Just past one page of bits (128 Mi blocks-worth) → two pages.
        assert_eq!(bitmap_bytes((4096 * 8 + 1) * BLOCK_SIZE), 8192);
    }
}
