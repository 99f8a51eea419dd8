//! A power cut over an append served from the blocks an open file parked
//! after its tail. The run is DRAM state only: nothing on media references
//! it, so whichever fences of the append reached media, recovery shows the
//! old or the new size with matching bytes, fsck stays clean, the parked
//! blocks the file's map does not reference are free again, and a further
//! power cut reclaims nothing.

use simurgh_core::file::for_each_extent;
use simurgh_core::obj::inode::Inode;
use simurgh_core::{check, SimurghFs};
use simurgh_fsapi::{Fd, FileMode, FileSystem, OpenFlags, ProcCtx};
use simurgh_pmem::{FaultPlan, PPtr};
use simurgh_tests::{crash_and_remount, simurgh_tracked};

const CTX: ProcCtx = ProcCtx::root(1);
const BLOCK: usize = 4096;

/// Appends before the cut. The fourth growth claims two blocks beyond its
/// need (the surplus runs 0, 1, 0, 2 over the four), so the fifth append
/// takes its block from the run and leaves one parked.
const SETUP_APPENDS: usize = 4;

fn chunk(i: usize) -> Vec<u8> {
    vec![0x40 + i as u8; BLOCK]
}

/// File bytes after `n` appends.
fn contents(n: usize) -> Vec<u8> {
    (0..n).flat_map(chunk).collect()
}

/// A tracked mount holding `/f` open after the setup appends, with the
/// thread's metadata refill cache drained so a cut leaves nothing of the
/// setup to reclaim. Returns the descriptor and the parked run's blocks.
fn set_up() -> (SimurghFs, Fd, Vec<u64>) {
    let fs = simurgh_tracked(8 << 20);
    let rw = OpenFlags { read: true, ..OpenFlags::CREATE };
    let fd = fs.open(&CTX, "/f", rw, FileMode::default()).unwrap();
    for i in 0..SETUP_APPENDS {
        fs.pwrite(&CTX, fd, &chunk(i), (i * BLOCK) as u64).unwrap();
    }
    fs.meta_alloc().drain_thread_cache();
    let parked = fs.block_alloc().reserved_idle_blocks();
    assert_eq!(parked, 2, "the setup parks a run after the tail");
    let ino = Inode(PPtr::new(fs.fstat(&CTX, fd).unwrap().ino));
    let mut tail = 0;
    for_each_extent(fs.region(), ino, |_, e| tail = e.start + e.len);
    let first = fs.block_alloc().ptr_block(PPtr::new(tail));
    (fs, fd, (first..first + parked).collect())
}

/// The append under test: the next block, served from the parked run.
fn append(fs: &SimurghFs, fd: Fd) {
    let off = (SETUP_APPENDS * BLOCK) as u64;
    fs.pwrite(&CTX, fd, &chunk(SETUP_APPENDS), off).unwrap();
}

#[test]
fn the_append_is_served_from_the_parked_run() {
    let (fs, fd, _) = set_up();
    let (trips, data) = (fs.block_alloc().seg_trips(), fs.data_stats());
    append(&fs, fd);
    let d = fs.data_stats().since(&data);
    assert_eq!((d.appends, d.tail_extends, d.alloc_fallbacks), (1, 1, 0));
    assert_eq!(fs.block_alloc().seg_trips(), trips, "no segment lock taken");
    assert_eq!(fs.block_alloc().reserved_idle_blocks(), 1);
}

#[test]
fn a_cut_at_every_fence_of_a_reserved_append_recovers() {
    let fences = {
        let (fs, fd, _) = set_up();
        fs.region().arm_faults(FaultPlan::record());
        append(&fs, fd);
        fs.region().fence_count()
    };
    assert!(fences >= 1, "the append fences its data before the size");
    let (old, new) = (contents(SETUP_APPENDS), contents(SETUP_APPENDS + 1));
    for cut in 0..=fences {
        let (fs, fd, parked) = set_up();
        fs.region().arm_faults(FaultPlan::cut_after(cut));
        append(&fs, fd);
        assert_eq!(cut < fences, fs.region().powercut_tripped(), "cut {cut} fired as planned");

        let rec = crash_and_remount(&fs);
        let bytes = rec.read_to_vec(&CTX, "/f").unwrap();
        assert!(bytes == old || bytes == new, "cut {cut}: neither the old nor the new file");
        if cut == 0 {
            assert_eq!(bytes, old, "nothing of the append was durable");
        }
        if cut == fences {
            assert_eq!(bytes, new, "the whole append was durable");
        }
        assert!(check::check(&rec, true).is_clean(), "cut {cut}: fsck");
        // The parked blocks the recovered map does not reference are free.
        // The map may hold the spent block past the old size: it is
        // persisted with the data, before the size.
        let ino = Inode(PPtr::new(rec.stat(&CTX, "/f").unwrap().ino));
        let spent = for_each_extent(rec.region(), ino, |_, _| {}) as usize / BLOCK - SETUP_APPENDS;
        let blocks = rec.block_alloc();
        for &b in &parked[spent..] {
            assert_eq!(blocks.extend_at(b, 1), 1, "cut {cut}: parked block {b} still held");
            blocks.free(blocks.block_ptr(b), 1);
        }
        let again = crash_and_remount(&rec);
        assert_eq!(again.recovery_report().reclaimed_objects, 0, "cut {cut}: second recovery");
        assert_eq!(again.read_to_vec(&CTX, "/f").unwrap(), bytes);
        assert!(check::check(&again, true).is_clean());
    }
}
