//! A power cut over an append that grows a file's extent map past its
//! inline slots. In the first case the append links a new overflow extent
//! block: the block is initialised, linked from the inode and given its
//! first entry, all persisted with the data before the size. In the second
//! it adds an entry to the overflow block that already exists. Whichever
//! fences reached media, recovery shows the old or the new size with
//! matching bytes and fsck stays clean. Each block the live map references
//! after the append is either referenced by the recovered map and held, or
//! free again, so no block can be handed out twice. A further power cut
//! reclaims nothing.

use simurgh_core::file::for_each_extent;
use simurgh_core::obj::inode::{extblock, Inode};
use simurgh_core::{check, SimurghFs};
use simurgh_fsapi::{Fd, FileMode, FileSystem, OpenFlags, ProcCtx};
use simurgh_pmem::{FaultPlan, PPtr};
use simurgh_tests::{crash_and_remount, simurgh_tracked};

const CTX: ProcCtx = ProcCtx::root(1);
const BLOCK: usize = 4096;

fn chunk(i: usize) -> Vec<u8> {
    vec![0x40 + i as u8; BLOCK]
}

/// File bytes after `n` appends.
fn contents(n: usize) -> Vec<u8> {
    (0..n).flat_map(chunk).collect()
}

fn inode(fs: &SimurghFs, path: &str) -> Inode {
    Inode(PPtr::new(fs.stat(&CTX, path).unwrap().ino))
}

/// `(extents, overflow blocks, every block the map references)` of `path`.
fn map_of(fs: &SimurghFs, path: &str) -> (usize, usize, Vec<u64>) {
    let (r, blocks) = (fs.region(), fs.block_alloc());
    let ino = inode(fs, path);
    let (mut extents, mut refs) = (0, Vec::new());
    for_each_extent(r, ino, |_, e| {
        extents += 1;
        let first = blocks.ptr_block(PPtr::new(e.start));
        refs.extend(first..first + e.len / BLOCK as u64);
    });
    let mut chain = 0;
    let mut blk = ino.ext_next(r);
    while !blk.is_null() {
        chain += 1;
        refs.push(blocks.ptr_block(blk));
        blk = extblock::next(r, blk);
    }
    (extents, chain, refs)
}

/// A tracked mount where `/f` holds `n` one-block extents, open again for
/// the append under test. `/f` and `/decoy` are appended in turn, each on
/// a fresh open (which parks no run), so the decoy's block follows each of
/// `/f`'s. The thread's metadata refill cache is drained so that a cut
/// leaves nothing of the setup to reclaim.
fn set_up(n: usize) -> (SimurghFs, Fd) {
    let fs = simurgh_tracked(8 << 20);
    for i in 0..n {
        for p in ["/f", "/decoy"] {
            let flags = if i == 0 { OpenFlags::CREATE } else { OpenFlags::WRONLY };
            let fd = fs.open(&CTX, p, flags, FileMode::default()).unwrap();
            fs.pwrite(&CTX, fd, &chunk(i), (i * BLOCK) as u64).unwrap();
            fs.close(&CTX, fd).unwrap();
        }
    }
    let fd = fs.open(&CTX, "/f", OpenFlags::RDWR, FileMode::default()).unwrap();
    fs.meta_alloc().drain_thread_cache();
    assert_eq!(map_of(&fs, "/f").0, n, "the decoy kept every block of /f its own extent");
    (fs, fd)
}

/// The append under test: one block that cannot extend the tail extent.
fn append(fs: &SimurghFs, fd: Fd, n: usize) {
    fs.pwrite(&CTX, fd, &chunk(n), (n * BLOCK) as u64).unwrap();
}

/// Appends a fifth-or-later extent to a file holding `n` extents, cutting
/// power at every fence of the append in turn; `chain` is the overflow
/// block count before and after.
fn cut_every_fence(n: usize, chain: (usize, usize)) {
    {
        let (fs, fd) = set_up(n);
        assert_eq!(map_of(&fs, "/f").1, chain.0);
        append(&fs, fd, n);
        let (extents, after, _) = map_of(&fs, "/f");
        assert_eq!((extents, after), (n + 1, chain.1), "the append added an extent");
    }
    let fences = {
        let (fs, fd) = set_up(n);
        fs.region().arm_faults(FaultPlan::record());
        append(&fs, fd, n);
        fs.region().fence_count()
    };
    assert!(fences >= 1, "the append fences its data and map before the size");
    let (old, new) = (contents(n), contents(n + 1));
    for cut in 0..=fences {
        let (fs, fd) = set_up(n);
        fs.region().arm_faults(FaultPlan::cut_after(cut));
        append(&fs, fd, n);
        assert_eq!(cut < fences, fs.region().powercut_tripped(), "cut {cut} fired as planned");
        let (_, _, live) = map_of(&fs, "/f");

        let rec = crash_and_remount(&fs);
        let bytes = rec.read_to_vec(&CTX, "/f").unwrap();
        assert!(bytes == old || bytes == new, "cut {cut}: neither the old nor the new file");
        if cut == 0 {
            assert_eq!(bytes, old, "nothing of the append was durable");
        }
        if cut == fences {
            assert_eq!(bytes, new, "the whole append was durable");
        }
        let report = check::check(&rec, true);
        assert!(report.is_clean(), "cut {cut}: fsck {:?}", report.violations);
        let (_, _, kept) = map_of(&rec, "/f");
        let blocks = rec.block_alloc();
        for &b in &live {
            let held = blocks.extend_at(b, 1) == 0;
            if !held {
                blocks.free(blocks.block_ptr(b), 1);
            }
            let referenced = kept.contains(&b);
            assert_eq!(held, referenced, "cut {cut}: block {b} held iff the map references it");
        }
        let again = crash_and_remount(&rec);
        assert_eq!(again.recovery_report().reclaimed_objects, 0, "cut {cut}: second recovery");
        assert_eq!(again.read_to_vec(&CTX, "/f").unwrap(), bytes);
        assert!(check::check(&again, true).is_clean());
    }
}

#[test]
fn a_cut_at_every_fence_of_an_append_linking_an_overflow_block_recovers() {
    // Three extents fill the inline slots: the fourth needs a new block.
    cut_every_fence(3, (0, 1));
}

#[test]
fn a_cut_at_every_fence_of_an_append_into_an_overflow_block_recovers() {
    // The fourth extent opened the overflow block; the fifth joins it.
    cut_every_fence(4, (1, 1));
}
