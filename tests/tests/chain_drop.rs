//! Directory chains only grow while mounted; the next exclusive mount drops
//! the blocks that unlinks emptied (Fig. 5b step 6, deferred to recovery).
//!
//! Checked after a power cut and after a clean unmount, and with a power
//! cut at every fence boundary of the dropping mount itself: the tree stays
//! unchanged, fsck stays clean, the dropped blocks are counted in
//! `reclaimed_objects`, and a further recovery reclaims nothing.

use std::sync::Arc;

use simurgh_core::hash::dir_line;
use simurgh_core::obj::dirblock::NLINES;
use simurgh_core::{check, dir, SimurghConfig, SimurghFs};
use simurgh_fsapi::{FileMode, FileSystem, ProcCtx, TreeEntry};
use simurgh_pmem::{FaultPlan, RegionBuilder, TrackMode};
use simurgh_tests::{crash_and_remount, simurgh_tracked, snapshot_tree};

const CTX: ProcCtx = ProcCtx::root(1);

/// `/d` gets `n` names on one hash line, one chain block each, then loses
/// every name but the first and the last: `n - 2` middle blocks empty out
/// while mounted. Returns the two surviving names.
fn empty_middle_blocks(fs: &SimurghFs, n: usize) -> [String; 2] {
    let line = dir_line("b0", NLINES);
    let names: Vec<String> =
        (0..).map(|i| format!("b{i}")).filter(|s| dir_line(s, NLINES) == line).take(n).collect();
    fs.mkdir(&CTX, "/d", FileMode::dir(0o755)).unwrap();
    fs.write_file(&CTX, "/d/other", b"elsewhere").unwrap();
    for name in &names {
        fs.write_file(&CTX, &format!("/d/{name}"), name.as_bytes()).unwrap();
    }
    for name in &names[1..n - 1] {
        fs.unlink(&CTX, &format!("/d/{name}")).unwrap();
    }
    [names[0].clone(), names[n - 1].clone()]
}

fn chain_len(fs: &SimurghFs) -> usize {
    let (region, first) = fs.testing_dir_block("/d").unwrap();
    dir::chain(&region, first).count()
}

/// A recovered mount holds the same tree with `/d` down to two blocks,
/// fsck-clean, and a further power cut reclaims nothing.
fn assert_dropped(fs: &SimurghFs, tree: &[TreeEntry], kept: &[String; 2]) {
    assert_eq!(chain_len(fs), 2, "emptied blocks spliced out");
    assert_eq!(snapshot_tree(fs), tree, "tree unchanged");
    for name in kept {
        assert_eq!(fs.read_to_vec(&CTX, &format!("/d/{name}")).unwrap(), name.as_bytes());
    }
    assert!(check::check(fs, true).is_clean());
    let again = crash_and_remount(fs);
    assert_eq!(again.recovery_report().reclaimed_objects, 0, "second recovery reclaims 0");
    assert_eq!(chain_len(&again), 2);
    assert!(check::check(&again, true).is_clean());
}

#[test]
fn mount_drops_blocks_emptied_online() {
    let fs = simurgh_tracked(8 << 20);
    let kept = empty_middle_blocks(&fs, 5);
    // Mounted, the chain never shrinks: the three emptied blocks stay
    // linked, and a create on their line refills a hole, not the tail.
    assert_eq!(chain_len(&fs), 5);
    let extends = fs.dir_stats().extends;
    fs.write_file(&CTX, "/d/b-refill", b"r").unwrap();
    fs.unlink(&CTX, "/d/b-refill").unwrap();
    assert_eq!(chain_len(&fs), 5);
    assert_eq!(fs.dir_stats().extends, extends);
    let tree = snapshot_tree(&fs);
    fs.quiesce_thread_caches();

    // After a power cut, the next mount drops them.
    let cut = crash_and_remount(&fs);
    assert!(!cut.recovery_report().was_clean);
    assert_eq!(cut.recovery_report().reclaimed_objects, 3, "the three emptied blocks");
    assert_dropped(&cut, &tree, &kept);

    // After a clean unmount, too.
    let region = fs.region().clone();
    fs.unmount();
    let clean = SimurghFs::mount(region, SimurghConfig::default()).unwrap();
    assert!(clean.recovery_report().was_clean);
    assert_eq!(clean.recovery_report().reclaimed_objects, 3, "the three emptied blocks");
    assert_dropped(&clean, &tree, &kept);
}

#[test]
fn block_drop_survives_a_cut_at_every_fence_of_the_mount() {
    let fs = simurgh_tracked(8 << 20);
    let kept = empty_middle_blocks(&fs, 5);
    let tree = snapshot_tree(&fs);
    fs.quiesce_thread_caches();
    let unclean = fs.region().media_image();
    let region = fs.region().clone();
    fs.unmount();
    for (kind, image) in [("unclean", unclean), ("clean", region.media_image())] {
        let region_of = || {
            Arc::new(
                RegionBuilder::new(image.len())
                    .mode(TrackMode::Tracked)
                    .from_image(image.clone())
                    .build()
                    .unwrap(),
            )
        };
        let fences = {
            let r = region_of();
            r.arm_faults(FaultPlan::record());
            SimurghFs::mount(r.clone(), SimurghConfig::default()).unwrap();
            r.fence_count()
        };
        assert!(fences >= 3, "{kind}: the three splices each fence");
        for cut in 0..=fences {
            let r = region_of();
            r.arm_faults(FaultPlan::cut_after(cut));
            let first = SimurghFs::mount(r, SimurghConfig::default()).unwrap();
            assert_eq!(first.recovery_report().reclaimed_objects, 3, "{kind} cut {cut}");
            // Only the first `cut` fences of that mount reached media.
            let second = crash_and_remount(&first);
            let left = second.recovery_report().reclaimed_objects;
            assert!(left <= 3, "{kind} cut {cut}: reclaimed {left}");
            if cut == 0 {
                assert_eq!(left, 3, "{kind}: nothing of the first mount was durable");
            }
            assert_dropped(&second, &tree, &kept);
        }
    }
}
