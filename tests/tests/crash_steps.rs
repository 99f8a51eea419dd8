//! Crash injection at the individual persist steps of the Fig. 5 protocols.
//!
//! Runs on crash-tracked NVMM: each test reproduces the exact prefix of a
//! protocol a dying process would have persisted, cuts the power, remounts
//! and checks that recovery lands in the paper's prescribed state — roll
//! forward after the commit point, roll back (reclaim) before it.

use simurgh_core::hash::dir_line;
use simurgh_core::obj::dirblock::NLINES;
use simurgh_core::obj::fentry::FileEntry;
use simurgh_core::obj::{self};
use simurgh_core::super_block::PoolKind;
use simurgh_core::{dir, SimurghConfig, SimurghFs};
use simurgh_fsapi::{FileMode, FileSystem, FileType, ProcCtx};
use simurgh_tests::{crash_and_remount, simurgh_tracked, snapshot_tree};

const CTX: ProcCtx = ProcCtx::root(1);

fn setup() -> SimurghFs {
    let fs = simurgh_tracked(32 << 20);
    fs.mkdir(&CTX, "/dir", FileMode::dir(0o755)).unwrap();
    fs.write_file(&CTX, "/dir/existing", b"keep me").unwrap();
    fs
}

/// The recovered file system must contain `/dir/existing` intact and accept
/// new work; returns it for extra assertions.
fn recover_and_check(fs: &SimurghFs) -> SimurghFs {
    let fs2 = crash_and_remount(fs);
    assert!(!fs2.recovery_report().was_clean);
    assert_eq!(fs2.read_to_vec(&CTX, "/dir/existing").unwrap(), b"keep me");
    fs2.write_file(&CTX, "/dir/new-after-recovery", b"works").unwrap();
    fs2
}

#[test]
fn create_crash_before_publish_reclaims_objects() {
    let fs = setup();
    // Fig. 5a steps 1–2 only: inode + file entry allocated, initialized and
    // persisted, but the hash-line pointer never written.
    let env = fs.testing_dir_env();
    let ino = env.meta.alloc(PoolKind::Inode).unwrap();
    simurgh_core::obj::inode::Inode(ino).init(
        fs.region(),
        FileMode::file(0o644),
        0,
        0,
        1,
        1,
    );
    fs.region().persist(ino, 128);
    let fe = env.meta.alloc(PoolKind::FileEntry).unwrap();
    FileEntry(fe).init(fs.region(), "orphan", FileType::Regular, ino);
    fs.region().persist(fe, 256);

    let fs2 = recover_and_check(&fs);
    assert!(fs2.stat(&CTX, "/dir/orphan").is_err(), "unpublished create must vanish");
    assert!(
        fs2.recovery_report().reclaimed_objects >= 2,
        "inode + entry reclaimed, got {}",
        fs2.recovery_report().reclaimed_objects
    );
}

#[test]
fn create_crash_after_publish_rolls_forward() {
    let fs = setup();
    let env = fs.testing_dir_env();
    let (_, first) = fs.testing_dir_block("/dir").unwrap();
    // Full create via the protocol, then re-mark dirty as if the crash hit
    // between step 5 (publish) and step 6 (clear dirty bits).
    let ino = env.meta.alloc(PoolKind::Inode).unwrap();
    simurgh_core::obj::inode::Inode(ino).init(fs.region(), FileMode::file(0o644), 0, 0, 1, 1);
    fs.region().persist(ino, 128);
    let fe = dir::insert(&env, first, "half-created", FileType::Regular, ino).unwrap();
    obj::set_dirty(fs.region(), fe.ptr());
    obj::set_dirty(fs.region(), ino);

    let fs2 = recover_and_check(&fs);
    let st = fs2.stat(&CTX, "/dir/half-created").expect("published create rolls forward");
    assert!(st.is_file());
    // The dirty bits were cleared by recovery.
    let h = obj::header(fs2.region(), simurgh_pmem::PPtr::new(st.ino));
    assert!(obj::is_valid(h) && !obj::is_dirty(h));
}

#[test]
fn delete_crash_after_invalidate_completes() {
    let fs = setup();
    fs.write_file(&CTX, "/dir/doomed", b"bye").unwrap();
    // Fig. 5b step 2 only: entry invalidated, slot still pointing at it.
    let env = fs.testing_dir_env();
    let (_, first) = fs.testing_dir_block("/dir").unwrap();
    let fe = dir::lookup(&env, first, "doomed").unwrap();
    obj::invalidate(fs.region(), fe.ptr());

    let fs2 = recover_and_check(&fs);
    assert!(fs2.stat(&CTX, "/dir/doomed").is_err(), "interrupted delete completes");
    assert!(fs2.recovery_report().reclaimed_objects >= 1);
}

#[test]
fn delete_crash_after_entry_zero_completes() {
    let fs = setup();
    fs.write_file(&CTX, "/dir/doomed2", b"bye").unwrap();
    let env = fs.testing_dir_env();
    let (_, first) = fs.testing_dir_block("/dir").unwrap();
    let fe = dir::lookup(&env, first, "doomed2").unwrap();
    // Steps 2–4: invalidate and zero the entry; the slot still points at
    // the zeroed object ("the pointer needs to be zeroed" case).
    obj::invalidate(fs.region(), fe.ptr());
    env.meta.free_no_recycle(PoolKind::FileEntry, fe.ptr());

    let fs2 = recover_and_check(&fs);
    assert!(fs2.stat(&CTX, "/dir/doomed2").is_err());
    // The slot was nulled by recovery: creating the same name works.
    fs2.write_file(&CTX, "/dir/doomed2", b"again").unwrap();
    assert_eq!(fs2.read_to_vec(&CTX, "/dir/doomed2").unwrap(), b"again");
}

#[test]
fn rename_crash_mid_protocol_resolves_exactly_once() {
    let fs = setup();
    fs.write_file(&CTX, "/dir/old-name", b"payload").unwrap();
    let env = fs.testing_dir_env();
    let (_, first) = fs.testing_dir_block("/dir").unwrap();
    // Reproduce Fig. 5c up to step 5: shadow entry created, old line
    // pointing at the *new* entry (hash mismatch), nothing published at
    // the new line yet.
    let old_fe = dir::lookup(&env, first, "old-name").unwrap();
    let ino = old_fe.inode(fs.region());
    let nfe = env.meta.alloc(PoolKind::FileEntry).unwrap();
    FileEntry(nfe).init(fs.region(), "new-name", FileType::Regular, ino);
    fs.region().persist(nfe, 256);
    let old_line = dir_line("old-name", NLINES);
    // Find the block whose slot holds the old entry and redirect it.
    let blk = dir::chain(fs.region(), first)
        .find(|b| b.line(fs.region(), old_line) == old_fe.ptr())
        .expect("old entry block");
    blk.set_line(fs.region(), old_line, nfe);

    let fs2 = recover_and_check(&fs);
    // Roll forward: reachable under the new name, not under the old.
    assert!(fs2.stat(&CTX, "/dir/old-name").is_err(), "old name gone");
    assert_eq!(fs2.read_to_vec(&CTX, "/dir/new-name").unwrap(), b"payload");
    // Exactly one entry for the payload file.
    let tree = snapshot_tree(&fs2);
    let hits = tree.iter().filter(|(p, _, _)| p.contains("name")).count();
    assert_eq!(hits, 1, "exactly one name for the renamed file: {tree:?}");
}

#[test]
fn decentralized_repair_mid_rename_is_per_line() {
    // A process dies mid-rename (Fig. 5c step 5: old line redirected to the
    // shadow entry, nothing at the new line) and a *live* waiter runs the
    // decentralized repair — no remount. Invalidation must be per line: the
    // other 255 lines keep index authority throughout, and the repaired
    // lines re-converge to indexed O(1) before repair_line returns.
    let fs = setup();
    fs.write_file(&CTX, "/dir/old-name", b"payload").unwrap();
    let env = fs.testing_dir_env();
    let (_, first) = fs.testing_dir_block("/dir").unwrap();
    let ix = fs.testing_index();
    let old_fe = dir::lookup(&env, first, "old-name").unwrap();
    let ino = old_fe.inode(fs.region());
    let nfe = env.meta.alloc(PoolKind::FileEntry).unwrap();
    FileEntry(nfe).init(fs.region(), "new-name", FileType::Regular, ino);
    fs.region().persist(nfe, 256);
    let old_line = dir_line("old-name", NLINES);
    let home = dir_line("new-name", NLINES);
    let blk = dir::chain(fs.region(), first)
        .find(|b| b.line(fs.region(), old_line) == old_fe.ptr())
        .expect("old entry block");
    blk.set_line(fs.region(), old_line, nfe);
    let untouched = (0..NLINES).find(|l| *l != old_line && *l != home).unwrap();
    assert!(ix.is_line_complete(first.ptr(), untouched));

    dir::repair_line(&env, first, old_line);

    // Per-line re-convergence: both touched lines and every untouched line
    // are authoritative again — no full-directory degradation.
    assert!(ix.is_line_complete(first.ptr(), old_line), "repaired line re-converged");
    assert!(ix.is_line_complete(first.ptr(), home), "rename home line re-converged");
    assert!(ix.is_line_complete(first.ptr(), untouched), "untouched line kept authority");
    assert!(ix.is_complete(first.ptr()));
    // Rolled forward exactly once.
    assert!(dir::lookup(&env, first, "old-name").is_none(), "old name gone");
    assert_eq!(fs.read_to_vec(&CTX, "/dir/new-name").unwrap(), b"payload");
    // And the steady state is indexed O(1) again: the hit and the
    // authoritative miss both answer without walking the chain.
    let before = fs.dir_stats();
    for _ in 0..10 {
        fs.stat(&CTX, "/dir/new-name").unwrap();
        assert!(fs.stat(&CTX, "/dir/old-name").is_err());
    }
    let d = fs.dir_stats().since(&before);
    assert_eq!(d.chain_walks, 0, "post-repair lookups still walk the chain");
}

#[test]
fn lost_line_authority_falls_back_then_reconverges() {
    // The degraded window itself: while one line's authority is dropped,
    // lookups on it must fall back to the chain (and stay correct), lookups
    // on every other line must stay indexed, and reindexing just that line
    // restores authoritative O(1) misses.
    let fs = setup();
    for i in 0..20 {
        fs.write_file(&CTX, &format!("/dir/f{i}"), b"x").unwrap();
    }
    let env = fs.testing_dir_env();
    let (_, first) = fs.testing_dir_block("/dir").unwrap();
    let ix = fs.testing_index();
    let line = dir_line("f0", NLINES);
    ix.mark_line_incomplete(first.ptr(), line);
    ix.remove(first.ptr(), simurgh_core::hash::fnv1a(b"f0"));

    // Fallback on the degraded line: correct answer via a chain walk.
    let before = fs.dir_stats();
    assert_eq!(fs.read_to_vec(&CTX, "/dir/f0").unwrap(), b"x");
    let d = fs.dir_stats().since(&before);
    assert!(d.chain_walks >= 1, "incomplete line must fall back to the chain");

    // Other lines are untouched: indexed, no walks.
    let before = fs.dir_stats();
    for i in 1..20 {
        if dir_line(&format!("f{i}"), NLINES) != line {
            fs.stat(&CTX, &format!("/dir/f{i}")).unwrap();
        }
    }
    let d = fs.dir_stats().since(&before);
    assert_eq!(d.chain_walks, 0, "unrelated lines lost their authority");

    // A miss on the degraded line needs the chain (no authority to say no)...
    let ghost = format!("/dir/{}", simurgh_crashlab::testing::colliding_name("f0", "ghost-"));
    let before = fs.dir_stats();
    assert!(fs.stat(&CTX, &ghost).is_err());
    let d = fs.dir_stats().since(&before);
    assert!(d.chain_walks >= 1, "miss on a degraded line cannot be authoritative");

    // ...until the per-line reindex restores authority for exactly that line.
    dir::reindex_line(&env, first, line);
    assert!(ix.is_line_complete(first.ptr(), line));
    let before = fs.dir_stats();
    assert_eq!(fs.read_to_vec(&CTX, "/dir/f0").unwrap(), b"x");
    assert!(fs.stat(&CTX, &ghost).is_err());
    let d = fs.dir_stats().since(&before);
    assert_eq!(d.chain_walks, 0, "reindexed line answers hits and misses O(1)");
}

#[test]
fn cross_rename_crash_after_publish_rolls_forward() {
    let fs = setup();
    fs.mkdir(&CTX, "/dst", FileMode::dir(0o755)).unwrap();
    fs.write_file(&CTX, "/dir/mover", b"cargo").unwrap();
    let env = fs.testing_dir_env();
    let (_, src) = fs.testing_dir_block("/dir").unwrap();
    let (_, dst) = fs.testing_dir_block("/dst").unwrap();
    let old_fe = dir::lookup(&env, src, "mover").unwrap();
    let ino = old_fe.inode(fs.region());
    // Arm the log, publish at the destination, then "crash" before the
    // source entry is retired.
    let nfe = env.meta.alloc(PoolKind::FileEntry).unwrap();
    FileEntry(nfe).init(fs.region(), "moved", FileType::Regular, ino);
    fs.region().persist(nfe, 256);
    let old_line = dir_line("mover", NLINES);
    let new_line = dir_line("moved", NLINES);
    src.write_log(
        fs.region(),
        &simurgh_core::obj::dirblock::RenameLog {
            op: simurgh_core::obj::dirblock::logop::CROSS_RENAME,
            src_dir: src.ptr().off(),
            dst_dir: dst.ptr().off(),
            inode: ino.off(),
            old_fentry: old_fe.ptr().off(),
            new_fentry: nfe.off(),
            old_line: old_line as u64,
            new_line: new_line as u64,
        },
    );
    dst.set_line(fs.region(), new_line, nfe);

    let fs2 = recover_and_check(&fs);
    assert!(fs2.stat(&CTX, "/dir/mover").is_err(), "source retired by log replay");
    assert_eq!(fs2.read_to_vec(&CTX, "/dst/moved").unwrap(), b"cargo");
}

#[test]
fn cross_rename_crash_before_publish_rolls_back() {
    let fs = setup();
    fs.mkdir(&CTX, "/dst", FileMode::dir(0o755)).unwrap();
    fs.write_file(&CTX, "/dir/stayer", b"luggage").unwrap();
    let env = fs.testing_dir_env();
    let (_, src) = fs.testing_dir_block("/dir").unwrap();
    let (_, dst) = fs.testing_dir_block("/dst").unwrap();
    let old_fe = dir::lookup(&env, src, "stayer").unwrap();
    let ino = old_fe.inode(fs.region());
    let nfe = env.meta.alloc(PoolKind::FileEntry).unwrap();
    FileEntry(nfe).init(fs.region(), "gone", FileType::Regular, ino);
    fs.region().persist(nfe, 256);
    // Log armed, but nothing published at the destination.
    src.write_log(
        fs.region(),
        &simurgh_core::obj::dirblock::RenameLog {
            op: simurgh_core::obj::dirblock::logop::CROSS_RENAME,
            src_dir: src.ptr().off(),
            dst_dir: dst.ptr().off(),
            inode: ino.off(),
            old_fentry: old_fe.ptr().off(),
            new_fentry: nfe.off(),
            old_line: dir_line("stayer", NLINES) as u64,
            new_line: dir_line("gone", NLINES) as u64,
        },
    );

    let fs2 = recover_and_check(&fs);
    assert_eq!(fs2.read_to_vec(&CTX, "/dir/stayer").unwrap(), b"luggage", "rollback keeps source");
    assert!(fs2.stat(&CTX, "/dst/gone").is_err(), "never-published name absent");
}

#[test]
fn same_dir_rename_nospace_leaves_directory_consistent() {
    // Regression: rename_same_dir used to reserve its destination slot
    // *after* setting DF_RENAME and redirecting the old line, so a DirBlock
    // pool exhaustion mid-protocol returned early with the directory marked
    // rename-in-progress and the file unreachable by name. The slot is now
    // reserved before any destructive step.
    let fs = setup();
    fs.write_file(&CTX, "/dir/mover", b"payload").unwrap();
    let env = fs.testing_dir_env();
    // A destination name whose line collides with "existing": the first
    // block's slot is taken, so the rename must extend the chain.
    let clash = simurgh_crashlab::testing::colliding_name("existing", "clash");
    let clash_path = format!("/dir/{clash}");
    // Exhaust the DirBlock pool so the chain extension cannot be served.
    while env.meta.alloc(PoolKind::DirBlock).is_ok() {}

    assert!(fs.rename(&CTX, "/dir/mover", &clash_path).is_err(), "rename must report NoSpace");
    // No half-state: both names in their pre-rename state.
    assert_eq!(fs.read_to_vec(&CTX, "/dir/mover").unwrap(), b"payload");
    assert!(fs.stat(&CTX, &clash_path).is_err());

    // And the failed attempt leaves nothing for recovery to trip over.
    let fs2 = crash_and_remount(&fs);
    assert_eq!(fs2.read_to_vec(&CTX, "/dir/mover").unwrap(), b"payload");
    assert_eq!(fs2.read_to_vec(&CTX, "/dir/existing").unwrap(), b"keep me");
    assert!(fs2.stat(&CTX, &clash_path).is_err());
}

#[test]
fn cross_dir_rename_nospace_leaves_journal_idle() {
    // Regression: rename_cross_dir used to arm the source directory's
    // rename log and set DF_RENAME before reserving the destination slot; a
    // pool exhaustion then bailed out with the journal armed for an
    // operation that never happened, sending the next mount into a bogus
    // log replay. The slot is now reserved before the log is written.
    let fs = setup();
    fs.mkdir(&CTX, "/dst", FileMode::dir(0o755)).unwrap();
    fs.write_file(&CTX, "/dst/anchor", b"here first").unwrap();
    fs.write_file(&CTX, "/dir/mover2", b"cargo").unwrap();
    let env = fs.testing_dir_env();
    let (region, src) = fs.testing_dir_block("/dir").unwrap();
    let clash = simurgh_crashlab::testing::colliding_name("anchor", "xclash");
    let clash_path = format!("/dst/{clash}");
    while env.meta.alloc(PoolKind::DirBlock).is_ok() {}

    assert!(fs.rename(&CTX, "/dir/mover2", &clash_path).is_err(), "rename must report NoSpace");
    // The journal was never armed.
    assert_eq!(src.read_log(&region).op, simurgh_core::obj::dirblock::logop::IDLE);
    assert_eq!(fs.read_to_vec(&CTX, "/dir/mover2").unwrap(), b"cargo");
    assert!(fs.stat(&CTX, &clash_path).is_err());

    let fs2 = crash_and_remount(&fs);
    assert_eq!(fs2.read_to_vec(&CTX, "/dir/mover2").unwrap(), b"cargo");
    assert_eq!(fs2.read_to_vec(&CTX, "/dst/anchor").unwrap(), b"here first");
    assert!(fs2.stat(&CTX, &clash_path).is_err());
}

#[test]
fn unflushed_data_does_not_corrupt_metadata() {
    let fs = setup();
    // Write a file, then scribble into its data blocks WITHOUT flushing:
    // the scribble must die with the crash while metadata stays intact.
    fs.write_file(&CTX, "/dir/stable", b"AAAA").unwrap();
    let st = fs.stat(&CTX, "/dir/stable").unwrap();
    let ino = simurgh_core::obj::inode::Inode(simurgh_pmem::PPtr::new(st.ino));
    let ext = ino.extent(fs.region(), 0);
    fs.region().write(simurgh_pmem::PPtr::new(ext.start), *b"ZZZZ"); // no flush

    let fs2 = recover_and_check(&fs);
    assert_eq!(fs2.read_to_vec(&CTX, "/dir/stable").unwrap(), b"AAAA");
}

#[test]
fn repeated_crashes_converge() {
    // Crash, recover, do work, crash again — five times; the tree stays
    // consistent throughout.
    let mut fs = setup();
    for round in 0..5 {
        fs.write_file(&CTX, &format!("/dir/round-{round}"), b"r").unwrap();
        fs = crash_and_remount(&fs);
        for prior in 0..=round {
            assert!(
                fs.stat(&CTX, &format!("/dir/round-{prior}")).is_ok(),
                "round {prior} survived crash {round}"
            );
        }
    }
    assert_eq!(fs.read_to_vec(&CTX, "/dir/existing").unwrap(), b"keep me");
}

#[test]
fn clean_unmount_skips_repairs() {
    let fs = setup();
    let region = fs.region().clone();
    fs.unmount();
    let fs2 = SimurghFs::mount(region, SimurghConfig::default()).unwrap();
    let r = fs2.recovery_report();
    assert!(r.was_clean);
    assert_eq!(r.reclaimed_objects, 0);
    assert_eq!(fs2.read_to_vec(&CTX, "/dir/existing").unwrap(), b"keep me");
}
