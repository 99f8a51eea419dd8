//! Structural invariant checks (`fsck`) after stress, crashes and repair —
//! the tree must be not merely readable, but sound by construction.

use std::sync::Arc;
use std::time::Duration;

use simurgh_core::check::check;
use simurgh_core::{SimurghConfig, SimurghFs};
use simurgh_crashlab::testing;
use simurgh_fsapi::{FileMode, FileSystem, ProcCtx};
use simurgh_pmem::PmemRegion;
use simurgh_tests::{crash_and_remount, simurgh, simurgh_tracked};

#[test]
fn clean_after_multithreaded_churn() {
    let fs = Arc::new(simurgh(128 << 20));
    let root = ProcCtx::root(0);
    fs.mkdir(&root, "/arena", FileMode::dir(0o777)).unwrap();
    crossbeam::thread::scope(|s| {
        for t in 0..5u32 {
            let fs = &fs;
            s.spawn(move |_| {
                let ctx = ProcCtx::root(t + 1);
                for i in 0..60 {
                    let p = format!("/arena/t{t}-{i}");
                    fs.write_file(&ctx, &p, &vec![t as u8; 3000]).unwrap();
                    match i % 5 {
                        0 => fs.unlink(&ctx, &p).unwrap(),
                        1 => fs.rename(&ctx, &p, &format!("/arena/rn-t{t}-{i}")).unwrap(),
                        2 => fs.link(&ctx, &p, &format!("/arena/ln-t{t}-{i}")).unwrap(),
                        _ => {}
                    }
                }
            });
        }
    })
    .unwrap();
    let r = check(&fs, true);
    assert!(r.is_clean(), "violations after churn: {:?}", r.violations);
    assert_eq!(r.files, 5 * (60 - 12) as u64, "48 surviving files per thread");
}

#[test]
fn clean_after_crash_recovery() {
    let fs = simurgh_tracked(64 << 20);
    let ctx = ProcCtx::root(1);
    for d in 0..3 {
        fs.mkdir(&ctx, &format!("/d{d}"), FileMode::dir(0o755)).unwrap();
        for i in 0..30 {
            fs.write_file(&ctx, &format!("/d{d}/f{i}"), &vec![7u8; 1000]).unwrap();
        }
    }
    let fs2 = crash_and_remount(&fs);
    let r = check(&fs2, true);
    assert!(r.is_clean(), "violations after recovery: {:?}", r.violations);
    assert_eq!(r.files, 90);
}

#[test]
fn clean_after_interrupted_delete_repair() {
    let region = Arc::new(PmemRegion::new(64 << 20));
    let cfg = SimurghConfig { line_max_hold: Duration::from_millis(15), ..Default::default() };
    let fs = SimurghFs::format(region, cfg).unwrap();
    let ctx = ProcCtx::root(1);
    fs.mkdir(&ctx, "/w", FileMode::dir(0o777)).unwrap();
    fs.write_file(&ctx, "/w/victim", b"x").unwrap();
    testing::crash_mid_unlink(&fs, "/w", "victim");
    // Trigger the decentralized repair via a colliding insert.
    let other = testing::colliding_name("victim", "peer-");
    fs.write_file(&ctx, &format!("/w/{other}"), b"y").unwrap();
    let r = check(&fs, true);
    assert!(r.is_clean(), "violations after line repair: {:?}", r.violations);
}

#[test]
fn clean_after_double_crash_during_recovery_window() {
    // Crash, remount, crash again immediately (before any new work), and
    // remount once more: recovery must be idempotent.
    let fs = simurgh_tracked(64 << 20);
    let ctx = ProcCtx::root(1);
    fs.mkdir(&ctx, "/persist", FileMode::dir(0o755)).unwrap();
    for i in 0..25 {
        fs.write_file(&ctx, &format!("/persist/f{i}"), b"data").unwrap();
    }
    let fs2 = crash_and_remount(&fs);
    let fs3 = crash_and_remount(&fs2);
    let r = check(&fs3, true);
    assert!(r.is_clean(), "violations after double crash: {:?}", r.violations);
    assert_eq!(r.files, 25);
    assert_eq!(fs3.read_to_vec(&ctx, "/persist/f24").unwrap(), b"data");
}

#[test]
fn clean_after_deep_tree_and_truncates() {
    let fs = simurgh(64 << 20);
    let ctx = ProcCtx::root(1);
    let mut path = String::new();
    for d in 0..10 {
        path = format!("{path}/lvl{d}");
        fs.mkdir(&ctx, &path, FileMode::dir(0o755)).unwrap();
    }
    let file = format!("{path}/deep.bin");
    fs.write_file(&ctx, &file, &vec![9u8; 2 << 20]).unwrap();
    let fd = fs
        .open(&ctx, &file, simurgh_fsapi::OpenFlags::RDWR, FileMode::default())
        .unwrap();
    fs.ftruncate(&ctx, fd, 100).unwrap();
    fs.fallocate(&ctx, fd, 0, 1 << 20).unwrap();
    fs.ftruncate(&ctx, fd, 0).unwrap();
    fs.close(&ctx, fd).unwrap();
    let r = check(&fs, true);
    assert!(r.is_clean(), "violations after truncate dance: {:?}", r.violations);
    assert_eq!(r.directories, 11);
}

#[test]
fn block_accounting_balances_after_delete_all() {
    let fs = simurgh(64 << 20);
    let ctx = ProcCtx::root(1);
    // Warm up the metadata pools first (pools grow on demand and
    // legitimately keep their blocks), then measure a create/delete cycle.
    for i in 0..20 {
        fs.write_file(&ctx, &format!("/warm{i}"), &vec![3u8; 256 << 10]).unwrap();
    }
    for i in 0..20 {
        fs.unlink(&ctx, &format!("/warm{i}")).unwrap();
    }
    let free_before = fs.block_alloc().free_blocks();
    for i in 0..20 {
        fs.write_file(&ctx, &format!("/big{i}"), &vec![3u8; 256 << 10]).unwrap();
    }
    assert!(fs.block_alloc().free_blocks() < free_before);
    for i in 0..20 {
        fs.unlink(&ctx, &format!("/big{i}")).unwrap();
    }
    // Every data block of the cycle returned to the allocator.
    assert_eq!(fs.block_alloc().free_blocks(), free_before);
    let r = check(&fs, true);
    assert!(r.is_clean(), "{:?}", r.violations);
}
