//! Concurrency stress across the whole stack: independent "processes"
//! (threads with distinct pids) hammering shared structures, followed by
//! full-tree consistency checks — the decentralized coordination the paper
//! claims (§4: processes communicate only through shared memory).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use simurgh_core::{check, testing, SimurghConfig, SimurghFs};
use simurgh_fsapi::{FileMode, FileSystem, OpenFlags, ProcCtx};
use simurgh_pmem::PmemRegion;
use simurgh_tests::simurgh;

#[test]
fn shared_directory_mixed_churn() {
    let fs = Arc::new(simurgh(128 << 20));
    let root = ProcCtx::root(0);
    fs.mkdir(&root, "/melee", FileMode::dir(0o777)).unwrap();
    crossbeam::thread::scope(|s| {
        for t in 0..6u32 {
            let fs = &fs;
            s.spawn(move |_| {
                let ctx = ProcCtx::root(t + 1);
                for i in 0..80 {
                    let p = format!("/melee/t{t}-{i}");
                    fs.write_file(&ctx, &p, format!("{t}:{i}").as_bytes()).unwrap();
                    match i % 4 {
                        0 => fs.unlink(&ctx, &p).unwrap(),
                        1 => fs.rename(&ctx, &p, &format!("/melee/t{t}-{i}-r")).unwrap(),
                        _ => {}
                    }
                }
            });
        }
    })
    .unwrap();
    // Survivors: i%4==1 renamed, i%4 in {2,3} original → 60 per thread.
    let entries = fs.readdir(&root, "/melee").unwrap();
    assert_eq!(entries.len(), 6 * 60);
    for e in &entries {
        let body = fs.read_to_vec(&root, &format!("/melee/{}", e.name)).unwrap();
        assert!(!body.is_empty());
    }
}

#[test]
fn create_shared_storm_agrees_with_index() {
    // N threads create-shared into one directory with the index enabled:
    // the Fig. 7b hot path. Afterwards the persistent chain (readdir), the
    // per-name lookups, and the shared-DRAM index must all agree exactly —
    // a lost CAS on a chain extension or a stale index entry shows up here.
    let fs = Arc::new(simurgh(192 << 20));
    let root = ProcCtx::root(0);
    fs.mkdir(&root, "/storm", FileMode::dir(0o777)).unwrap();
    const THREADS: u32 = 8;
    const PER_THREAD: usize = 400;
    crossbeam::thread::scope(|s| {
        for t in 0..THREADS {
            let fs = &fs;
            s.spawn(move |_| {
                let ctx = ProcCtx::root(t + 1);
                for i in 0..PER_THREAD {
                    let fd = fs
                        .open(
                            &ctx,
                            &format!("/storm/t{t}-f{i}"),
                            OpenFlags::CREATE,
                            FileMode::default(),
                        )
                        .unwrap();
                    fs.close(&ctx, fd).unwrap();
                }
            });
        }
    })
    .unwrap();
    // Zero lost or duplicate entries on the persistent chain.
    let entries = fs.readdir(&root, "/storm").unwrap();
    assert_eq!(entries.len(), THREADS as usize * PER_THREAD, "entries lost or duplicated");
    let mut seen = std::collections::HashSet::new();
    for e in &entries {
        assert!(seen.insert(e.name.clone()), "duplicate entry {}", e.name);
    }
    // The index agrees with the chain: full authority, every name a verified
    // O(1) hit (no fallback walks during the sweep).
    let (_, first) = fs.testing_dir_block("/storm").unwrap();
    let ix = fs.testing_index();
    assert!(ix.is_complete(first.ptr()), "storm degraded index authority");
    assert_eq!(ix.dir_len(first.ptr()), THREADS as usize * PER_THREAD, "index/chain count mismatch");
    let before = fs.dir_stats();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            fs.stat(&root, &format!("/storm/t{t}-f{i}")).unwrap();
        }
    }
    let d = fs.dir_stats().since(&before);
    assert_eq!(d.chain_walks, 0, "post-storm lookups fell back to the chain");
    assert_eq!(d.stale_evicted, 0, "storm left stale index entries");
}

#[test]
fn cross_directory_rename_storm() {
    let fs = Arc::new(simurgh(64 << 20));
    let root = ProcCtx::root(0);
    for d in 0..4 {
        fs.mkdir(&root, &format!("/d{d}"), FileMode::dir(0o777)).unwrap();
    }
    for i in 0..40 {
        fs.write_file(&root, &format!("/d0/ball-{i}"), b"x").unwrap();
    }
    // Threads shuttle files around directories concurrently, including the
    // deadlock-prone reverse pair (d1<->d2).
    crossbeam::thread::scope(|s| {
        for t in 0..4u32 {
            let fs = &fs;
            s.spawn(move |_| {
                let ctx = ProcCtx::root(t + 1);
                for round in 0..30 {
                    let i = (t as usize * 10 + round) % 40;
                    let from = (t as usize + round) % 4;
                    let to = (from + 1 + round % 3) % 4;
                    let _ = fs.rename(
                        &ctx,
                        &format!("/d{from}/ball-{i}"),
                        &format!("/d{to}/ball-{i}"),
                    );
                }
            });
        }
    })
    .unwrap();
    // Every ball exists exactly once somewhere.
    let mut total = 0;
    let mut seen = std::collections::HashSet::new();
    for d in 0..4 {
        for e in fs.readdir(&root, &format!("/d{d}")).unwrap() {
            assert!(seen.insert(e.name.clone()), "duplicate {}", e.name);
            total += 1;
        }
    }
    assert_eq!(total, 40, "no ball lost or duplicated");
}

#[test]
fn concurrent_appends_to_shared_file_with_lock() {
    let fs = Arc::new(simurgh(64 << 20));
    let root = ProcCtx::root(0);
    let fd0 = fs.open(&root, "/log", OpenFlags::APPEND, FileMode::default()).unwrap();
    fs.close(&root, fd0).unwrap();
    crossbeam::thread::scope(|s| {
        for t in 0..4u32 {
            let fs = &fs;
            s.spawn(move |_| {
                let ctx = ProcCtx::root(t + 1);
                let fd = fs.open(&ctx, "/log", OpenFlags::APPEND, FileMode::default()).unwrap();
                for _ in 0..2000 {
                    fs.write(&ctx, fd, &[b'a' + t as u8; 64]).unwrap();
                }
                fs.close(&ctx, fd).unwrap();
            });
        }
    })
    .unwrap();
    let data = fs.read_to_vec(&root, "/log").unwrap();
    assert_eq!(data.len(), 4 * 2000 * 64, "no append lost");
    // Each 64-byte record is homogeneous (no torn interleaving).
    for chunk in data.chunks(64) {
        assert!(chunk.iter().all(|&b| b == chunk[0]), "torn append record");
    }
}

#[test]
fn concurrent_link_unlink_keeps_nlink_exact() {
    // Four threads each give `/a/f` a second name in their own directory
    // and take it away again. Every link and unlink updates the one nlink
    // word, so a lost update lets an unlink retire the inode while `/a/f`
    // still names it.
    for round in 0..4 {
        let fs = Arc::new(simurgh(64 << 20));
        let root = ProcCtx::root(0);
        fs.mkdir(&root, "/a", FileMode::dir(0o777)).unwrap();
        fs.write_file(&root, "/a/f", b"shared").unwrap();
        for t in 0..4 {
            fs.mkdir(&root, &format!("/d{t}"), FileMode::dir(0o777)).unwrap();
        }
        crossbeam::thread::scope(|s| {
            for t in 0..4u32 {
                let fs = &fs;
                s.spawn(move |_| {
                    let ctx = ProcCtx::root(t + 1);
                    for i in 0..3000 {
                        let name = format!("/d{t}/g{i}");
                        fs.link(&ctx, "/a/f", &name).unwrap();
                        fs.unlink(&ctx, &name).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(fs.stat(&root, "/a/f").unwrap().nlink, 1, "round {round}");
        assert_eq!(fs.read_to_vec(&root, "/a/f").unwrap(), b"shared", "round {round}");
        let r = check::check(&fs, true);
        assert!(r.is_clean(), "round {round}: {:?}", r.violations);
    }
}

#[test]
fn readers_and_writers_shared_file() {
    let fs = Arc::new(simurgh(64 << 20));
    let root = ProcCtx::root(0);
    fs.write_file(&root, "/shared.bin", &vec![0u8; 1 << 20]).unwrap();
    let stop = AtomicU32::new(0);
    crossbeam::thread::scope(|s| {
        // One writer repeatedly overwrites whole 4K pages with a stamp.
        let fsw = &fs;
        let stop_ref = &stop;
        s.spawn(move |_| {
            let ctx = ProcCtx::root(1);
            let fd = fsw.open(&ctx, "/shared.bin", OpenFlags::RDWR, FileMode::default()).unwrap();
            for i in 0..200u32 {
                let stamp = vec![(i % 251) as u8 + 1; 4096];
                fsw.pwrite(&ctx, fd, &stamp, ((i % 256) as u64) * 4096).unwrap();
            }
            fsw.close(&ctx, fd).unwrap();
            stop_ref.store(1, Ordering::SeqCst);
        });
        // Readers check that every 4K page they read is homogeneous.
        for t in 0..3u32 {
            let fs = &fs;
            let stop_ref = &stop;
            s.spawn(move |_| {
                let ctx = ProcCtx::root(t + 2);
                let fd = fs.open(&ctx, "/shared.bin", OpenFlags::RDONLY, FileMode::default()).unwrap();
                let mut buf = vec![0u8; 4096];
                let mut i = 0u64;
                while stop_ref.load(Ordering::SeqCst) == 0 {
                    fs.pread(&ctx, fd, &mut buf, (i % 256) * 4096).unwrap();
                    i += 1;
                }
                fs.close(&ctx, fd).unwrap();
            });
        }
    })
    .unwrap();
}

#[test]
fn crashed_process_does_not_block_the_fleet() {
    let region = Arc::new(PmemRegion::new(64 << 20));
    let cfg = SimurghConfig { line_max_hold: Duration::from_millis(20), ..Default::default() };
    let fs = Arc::new(SimurghFs::format(region, cfg).unwrap());
    let root = ProcCtx::root(0);
    fs.mkdir(&root, "/work", FileMode::dir(0o777)).unwrap();
    fs.write_file(&root, "/work/victim", b"x").unwrap();
    testing::crash_mid_unlink(&fs, "/work", "victim");
    // Several processes hit the same line concurrently: exactly one repairs,
    // everyone makes progress.
    crossbeam::thread::scope(|s| {
        for t in 0..4u32 {
            let fs = &fs;
            s.spawn(move |_| {
                let ctx = ProcCtx::root(t + 1);
                let name = testing::colliding_name("victim", &format!("w{t}-"));
                fs.write_file(&ctx, &format!("/work/{name}"), b"done").unwrap();
            });
        }
    })
    .unwrap();
    assert!(fs.stat(&root, "/work/victim").is_err(), "interrupted delete finished");
    assert_eq!(fs.readdir(&root, "/work").unwrap().len(), 4);
}

#[test]
fn open_table_isolation_between_processes() {
    let fs = simurgh(32 << 20);
    let a = ProcCtx::root(1);
    let b = ProcCtx::root(2);
    fs.write_file(&a, "/f", b"hello").unwrap();
    let fd = fs.open(&a, "/f", OpenFlags::RDONLY, FileMode::default()).unwrap();
    // Process B cannot use process A's descriptor.
    let mut buf = [0u8; 5];
    assert!(fs.pread(&b, fd, &mut buf, 0).is_err());
    assert_eq!(fs.pread(&a, fd, &mut buf, 0).unwrap(), 5);
    fs.close(&a, fd).unwrap();
}

#[test]
fn minikv_under_concurrent_clients() {
    let fs = simurgh(128 << 20);
    let kv = Arc::new(
        simurgh_workloads::minikv::MiniKv::open(
            &fs,
            "/db",
            simurgh_workloads::minikv::KvOptions { memtable_bytes: 4096, max_tables: 3, sync_wal: false },
        )
        .unwrap(),
    );
    crossbeam::thread::scope(|s| {
        for t in 0..4u32 {
            let kv = kv.clone();
            s.spawn(move |_| {
                for i in 0..150 {
                    kv.put(format!("t{t}-k{i}").as_bytes(), format!("v{t}-{i}").as_bytes())
                        .unwrap();
                    if i % 3 == 0 {
                        let got = kv.get(format!("t{t}-k{i}").as_bytes()).unwrap().unwrap();
                        assert_eq!(got, format!("v{t}-{i}").as_bytes());
                    }
                }
            });
        }
    })
    .unwrap();
    for t in 0..4 {
        for i in 0..150 {
            assert!(
                kv.get(format!("t{t}-k{i}").as_bytes()).unwrap().is_some(),
                "t{t}-k{i} lost"
            );
        }
    }
}
