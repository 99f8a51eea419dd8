//! Tier-1 gate for the group-commit work: per-op persistence costs against
//! the pinned pre-coalescing baseline, storm-level fence and allocator
//! amortization, adaptive-backoff lock health, and recovery of refill
//! batches leaked by a `kill -9`'d peer mount.
//!
//! The kill-9 case re-execs this binary with `--exact
//! gc_refill_worker_entry` (same protocol as the multiproc matrix): the
//! hidden worker test below is inert in a normal run and becomes the victim
//! process when the driver's environment variable is present.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;

use simurgh_core::alloc::lock_stats;
use simurgh_core::{check, SimurghConfig, SimurghFs};
use simurgh_crashlab::testing::matrix::probe_costs;
use simurgh_fsapi::{FileMode, FileSystem, OpenFlags, ProcCtx};
use simurgh_pmem::RegionBuilder;
use simurgh_tests::simurgh;

const CTX: ProcCtx = ProcCtx::root(1);

/// `(op, fences, pool_trips, seg_trips)` measured with `probe_costs()` at
/// the parent of the group-commit change: every persist carried its own
/// sfence, every metadata allocation took a pool round trip, every block
/// extension took the segment lock. This is the pinned baseline the wins
/// below are asserted against — re-pin deliberately if the protocols
/// change, don't let it drift.
const BASELINE: &[(&str, u64, u64, u64)] = &[
    ("create", 10, 2, 0),
    ("unlink", 8, 0, 1),
    ("rename-samedir", 12, 1, 0),
    ("rename-crossdir", 14, 1, 0),
    ("append", 4, 0, 2),
    ("truncate-shrink", 7, 0, 1),
    ("symlink", 13, 2, 1),
];

fn baseline(op: &str) -> (u64, u64, u64) {
    let &(_, f, p, s) = BASELINE.iter().find(|(n, ..)| *n == op).expect("op in baseline table");
    (f, p, s)
}

#[test]
fn per_op_costs_beat_the_pinned_baseline() {
    let costs = probe_costs();
    assert_eq!(costs.len(), BASELINE.len(), "scripted op set changed — re-pin the baseline");
    let (mut fences_now, mut fences_then) = (0u64, 0u64);
    for c in &costs {
        let (base_f, base_p, base_s) = baseline(&c.op);
        assert!(
            c.fences < base_f,
            "{}: {} fences, pre-coalescing baseline was {}",
            c.op,
            c.fences,
            base_f
        );
        assert!(c.fences_elided > 0, "{}: the group-commit scope absorbed nothing", c.op);
        assert!(
            c.pool_trips <= base_p / 2,
            "{}: {} pool trips, batched refill should at least halve the baseline {}",
            c.op,
            c.pool_trips,
            base_p
        );
        assert!(c.seg_trips <= base_s, "{}: segment trips regressed: {} > {}", c.op, c.seg_trips, base_s);
        fences_now += c.fences;
        fences_then += base_f;
    }
    // Aggregate across the whole scripted mix: ≥ 30% fewer sfence
    // boundaries (currently 50%).
    assert!(
        fences_now * 10 <= fences_then * 7,
        "aggregate fences {fences_now} vs baseline {fences_then}: win under 30%"
    );
}

#[test]
fn create_unlink_storm_coalesces_fences_without_lock_regressions() {
    let fs = Arc::new(simurgh(64 << 20));
    let root = ProcCtx::root(0);
    fs.mkdir(&root, "/storm", FileMode::dir(0o777)).unwrap();
    const THREADS: u32 = 4;
    const PAIRS: u64 = 200;

    let s0 = fs.region().stats().snapshot();
    let trips0 = fs.meta_alloc().pool_trips();
    let steals0 = lock_stats().steals.load(std::sync::atomic::Ordering::Relaxed);
    let acquires0 = lock_stats().acquires.load(std::sync::atomic::Ordering::Relaxed);
    crossbeam::thread::scope(|s| {
        for t in 0..THREADS {
            let fs = &fs;
            s.spawn(move |_| {
                let ctx = ProcCtx::root(t + 1);
                for i in 0..PAIRS {
                    let p = format!("/storm/t{t}-{i}");
                    let fd = fs
                        .open(&ctx, &p, OpenFlags::CREATE, FileMode::default())
                        .unwrap();
                    fs.close(&ctx, fd).unwrap();
                    fs.unlink(&ctx, &p).unwrap();
                }
            });
        }
    })
    .unwrap();
    let d = fs.region().stats().snapshot().since(&s0);
    let trips = fs.meta_alloc().pool_trips() - trips0;
    let steals = lock_stats().steals.load(std::sync::atomic::Ordering::Relaxed) - steals0;
    let acquires = lock_stats().acquires.load(std::sync::atomic::Ordering::Relaxed) - acquires0;
    let pairs = u64::from(THREADS) * PAIRS;

    // Fences: ≥ 30% below the pinned create+unlink sum (10 + 8 per pair).
    let (create_f, ..) = baseline("create");
    let (unlink_f, ..) = baseline("unlink");
    assert!(
        d.fences * 10 <= pairs * (create_f + unlink_f) * 7,
        "storm crossed {} fences for {pairs} create+unlink pairs (baseline {}/pair)",
        d.fences,
        create_f + unlink_f
    );
    assert!(d.fences_elided > 0, "storm scopes absorbed nothing");
    // Batched refill: the pinned baseline paid 2 pool trips per create;
    // the 8-slot refill cache must at least halve that.
    assert!(
        trips <= pairs,
        "{trips} pool trips for {pairs} creates — refill batching is not amortizing"
    );
    // Adaptive backoff keeps the lock protocol honest under contention:
    // every op still acquires, and takeovers (steals) stay what they are —
    // crash recovery, not live arbitration. The margin absorbs unrelated
    // tests in this binary feeding the same global battery.
    assert!(
        acquires >= pairs,
        "only {acquires} lock acquisitions across {pairs} pairs"
    );
    assert!(
        steals <= pairs / 50,
        "{steals} lock steals in a live storm — backoff is timing out healthy holders"
    );
}

#[test]
fn append_storm_amortizes_segment_lock_trips() {
    let fs = simurgh(64 << 20);
    let root = ProcCtx::root(0);
    let fd = fs.open(&root, "/big", OpenFlags::CREATE, FileMode::default()).unwrap();
    let chunk = vec![7u8; 4096];
    const APPENDS: u64 = 128;

    let g0 = fs.block_alloc().seg_trips();
    let s0 = fs.region().stats().snapshot();
    for i in 0..APPENDS {
        fs.pwrite(&root, fd, &chunk, i * 4096).unwrap();
    }
    let d = fs.region().stats().snapshot().since(&s0);
    let trips = fs.block_alloc().seg_trips() - g0;
    fs.close(&root, fd).unwrap();

    // The pinned baseline paid 2 segment-lock trips per appended block;
    // the per-inode block reservation must cut the storm total by ≥ 50%.
    let (base_f, _, base_s) = baseline("append");
    assert!(
        trips * 2 <= APPENDS * base_s,
        "{trips} segment trips for {APPENDS} appends (baseline {base_s}/append)"
    );
    // And the growth-path fences coalesce: ≥ 30% below baseline.
    assert!(
        d.fences * 10 <= APPENDS * base_f * 7,
        "{} fences for {APPENDS} appends (baseline {base_f}/append)",
        d.fences
    );
}

// ---------------------------------------------------------------------------
// kill -9 a peer with parked refill batches
// ---------------------------------------------------------------------------

const WORKER_ENV: &str = "SIMURGH_GC_REFILL_FILE";
const READY_LINE: &str = "GC-REFILL-READY";

/// Hidden worker entry: inert without the driver's environment. As the
/// victim it attaches the shared file, runs nine creates — the ninth
/// refills both metadata pools, parking 7 claimed-but-unreachable slots
/// per kind in this thread's refill cache — then parks idle so the SIGKILL
/// lands with no op in flight: the only garbage is the leaked batches.
#[test]
fn gc_refill_worker_entry() {
    let Ok(path) = std::env::var(WORKER_ENV) else { return };
    let region =
        Arc::new(RegionBuilder::open_file(&path).build().expect("worker: open region file"));
    let fs = SimurghFs::mount_shared(region, SimurghConfig::default()).expect("worker: attach");
    let ctx = ProcCtx::root(2);
    for i in 0..9 {
        fs.write_file(&ctx, &format!("/d/w{i}"), b"w").expect("worker: create");
    }
    println!("{READY_LINE}");
    std::io::stdout().flush().expect("worker: flush");
    loop {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

#[test]
fn killed_peer_refill_batches_are_reclaimed() {
    let path =
        std::env::temp_dir().join(format!("simurgh-gc-refill-{}.img", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let region = Arc::new(
            RegionBuilder::new(8 << 20).file(&path).build().expect("create region file"),
        );
        let fs = SimurghFs::format(region, SimurghConfig::default()).expect("format");
        fs.mkdir(&CTX, "/d", FileMode::dir(0o777)).unwrap();
        fs.unmount();
    }

    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .args(["--exact", "gc_refill_worker_entry", "--nocapture"])
        .env(WORKER_ENV, &path)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn worker");
    let mut lines = BufReader::new(child.stdout.take().expect("worker stdout")).lines();
    loop {
        let line = lines.next().expect("worker exited before READY").expect("read worker");
        if line.contains(READY_LINE) {
            break;
        }
    }
    child.kill().expect("SIGKILL worker");
    child.wait().expect("reap worker");

    // First exclusive recovery: the victim's parked refill slots are
    // allocated-but-unreachable on media, so the sweep must free them —
    // at least one full batch's worth.
    let region = Arc::new(RegionBuilder::open_file(&path).build().expect("reopen"));
    let fs = SimurghFs::mount(region, SimurghConfig::default()).expect("recovery mount");
    let rep = fs.recovery_report();
    assert!(!rep.was_clean, "the victim died holding its attach — recovery must run");
    assert!(
        rep.reclaimed_objects >= 8,
        "only {} objects reclaimed — the leaked refill batches were not swept",
        rep.reclaimed_objects
    );
    for i in 0..9 {
        assert_eq!(
            fs.read_to_vec(&CTX, &format!("/d/w{i}")).expect("durable create"),
            b"w",
            "committed create lost"
        );
    }
    assert!(check::check(&fs, true).is_clean(), "fsck dirty after recovery");
    drop(fs); // no unmount: leave the file unclean for the convergence pass

    // Second recovery must find nothing: one pass fully reclaimed.
    let region = Arc::new(RegionBuilder::open_file(&path).build().expect("reopen twice"));
    let fs = SimurghFs::mount(region, SimurghConfig::default()).expect("second recovery");
    assert_eq!(
        fs.recovery_report().reclaimed_objects,
        0,
        "second recovery found garbage the first left behind"
    );
    fs.unmount();
    let _ = std::fs::remove_file(&path);
}
