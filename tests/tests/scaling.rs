//! Metadata- and data-path scaling: the probe counters must show O(1) work
//! per operation no matter how large a single directory grows or how
//! fragmented a file becomes. NOVA's per-inode log append is O(1); Fig. 7
//! only has Simurgh strictly ahead because the shared-DRAM indexes
//! short-circuit every chain and extent-map walk — so the complexity claim
//! is asserted here directly, not inferred from wall-clock numbers (which
//! this battery deliberately avoids: counters don't flake).

use simurgh_core::dir::DirStatsSnapshot;
use simurgh_core::file::DataStatsSnapshot;
use simurgh_core::obj::inode::{extblock, Inode};
use simurgh_core::SimurghFs;
use simurgh_fsapi::{FileMode, FileSystem, OpenFlags, ProcCtx};
use simurgh_pmem::PPtr;
use simurgh_tests::simurgh;

const CTX: ProcCtx = ProcCtx::root(1);

/// Create/stat/unlink `n` files in one shared directory; returns the
/// per-phase counter deltas (create, stat, unlink).
fn run_phases(fs: &SimurghFs, dir: &str, n: usize) -> [DirStatsSnapshot; 3] {
    fs.mkdir(&CTX, dir, FileMode::dir(0o777)).unwrap();
    let mut base = fs.dir_stats();
    let mut out = Vec::new();
    let mut phase = |fs: &SimurghFs| {
        let now = fs.dir_stats();
        let delta = now.since(&base);
        base = now;
        delta
    };
    for i in 0..n {
        let fd = fs.open(&CTX, &format!("{dir}/f{i}"), OpenFlags::CREATE, FileMode::default()).unwrap();
        fs.close(&CTX, fd).unwrap();
    }
    out.push(phase(fs));
    for i in 0..n {
        fs.stat(&CTX, &format!("{dir}/f{i}")).unwrap();
    }
    out.push(phase(fs));
    for i in 0..n {
        fs.unlink(&CTX, &format!("{dir}/f{i}")).unwrap();
    }
    out.push(phase(fs));
    out.try_into().unwrap()
}

#[test]
fn ten_k_entries_one_directory_stays_o1() {
    let fs = simurgh(256 << 20);
    let [create, stat, unlink] = run_phases(&fs, "/big", 10_000);

    // Every phase: mean probes per lookup is a small constant, nowhere near
    // the ~40-block chain a 10k-entry directory builds.
    for (name, d) in [("create", &create), ("stat", &stat), ("unlink", &unlink)] {
        let p = d.probes_per_lookup();
        assert!(p <= 1.5, "{name}: {p:.3} probes/lookup — metadata path is not O(1)");
    }
    // The steady state never falls back to a chain walk at all.
    assert_eq!(stat.chain_walks, 0, "stat phase walked a chain");
    assert_eq!(unlink.chain_walks, 0, "unlink phase walked a chain");
    // Inserts find their slot without scanning the chain: one probe per
    // create (hint or cached tail), not one per chain block.
    assert!(
        create.hint_hits + create.slot_probes <= create.extends + 10_000,
        "insert path scanned: {} hint hits + {} slot probes for 10k creates",
        create.hint_hits,
        create.slot_probes,
    );
}

#[test]
fn probes_per_op_independent_of_directory_size() {
    // The O(1) claim proper: per-op probe counts at 10x the directory size
    // must not grow with it. Chains at 1k entries are ~5 blocks, at 10k
    // ~40 — a linear component would show up as a ~8x ratio.
    let fs_small = simurgh(128 << 20);
    let fs_big = simurgh(256 << 20);
    let small = run_phases(&fs_small, "/d", 1_000);
    let big = run_phases(&fs_big, "/d", 10_000);
    for (name, s, b) in [
        ("create", &small[0], &big[0]),
        ("stat", &small[1], &big[1]),
        ("unlink", &small[2], &big[2]),
    ] {
        let (ps, pb) = (s.probes_per_lookup(), b.probes_per_lookup());
        assert!(
            pb <= ps * 1.25 + 0.1,
            "{name}: probes/lookup grew with directory size ({ps:.3} at 1k -> {pb:.3} at 10k)"
        );
    }
}

#[test]
fn deleted_slots_are_reused_not_rescanned() {
    // Churn: delete half, re-create. Free-slot hints must hand out the holes
    // (no chain growth, no per-insert scans).
    let fs = simurgh(128 << 20);
    fs.mkdir(&CTX, "/churn", FileMode::dir(0o777)).unwrap();
    for i in 0..2_000 {
        let fd = fs.open(&CTX, &format!("/churn/f{i}"), OpenFlags::CREATE, FileMode::default()).unwrap();
        fs.close(&CTX, fd).unwrap();
    }
    for i in (0..2_000).step_by(2) {
        fs.unlink(&CTX, &format!("/churn/f{i}")).unwrap();
    }
    let base = fs.dir_stats();
    for i in 0..1_000 {
        let fd = fs.open(&CTX, &format!("/churn/n{i}"), OpenFlags::CREATE, FileMode::default()).unwrap();
        fs.close(&CTX, fd).unwrap();
    }
    let d = fs.dir_stats().since(&base);
    assert!(
        d.hint_hits + d.hint_stale + d.slot_probes + d.extends <= 1_300,
        "insert path re-scanned after churn: {} hints, {} stale, {} probes, {} extends",
        d.hint_hits,
        d.hint_stale,
        d.slot_probes,
        d.extends,
    );
    assert!(d.probes_per_lookup() <= 1.5, "churned lookups degraded");
}

/// `meta_mix`'s namespace cycle, `cycles` times, in a directory holding
/// `entries` other files: create a name, rename it out to a second
/// directory, rename it back under a new name, unlink it. Returns the
/// directory counters and the fences of the cycles alone.
fn churn_cycles(fs: &SimurghFs, entries: usize, cycles: usize) -> (DirStatsSnapshot, u64) {
    fs.mkdir(&CTX, "/d", FileMode::dir(0o777)).unwrap();
    fs.mkdir(&CTX, "/out", FileMode::dir(0o777)).unwrap();
    for i in 0..entries {
        let fd = fs.open(&CTX, &format!("/d/p{i}"), OpenFlags::CREATE, FileMode::default()).unwrap();
        fs.close(&CTX, fd).unwrap();
    }
    let base = fs.dir_stats();
    let fences = fs.region().stats().snapshot().fences;
    for j in 0..cycles {
        let (a, b, c) = (format!("/d/n{j}"), format!("/out/k{j}"), format!("/d/m{j}"));
        let fd = fs.open(&CTX, &a, OpenFlags::CREATE, FileMode::default()).unwrap();
        fs.close(&CTX, fd).unwrap();
        fs.rename(&CTX, &a, &b).unwrap();
        fs.rename(&CTX, &b, &c).unwrap();
        fs.unlink(&CTX, &c).unwrap();
    }
    (fs.dir_stats().since(&base), fs.region().stats().snapshot().fences - fences)
}

#[test]
fn churn_in_a_large_directory_does_not_regrow_its_chain() {
    // Unlink never shrinks a mounted chain, so a churned directory's blocks
    // keep their holes for the next create instead of being freed and
    // re-linked: chain extensions stay rare, and a cycle costs the same
    // fences at 5k entries as at 1k.
    const CYCLES: usize = 5_000;
    let (_, small_fences) = churn_cycles(&simurgh(64 << 20), 1_000, CYCLES);
    let (big, big_fences) = churn_cycles(&simurgh(128 << 20), 5_000, CYCLES);
    assert!(
        big.extends * 100 <= CYCLES as u64,
        "{} chain extensions in {CYCLES} cycles at 5k entries",
        big.extends
    );
    let per_cycle = |f: u64| f as f64 / CYCLES as f64;
    assert!(
        (per_cycle(big_fences) - per_cycle(small_fences)).abs() <= 0.01,
        "fences per cycle: {:.3} at 5k entries, {:.3} at 1k",
        per_cycle(big_fences),
        per_cycle(small_fences)
    );
}

// ---------------------------------------------------------------------------
// Data path: extent cursor cache and append fast path
// ---------------------------------------------------------------------------

const BLOCK: u64 = 4096;

/// Creates `/frag{tag}` fragmented into roughly `extents` single-block
/// extents by interleaving appends with a decoy file: every allocation for
/// the decoy claims the block right after the main file's tail, so the
/// tail-extend fast path is blocked and each append lands in its own extent.
/// Each append is the first growth of a fresh open, which parks no blocks
/// after the tail for the other file's next block to miss.
fn fragmented(fs: &SimurghFs, tag: &str, extents: usize) -> simurgh_fsapi::Fd {
    let paths = [format!("/frag{tag}"), format!("/decoy{tag}")];
    let chunk = vec![0xC3u8; BLOCK as usize];
    for i in 0..extents as u64 {
        for path in &paths {
            let flags = if i == 0 { OpenFlags::CREATE } else { OpenFlags::WRONLY };
            let fd = fs.open(&CTX, path, flags, FileMode::default()).unwrap();
            fs.pwrite(&CTX, fd, &chunk, i * BLOCK).unwrap();
            fs.close(&CTX, fd).unwrap();
        }
    }
    let main = fs.open(&CTX, &paths[0], OpenFlags::RDWR, FileMode::default()).unwrap();
    // Build the new descriptor's extent mirror: the ops under test start warm.
    fs.pread(&CTX, main, &mut [0u8; 1], 0).unwrap();
    main
}

/// Fixed batch of 4 KiB reads and overwrites striding over the file;
/// returns the counter delta.
fn run_data_ops(fs: &SimurghFs, fd: simurgh_fsapi::Fd, extents: usize, ops: u64) -> DataStatsSnapshot {
    let file_bytes = extents as u64 * BLOCK;
    let mut buf = vec![0u8; BLOCK as usize];
    let base = fs.data_stats();
    for i in 0..ops {
        let off = (i * 7919 * BLOCK) % file_bytes;
        fs.pread(&CTX, fd, &mut buf, off).unwrap();
        fs.pwrite(&CTX, fd, &buf, off).unwrap();
    }
    fs.data_stats().since(&base)
}

#[test]
fn walk_steps_per_op_independent_of_extent_count() {
    // The O(1) claim proper, acceptance-criterion form: extent-walk steps
    // per read/write op must stay flat (±10%) as the file grows from 16 to
    // 2048 extents. An O(extents) locate would show up as a ~128x ratio.
    let fs_small = simurgh(64 << 20);
    let fs_big = simurgh(128 << 20);
    let fd_small = fragmented(&fs_small, "S", 16);
    let fd_big = fragmented(&fs_big, "B", 2048);
    let small = run_data_ops(&fs_small, fd_small, 16, 2000);
    let big = run_data_ops(&fs_big, fd_big, 2048, 2000);

    let (ps, pb) = (small.walk_steps_per_op(), big.walk_steps_per_op());
    assert!(ps > 0.0, "probe counters not wired: no walk steps recorded");
    assert!(
        pb <= ps * 1.1,
        "walk steps/op grew with extent count ({ps:.3} at 16 -> {pb:.3} at 2048)"
    );
    // Steady state never falls back to a full persistent-map walk: every op
    // is served from the DRAM extent mirror.
    assert_eq!(big.map_walks, 0, "data path re-walked the persistent extent map");
    assert_eq!(big.cursor_rebuilds, 0, "cursor mirror thrashed during steady-state I/O");
    assert_eq!(big.reads, 2000);
    assert_eq!(big.writes, 2000);
}

#[test]
fn contiguous_appends_extend_tail_in_place() {
    // Acceptance criterion: >= 90% of contiguous single-thread appends must
    // extend the tail extent in place instead of allocating a fresh extent.
    let fs = simurgh(64 << 20);
    let fd = fs.open(&CTX, "/seq", OpenFlags::CREATE, FileMode::default()).unwrap();
    let chunk = vec![0x7Eu8; BLOCK as usize];
    let base = fs.data_stats();
    for i in 0..1024u64 {
        fs.pwrite(&CTX, fd, &chunk, i * BLOCK).unwrap();
    }
    let d = fs.data_stats().since(&base);
    assert_eq!(d.appends, 1024);
    assert!(
        d.tail_extend_rate() >= 0.9,
        "tail-extend rate {:.3} ({} of {} appends)",
        d.tail_extend_rate(),
        d.tail_extends,
        d.appends
    );
}

/// Overflow extent blocks in the map of `path`.
fn chain_blocks(fs: &SimurghFs, path: &str) -> u64 {
    let ino = Inode(PPtr::new(fs.stat(&CTX, path).unwrap().ino));
    let mut n = 0;
    let mut blk = ino.ext_next(fs.region());
    while !blk.is_null() {
        n += 1;
        blk = extblock::next(fs.region(), blk);
    }
    n
}

#[test]
fn interleaved_appends_to_many_open_files_extend_in_place() {
    // `data_aged`'s stream shape: one thread appends 4 KiB round-robin to
    // 64 open files. Each file's next block must come from blocks parked
    // after its own tail, not from wherever the previous stream's
    // allocation left off.
    const FILES: usize = 64;
    const ROUNDS: u64 = 256;
    let fs = simurgh(128 << 20);
    let rw = OpenFlags { read: true, ..OpenFlags::CREATE };
    let paths: Vec<String> = (0..FILES).map(|f| format!("/stream{f}")).collect();
    let fds: Vec<_> = paths.iter().map(|p| fs.open(&CTX, p, rw, FileMode::default()).unwrap()).collect();
    let free_before = fs.block_alloc().free_blocks();
    let base = fs.data_stats();
    let chunk = vec![0x5Au8; BLOCK as usize];
    for r in 0..ROUNDS {
        for &fd in &fds {
            fs.pwrite(&CTX, fd, &chunk, r * BLOCK).unwrap();
        }
    }
    let d = fs.data_stats().since(&base);
    assert_eq!(d.appends, FILES as u64 * ROUNDS);
    assert!(
        d.tail_extend_rate() >= 0.9,
        "interleaved tail-extend rate {:.3} ({} of {} appends)",
        d.tail_extend_rate(),
        d.tail_extends,
        d.appends
    );
    let (files, extents) = fs.extent_census();
    assert_eq!(files, FILES as u64);
    assert!(extents < 2048, "{extents} extents for {FILES} interleaved streams");
    for fd in fds {
        fs.close(&CTX, fd).unwrap();
    }
    // Closing returns every parked block: what stays allocated is exactly
    // the data plus the overflow blocks of the maps.
    let chain: u64 = paths.iter().map(|p| chain_blocks(&fs, p)).sum();
    assert_eq!(
        free_before - fs.block_alloc().free_blocks(),
        FILES as u64 * ROUNDS + chain,
        "blocks still held after every file closed"
    );
}

#[test]
fn private_append_storm_stays_o1() {
    // FxMark DWAL shape: each thread appends to its own file. Segment
    // affinity keeps the threads in distinct allocator segments, so the
    // tail-extend fast path keeps working under concurrency and the
    // per-op walk cost stays O(1).
    use std::sync::Arc;

    const THREADS: usize = 4;
    const APPENDS: u64 = 512;
    let fs = Arc::new(simurgh(128 << 20));
    let base = fs.data_stats();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let fs = Arc::clone(&fs);
            std::thread::spawn(move || {
                let ctx = ProcCtx::root(100 + t as u32);
                let rw = OpenFlags { read: true, ..OpenFlags::CREATE };
                let fd = fs.open(&ctx, &format!("/private{t}"), rw, FileMode::default()).unwrap();
                let chunk = vec![t as u8 + 1; BLOCK as usize];
                for i in 0..APPENDS {
                    fs.pwrite(&ctx, fd, &chunk, i * BLOCK).unwrap();
                }
                // Read back a spot-check of this thread's own file.
                let mut buf = vec![0u8; BLOCK as usize];
                for i in [0, APPENDS / 2, APPENDS - 1] {
                    fs.pread(&ctx, fd, &mut buf, i * BLOCK).unwrap();
                    assert!(buf.iter().all(|&b| b == t as u8 + 1), "thread {t} chunk {i} corrupted");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let d = fs.data_stats().since(&base);
    assert_eq!(d.appends, (THREADS as u64) * APPENDS);
    // Every write streams through exactly the extents it touches — one run
    // per 4 KiB append — so walk steps stay ~1/op no matter the thread count.
    assert!(
        d.walk_steps_per_op() <= 1.1,
        "append storm walk steps/op {:.3}",
        d.walk_steps_per_op()
    );
    // The only permitted persistent-map walks are the one-time mirror
    // builds (one rebuild per freshly opened file), never a per-op fallback.
    assert!(
        d.map_walks <= d.cursor_rebuilds && d.cursor_rebuilds <= THREADS as u64,
        "append storm fell back to persistent map walks: {} walks, {} rebuilds",
        d.map_walks,
        d.cursor_rebuilds
    );
    // Affinity keeps threads out of each other's segments; most appends
    // still extend the tail in place even with 4 concurrent appenders.
    assert!(
        d.tail_extend_rate() >= 0.6,
        "concurrent tail-extend rate {:.3} ({} of {})",
        d.tail_extend_rate(),
        d.tail_extends,
        d.appends
    );
}

#[test]
fn shared_file_interleave_keeps_mirror_coherent() {
    // Two descriptors from two "processes" on one inode share the same
    // extent mirror (one cursor per open inode). A writer growing the file
    // and a reader verifying freshly published chunks must stay coherent
    // through incremental mirror updates alone — no rebuild storms, no
    // fallback walks of the persistent map.
    use std::sync::Arc;

    const CHUNKS: u64 = 256;
    let fs = Arc::new(simurgh(64 << 20));
    let wctx = ProcCtx::root(1);
    let rctx = ProcCtx::root(2);
    let wfd = fs.open(&wctx, "/shared", OpenFlags::CREATE, FileMode::default()).unwrap();
    let rfd = fs.open(&rctx, "/shared", OpenFlags::RDONLY, FileMode::default()).unwrap();
    let base = fs.data_stats();

    let writer = {
        let fs = Arc::clone(&fs);
        std::thread::spawn(move || {
            for i in 0..CHUNKS {
                let chunk = vec![(i % 251) as u8; BLOCK as usize];
                fs.pwrite(&wctx, wfd, &chunk, i * BLOCK).unwrap();
            }
        })
    };
    let reader = {
        let fs = Arc::clone(&fs);
        std::thread::spawn(move || {
            let mut buf = vec![0u8; BLOCK as usize];
            let mut verified = 0u64;
            while verified < CHUNKS {
                // Only chunks fully published via the fenced size update are
                // readable; re-stat until the next one lands.
                let size = fs.stat(&rctx, "/shared").unwrap().size;
                while (verified + 1) * BLOCK <= size {
                    let n = fs.pread(&rctx, rfd, &mut buf, verified * BLOCK).unwrap();
                    assert_eq!(n, BLOCK as usize);
                    let want = (verified % 251) as u8;
                    assert!(buf.iter().all(|&b| b == want), "chunk {verified} torn");
                    verified += 1;
                }
                std::thread::yield_now();
            }
            verified
        })
    };
    writer.join().unwrap();
    assert_eq!(reader.join().unwrap(), CHUNKS);

    let d = fs.data_stats().since(&base);
    assert_eq!(d.reads, CHUNKS);
    // Coherence proper: the reader tracked the growing file through shared
    // incremental mirror updates, never by re-walking per op; the only
    // permitted persistent-map walks are the few one-time mirror builds.
    assert!(
        d.map_walks <= d.cursor_rebuilds,
        "reader fell back to persistent map walks: {} walks, {} rebuilds",
        d.map_walks,
        d.cursor_rebuilds
    );
    assert!(
        d.cursor_rebuilds <= 2,
        "mirror thrashed: {} rebuilds for {} chunks",
        d.cursor_rebuilds,
        CHUNKS
    );
    assert!(d.walk_steps_per_op() <= 1.1, "interleave walk steps/op {:.3}", d.walk_steps_per_op());
}
