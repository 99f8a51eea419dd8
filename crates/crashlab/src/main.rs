//! Crash lab: demonstrate Simurgh's crash consistency on tracked NVMM.
//!
//! Uses the crash-simulating region mode: stores survive a simulated power
//! failure only if they were flushed *and* fenced.
//!
//! Three modes:
//!
//! * **demo** (default) — cut the power mid-workload, remount, show the
//!   mark-and-sweep recovery report; then the decentralized runtime
//!   recovery where a waiter repairs a line a "crashed process" left busy.
//! * **matrix** — the exhaustive crash matrix of §4.3: for every scripted
//!   operation, enumerate *every* persistence boundary, cut the power
//!   there, remount, fsck, and assert roll-back/roll-forward atomicity;
//!   plus injected ENOSPC at every allocation. `--json` emits the machine
//!   report (schema in EXPERIMENTS.md), `--cap N` samples N boundaries per
//!   op instead of all of them, and `--trace` prints the flight-recorder
//!   dump (the tail of every thread's trace ring) for failing ops — or,
//!   when everything passed, the most recent events of the run.
//! * **procs** — the multi-process `kill -9` matrix: N real OS processes
//!   mount the same `MAP_SHARED` region file, one is `SIGKILL`ed mid-op at
//!   a scripted persistence boundary, and the survivors must steal its
//!   stale line lock and keep working; an exclusive remount then proves
//!   fsck-clean convergence with no leaked blocks. `--procs N` sets the
//!   group size, `--cap K` the kill points per op, `--ops a,b` the op
//!   shapes, `--json` the machine report (schema in EXPERIMENTS.md).
//!   (The binary re-execs itself with a hidden `procs-worker` argv0 mode
//!   for the worker processes.)
//!
//! ```text
//! cargo run -p simurgh-crashlab
//! cargo run --release -p simurgh-crashlab -- matrix
//! cargo run --release -p simurgh-crashlab -- matrix --json
//! cargo run --release -p simurgh-crashlab -- matrix --cap 8
//! cargo run --release -p simurgh-crashlab -- matrix --trace
//! cargo run --release -p simurgh-crashlab -- procs --procs 4 --json
//! ```

use std::sync::Arc;
use std::time::Duration;

use simurgh_core::{SimurghConfig, SimurghFs};
use simurgh_crashlab::testing::{matrix, procs};
use simurgh_fsapi::{FileMode, FileSystem, ProcCtx};
use simurgh_pmem::PmemRegion;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("matrix") => {
            let json = args.iter().any(|a| a == "--json");
            let trace = args.iter().any(|a| a == "--trace");
            let cap = args
                .iter()
                .position(|a| a == "--cap")
                .and_then(|i| args.get(i + 1))
                .map(|v| v.parse::<u64>().expect("--cap takes a number"));
            run_matrix(json, trace, cap);
        }
        // Hidden worker mode: this process was spawned by `procs` below.
        Some("procs-worker") if procs::is_worker() => procs::worker_main(),
        Some("procs") => {
            let json = args.iter().any(|a| a == "--json");
            let flag = |name: &str| {
                args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
            };
            let mut opts = procs::ProcsOpts::default();
            if let Some(n) = flag("--procs") {
                opts.nprocs = n.parse().expect("--procs takes a number");
            }
            if let Some(k) = flag("--cap") {
                opts.cap = k.parse().expect("--cap takes a number");
            }
            if let Some(ops) = flag("--ops") {
                opts.ops = ops.split(',').map(str::to_owned).collect();
            }
            run_procs(&opts, json);
        }
        _ => run_demo(),
    }
}

fn run_procs(opts: &procs::ProcsOpts, json: bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let spawn = move |env: &[(String, String)]| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("procs-worker").stdout(std::process::Stdio::piped());
        for (k, v) in env {
            cmd.env(k, v);
        }
        cmd.spawn()
    };
    let report = procs::run_procs(opts, &spawn);
    if json {
        println!("{}", procs::to_json(&report));
    } else {
        println!(
            "{:<16} {:>5} {:>10} {:>7} {:>7} {:>9} {:>9}  status",
            "op", "kill", "boundaries", "killed", "steals", "reclaim1", "reclaim2"
        );
        for c in &report.cells {
            let steals: u64 = c.survivors.iter().map(|s| s.lock_steals).sum();
            println!(
                "{:<16} {:>5} {:>10} {:>7} {:>7} {:>9} {:>9}  {}",
                c.op,
                c.kill_fence,
                c.boundaries,
                if c.victim_killed { "sig9" } else { "NO" },
                steals,
                c.reclaimed_first,
                c.reclaimed_second,
                if c.is_clean() { "ok" } else { "FAIL" },
            );
            for f in &c.failures {
                println!("    !! {f}");
            }
        }
    }
    if !report.is_clean() {
        eprintln!("{} unrecoverable state(s)", report.unrecoverable());
        std::process::exit(1);
    }
}

fn run_matrix(json: bool, trace: bool, cap: Option<u64>) {
    let results = matrix::run_matrix(cap);
    if json {
        println!("{}", matrix::to_json(&results));
    } else {
        println!(
            "{:<18} {:>10} {:>7} {:>6} {:>7} {:>8}  status",
            "op", "boundaries", "commit", "allocs", "enospc", "capped"
        );
        for m in &results {
            println!(
                "{:<18} {:>10} {:>7} {:>6} {:>7} {:>8}  {}",
                m.op,
                m.boundaries,
                m.commit_point.map_or("-".to_owned(), |c| c.to_string()),
                m.allocs,
                m.enospc.len(),
                if m.capped { "yes" } else { "no" },
                if m.is_clean() { "ok" } else { "FAIL" },
            );
            for f in &m.failures {
                println!("    !! {f}");
            }
        }
    }
    if trace && !json {
        let mut dumped = false;
        for m in results.iter().filter(|m| !m.trace.is_empty()) {
            println!("-- flight recorder: {} --", m.op);
            for line in &m.trace {
                println!("    {line}");
            }
            dumped = true;
        }
        if !dumped {
            println!("-- flight recorder: all ops clean; most recent events --");
            for line in simurgh_core::obs::flight_dump(16) {
                println!("    {line}");
            }
        }
    }
    let bad: usize = results.iter().map(|m| m.failures.len()).sum();
    if bad > 0 {
        eprintln!("{bad} unrecoverable state(s)");
        std::process::exit(1);
    }
}

fn run_demo() {
    let ctx = ProcCtx::root(1);

    // ---- Part 1: whole-system crash + mark-and-sweep recovery ----------
    println!("== part 1: power failure and mark-and-sweep recovery ==");
    let region = Arc::new(PmemRegion::new_tracked(64 << 20));
    let fs = SimurghFs::format(region.clone(), SimurghConfig::default()).expect("format");
    fs.mkdir(&ctx, "/mail", FileMode::dir(0o755)).unwrap();
    for i in 0..200 {
        fs.write_file(&ctx, &format!("/mail/msg-{i}"), format!("body {i}").as_bytes()).unwrap();
    }
    println!("wrote 200 files; cutting power (no unmount)…");

    // The crash image contains exactly what was flushed+fenced.
    let crashed = Arc::new(fs.region().simulate_crash());
    let fs2 = SimurghFs::mount(crashed, SimurghConfig::default()).expect("recover");
    let r = fs2.recovery_report();
    println!(
        "recovered: clean={} files={} dirs={} reclaimed={} in {:.3}s \
         (mark {:.3}s, repair {:.3}s, sweep {:.3}s, rebuild {:.3}s)",
        r.was_clean,
        r.files,
        r.directories,
        r.reclaimed_objects,
        r.total_time().as_secs_f64(),
        r.mark_time.as_secs_f64(),
        r.repair_time.as_secs_f64(),
        r.sweep_time.as_secs_f64(),
        r.rebuild_time.as_secs_f64(),
    );
    assert_eq!(r.files, 200);
    assert_eq!(fs2.read_to_vec(&ctx, "/mail/msg-123").unwrap(), b"body 123");
    println!("all 200 messages intact\n");

    // ---- Part 2: decentralized process-crash recovery -------------------
    println!("== part 2: a process dies holding a busy line ==");
    let region = Arc::new(PmemRegion::new(32 << 20));
    let cfg = SimurghConfig { line_max_hold: Duration::from_millis(30), ..Default::default() };
    let fs = Arc::new(SimurghFs::format(region, cfg).expect("format"));
    fs.mkdir(&ctx, "/shared", FileMode::dir(0o777)).unwrap();
    fs.write_file(&ctx, "/shared/victim", b"going away").unwrap();

    // Simulate a crashed process: it acquired the busy flag of the line
    // holding "victim", invalidated the entry (delete step 2 of Fig. 5b)
    // and died before completing steps 3–5.
    simurgh_crashlab::testing::crash_mid_unlink(&fs, "/shared", "victim");
    println!("a process crashed mid-unlink, leaving the hash line busy");

    // Another process now touches the same hash line: it times out,
    // repairs the line (completing the interrupted delete) and proceeds.
    let collide = simurgh_crashlab::testing::colliding_name("victim", "after-crash-");
    let t = std::time::Instant::now();
    fs.write_file(&ctx, &format!("/shared/{collide}"), b"new work").unwrap();
    println!(
        "second process made progress after {:?} (timeout-driven repair)",
        t.elapsed()
    );
    assert!(fs.stat(&ctx, "/shared/victim").is_err(), "interrupted delete completed");
    assert!(fs.stat(&ctx, &format!("/shared/{collide}")).is_ok());
    println!("interrupted delete was rolled forward by the waiting process");
}
