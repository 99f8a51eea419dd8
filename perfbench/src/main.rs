//! The repository benchmark: three seeded workloads against the real file
//! system, end-to-end metrics with tracing off, per-layer metrics from a
//! separate traced run. `perfbench/run.py` builds and drives this binary;
//! see `perfbench/README.md` for the workloads and the metric table.
//!
//! ```text
//! simurgh-perfbench --workload meta_mix|data_aged|served_read --seed N
//!                   --seconds S --trace 0|1 [--scale full|smoke]
//!                   [--served-bin PATH]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when any
//! correctness check failed.

mod data_aged;
mod layers;
mod meta_mix;
mod mount;
mod served_read;
mod stats;

use std::path::PathBuf;

use mount::{Phase, Worker};
use stats::Sheet;

/// End-to-end metrics: every workload reports all of them with tracing off.
pub const END_TO_END: &[&str] = &[
    "throughput_ops_s",
    "lat_p50_us",
    "lat_p99_us",
    "goodput_ops_s",
    "setup_s",
    "space_amp",
    "dram_mb",
];

/// Per-layer metrics: every workload reports all of them in the traced run
/// (0 where the workload does not reach the layer).
pub const PER_LAYER: &[&str] = &[
    "op.create_us",
    "op.stat_us",
    "op.rename_us",
    "op.open_close_us",
    "op.unlink_us",
    "op.append_us",
    "op.overwrite_us",
    "op.pread_us",
    "op.busy_frac",
    "floor.protcall_ns",
    "protfn.share",
    "dir.lookups_per_op",
    "dir.probes_per_lookup",
    "dir.slot_probes_per_insert",
    "dir.hint_hit_frac",
    "dir.chain_walks",
    "dir.stale_evicted",
    "alloc.pool_trips_per_kop",
    "floor.meta_alloc_pair_ns",
    "alloc.seg_trips_per_kop",
    "data.tail_extend_frac",
    "data.alloc_fallbacks_per_kop",
    "frag.reserved_idle",
    "floor.block_alloc_pair_ns",
    "lock.acquires_per_op",
    "lock.spin_rounds_per_kop",
    "lock.steals",
    "data.walk_steps_per_op",
    "data.map_walks_per_kop",
    "data.cursor_hit_frac",
    "frag.extents_per_file",
    "pmem.fences_per_op",
    "pmem.fences_elided_per_op",
    "pmem.flushed_lines_per_op",
    "pmem.nt_kib_per_op",
    "pmem.read_kib_per_op",
    "floor.fence_ns",
    "floor.persist_line_ns",
    "floor.nt_copy4k_ns",
    "floor.read4k_ns",
    "floor.clock_pair_ns",
    "compact.s",
    "compact.relocated_files",
    "compact.relocated_blocks",
    "frag.free_runs",
    "frag.max_free_run",
    "recover_s",
    "recovery.mark_s",
    "recovery.repair_s",
    "recovery.sweep_s",
    "recovery.rebuild_s",
    "recovery.reclaimed_objects",
    "wire.encode_ns",
    "wire.decode_ns",
    "served.dispatch_us",
    "served.transport_us",
    "served.busy_frac",
    "gen.busy_frac",
    "trace.overhead_frac",
];

/// Gateway metrics the in-process library workloads bypass (reported 0).
pub const GATEWAY_ONLY: &[(&str, &str)] = &[
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("served.dispatch_us", "us"),
    ("served.transport_us", "us"),
    ("served.busy_frac", "ratio"),
    ("gen.busy_frac", "ratio"),
];

/// How far summed `op.*` span time may fall short of the closed-loop
/// threads' wall time before the traced run reports it unreconciled.
pub const SPAN_COVER_TOLERANCE: f64 = 0.10;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub served_bin: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |name: &str| {
            argv.iter()
                .position(|a| a == name)
                .and_then(|i| argv.get(i + 1))
                .cloned()
        };
        let num = |name: &str| -> Result<f64, String> {
            get(name)
                .ok_or(format!("{name} is required"))?
                .parse()
                .map_err(|_| format!("{name} takes a number"))
        };
        Ok(Args {
            workload: get("--workload").ok_or("--workload is required")?,
            seed: get("--seed")
                .ok_or("--seed is required")?
                .parse()
                .map_err(|_| "--seed takes an integer")?,
            seconds: num("--seconds")?,
            trace: get("--trace").as_deref() == Some("1"),
            smoke: get("--scale").as_deref() == Some("smoke"),
            served_bin: get("--served-bin")
                .unwrap_or_else(|| ".bench_build/release/simurgh-served".into())
                .into(),
        })
    }

    /// Latency windows per measured phase (half a second each).
    pub fn windows(&self) -> usize {
        ((self.seconds * 2.0).round() as usize).clamp(4, 60)
    }

    pub fn floor_scale(&self) -> f64 {
        if self.smoke {
            0.05
        } else {
            1.0
        }
    }
}

/// A workload's full metric sheet and verdict. `failed` counts failed or
/// refused ops, data mismatches, namespace mismatches and fsck violations;
/// the run is correct only when it is 0.
pub struct Outcome {
    pub sheet: Sheet,
    pub attempted: u64,
    pub failed: u64,
}

/// End-to-end figures of a closed-loop phase.
pub fn report_phase(sheet: &mut Sheet, phase: &Phase, threads: usize) {
    let lat = stats::windowed(&phase.windows, 0.5);
    let ops = phase.ops();
    let tput = phase.throughput();
    sheet.put("throughput_ops_s", tput, "ops/s", ops);
    sheet.put("lat_p50_us", lat.p50_us, "us", lat.samples);
    sheet.put("lat_p99_us", lat.p99_us, "us", lat.samples);
    let failed_frac = phase.failed as f64 / ops.max(1) as f64;
    sheet.put("goodput_ops_s", tput * (1.0 - failed_frac), "ops/s", ops);
    sheet.put("failed_frac", failed_frac, "ratio", ops);
    println!(
        "# closed loop: {threads} threads, {ops} ops in {:.3} s, {} latency windows",
        phase.wall_s, lat.windows
    );
}

/// Traced run only: the same workers run a quarter of the phase with
/// per-op spans off, then a quarter with them on; the throughput ratio is
/// the tracing's own cost.
pub fn trace_overhead<W: Worker>(args: &Args, workers: &mut [W]) -> f64 {
    if !args.trace {
        return 0.0;
    }
    let secs = args.seconds / 4.0;
    let plain = mount::closed_loop(workers, secs, 4, false);
    let traced = mount::closed_loop(workers, secs, 4, true);
    let rate = |p: &Phase| p.ops() as f64 / p.wall_s;
    rate(&plain) / rate(&traced).max(1e-9) - 1.0
}

/// Host fingerprint: results from different fingerprints are not compared.
fn fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().replace('"', "'"))
        .unwrap_or_else(|| "unknown".into());
    let clocksource =
        std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("{{\"nproc\":{nproc},\"cpu_model\":\"{model}\",\"clocksource\":\"{clocksource}\",\"profile\":\"{profile}\"}}")
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simurgh-perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("# host {}", fingerprint());
    println!(
        "# workload {} seed {} seconds {} trace {} scale {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.smoke { "smoke" } else { "full" }
    );
    let mut out = match args.workload.as_str() {
        "meta_mix" => meta_mix::run(
            &args,
            &if args.smoke {
                meta_mix::Scale::smoke()
            } else {
                meta_mix::Scale::full()
            },
        ),
        "data_aged" => data_aged::run(
            &args,
            &if args.smoke {
                data_aged::Scale::smoke()
            } else {
                data_aged::Scale::full()
            },
        ),
        "served_read" => {
            let scale = if args.smoke {
                served_read::Scale::smoke()
            } else {
                served_read::Scale::full()
            };
            served_read::run(&args, &scale)
        }
        w => {
            eprintln!("simurgh-perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    };
    let in_process = args.workload != "served_read";
    if args.trace && in_process {
        for &(name, unit) in GATEWAY_ONLY {
            out.sheet.put(name, 0.0, unit, 0);
        }
    }
    out.sheet
        .print_table(&format!("{} (all figures)", args.workload));
    if args.trace && in_process {
        if let Some(cover) = out.sheet.get("op.busy_frac") {
            let ok = cover >= 1.0 - SPAN_COVER_TOLERANCE;
            println!(
                "# op.* spans cover {:.1}% of thread time (tolerance {:.0}%): {}",
                cover * 100.0,
                SPAN_COVER_TOLERANCE * 100.0,
                if ok { "reconciled" } else { "NOT RECONCILED" }
            );
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let missing: Vec<&&str> = names
        .iter()
        .filter(|n| out.sheet.get(n).is_none())
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "simurgh-perfbench: {} did not report {missing:?}",
            args.workload
        );
        std::process::exit(2);
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        out.sheet.select(names).to_json()
    );
    if out.failed > 0 {
        std::process::exit(1);
    }
}
