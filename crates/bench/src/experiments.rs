//! Every table and figure of the paper's evaluation (§5), as callable
//! experiment functions. The `paper` binary prints them; integration tests
//! call them with small [`Scale`]s.

use std::sync::Arc;
use std::time::Instant;

use simurgh_baselines::KernelFs;
use simurgh_core::{SimurghConfig, SimurghFs};
use simurgh_fsapi::{Breakdown, FileSystem};
use simurgh_pmem::clock::NvmmPerfModel;
use simurgh_pmem::PmemRegion;
use simurgh_protfn::gem5::{self, Gem5Report};
use simurgh_workloads::filebench::{self, FilebenchConfig};
use simurgh_workloads::minikv::{KvOptions, MiniKv};
use simurgh_workloads::runner::BenchResult;
use simurgh_workloads::tree::TreeSpec;
use simurgh_workloads::ycsb::{self, Workload, YcsbConfig};
use simurgh_workloads::{fxmark, git, tar, tree};

use crate::{FsKind, Scale, Series};

// ---------------------------------------------------------------------------
// Sweep plumbing
// ---------------------------------------------------------------------------

/// Runs `bench(fs, threads)` for every `(kind, thread-count)` combination on
/// a fresh file system, converting each result with `value`.
pub fn sweep(
    kinds: &[FsKind],
    scale: &Scale,
    region_bytes: usize,
    unit: &'static str,
    value: impl Fn(&BenchResult) -> f64,
    bench: impl Fn(&dyn FileSystem, usize) -> BenchResult,
) -> Vec<Series> {
    kinds
        .iter()
        .map(|kind| {
            let points = scale
                .threads
                .iter()
                .map(|&t| {
                    let fs = kind.make(region_bytes);
                    let r = bench(fs.as_ref(), t);
                    (t, value(&r))
                })
                .collect();
            Series { fs: kind.label(), unit, points }
        })
        .collect()
}

fn kops(r: &BenchResult) -> f64 {
    r.kops()
}

fn gibs(r: &BenchResult) -> f64 {
    r.gibs()
}

// ---------------------------------------------------------------------------
// Table 1 — NOVA execution-time breakdown
// ---------------------------------------------------------------------------

/// Runs `phase` on the NOVA model `fs` and splits its wall time by the
/// model's time totals.
fn nova_breakdown<R>(fs: &KernelFs, phase: impl FnOnce() -> R) -> Breakdown {
    let t0 = fs.times();
    let start = Instant::now();
    phase();
    let wall = start.elapsed().as_nanos() as u64;
    let t = fs.times().since(&t0);
    Breakdown::new(wall, t.fs_ns, t.copy_ns)
}

/// Table 1: share of runtime spent in the application, in data copies and
/// in file-system code, for three applications running on the NOVA model.
pub fn table1(scale: &Scale) -> Vec<(&'static str, Breakdown)> {
    let mut rows = Vec::new();

    // YCSB Load A on NOVA.
    let fs = FsKind::make_nova(scale.data_region);
    let load = YcsbConfig {
        records: scale.ycsb_records,
        ops: scale.ycsb_ops,
        threads: 1,
        value_size: 1024,
    };
    rows.push((
        "YCSB LoadA",
        nova_breakdown(&fs, || {
            let kv = MiniKv::open(&fs, "/ycsb", KvOptions::default()).expect("kv");
            ycsb::load(&kv, load).expect("load");
        }),
    ));

    // Tar pack on NOVA.
    let fs = FsKind::make_nova(scale.data_region);
    let manifest =
        tree::generate(&fs, "/src", TreeSpec::linux_like(scale.tree_scale)).expect("tree");
    rows.push((
        "Tar Pack",
        nova_breakdown(&fs, || tar::pack(&fs, &manifest, "/src.tar").expect("pack")),
    ));

    // Git commit on NOVA.
    let fs = FsKind::make_nova(scale.data_region);
    let manifest =
        tree::generate(&fs, "/repo", TreeSpec::linux_like(scale.tree_scale)).expect("tree");
    let mut repo = git::GitRepo::init(&fs, "/repo").expect("init");
    repo.add_all(&manifest).expect("add");
    rows.push(("Git Commit", nova_breakdown(&fs, || repo.commit("bench").expect("commit"))));

    rows
}

/// Table 2: the Filebench workload parameters (inputs, reproduced verbatim).
pub fn table2() -> Vec<FilebenchConfig> {
    vec![
        filebench::varmail(1.0),
        filebench::webserver(1.0),
        filebench::webproxy(1.0),
        filebench::fileserver(1.0),
    ]
}

/// §3.3: the gem5 cycle-count comparison.
pub fn gem5_cycles(iters: u64) -> Gem5Report {
    gem5::run(iters)
}

// ---------------------------------------------------------------------------
// Fig. 6 — original vs adapted FxMark read
// ---------------------------------------------------------------------------

/// Fig. 6: shared-file read bandwidth under the original (cache-friendly)
/// and adapted (pseudo-random) FxMark patterns for Simurgh and NOVA, plus
/// the modelled NVMM max-bandwidth reference line.
pub fn fig6(scale: &Scale) -> Vec<Series> {
    let mut out = Vec::new();
    for (kind, label_orig, label_adapted) in [
        (FsKind::Simurgh, "simurgh (original)", "simurgh (adapted)"),
        (FsKind::Nova, "nova (original)", "nova (adapted)"),
    ] {
        for (pattern, label) in [
            (fxmark::ReadPattern::CachedRepeat, label_orig),
            (fxmark::ReadPattern::PseudoRandom, label_adapted),
        ] {
            let points = scale
                .threads
                .iter()
                .map(|&t| {
                    let fs = kind.make(scale.data_region);
                    let r =
                        fxmark::read_shared(fs.as_ref(), t, scale.file_bytes, scale.data_ops, pattern);
                    (t, r.gibs())
                })
                .collect();
            out.push(Series { fs: label, unit: "GiB/s", points });
        }
    }
    let bw = NvmmPerfModel::default().max_read_gibs(fxmark::IO_SIZE);
    out.push(Series {
        fs: "max NVMM bandwidth",
        unit: "GiB/s",
        points: scale.threads.iter().map(|&t| (t, bw)).collect(),
    });
    out
}

// ---------------------------------------------------------------------------
// Fig. 7 — the twelve microbenchmark panels
// ---------------------------------------------------------------------------

/// One panel of Fig. 7 by letter (`'a'..='l'`).
pub fn fig7(panel: char, scale: &Scale) -> Vec<Series> {
    let all = &FsKind::COMPARED;
    match panel {
        'a' => sweep(all, scale, scale.meta_region, "kops/s", kops, |fs, t| {
            fxmark::create_private(fs, t, scale.meta_files)
        }),
        'b' => sweep(all, scale, scale.meta_region, "kops/s", kops, |fs, t| {
            fxmark::create_shared(fs, t, scale.meta_files)
        }),
        'c' => sweep(all, scale, scale.meta_region, "kops/s", kops, |fs, t| {
            fxmark::unlink_private(fs, t, scale.meta_files)
        }),
        'd' => sweep(all, scale, scale.meta_region, "kops/s", kops, |fs, t| {
            fxmark::rename_shared(fs, t, scale.meta_files)
        }),
        'e' => sweep(all, scale, scale.meta_region, "kops/s", kops, |fs, t| {
            fxmark::resolve_private(fs, t, 5, scale.resolves)
        }),
        'f' => sweep(all, scale, scale.meta_region, "kops/s", kops, |fs, t| {
            fxmark::resolve_shared(fs, t, 5, scale.resolves)
        }),
        'g' => sweep(all, scale, scale.data_region, "GiB/s", gibs, |fs, t| {
            fxmark::append_private(fs, t, scale.appends)
        }),
        'h' => sweep(all, scale, scale.data_region, "GiB/s", gibs, |fs, t| {
            fxmark::fallocate_private(fs, t, scale.fallocate_chunks)
        }),
        'i' => {
            let mut out = sweep(all, scale, scale.data_region, "GiB/s", gibs, |fs, t| {
                fxmark::read_shared(fs, t, scale.file_bytes, scale.data_ops, fxmark::ReadPattern::PseudoRandom)
            });
            let bw = NvmmPerfModel::default().max_read_gibs(fxmark::IO_SIZE);
            out.push(Series {
                fs: "max NVMM bandwidth",
                unit: "GiB/s",
                points: scale.threads.iter().map(|&t| (t, bw)).collect(),
            });
            out
        }
        'j' => sweep(all, scale, scale.data_region, "GiB/s", gibs, |fs, t| {
            fxmark::read_private(fs, t, scale.file_bytes, scale.data_ops, fxmark::ReadPattern::PseudoRandom)
        }),
        'k' => {
            let mut kinds = vec![FsKind::SimurghRelaxed];
            kinds.extend_from_slice(&FsKind::COMPARED);
            sweep(&kinds, scale, scale.data_region, "GiB/s", gibs, |fs, t| {
                fxmark::overwrite_shared(fs, t, scale.file_bytes, scale.data_ops)
            })
        }
        'l' => sweep(all, scale, scale.data_region, "GiB/s", gibs, |fs, t| {
            fxmark::write_private(fs, t, scale.data_ops)
        }),
        other => panic!("Fig. 7 has panels a..l, not {other}"),
    }
}

// ---------------------------------------------------------------------------
// Unified observability probe
// ---------------------------------------------------------------------------

/// Runs the seven scripted crash-matrix op shapes (create, unlink, both
/// renames, append, shrinking truncate, symlink) against one fresh mount so
/// every histogram they drive has samples, then reports the unified
/// [`simurgh_core::obs::ObsRegistry`]: the full JSON registry when `json` is
/// set (the `paper obs --json` surface, schema in EXPERIMENTS.md), otherwise
/// an aligned per-op count/p50/p99/max latency table.
pub fn obs_probe(scale: &Scale, json: bool) -> String {
    let region = Arc::new(PmemRegion::new(64 << 20));
    let fs = Arc::new(SimurghFs::format(region, SimurghConfig::default()).expect("format"));
    let rounds = (scale.meta_files as u64 / 8).clamp(16, 512);
    mixed_metadata_workload(&fs, rounds);
    let gw = gateway_burst(&fs, 8, 50);

    if json {
        return fs.obs_json();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16}{:>10}{:>12}{:>12}{:>12}\n",
        "op", "count", "p50_ns", "p99_ns", "max_ns"
    ));
    for (name, s) in fs.obs().latencies().filter(|(_, s)| s.count > 0) {
        out.push_str(&format!(
            "{:<16}{:>10}{:>12}{:>12}{:>12}\n",
            name, s.count, s.p50_ns, s.p99_ns, s.max_ns
        ));
    }
    let g = &fs.obs().gateway;
    let o = std::sync::atomic::Ordering::Relaxed;
    out.push_str(&format!(
        "\ngateway: conns {} ops {} flushes {} batched_ops {} busy {}\n\
         loadgen: {:.0} ops/s, p50 {} ns, p99 {} ns\n",
        g.connections.load(o),
        g.ops.load(o),
        g.flushes.load(o),
        g.batched_ops.load(o),
        g.admission_rejections.load(o),
        gw.throughput(),
        gw.latency.p50_ns,
        gw.latency.p99_ns,
    ));
    out
}

/// Serves `fs` on a throwaway unix socket and drives it with an
/// in-process loadgen burst, so the registry's `gateway` section reports a
/// live serving path rather than zeros. Small on purpose: 8 connections × `ops_per_conn` ops keep
/// `paper obs` interactive.
fn gateway_burst(
    fs: &Arc<SimurghFs>,
    connections: usize,
    ops_per_conn: usize,
) -> simurgh_served::LoadgenReport {
    use simurgh_served::{LoadgenConfig, Server, ServerConfig};
    use std::sync::atomic::{AtomicU32, Ordering};

    static N: AtomicU32 = AtomicU32::new(0);
    let sock = std::env::temp_dir().join(format!(
        "sg-bench-gw-{}-{}.sock",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let handle = Server::start(Arc::clone(fs), ServerConfig::new(sock.clone()))
        .expect("gateway server starts");
    let mut cfg = LoadgenConfig::new(sock);
    cfg.connections = connections;
    cfg.ops_per_conn = ops_per_conn;
    cfg.pipeline = 8;
    let report = simurgh_served::loadgen::run(&cfg);
    handle.shutdown();
    assert_eq!(report.protocol_errors, 0, "gateway burst must be protocol-clean");
    report
}

/// The mixed metadata workload behind `paper obs`: `rounds` times over,
/// create / append+fsync / truncate-shrink / both rename shapes / symlink /
/// readlink / stat / unlink — every op shape the crash matrix scripts, so
/// the latency histograms cover the same vocabulary the cost probe pins.
fn mixed_metadata_workload(fs: &SimurghFs, rounds: u64) {
    use simurgh_fsapi::{FileMode, OpenFlags, ProcCtx};
    let ctx = ProcCtx::root(1);

    fs.mkdir(&ctx, "/d", FileMode::dir(0o755)).expect("mkdir /d");
    fs.mkdir(&ctx, "/e", FileMode::dir(0o755)).expect("mkdir /e");
    let chunk = vec![0xA7u8; 2048];
    for i in 0..rounds {
        // create
        let fd = fs
            .open(&ctx, &format!("/d/f{i}"), OpenFlags::CREATE, FileMode::default())
            .expect("create");
        fs.close(&ctx, fd).expect("close");
        // append (open + pwrite + fsync, the matrix shape)
        let fd =
            fs.open(&ctx, &format!("/d/f{i}"), OpenFlags::WRONLY, FileMode::default()).expect("open");
        fs.pwrite(&ctx, fd, &chunk, 0).expect("pwrite");
        fs.fsync(&ctx, fd).expect("fsync");
        // truncate-shrink
        fs.ftruncate(&ctx, fd, 100).expect("ftruncate");
        fs.close(&ctx, fd).expect("close");
        // rename-samedir, then rename-crossdir
        fs.rename(&ctx, &format!("/d/f{i}"), &format!("/d/r{i}")).expect("rename samedir");
        fs.rename(&ctx, &format!("/d/r{i}"), &format!("/e/r{i}")).expect("rename crossdir");
        // symlink (+ readlink so the histogram isn't write-only)
        fs.symlink(&ctx, &format!("/e/r{i}"), &format!("/d/l{i}")).expect("symlink");
        fs.readlink(&ctx, &format!("/d/l{i}")).expect("readlink");
        fs.stat(&ctx, &format!("/e/r{i}")).expect("stat");
        // unlink both
        fs.unlink(&ctx, &format!("/d/l{i}")).expect("unlink link");
        fs.unlink(&ctx, &format!("/e/r{i}")).expect("unlink file");
    }
    fs.statfs(&ctx).expect("statfs");
}

// ---------------------------------------------------------------------------
// Aging & compaction
// ---------------------------------------------------------------------------

/// One frag-battery sample: the registry's `frag` section for `fs`, as the
/// same JSON object `paper obs --json` embeds.
fn frag_sample(fs: &SimurghFs) -> String {
    simurgh_core::compact::frag_json(fs.frag_stats(), fs.block_alloc(), fs.extent_census())
}

fn frag_gauges(fs: &SimurghFs) -> (u64, u64, u64, u64) {
    let snap = fs.block_alloc().frag_snapshot();
    let free_runs: u64 = snap.iter().map(|&(r, _)| r).sum();
    let max_free_run = snap.iter().map(|&(_, m)| m).max().unwrap_or(0);
    let (files, extents) = fs.extent_census();
    (free_runs, max_free_run, files, extents)
}

/// The aging→compaction experiment (`paper compact`): zipfian churn ages a
/// fresh image with water-mark compaction armed between batches, then one
/// explicit full pass runs; the frag battery is sampled after the churn and
/// after the pass. Returns the printed table, or one JSON object with
/// `--json` (the EXPERIMENTS.md aging-run schema).
pub fn compact_run(scale: &Scale, json: bool) -> String {
    use simurgh_workloads::aging::{self, AgingSpec};

    // `--full` ages at GB scale; quick keeps CI interactive.
    let full = scale.meta_files >= 100_000;
    let (churn_scale, region_bytes) = if full { (8.0, 2usize << 30) } else { (1.0, 256 << 20) };
    let spec = AgingSpec::churn(churn_scale);
    let region = Arc::new(PmemRegion::new(region_bytes));
    let fs = SimurghFs::format(region, SimurghConfig::default()).expect("format");
    let ctx = simurgh_fsapi::ProcCtx::root(1);

    let start = Instant::now();
    let report = aging::run_churn(&fs, &ctx, &spec, |_, _| {
        fs.maybe_compact();
    })
    .expect("aging churn");
    let churn_secs = start.elapsed().as_secs_f64();
    let watermark_moved = fs.frag_stats().relocated_files.load(std::sync::atomic::Ordering::Relaxed);

    let aged = frag_sample(&fs);
    let (runs_b, max_b, files_b, ext_b) = frag_gauges(&fs);

    let start = Instant::now();
    let (moved, blocks) = fs.compact(usize::MAX);
    let pass_secs = start.elapsed().as_secs_f64();
    let compacted = frag_sample(&fs);
    let (runs_a, max_a, _, ext_a) = frag_gauges(&fs);

    if json {
        return format!(
            "{{\"experiment\":\"compact\",\"region_bytes\":{region_bytes},\
             \"churn\":{{\"files\":{},\"ops\":{},\"appends\":{},\"deletes\":{},\
             \"truncates\":{},\"bytes_written\":{},\"live_files\":{},\
             \"seconds\":{churn_secs:.3},\"watermark_relocations\":{watermark_moved}}},\
             \"aged\":{aged},\
             \"pass\":{{\"files_moved\":{moved},\"blocks_moved\":{blocks},\
             \"seconds\":{pass_secs:.3}}},\
             \"compacted\":{compacted}}}",
            spec.files, spec.ops, report.appends, report.deletes, report.truncates,
            report.bytes_written, report.live_files,
        );
    }
    let mut out = String::new();
    out.push_str(&format!(
        "churn: {} ops over {} file slots ({} appends, {} deletes, {} truncates, \
         {:.1} MiB written) in {churn_secs:.2}s\n",
        spec.ops,
        spec.files,
        report.appends,
        report.deletes,
        report.truncates,
        report.bytes_written as f64 / (1 << 20) as f64,
    ));
    out.push_str(&format!("water-mark passes relocated {watermark_moved} files during churn\n"));
    out.push_str(&format!(
        "{:<12}{:>10}{:>14}{:>14}{:>16}\n",
        "", "files", "extents", "free runs", "max free run"
    ));
    out.push_str(&format!(
        "{:<12}{files_b:>10}{ext_b:>14}{runs_b:>14}{max_b:>16}\n",
        "aged"
    ));
    out.push_str(&format!(
        "{:<12}{files_b:>10}{ext_a:>14}{runs_a:>14}{max_a:>16}\n",
        "compacted"
    ));
    out.push_str(&format!(
        "explicit pass: relocated {moved} files / {blocks} blocks in {pass_secs:.2}s\n"
    ));
    out
}

// ---------------------------------------------------------------------------
// Fig. 8 — Filebench
// ---------------------------------------------------------------------------

/// Fig. 8: Filebench throughput (kops/s) per workload and file system.
pub fn fig8(scale: &Scale) -> Vec<(&'static str, Vec<(&'static str, f64)>)> {
    let workloads = [
        filebench::varmail(scale.fb_scale),
        filebench::webserver(scale.fb_scale),
        filebench::webproxy(scale.fb_scale),
        filebench::fileserver(scale.fb_scale),
    ];
    workloads
        .into_iter()
        .map(|mut cfg| {
            // Thread counts beyond the machine make quick runs crawl;
            // cap to the sweep maximum while keeping relative ratios.
            let max_threads = *scale.threads.iter().max().unwrap_or(&4);
            cfg.threads = cfg.threads.min(max_threads * 4);
            let rows = FsKind::COMPARED
                .iter()
                .map(|kind| {
                    let fs = kind.make(scale.data_region);
                    let r = filebench::run(fs.as_ref(), cfg, scale.fb_iters);
                    (kind.label(), r.kops())
                })
                .collect();
            (cfg.name, rows)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 9 / Fig. 10 — YCSB
// ---------------------------------------------------------------------------

/// Fig. 9: YCSB throughput per workload and file system, normalized to
/// SplitFS (the paper's presentation).
pub fn fig9(scale: &Scale) -> Vec<(&'static str, Vec<(&'static str, f64)>)> {
    let cfg = YcsbConfig {
        records: scale.ycsb_records,
        ops: scale.ycsb_ops,
        threads: 1,
        value_size: 1024,
    };
    let phases: Vec<Workload> = std::iter::once(Workload::LoadA)
        .chain(Workload::RUNS)
        .collect();
    // Collect absolute throughput for every fs × phase. Each phase runs
    // three times and the best run counts (FxMark-style noise rejection on
    // a shared machine); the extra runs also keep the store state of every
    // file system in step.
    let mut absolute: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for kind in FsKind::COMPARED {
        let fs = kind.make(scale.data_region);
        let kv = MiniKv::open(fs.as_ref(), "/ycsb", KvOptions::default()).expect("kv open");
        let mut vals = Vec::new();
        for wl in &phases {
            let mut best = 0.0f64;
            let reps = if *wl == Workload::LoadA { 1 } else { 3 };
            for _ in 0..reps {
                let r = ycsb::run(&kv, *wl, cfg);
                best = best.max(r.ops_per_sec());
            }
            vals.push(best);
        }
        absolute.push((kind.label(), vals));
    }
    let split_idx = absolute
        .iter()
        .position(|(n, _)| *n == "splitfs")
        .expect("splitfs in comparison set");
    let baseline: Vec<f64> = absolute[split_idx].1.clone();
    phases
        .iter()
        .enumerate()
        .map(|(i, wl)| {
            let rows = absolute
                .iter()
                .map(|(name, vals)| (*name, vals[i] / baseline[i].max(1e-12)))
                .collect();
            (wl.label(), rows)
        })
        .collect()
}

/// Fig. 10: Simurgh's execution-time breakdown under each YCSB workload.
pub fn fig10(scale: &Scale) -> Vec<(&'static str, Breakdown)> {
    let cfg = YcsbConfig {
        records: scale.ycsb_records,
        ops: scale.ycsb_ops,
        threads: 1,
        value_size: 1024,
    };
    let mut out = Vec::new();
    let fs = FsKind::make_simurgh(scale.data_region);
    let kv = MiniKv::open(&fs, "/ycsb", KvOptions::default()).expect("kv open");
    for wl in std::iter::once(Workload::LoadA).chain(Workload::RUNS) {
        let (fs0, data0) = (fs.obs().fs_ns(), fs.data_stats());
        let start = Instant::now();
        ycsb::run(&kv, wl, cfg);
        let wall = start.elapsed().as_nanos() as u64;
        let copy = fs.data_stats().since(&data0).copy_ns;
        out.push((wl.label(), Breakdown::new(wall, fs.obs().fs_ns() - fs0, copy)));
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 11 / Fig. 12 — tar and git
// ---------------------------------------------------------------------------

/// Fig. 11: tar pack/unpack throughput (MiB/s archived) per file system.
pub fn fig11(scale: &Scale) -> Vec<(&'static str, f64, f64)> {
    FsKind::COMPARED
        .iter()
        .map(|kind| {
            let fs = kind.make(scale.data_region);
            let manifest =
                tree::generate(fs.as_ref(), "/src", TreeSpec::linux_like(scale.tree_scale))
                    .expect("tree");
            let pack = tar::pack(fs.as_ref(), &manifest, "/src.tar").expect("pack");
            let unpack = tar::unpack(fs.as_ref(), "/src.tar", "/out").expect("unpack");
            let mibs = |r: &BenchResult| r.bytes as f64 / r.seconds.max(1e-12) / (1 << 20) as f64;
            (kind.label(), mibs(&pack), mibs(&unpack))
        })
        .collect()
}

/// Fig. 12: git add / commit / reset throughput (files/s) per file system.
pub fn fig12(scale: &Scale) -> Vec<(&'static str, f64, f64, f64)> {
    FsKind::COMPARED
        .iter()
        .map(|kind| {
            let fs = kind.make(scale.data_region);
            let manifest =
                tree::generate(fs.as_ref(), "/repo", TreeSpec::linux_like(scale.tree_scale))
                    .expect("tree");
            let mut repo = git::GitRepo::init(fs.as_ref(), "/repo").expect("init");
            let add = repo.add_all(&manifest).expect("add");
            let commit = repo.commit("bench").expect("commit");
            repo.delete_worktree(&manifest).expect("delete");
            let reset = repo.reset_hard().expect("reset");
            (kind.label(), add.ops_per_sec(), commit.ops_per_sec(), reset.ops_per_sec())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §5.5 — recovery
// ---------------------------------------------------------------------------

/// Outcome of the §5.5 recovery experiment.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    pub files: u64,
    pub directories: u64,
    pub mark_seconds: f64,
    pub repair_seconds: f64,
    pub sweep_seconds: f64,
}

impl RecoveryOutcome {
    pub fn total_seconds(&self) -> f64 {
        self.mark_seconds + self.repair_seconds + self.sweep_seconds
    }
}

/// §5.5: populate `trees` Linux-like source trees, cut the power (no clean
/// unmount) and measure the full mark-and-sweep recovery on remount.
pub fn recovery(scale: &Scale) -> RecoveryOutcome {
    let region = Arc::new(PmemRegion::new(scale.data_region));
    let fs = SimurghFs::format(region.clone(), SimurghConfig::default()).expect("format");
    for t in 0..scale.recovery_trees {
        tree::generate(&fs, &format!("/linux-{t}"), TreeSpec::linux_like(scale.tree_scale))
            .expect("tree");
    }
    drop(fs); // power cut: clean flag stays false
    let remounted = SimurghFs::mount(region, SimurghConfig::default()).expect("recover");
    let r = remounted.recovery_report();
    assert!(!r.was_clean, "recovery path must have run");
    RecoveryOutcome {
        files: r.files,
        directories: r.directories,
        mark_seconds: r.mark_time.as_secs_f64(),
        repair_seconds: r.repair_time.as_secs_f64(),
        sweep_seconds: r.sweep_time.as_secs_f64(),
    }
}

// ---------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)
// ---------------------------------------------------------------------------

/// Ablation: segmented block allocator vs a single segment, under the
/// append benchmark that stresses concurrent allocation.
pub fn ablate_alloc(scale: &Scale) -> Vec<Series> {
    let mut out = Vec::new();
    for (label, segments) in [("segmented (2x cores)", None), ("single segment", Some(1))] {
        let points = scale
            .threads
            .iter()
            .map(|&t| {
                let region = Arc::new(PmemRegion::new(scale.data_region));
                let cfg = SimurghConfig { segments, ..SimurghConfig::default() };
                let fs = SimurghFs::format(region, cfg).expect("format");
                let r = fxmark::append_private(&fs, t, scale.appends);
                (t, r.gibs())
            })
            .collect();
        out.push(Series { fs: label, unit: "GiB/s", points });
    }
    out
}

/// Ablation: per-call security cost (none / jmpp / host syscall / gem5
/// syscall) on the fast resolvepath operation — §5.2's observation that
/// removing the ~330-cycle syscall halves the latency of fast operations.
pub fn ablate_security(scale: &Scale) -> Vec<Series> {
    let kinds = [
        FsKind::SimurghNoSec,
        FsKind::Simurgh,
        FsKind::SimurghSyscall,
    ];
    sweep(&kinds, scale, scale.meta_region, "kops/s", kops, |fs, t| {
        fxmark::resolve_private(fs, t, 5, scale.resolves)
    })
}

/// Ablation: per-file write locking vs relaxed mode on shared-file
/// overwrites (the two Simurgh series of Fig. 7k).
pub fn ablate_relaxed(scale: &Scale) -> Vec<Series> {
    let kinds = [FsKind::Simurgh, FsKind::SimurghRelaxed];
    sweep(&kinds, scale, scale.data_region, "GiB/s", gibs, |fs, t| {
        fxmark::overwrite_shared(fs, t, scale.file_bytes, scale.data_ops)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            threads: vec![1, 2],
            meta_files: 50,
            appends: 50,
            fallocate_chunks: 2,
            data_ops: 100,
            file_bytes: 1 << 20,
            resolves: 100,
            fb_scale: 0.01,
            fb_iters: 2,
            ycsb_records: 100,
            ycsb_ops: 100,
            tree_scale: 0.002,
            recovery_trees: 1,
            meta_region: 64 << 20,
            data_region: 128 << 20,
        }
    }

    #[test]
    fn table1_produces_three_rows() {
        let rows = table1(&tiny());
        assert_eq!(rows.len(), 3);
        for (name, b) in rows {
            let (a, c, f) = b.percentages();
            assert!((a + c + f - 100.0).abs() < 1e-6, "{name} sums to 100%");
        }
    }

    #[test]
    fn fig7_all_panels_produce_series() {
        let scale = tiny();
        for panel in ['a', 'd', 'g', 'k'] {
            let series = fig7(panel, &scale);
            assert!(series.len() >= 5, "panel {panel}");
            for s in &series {
                assert_eq!(s.points.len(), scale.threads.len());
                assert!(s.points.iter().all(|(_, v)| *v >= 0.0));
            }
        }
    }

    #[test]
    fn fig9_is_normalized_to_splitfs() {
        let rows = fig9(&tiny());
        assert_eq!(rows.len(), 7, "LoadA + six runs");
        for (wl, vals) in rows {
            let split = vals.iter().find(|(n, _)| *n == "splitfs").unwrap().1;
            assert!((split - 1.0).abs() < 1e-9, "{wl} splitfs normalized to 1.0");
        }
    }

    #[test]
    fn recovery_runs_and_reports() {
        let out = recovery(&tiny());
        assert!(out.files > 0);
        assert!(out.directories > 0);
        assert!(out.total_seconds() > 0.0);
    }

    #[test]
    fn gem5_reproduction() {
        let r = gem5_cycles(50);
        assert_eq!(r.rows.len(), 4);
    }
}
