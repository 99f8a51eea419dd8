//! `meta_mix`: two closed-loop threads doing namespace operations on a
//! pre-populated tree — create, stat, rename into and out of a shared
//! directory, open+close, unlink. No data copy, almost no block allocation.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simurgh_core::SimurghFs;
use simurgh_fsapi::{FileMode, FileSystem, OpenFlags, ProcCtx};

use crate::layers::{self, Counters, Op};
use crate::mount::{self, Recorder, Worker};
use crate::stats::{self, Sheet};
use crate::{Args, Outcome};

pub struct Scale {
    pub region: usize,
    /// Pre-populated files, split evenly over the threads' directories.
    pub files: usize,
    pub setups: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            region: 512 << 20,
            files: 100_000,
            setups: 5,
        }
    }
    pub fn smoke() -> Scale {
        Scale {
            region: 64 << 20,
            files: 2_000,
            setups: 1,
        }
    }
}

const THREADS: usize = 2;

fn ctx(t: usize) -> ProcCtx {
    ProcCtx::root(100 + t as u32)
}

struct MetaWorker<'a> {
    fs: &'a SimurghFs,
    t: usize,
    per_dir: usize,
    rng: StdRng,
    j: u64,
    /// Entry-adding ops (create, rename) issued, for probes per insert.
    inserts: u64,
    a: String,
    b: String,
    c: String,
}

impl MetaWorker<'_> {
    fn random_existing(&mut self) -> &str {
        let d = self.rng.random_range(0..THREADS);
        let i = self.rng.random_range(0..self.per_dir);
        self.c.clear();
        let _ = write!(self.c, "/t{d}/p{i}");
        &self.c
    }
}

impl Worker for MetaWorker<'_> {
    fn step(&mut self, rec: &mut Recorder) {
        let (fs, cx, t, j) = (self.fs, ctx(self.t), self.t, self.j);
        self.j += 1;
        self.a.clear();
        let _ = write!(self.a, "/t{t}/n{j}");
        let created = rec.time(Op::Create, 2, || {
            let fd = fs.create(&cx, &self.a, FileMode::file(0o644))?;
            fs.close(&cx, fd)
        });
        let p = self.random_existing().to_owned();
        rec.time(Op::Stat, 1, || fs.stat(&cx, &p));
        self.b.clear();
        let _ = write!(self.b, "/shared/k{t}_{j}");
        rec.time(Op::Rename, 1, || fs.rename(&cx, &self.a, &self.b));
        self.a.clear();
        let _ = write!(self.a, "/t{t}/m{j}");
        rec.time(Op::Rename, 1, || fs.rename(&cx, &self.b, &self.a));
        let p = self.random_existing().to_owned();
        rec.time(Op::OpenClose, 2, || {
            let fd = fs.open(&cx, &p, OpenFlags::RDONLY, FileMode::default())?;
            fs.close(&cx, fd)
        });
        rec.time(Op::Unlink, 1, || fs.unlink(&cx, &self.a));
        if created.is_some() {
            self.inserts += 3;
        }
    }
}

/// Formats the region and creates `/t<k>/p<i>` for every thread in
/// parallel, plus the empty `/shared`.
fn setup(scale: &Scale) -> SimurghFs {
    let fs = mount::format(scale.region);
    let root = ProcCtx::root(1);
    for d in (0..THREADS)
        .map(|t| format!("/t{t}"))
        .chain(["/shared".to_owned()])
    {
        fs.mkdir(&root, &d, FileMode::dir(0o755)).expect("mkdir");
    }
    let per_dir = scale.files / THREADS;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let fs = &fs;
            s.spawn(move || {
                let cx = ctx(t);
                for i in 0..per_dir {
                    let fd = fs
                        .create(&cx, &format!("/t{t}/p{i}"), FileMode::file(0o644))
                        .expect("populate");
                    fs.close(&cx, fd).expect("close");
                }
            });
        }
    });
    fs
}

/// Compares the final namespace with the generator's model (every
/// pre-populated file, nothing left behind by the create/rename/unlink
/// cycle) and returns the number of names on one side only.
fn namespace_mismatches(fs: &SimurghFs, per_dir: usize) -> u64 {
    let root = ProcCtx::root(1);
    let mut model: Vec<(String, BTreeSet<String>)> = vec![
        (
            "/".to_owned(),
            (0..THREADS)
                .map(|t| format!("t{t}"))
                .chain(["shared".to_owned()])
                .collect(),
        ),
        ("/shared".to_owned(), BTreeSet::new()),
    ];
    for t in 0..THREADS {
        model.push((
            format!("/t{t}"),
            (0..per_dir).map(|i| format!("p{i}")).collect(),
        ));
    }
    let mut bad = 0;
    for (dir, want) in &model {
        let got: BTreeSet<String> = fs
            .readdir(&root, dir)
            .map(|es| es.into_iter().map(|e| e.name).collect())
            .unwrap_or_default();
        let diff = got.symmetric_difference(want).count() as u64;
        if diff > 0 {
            println!(
                "# meta_mix: {dir} has {} entries, model {}",
                got.len(),
                want.len()
            );
        }
        bad += diff;
    }
    bad
}

pub fn run(args: &Args, scale: &Scale) -> Outcome {
    let mut sheet = Sheet::default();
    let (setup_s, fs) = stats::median_time(scale.setups, |_| setup(scale));
    sheet.put("setup_s", setup_s, "s", scale.setups as u64);
    let mut dram = stats::rss_anon_mib(None) - (scale.region >> 20) as f64;
    let per_dir = scale.files / THREADS;
    let mut workers: Vec<MetaWorker> = (0..THREADS)
        .map(|t| MetaWorker {
            fs: &fs,
            t,
            per_dir,
            rng: StdRng::seed_from_u64(args.seed ^ (0x6d65_7461 + t as u64 * 0x9e37_79b9)),
            j: 0,
            inserts: 0,
            a: String::new(),
            b: String::new(),
            c: String::new(),
        })
        .collect();
    let overhead = crate::trace_overhead(args, &mut workers);
    let before = Counters::read(&fs);
    let phase = mount::closed_loop(&mut workers, args.seconds, args.windows(), args.trace);
    let after = Counters::read(&fs);
    let inserts: u64 = workers.iter().map(|w| w.inserts).sum();
    drop(workers);
    dram = dram.max(stats::rss_anon_mib(None) - (scale.region >> 20) as f64);
    crate::report_phase(&mut sheet, &phase, THREADS);
    sheet.put(
        "space_amp",
        layers::used_bytes(&fs) as f64 / mount::live_bytes(&fs).max(1) as f64,
        "ratio",
        0,
    );
    if args.trace {
        let prot = layers::floors(&mut sheet, args.floor_scale());
        phase.spans.report(&mut sheet, THREADS, phase.wall_s, prot);
        after.report_since(&before, phase.ops(), inserts, &mut sheet);
        layers::report_frag(&fs, &mut sheet);
        sheet.put("compact.s", 0.0, "s", 0);
        sheet.put("trace.overhead_frac", overhead, "ratio", 0);
    }
    let (recover_s, fs, report) = mount::power_cut_remount(fs);
    dram = dram.max(stats::rss_anon_mib(None) - (scale.region >> 20) as f64);
    sheet.put("recover_s", recover_s, "s", mount::RECOVER_REPS as u64);
    sheet.put("dram_mb", dram, "MiB", 0);
    layers::report_recovery(&report, &mut sheet);
    let bad = mount::fsck_violations(&fs, "meta_mix") + namespace_mismatches(&fs, per_dir);
    Outcome {
        sheet,
        attempted: phase.ops(),
        failed: phase.failed + bad,
    }
}
