//! `data_aged`: two closed-loop threads doing 4 KiB appends, overwrites and
//! preads on an aged (churned and compacted) region. Every written block
//! carries a (kind, thread, stream, block, version) stamp that reads check.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simurgh_core::SimurghFs;
use simurgh_fsapi::{Fd, FileMode, FileSystem, FsError, OpenFlags, ProcCtx};
use simurgh_workloads::aging::{self, AgingSpec};

use crate::layers::{self, Counters, Op};
use crate::mount::{self, stamp, stamped, Recorder, Worker, BLOCK};
use crate::stats::{self, Sheet};
use crate::{Args, Outcome};

pub struct Scale {
    pub region: usize,
    /// `AgingSpec::churn` scale of the set-up aging pass.
    pub aging: f64,
    /// Per-thread overwrite/pread working set.
    pub big_bytes: u64,
    pub streams: usize,
    /// A stream is truncated to 0 once it reaches this size.
    pub stream_reset: u64,
    pub setups: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            region: 1 << 30,
            aging: 2.0,
            big_bytes: 64 << 20,
            streams: 64,
            stream_reset: 2 << 20,
            setups: 3,
        }
    }
    pub fn smoke() -> Scale {
        Scale {
            region: 96 << 20,
            aging: 0.05,
            big_bytes: 2 << 20,
            streams: 8,
            stream_reset: 64 << 10,
            setups: 1,
        }
    }
}

const THREADS: usize = 2;
const BIG: u8 = 0;
const STREAM: u8 = 1;

fn ctx(t: usize) -> ProcCtx {
    ProcCtx::root(200 + t as u32)
}

/// A worker's model after the run: big-file block versions and per-stream
/// (generation, length).
type Model = (Vec<u32>, Vec<(u32, u64)>);

struct DataWorker<'a> {
    fs: &'a SimurghFs,
    t: usize,
    rng: StdRng,
    big: Fd,
    streams: Vec<Fd>,
    /// Model: version of every block of the big file.
    versions: Vec<u32>,
    /// Model: per stream (generation, length).
    stream_state: Vec<(u32, u64)>,
    reset: u64,
    buf: Vec<u8>,
    rbuf: Vec<u8>,
    mismatches: u64,
}

impl Worker for DataWorker<'_> {
    fn step(&mut self, rec: &mut Recorder) {
        let (fs, cx, t) = (self.fs, ctx(self.t), self.t);
        let roll = self.rng.random_range(0..100u32);
        if roll < 40 {
            let s = self.rng.random_range(0..self.streams.len());
            let fd = self.streams[s];
            let (gen, len) = self.stream_state[s];
            let reset = len >= self.reset;
            let (gen, off) = if reset { (gen + 1, 0) } else { (gen, len) };
            stamp(&mut self.buf, STREAM, t, s, off / BLOCK as u64, gen);
            let buf = &self.buf;
            let ok = rec.time(Op::Append, 1 + reset as u64, || {
                if reset {
                    fs.ftruncate(&cx, fd, 0)?;
                }
                fs.pwrite(&cx, fd, buf, off)
            });
            if ok.is_some() {
                self.stream_state[s] = (gen, off + BLOCK as u64);
            }
        } else if roll < 70 {
            let b = self.rng.random_range(0..self.versions.len());
            let v = self.versions[b] + 1;
            stamp(&mut self.buf, BIG, t, 0, b as u64, v);
            let (buf, big) = (&self.buf, self.big);
            if rec
                .time(Op::Overwrite, 1, || {
                    fs.pwrite(&cx, big, buf, (b * BLOCK) as u64)
                })
                .is_some()
            {
                self.versions[b] = v;
            }
        } else {
            let b = self.rng.random_range(0..self.versions.len());
            let (rbuf, big) = (&mut self.rbuf, self.big);
            if let Some(n) = rec.time(Op::Pread, 1, || {
                fs.pread(&cx, big, rbuf, (b * BLOCK) as u64)
            }) {
                if n != BLOCK || !stamped(&self.rbuf, BIG, t, 0, b as u64, self.versions[b]) {
                    self.mismatches += 1;
                }
            }
        }
    }
}

/// Creates thread `t`'s big file (every block stamped at version 0) and
/// its empty append streams, returning the open descriptors.
fn populate(fs: &SimurghFs, scale: &Scale, t: usize) -> (Fd, Vec<Fd>) {
    let cx = ctx(t);
    let rw = OpenFlags {
        read: true,
        write: true,
        create: true,
        excl: false,
        truncate: false,
        append: false,
    };
    let big = fs
        .open(&cx, &format!("/w{t}/big"), rw, FileMode::file(0o644))
        .expect("big file");
    let chunk_blocks = 64;
    let mut chunk = vec![0x5au8; chunk_blocks * BLOCK];
    let blocks = scale.big_bytes / BLOCK as u64;
    let mut b = 0;
    while b < blocks {
        let n = chunk_blocks.min((blocks - b) as usize);
        for i in 0..n {
            stamp(
                &mut chunk[i * BLOCK..(i + 1) * BLOCK],
                BIG,
                t,
                0,
                b + i as u64,
                0,
            );
        }
        fs.pwrite(&cx, big, &chunk[..n * BLOCK], b * BLOCK as u64)
            .expect("prefill");
        b += n as u64;
    }
    let streams = (0..scale.streams)
        .map(|s| {
            fs.open(&cx, &format!("/w{t}/s{s}"), rw, FileMode::file(0o644))
                .expect("stream")
        })
        .collect();
    (big, streams)
}

struct Setup {
    fs: SimurghFs,
    compact_s: f64,
    fds: Vec<(Fd, Vec<Fd>)>,
}

fn setup(scale: &Scale, seed: u64) -> Setup {
    let fs = mount::format(scale.region);
    let root = ProcCtx::root(1);
    let spec = AgingSpec {
        seed,
        ..AgingSpec::churn(scale.aging)
    };
    let mut compact_s = 0.0;
    aging::run_churn(&fs, &root, &spec, |_, _| {
        let t = Instant::now();
        fs.maybe_compact();
        compact_s += t.elapsed().as_secs_f64();
    })
    .expect("aging churn");
    for t in 0..THREADS {
        fs.mkdir(&root, &format!("/w{t}"), FileMode::dir(0o755))
            .expect("mkdir");
    }
    let fds = std::thread::scope(|s| {
        let hs: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn({
                    let fs = &fs;
                    move || populate(fs, scale, t)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("populate"))
            .collect()
    });
    Setup { fs, compact_s, fds }
}

/// Reads back a seeded sample of big-file and stream blocks on the
/// recovered mount and compares them with the workers' models.
fn verify(fs: &SimurghFs, workers: &[Model], seed: u64, big_bytes: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7665_7269);
    let mut bad = 0;
    let mut buf = vec![0u8; BLOCK];
    for (t, (versions, streams)) in workers.iter().enumerate() {
        let cx = ctx(t);
        let big = fs
            .open(
                &cx,
                &format!("/w{t}/big"),
                OpenFlags::RDONLY,
                FileMode::default(),
            )
            .expect("reopen");
        bad += (fs.fstat(&cx, big).map(|s| s.size).unwrap_or(0) != big_bytes) as u64;
        for _ in 0..1024 {
            let b = rng.random_range(0..versions.len());
            let ok = fs.pread(&cx, big, &mut buf, (b * BLOCK) as u64) == Ok(BLOCK)
                && stamped(&buf, BIG, t, 0, b as u64, versions[b]);
            bad += !ok as u64;
        }
        fs.close(&cx, big).expect("close");
        for (s, &(gen, len)) in streams.iter().enumerate() {
            let path = format!("/w{t}/s{s}");
            let fd = fs
                .open(&cx, &path, OpenFlags::RDONLY, FileMode::default())
                .expect("reopen stream");
            bad += (fs.fstat(&cx, fd).map(|st| st.size).unwrap_or(u64::MAX) != len) as u64;
            if len > 0 {
                for _ in 0..4 {
                    let b = rng.random_range(0..len / BLOCK as u64);
                    let r: Result<usize, FsError> = fs.pread(&cx, fd, &mut buf, b * BLOCK as u64);
                    bad += !(r == Ok(BLOCK) && stamped(&buf, STREAM, t, s, b, gen)) as u64;
                }
            }
            fs.close(&cx, fd).expect("close");
        }
    }
    bad
}

pub fn run(args: &Args, scale: &Scale) -> Outcome {
    let mut sheet = Sheet::default();
    let (setup_s, st) = stats::median_time(scale.setups, |_| setup(scale, args.seed));
    sheet.put("setup_s", setup_s, "s", scale.setups as u64);
    let Setup { fs, compact_s, fds } = st;
    let region_mib = (scale.region >> 20) as f64;
    let mut dram = stats::rss_anon_mib(None) - region_mib;
    let blocks = (scale.big_bytes / BLOCK as u64) as usize;
    let mut workers: Vec<DataWorker> = fds
        .into_iter()
        .enumerate()
        .map(|(t, (big, streams))| DataWorker {
            fs: &fs,
            t,
            rng: StdRng::seed_from_u64(args.seed ^ (0x6461_7461 + t as u64 * 0x9e37_79b9)),
            big,
            stream_state: vec![(0, 0); streams.len()],
            streams,
            versions: vec![0; blocks],
            reset: scale.stream_reset,
            buf: vec![0x5au8; BLOCK],
            rbuf: vec![0u8; BLOCK],
            mismatches: 0,
        })
        .collect();
    let overhead = crate::trace_overhead(args, &mut workers);
    let before = Counters::read(&fs);
    let phase = mount::closed_loop(&mut workers, args.seconds, args.windows(), args.trace);
    let after = Counters::read(&fs);
    let mismatches: u64 = workers.iter().map(|w| w.mismatches).sum();
    let models: Vec<_> = workers
        .iter()
        .map(|w| (w.versions.clone(), w.stream_state.clone()))
        .collect();
    drop(workers);
    dram = dram.max(stats::rss_anon_mib(None) - region_mib);
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
        after.report_since(&before, phase.ops(), 0, &mut sheet);
        layers::report_frag(&fs, &mut sheet);
        sheet.put("compact.s", compact_s, "s", 0);
        sheet.put("trace.overhead_frac", overhead, "ratio", 0);
    }
    let (recover_s, fs, report) = mount::power_cut_remount(fs);
    dram = dram.max(stats::rss_anon_mib(None) - region_mib);
    sheet.put("recover_s", recover_s, "s", mount::RECOVER_REPS as u64);
    sheet.put("dram_mb", dram, "MiB", 0);
    layers::report_recovery(&report, &mut sheet);
    let violations = mount::fsck_violations(&fs, "data_aged");
    let bad = verify(&fs, &models, args.seed, scale.big_bytes);
    if mismatches + bad > 0 {
        println!("# data_aged: {mismatches} in-run and {bad} read-back mismatches");
    }
    Outcome {
        sheet,
        attempted: phase.ops(),
        failed: phase.failed + mismatches + bad + violations,
    }
}
