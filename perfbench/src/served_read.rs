//! `served_read`: a real `simurgh-served` daemon driven over two unix-socket
//! connections as a pipelined closed loop: each connection sends a batch of
//! requests, waits for all their replies, and sends the next batch. Mix `pread=5,stat=3,pwrite=1,create|unlink=1`, 4 KiB payloads.
//! Each request is timed from its send to its decoded reply.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simurgh_core::{SimurghConfig, SimurghFs};
use simurgh_fsapi::wire::{self, Hello, HelloOk, Request, Response, PROTOCOL_VERSION};
use simurgh_fsapi::{Credentials, Fd, FileMode, FsError, OpenFlags, ProcCtx};
use simurgh_pmem::region::RegionBuilder;
use simurgh_pmem::PmemRegion;
use simurgh_served::{dispatch, ConnFds};

use crate::layers::{self, Counters, Op, Spans};
use crate::mount::{self, stamp, stamped, BLOCK, RECOVER_REPS};
use crate::stats::{self, Hist, Sheet};
use crate::{Args, Outcome};

pub struct Scale {
    pub region: usize,
    /// Per-connection data file, pre-written at set-up.
    pub data_bytes: u64,
    pub setups: usize,
    /// Requests replayed through `served::dispatch` in the traced run.
    pub replay_ops: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            region: 256 << 20,
            data_bytes: 16 << 20,
            setups: 5,
            replay_ops: 200_000,
        }
    }
    pub fn smoke() -> Scale {
        Scale {
            region: 32 << 20,
            data_bytes: 1 << 20,
            setups: 1,
            replay_ops: 2_000,
        }
    }
}

const CONNS: usize = 2;
/// Requests per batch on each connection.
const DEPTH: usize = 16;
/// Replies slower than this do not count toward goodput.
const LATENCY_LIMIT_NS: u64 = 1_000_000;
/// Daemon epoll shards. One shard serves both connections, so the daemon's
/// loop and the benchmark's client thread fit the host's 2 vCPUs.
const SHARDS: usize = 1;
/// Stamp kind of the blocks a connection writes.
const SERVED: u8 = 2;
/// Length of the unreported warm-up phase.
const WARMUP_S: f64 = 1.0;
/// Latency charged to a refused or failed request: over any limit.
const OVER_LIMIT_NS: u64 = 1 << 39;
/// Names per connection that the create/unlink slot of the mix toggles.
/// Bounding them keeps each directory's size, and so the daemon's speed,
/// steady over a run.
const NAMES: usize = 1024;

fn data_path(c: usize) -> String {
    format!("/sr/c{c}/data")
}

fn name_path(c: usize, n: usize) -> String {
    format!("/sr/c{c}/f{n}")
}

const RW_CREATE: OpenFlags = OpenFlags {
    read: true,
    write: true,
    create: true,
    excl: false,
    truncate: false,
    append: false,
};

/// What a reply must look like, and what the client checks in it.
#[derive(Clone, Copy, Debug)]
enum Expect {
    Pread {
        block: u64,
        version: u32,
    },
    Stat,
    Pwrite,
    Create,
    Unlink,
    /// Untimed housekeeping (closing a created file's descriptor).
    Close,
}

impl Expect {
    fn op(self) -> Option<Op> {
        match self {
            Expect::Pread { .. } => Some(Op::Pread),
            Expect::Stat => Some(Op::Stat),
            Expect::Pwrite => Some(Op::Overwrite),
            Expect::Create => Some(Op::Create),
            Expect::Unlink => Some(Op::Unlink),
            Expect::Close => None,
        }
    }
}

/// The per-connection model and request generator, shared by the live
/// client and the in-process replay. Each connection has its own random
/// stream, so its requests do not depend on how replies interleave.
struct Gen {
    rng: [StdRng; CONNS],
    versions: [Vec<u32>; CONNS],
    /// Which of the connection's `NAMES` files exist.
    present: [Vec<bool>; CONNS],
    buf: Vec<u8>,
}

impl Gen {
    fn new(seed: u64, blocks: usize) -> Gen {
        let rng = |c: u64| StdRng::seed_from_u64(seed ^ 0x7365_7276 ^ (c << 40));
        Gen {
            rng: [rng(0), rng(1)],
            versions: [vec![0; blocks], vec![0; blocks]],
            present: [vec![false; NAMES], vec![false; NAMES]],
            buf: vec![0x33u8; BLOCK],
        }
    }

    /// Draws connection `c`'s next request and its expected reply.
    fn next(&mut self, c: usize, fd: Fd) -> (Request, Expect) {
        let rng = &mut self.rng[c];
        let roll = rng.random_range(0..10u32);
        let blocks = self.versions[c].len();
        match roll {
            0..=4 => {
                let b = rng.random_range(0..blocks);
                let req = Request::Pread {
                    fd,
                    len: BLOCK as u32,
                    off: (b * BLOCK) as u64,
                };
                let version = self.versions[c][b];
                (
                    req,
                    Expect::Pread {
                        block: b as u64,
                        version,
                    },
                )
            }
            5..=7 => (Request::Stat { path: data_path(c) }, Expect::Stat),
            8 => {
                let b = rng.random_range(0..blocks);
                let v = self.versions[c][b] + 1;
                self.versions[c][b] = v;
                stamp(&mut self.buf, SERVED, c, 0, b as u64, v);
                let req = Request::Pwrite {
                    fd,
                    data: self.buf.clone(),
                    off: (b * BLOCK) as u64,
                };
                (req, Expect::Pwrite)
            }
            _ => {
                let n = rng.random_range(0..NAMES);
                let path = name_path(c, n);
                let exists = &mut self.present[c][n];
                *exists = !*exists;
                if !*exists {
                    (Request::Unlink { path }, Expect::Unlink)
                } else {
                    let mode = FileMode::file(0o644);
                    (Request::Create { path, mode }, Expect::Create)
                }
            }
        }
    }
}

/// Classifies one reply. Returns (ok, created fd).
fn check_reply(expect: Expect, resp: &Response, conn: usize) -> (bool, Option<Fd>) {
    match (expect, resp) {
        (Expect::Pread { block, version }, Response::Data(d)) => {
            (stamped(d, SERVED, conn, 0, block, version), None)
        }
        (Expect::Stat, Response::Stat(_)) => (true, None),
        (Expect::Pwrite, Response::Size(n)) => (*n == BLOCK as u64, None),
        (Expect::Create, Response::Fd(fd)) => (true, Some(*fd)),
        (Expect::Unlink | Expect::Close, Response::Unit) => (true, None),
        _ => (false, None),
    }
}

/// A framed client connection.
struct Conn {
    stream: UnixStream,
    rd: Vec<u8>,
}

impl Conn {
    fn connect(socket: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        let mut c = Conn {
            stream,
            rd: Vec::new(),
        };
        let hello = Hello {
            version: PROTOCOL_VERSION,
            creds: Credentials::ROOT,
        };
        c.stream.write_all(&wire::frame(&hello.encode()))?;
        let body = c.frame()?;
        HelloOk::decode(&body).map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        Ok(c)
    }

    /// Takes one whole frame body out of the read buffer, if there is one.
    fn split(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        let Some((used, body)) =
            wire::split_frame(&self.rd).map_err(|e| std::io::Error::other(format!("{e:?}")))?
        else {
            return Ok(None);
        };
        let body = body.to_vec();
        self.rd.drain(..used);
        Ok(Some(body))
    }

    /// Reads whatever the socket holds into the read buffer; Ok(false) when
    /// a non-blocking socket had nothing.
    fn fill(&mut self) -> std::io::Result<bool> {
        let mut tmp = [0u8; 65536];
        match self.stream.read(&mut tmp) {
            Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.rd.extend_from_slice(&tmp[..n]);
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Blocks until one whole frame has arrived.
    fn frame(&mut self) -> std::io::Result<Vec<u8>> {
        loop {
            if let Some(body) = self.split()? {
                return Ok(body);
            }
            self.fill()?;
        }
    }

    /// One synchronous request (set-up and teardown only).
    fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        self.stream.write_all(&wire::frame(&req.encode()))?;
        let body = self.frame()?;
        Response::decode(&body).map_err(|e| std::io::Error::other(format!("{e:?}")))
    }
}

/// A running daemon with its prefilled connections.
struct Daemon {
    child: Child,
    dir: PathBuf,
    /// The region file, and the path the daemon and the remount open it by.
    _region: File,
    region_path: PathBuf,
    conns: Vec<Conn>,
    fds: [Fd; CONNS],
}

impl Daemon {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Creates the region file in memory (`memfd_create`) and returns it with
/// a path any process can open it by. A region file on a disk file system
/// would have its dirty pages written back every few seconds, and every
/// store to a page cleaned that way faults; how long that takes depends on
/// the disk, not on Simurgh. A memory-backed file has no writeback, like
/// the DAX mapping of real NVMM.
fn region_file(bytes: usize) -> (File, PathBuf) {
    extern "C" {
        fn memfd_create(name: *const std::ffi::c_char, flags: u32) -> i32;
    }
    const MFD_CLOEXEC: u32 = 1;
    // SAFETY: the name is a NUL-terminated string that outlives the call.
    let fd = unsafe { memfd_create(c"simurgh-region".as_ptr(), MFD_CLOEXEC) };
    assert!(fd >= 0, "memfd_create: {}", std::io::Error::last_os_error());
    // SAFETY: `fd` is a freshly created descriptor that nothing else owns.
    let file = unsafe { File::from_raw_fd(fd) };
    file.set_len(bytes as u64).expect("size region file");
    let path = PathBuf::from(format!("/proc/{}/fd/{fd}", std::process::id()));
    (file, path)
}

/// Spawns the daemon on a fresh region file and pre-writes every
/// connection's data file (all blocks stamped at version 0).
fn spawn(args: &Args, scale: &Scale, i: usize) -> Daemon {
    let dir = PathBuf::from(format!(".bench_run/served-{}-{i}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("run dir");
    // Lay the region file out fully (no holes for the daemon to fault in
    // under load) and format it, as the daemon's own first run would; the
    // daemon then adopts it with a shared mount.
    let (region_file, image) = region_file(scale.region);
    let region = RegionBuilder::new(scale.region)
        .file(&image)
        .build()
        .expect("create region file");
    region.prewarm();
    drop(
        SimurghFs::format(Arc::new(region), SimurghConfig::default()).expect("format region file"),
    );
    let socket = dir.join("s.sock");
    let child = Command::new(&args.served_bin)
        .arg("--socket")
        .arg(&socket)
        .arg("--region")
        .arg(&image)
        .arg("--size")
        .arg(scale.region.to_string())
        .arg("--shards")
        .arg(SHARDS.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", args.served_bin.display()));
    let mut d = Daemon {
        child,
        dir,
        _region: region_file,
        region_path: image,
        conns: Vec::new(),
        fds: [Fd(0); CONNS],
    };
    let t = Instant::now();
    while d.conns.len() < CONNS {
        match Conn::connect(&socket) {
            Ok(c) => d.conns.push(c),
            Err(_) if t.elapsed() < Duration::from_secs(30) => {
                std::thread::sleep(Duration::from_millis(2))
            }
            Err(e) => panic!("daemon never came up: {e}"),
        }
    }
    let dirmode = FileMode::dir(0o755);
    let mut chunk = vec![0u8; 64 * BLOCK];
    for c in 0..CONNS {
        let conn = &mut d.conns[c];
        for p in ["/sr".to_owned(), format!("/sr/c{c}")] {
            match conn
                .call(&Request::Mkdir {
                    path: p,
                    mode: dirmode,
                })
                .expect("mkdir")
            {
                Response::Unit | Response::Err(FsError::Exists) => {}
                r => panic!("mkdir: {r:?}"),
            }
        }
        let Response::Fd(fd) = conn
            .call(&Request::Open {
                path: data_path(c),
                flags: RW_CREATE,
                mode: FileMode::file(0o644),
            })
            .expect("open")
        else {
            panic!("open data file failed")
        };
        d.fds[c] = fd;
        let blocks = scale.data_bytes / BLOCK as u64;
        let mut b = 0;
        while b < blocks {
            let n = 64.min(blocks - b) as usize;
            for k in 0..n {
                stamp(
                    &mut chunk[k * BLOCK..(k + 1) * BLOCK],
                    SERVED,
                    c,
                    0,
                    b + k as u64,
                    0,
                );
            }
            let r = conn.call(&Request::Pwrite {
                fd,
                data: chunk[..n * BLOCK].to_vec(),
                off: b * BLOCK as u64,
            });
            assert!(matches!(r, Ok(Response::Size(_))), "prefill: {r:?}");
            b += n as u64;
        }
    }
    d
}

/// `poll(2)`, so one client thread can wait on both connections.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}
const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

fn poll(fds: &mut [PollFd], timeout_ms: i32) {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
    // SAFETY: `fds` is a valid, exclusively borrowed array of `pollfd`
    // records of the length passed; the kernel writes only `revents`.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
}

/// One connection's client state during a phase.
struct Pipe {
    /// Framed requests not yet written, from `out[written..]`.
    out: Vec<u8>,
    written: usize,
    /// Requests sent and not yet answered, oldest first.
    inflight: VecDeque<(Instant, Expect)>,
    /// Descriptors of created files, to close on this connection.
    closes: Vec<Fd>,
}

/// What one phase of the closed loop measured.
struct Phase {
    /// Latency from send to decoded reply, by completion time.
    windows: Vec<Hist>,
    wall_s: f64,
    /// Client-side request encode and reply decode (traced phase).
    encode: Hist,
    decode: Hist,
    ok: u64,
    failed: u64,
    /// Daemon RssAnon sampled at the end of each window.
    rss_mib: Vec<f64>,
    /// CPU time of the daemon and of this process over the phase.
    daemon_cpu: Duration,
    client_cpu: Duration,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.windows.iter().map(Hist::count).sum()
    }

    /// Median over windows of each window's replies per second, counting
    /// only those at or below `limit_ns`.
    fn rate_within(&self, limit_ns: u64) -> f64 {
        let per_win = self.wall_s / self.windows.len() as f64;
        let v: Vec<f64> = self
            .windows
            .iter()
            .map(|h| h.count_le(limit_ns) as f64 / per_win)
            .collect();
        stats::median(&v)
    }

    fn throughput(&self) -> f64 {
        self.rate_within(u64::MAX)
    }
}

/// Runs the pipelined closed loop on the daemon's connections for `secs`,
/// then drains every outstanding reply. One thread drives both
/// connections: whenever a connection has no request outstanding it sends
/// the next batch of `DEPTH` requests, then it waits in `poll` for replies.
/// Whole batches keep the daemon's bursts the same size from one run to the
/// next; a connection refilled reply by reply splits them by the timing of
/// the host, and its p99 moves with that.
fn drive(d: &mut Daemon, gen: &mut Gen, secs: f64, nwin: usize, traced: bool) -> Phase {
    for c in &d.conns {
        c.stream.set_nonblocking(true).expect("nonblocking");
    }
    let mut pipes: Vec<Pipe> = (0..CONNS)
        .map(|_| Pipe {
            out: Vec::new(),
            written: 0,
            inflight: VecDeque::new(),
            closes: Vec::new(),
        })
        .collect();
    let mut ph = Phase {
        windows: vec![Hist::default(); nwin],
        wall_s: secs,
        encode: Hist::default(),
        decode: Hist::default(),
        ok: 0,
        failed: 0,
        rss_mib: Vec::new(),
        daemon_cpu: Duration::ZERO,
        client_cpu: Duration::ZERO,
    };
    let pid = d.child.id();
    let (daemon_cpu0, client_cpu0) = (stats::cpu_time(pid), stats::cpu_time(std::process::id()));
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let window = Duration::from_secs_f64(secs / nwin as f64);
    let mut next_sample = start + window;
    let drain_limit = end + Duration::from_secs(20);
    loop {
        let now = Instant::now();
        let running = now < end;
        if now >= next_sample && ph.rss_mib.len() < nwin {
            ph.rss_mib.push(stats::rss_anon_mib(Some(pid)));
            next_sample += window;
        }
        for (c, p) in pipes.iter_mut().enumerate() {
            if running && p.inflight.is_empty() {
                for _ in 0..DEPTH {
                    let (req, expect) = match p.closes.pop() {
                        Some(fd) => (Request::Close { fd }, Expect::Close),
                        None => gen.next(c, d.fds[c]),
                    };
                    let t_enc = Instant::now();
                    let frame = wire::frame(&req.encode());
                    if traced {
                        ph.encode.record(t_enc.elapsed().as_nanos() as u64);
                    }
                    p.out.extend_from_slice(&frame);
                    p.inflight.push_back((Instant::now(), expect));
                }
            }
            if p.written < p.out.len() {
                match d.conns[c].stream.write(&p.out[p.written..]) {
                    Ok(n) => p.written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => panic!("send: {e}"),
                }
                if p.written == p.out.len() {
                    p.out.clear();
                    p.written = 0;
                }
            }
        }
        if !running && pipes.iter().all(|p| p.inflight.is_empty()) {
            break;
        }
        if now >= drain_limit {
            let lost: usize = pipes.iter().map(|p| p.inflight.len()).sum();
            println!("# served_read: {lost} requests never answered");
            ph.failed += lost as u64;
            break;
        }
        let mut fds: Vec<PollFd> = d
            .conns
            .iter()
            .zip(&pipes)
            .map(|(conn, p)| PollFd {
                fd: conn.stream.as_raw_fd(),
                events: POLLIN | if p.written < p.out.len() { POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        poll(&mut fds, 10);
        for (c, p) in pipes.iter_mut().enumerate() {
            if fds[c].revents == 0 {
                continue;
            }
            let conn = &mut d.conns[c];
            while conn.fill().expect("recv") {}
            while let Some(body) = conn.split().expect("frame") {
                let t_dec = Instant::now();
                let resp = Response::decode(&body).ok();
                let now = Instant::now();
                if traced {
                    ph.decode.record((now - t_dec).as_nanos() as u64);
                }
                let (sent, expect) = p.inflight.pop_front().expect("reply to a request");
                let (ok, fd) = match &resp {
                    Some(r) => check_reply(expect, r, c),
                    None => (false, None),
                };
                if let Some(fd) = fd {
                    p.closes.push(fd);
                }
                if !ok && ph.failed < 3 {
                    let got = match &resp {
                        Some(Response::Data(d)) => format!("Data({} bytes)", d.len()),
                        r => format!("{r:?}"),
                    };
                    println!("# served_read: conn {c} {expect:?} -> {got}");
                }
                if ok {
                    ph.ok += 1;
                } else {
                    ph.failed += 1;
                }
                if expect.op().is_none() {
                    continue;
                }
                let lat = if ok {
                    (now - sent).as_nanos() as u64
                } else {
                    OVER_LIMIT_NS
                };
                let w = ((now - start).as_nanos() / window.as_nanos().max(1)) as usize;
                ph.windows[w.min(nwin - 1)].record(lat);
            }
        }
    }
    ph.daemon_cpu = stats::cpu_time(pid).saturating_sub(daemon_cpu0);
    ph.client_cpu = stats::cpu_time(std::process::id()).saturating_sub(client_cpu0);
    ph.rss_mib.push(stats::rss_anon_mib(Some(pid)));
    for c in &d.conns {
        c.stream.set_nonblocking(false).expect("blocking");
    }
    // Close the descriptors of the last creates synchronously.
    for (c, p) in pipes.iter_mut().enumerate() {
        for fd in p.closes.drain(..) {
            let r = d.conns[c].call(&Request::Close { fd });
            if !matches!(r, Ok(Response::Unit)) {
                ph.failed += 1;
            }
        }
    }
    ph
}

/// Replays the seeded request stream (the connections taking turns)
/// through `served::dispatch` on an in-process mount configured like the
/// daemon, timing server-side decode, dispatch and encode, and reading the
/// library's counters around it.
fn replay(args: &Args, scale: &Scale, sheet: &mut Sheet) -> (f64, f64) {
    let region = Arc::new(PmemRegion::new(scale.region));
    region.prewarm();
    let fs = SimurghFs::format(region, SimurghConfig::default()).expect("format");
    let mut fds = [Fd(0); CONNS];
    let mut conn_fds: Vec<ConnFds> = (0..CONNS).map(|_| ConnFds::new()).collect();
    let ctxs: Vec<ProcCtx> = (0..CONNS)
        .map(|c| ProcCtx::new(1 + c as u32, Credentials::ROOT))
        .collect();
    let mut chunk = vec![0u8; 64 * BLOCK];
    for c in 0..CONNS {
        for p in ["/sr".to_owned(), format!("/sr/c{c}")] {
            dispatch(
                &fs,
                &ctxs[c],
                Request::Mkdir {
                    path: p,
                    mode: FileMode::dir(0o755),
                },
                &mut conn_fds[c],
            );
        }
        let r = dispatch(
            &fs,
            &ctxs[c],
            Request::Open {
                path: data_path(c),
                flags: RW_CREATE,
                mode: FileMode::file(0o644),
            },
            &mut conn_fds[c],
        );
        let Response::Fd(fd) = r else {
            panic!("replay open: {r:?}")
        };
        fds[c] = fd;
        let blocks = scale.data_bytes / BLOCK as u64;
        for b in (0..blocks).step_by(64) {
            let n = 64.min(blocks - b) as usize;
            for k in 0..n {
                stamp(
                    &mut chunk[k * BLOCK..(k + 1) * BLOCK],
                    SERVED,
                    c,
                    0,
                    b + k as u64,
                    0,
                );
            }
            dispatch(
                &fs,
                &ctxs[c],
                Request::Pwrite {
                    fd,
                    data: chunk[..n * BLOCK].to_vec(),
                    off: b * BLOCK as u64,
                },
                &mut conn_fds[c],
            );
        }
    }
    let mut gen = Gen::new(args.seed, (scale.data_bytes / BLOCK as u64) as usize);
    let mut spans = Spans::default();
    let (mut dec, mut enc, mut disp) = (Hist::default(), Hist::default(), Hist::default());
    let before = Counters::read(&fs);
    let t0 = Instant::now();
    let mut bad = 0u64;
    for i in 0..scale.replay_ops {
        let c = i % CONNS;
        let (req, expect) = gen.next(c, fds[c]);
        let body = req.encode();
        let t = Instant::now();
        let req = Request::decode(&body).expect("decode");
        let t1 = Instant::now();
        let resp = dispatch(&fs, &ctxs[c], req, &mut conn_fds[c]);
        let t2 = Instant::now();
        let out = resp.encode();
        let t3 = Instant::now();
        std::hint::black_box(out);
        dec.record((t1 - t).as_nanos() as u64);
        disp.record((t2 - t1).as_nanos() as u64);
        enc.record((t3 - t2).as_nanos() as u64);
        spans.add(
            expect.op().expect("timed op"),
            (t2 - t1).as_nanos() as u64,
            1,
        );
        let (ok, fd) = check_reply(expect, &resp, c);
        bad += !ok as u64;
        if let Some(fd) = fd {
            dispatch(&fs, &ctxs[c], Request::Close { fd }, &mut conn_fds[c]);
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let after = Counters::read(&fs);
    let ops = scale.replay_ops as u64;
    let creates = spans.count[Op::Create as usize];
    after.report_since(&before, ops, creates, sheet);
    // The daemon mounts with the default configuration: no entry charge.
    spans.report(sheet, 1, wall, 0.0);
    sheet.put(
        "served.dispatch_us",
        disp.mean_ns() / 1e3,
        "us",
        disp.count(),
    );
    if bad > 0 {
        println!("# served_read replay: {bad} bad replies");
    }
    (disp.mean_ns() / 1e3, (dec.mean_ns() + enc.mean_ns()) / 1e3)
}

/// Kills the daemon (a power cut for the serving process), then runs
/// [`mount::recover`] on its region file.
fn remount(d: &mut Daemon) -> (f64, SimurghFs, simurgh_core::RecoveryReport) {
    d.kill();
    let path = &d.region_path;
    mount::recover(|| {
        Arc::new(
            RegionBuilder::open_file(path)
                .build()
                .expect("open region file"),
        )
    })
}

/// Reads every data block back on the recovered mount and compares it with
/// the generator's model; checks that each connection's directory holds
/// exactly the names the model says exist.
fn verify(fs: &SimurghFs, gen: &Gen) -> u64 {
    use simurgh_fsapi::FileSystem;
    let cx = ProcCtx::root(1);
    let mut bad = 0;
    let mut buf = vec![0u8; BLOCK];
    for (c, (versions, present)) in gen.versions.iter().zip(&gen.present).enumerate() {
        let fd = fs
            .open(&cx, &data_path(c), OpenFlags::RDONLY, FileMode::default())
            .expect("reopen");
        for (b, &v) in versions.iter().enumerate() {
            let ok = fs.pread(&cx, fd, &mut buf, (b * BLOCK) as u64) == Ok(BLOCK)
                && stamped(&buf, SERVED, c, 0, b as u64, v);
            bad += !ok as u64;
        }
        fs.close(&cx, fd).expect("close");
        let mut names: Vec<String> = fs
            .readdir(&cx, &format!("/sr/c{c}"))
            .map(|es| es.into_iter().map(|e| e.name).collect())
            .unwrap_or_default();
        names.sort();
        let mut model: Vec<String> = (0..NAMES)
            .filter(|&n| present[n])
            .map(|n| format!("f{n}"))
            .chain(["data".to_owned()])
            .collect();
        model.sort();
        if names != model {
            println!(
                "# served_read: /sr/c{c} holds {} entries, model {}",
                names.len(),
                model.len()
            );
            bad += 1;
        }
    }
    bad
}

fn print_phase(label: &str, ph: &Phase) {
    let lat = stats::windowed(&ph.windows, 0.5);
    let mut all = Hist::default();
    for w in &ph.windows {
        all.merge(w);
    }
    println!(
        "# served_read {label}: {:.0} ops/s; p50 {:.1} p99 {:.1} us (median of {} windows); whole p99 {:.1} max {:.1} us; n={}",
        ph.throughput(),
        lat.p50_us,
        lat.p99_us,
        lat.windows,
        all.quantile_ns(0.99) / 1e3,
        all.quantile_ns(1.0) / 1e3,
        all.count()
    );
    let per_win = ph.wall_s / ph.windows.len() as f64;
    let rates: Vec<f64> = ph
        .windows
        .iter()
        .map(|h| h.count() as f64 / per_win)
        .collect();
    let p99s: Vec<f64> = ph
        .windows
        .iter()
        .map(|h| h.quantile_ns(0.99) / 1e3)
        .collect();
    println!("#   ops/s per window: {rates:.0?}");
    println!("#   p99 us per window: {p99s:.0?}");
}

pub fn run(args: &Args, scale: &Scale) -> Outcome {
    let mut sheet = Sheet::default();
    let (setup_s, mut d) = stats::median_time(scale.setups, |i| spawn(args, scale, i));
    sheet.put("setup_s", setup_s, "s", scale.setups as u64);
    let mut gen = Gen::new(args.seed, (scale.data_bytes / BLOCK as u64) as usize);
    // The warm-up faults in the daemon's region pages and lazy caches.
    let warm = drive(&mut d, &mut gen, WARMUP_S.min(args.seconds / 4.0), 4, false);
    print_phase("warm-up", &warm);
    // The traced run measures half the time untraced and half traced.
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let nwin = ((secs * 2.0).round() as usize).clamp(4, 60);
    let main = drive(&mut d, &mut gen, secs, nwin, false);
    print_phase("measured", &main);
    let traced = args
        .trace
        .then(|| drive(&mut d, &mut gen, secs, nwin, true));
    println!("# daemon RssAnon MiB per window: {:.3?}", main.rss_mib);
    let phases = [Some(&warm), Some(&main), traced.as_ref()];
    let attempted: u64 = phases.iter().flatten().map(|p| p.ok + p.failed).sum();
    let failed: u64 = phases.iter().flatten().map(|p| p.failed).sum();
    let lat = stats::windowed(&main.windows, 0.5);
    sheet.put("throughput_ops_s", main.throughput(), "ops/s", main.ops());
    sheet.put("lat_p50_us", lat.p50_us, "us", lat.samples);
    sheet.put("lat_p99_us", lat.p99_us, "us", lat.samples);
    sheet.put(
        "goodput_ops_s",
        main.rate_within(LATENCY_LIMIT_NS),
        "ops/s",
        main.ops(),
    );
    sheet.put(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted,
    );
    let dram = main.rss_mib.iter().copied().fold(0.0, f64::max);
    if let Some(t) = &traced {
        print_phase("traced", t);
        layers::floors(&mut sheet, args.floor_scale());
        let (dispatch_us, server_codec_us) = replay(args, scale, &mut sheet);
        sheet.put("wire.encode_ns", t.encode.mean_ns(), "ns", t.encode.count());
        sheet.put("wire.decode_ns", t.decode.mean_ns(), "ns", t.decode.count());
        let mut rtt = Hist::default();
        for w in &t.windows {
            rtt.merge(w);
        }
        let client_codec_us = (t.encode.mean_ns() + t.decode.mean_ns()) / 1e3;
        sheet.put(
            "served.transport_us",
            rtt.mean_ns() / 1e3 - dispatch_us - server_codec_us - client_codec_us,
            "us",
            rtt.count(),
        );
        sheet.put(
            "served.busy_frac",
            t.daemon_cpu.as_secs_f64() / (t.wall_s * SHARDS as f64),
            "ratio",
            0,
        );
        sheet.put(
            "gen.busy_frac",
            t.client_cpu.as_secs_f64() / t.wall_s,
            "ratio",
            0,
        );
        sheet.put(
            "trace.overhead_frac",
            main.throughput() / t.throughput().max(1e-9) - 1.0,
            "ratio",
            0,
        );
        sheet.put("compact.s", 0.0, "s", 0);
    }
    for c in 0..CONNS {
        let fd = d.fds[c];
        let _ = d.conns[c].call(&Request::Close { fd });
    }
    let (recover_s, fs, report) = remount(&mut d);
    sheet.put("recover_s", recover_s, "s", RECOVER_REPS as u64);
    sheet.put("dram_mb", dram, "MiB", main.rss_mib.len() as u64);
    sheet.put(
        "space_amp",
        layers::used_bytes(&fs) as f64 / mount::live_bytes(&fs).max(1) as f64,
        "ratio",
        0,
    );
    layers::report_recovery(&report, &mut sheet);
    if args.trace {
        layers::report_frag(&fs, &mut sheet);
    }
    let bad = mount::fsck_violations(&fs, "served_read") + verify(&fs, &gen);
    drop(fs);
    drop(d);
    Outcome {
        sheet,
        attempted,
        failed: failed + bad,
    }
}
