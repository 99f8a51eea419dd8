//! The daemon proper: one nonblocking acceptor plus a fixed pool of epoll
//! shard loops. No per-connection OS thread anywhere — a shard owns its
//! connections outright and runs their decoded bursts inline, so a
//! connection's ops execute in order with no cross-thread handoff.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::queue::SegQueue;
use simurgh_core::obs::GatewayStats;
use simurgh_fsapi::wire::{self, Hello, HelloOk, Request, Response, PROTOCOL_VERSION};
use simurgh_fsapi::{Credentials, ProcCtx};

use crate::batch::Served;
use crate::dispatch::{serve_into, ConnFds};
use crate::sys;

/// Epoll token of a shard's wake-up pipe (connection ids are `u32`, so
/// this can never collide).
const WAKE_TOKEN: u64 = u64::MAX;

/// Replies buffered beyond this are a misbehaving reader; the connection
/// is dropped rather than ballooning the daemon's heap.
const MAX_PENDING_REPLY: usize = 32 << 20;

/// Tuning knobs of a gateway instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix socket path to listen on (removed and re-created at start).
    pub socket: PathBuf,
    /// Number of epoll shard loops (each an OS thread serving many
    /// connections).
    pub shards: usize,
    /// Admission limit: decoded-but-unanswered ops across every
    /// connection; the excess is refused with a typed `Busy` response.
    pub max_in_flight: u32,
    /// Connections with no traffic for this long are closed and their fd
    /// tables reaped — also the half-open reaper (a peer that died
    /// without FIN simply goes quiet).
    pub idle_timeout: Duration,
}

impl ServerConfig {
    /// Defaults: shards bounded by the machine, 1024 in-flight ops, 30 s
    /// idle timeout.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket: socket.into(),
            shards: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(4),
            max_in_flight: 1024,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Per-connection state owned by exactly one shard.
struct Conn {
    stream: UnixStream,
    /// Server-assigned id; doubles as the `pid` word scoping this
    /// connection's descriptors (never client-supplied).
    ctx: ProcCtx,
    hello_done: bool,
    /// Unconsumed request bytes.
    rd: Vec<u8>,
    /// The decoded burst, kept between bursts for its capacity.
    burst: Vec<Request>,
    /// Reply frames not yet written, from `wr_pos`; replies are framed
    /// straight into it.
    wr: Vec<u8>,
    wr_pos: usize,
    /// Whether `EPOLLOUT` interest is currently armed.
    want_out: bool,
    fds: ConnFds,
    last_rx: Instant,
}

impl Conn {
    fn new(id: u32, stream: UnixStream) -> Self {
        Conn {
            stream,
            ctx: ProcCtx::new(id, Credentials::ROOT),
            hello_done: false,
            rd: Vec::new(),
            burst: Vec::new(),
            wr: Vec::new(),
            wr_pos: 0,
            want_out: false,
            fds: ConnFds::new(),
            last_rx: Instant::now(),
        }
    }

    fn id(&self) -> u32 {
        self.ctx.pid
    }
}

/// Entry point: [`Server::start`] spawns the daemon threads and returns a
/// [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `cfg.socket`, spawns the acceptor and shard threads, and
    /// returns the handle that owns them. The file system stays shared
    /// with the caller (tests fsck it after shutdown).
    pub fn start<F: Served + Send + Sync>(
        fs: Arc<F>,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        let running = Arc::new(AtomicBool::new(true));
        let nshards = cfg.shards.max(1);
        let mut threads = Vec::new();
        let mut wakes = Vec::new();
        let mut queues: Vec<Arc<SegQueue<(u32, UnixStream)>>> = Vec::new();
        for s in 0..nshards {
            let (wake_w, wake_r) = UnixStream::pair()?;
            wake_r.set_nonblocking(true)?;
            wake_w.set_nonblocking(true)?;
            let incoming: Arc<SegQueue<(u32, UnixStream)>> = Arc::new(SegQueue::new());
            queues.push(Arc::clone(&incoming));
            wakes.push(wake_w);
            let (fs, cfg, running) = (Arc::clone(&fs), cfg.clone(), Arc::clone(&running));
            threads.push(
                std::thread::Builder::new().name(format!("served-shard{s}")).spawn(move || {
                    if let Err(e) = shard_loop(&*fs, &cfg, &running, &incoming, &wake_r) {
                        eprintln!("simurgh-served: shard {s} failed: {e}");
                    }
                })?,
            );
        }
        {
            let (fs, running) = (Arc::clone(&fs), Arc::clone(&running));
            let wake_clones: Vec<UnixStream> =
                wakes.iter().map(UnixStream::try_clone).collect::<io::Result<_>>()?;
            threads.push(
                std::thread::Builder::new().name("served-accept".into()).spawn(move || {
                    acceptor(&*fs, listener, &running, &queues, &wake_clones);
                })?,
            );
        }
        Ok(ServerHandle { running, threads, wakes, socket: cfg.socket, stopped: false })
    }
}

/// Owns the daemon's threads; [`shutdown`](ServerHandle::shutdown) (or
/// drop) stops them, reaps every surviving connection and removes the
/// socket file.
pub struct ServerHandle {
    running: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    wakes: Vec<UnixStream>,
    socket: PathBuf,
    stopped: bool,
}

impl ServerHandle {
    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Stops accepting, drains the shards (reaping every connection's fd
    /// table) and joins all daemon threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.running.store(false, Ordering::Release);
        for w in &self.wakes {
            wake(w);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Nudges a shard out of `epoll_wait` (one byte down its wake pipe; a
/// full pipe means a wake is already pending, which is just as good).
fn wake(w: &UnixStream) {
    let mut wref = w;
    let _ = wref.write(&[1u8]);
}

fn acceptor<F: Served>(
    fs: &F,
    listener: UnixListener,
    running: &AtomicBool,
    queues: &[Arc<SegQueue<(u32, UnixStream)>>],
    wakes: &[UnixStream],
) {
    let stats = fs.gateway_stats();
    let mut next_id: u32 = 1;
    while running.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let id = next_id;
                // Ids are never reused within a u32 wrap; skipping 0
                // keeps "no id" representable in diagnostics.
                next_id = next_id.wrapping_add(1).max(1);
                stats.connections.add(1);
                let shard = id as usize % queues.len();
                queues[shard].push((id, stream));
                wake(&wakes[shard]);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("simurgh-served: accept failed: {e}");
                break;
            }
        }
    }
}

fn shard_loop<F: Served>(
    fs: &F,
    cfg: &ServerConfig,
    running: &AtomicBool,
    incoming: &SegQueue<(u32, UnixStream)>,
    wake_r: &UnixStream,
) -> io::Result<()> {
    let epfd = sys::create()?;
    sys::add(epfd, wake_r.as_raw_fd(), sys::EPOLLIN, WAKE_TOKEN)?;
    let stats = fs.gateway_stats();
    let mut conns: HashMap<u32, Conn> = HashMap::new();
    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 64];
    // The tick bounds both shutdown latency and idle-sweep granularity.
    let tick_ms = (cfg.idle_timeout.as_millis() / 4).clamp(10, 100) as i32;
    while running.load(Ordering::Acquire) {
        let n = sys::wait(epfd, &mut events, tick_ms)?;
        // Adopt connections handed over by the acceptor first, so a wake
        // for a new connection services it in the same iteration.
        while let Some((id, stream)) = incoming.pop() {
            stream.set_nonblocking(true)?;
            sys::add(epfd, stream.as_raw_fd(), sys::EPOLLIN | sys::EPOLLRDHUP, id as u64)?;
            conns.insert(id, Conn::new(id, stream));
        }
        for ev in events.iter().copied().take(n) {
            let (token, bits) = (ev.data, ev.events);
            if token == WAKE_TOKEN {
                let mut sink = [0u8; 64];
                let mut wref = wake_r;
                while matches!(wref.read(&mut sink), Ok(n) if n > 0) {}
                continue;
            }
            let id = token as u32;
            let Some(conn) = conns.get_mut(&id) else { continue };
            let mut alive = bits & sys::EPOLLERR == 0;
            if alive && bits & sys::EPOLLOUT != 0 {
                alive = flush_replies(epfd, conn).is_ok();
            }
            if alive && bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0 {
                alive = handle_readable(fs, stats, cfg, epfd, conn);
            }
            if !alive {
                let conn = conns.remove(&id).expect("conn present");
                close_conn(fs, stats, epfd, conn);
            }
        }
        // Idle / half-open sweep.
        let now = Instant::now();
        let expired: Vec<u32> = conns
            .iter()
            .filter(|(_, c)| now.duration_since(c.last_rx) > cfg.idle_timeout)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let conn = conns.remove(&id).expect("conn present");
            stats.idle_timeouts.add(1);
            close_conn(fs, stats, epfd, conn);
        }
    }
    // Shutdown: every surviving connection is reaped like a dead one.
    for (_, conn) in conns.drain() {
        close_conn(fs, stats, epfd, conn);
    }
    sys::close_fd(epfd);
    Ok(())
}

/// Closes a connection: deregisters it, issues `close` for every
/// descriptor it still holds (under its own server-assigned identity)
/// and counts the disconnect.
fn close_conn<F: Served>(fs: &F, stats: &GatewayStats, epfd: RawFd, mut conn: Conn) {
    let _ = sys::del(epfd, conn.stream.as_raw_fd());
    for fd in conn.fds.drain() {
        if fs.close(&conn.ctx, fd).is_ok() {
            stats.fds_reaped.add(1);
        }
    }
    stats.disconnects.add(1);
}

/// Reads what the socket has, decodes every complete frame, runs the
/// burst, and queues replies. Returns false when the connection must be
/// closed (EOF, error, protocol violation).
fn handle_readable<F: Served>(
    fs: &F,
    stats: &GatewayStats,
    cfg: &ServerConfig,
    epfd: RawFd,
    conn: &mut Conn,
) -> bool {
    let mut tmp = [0u8; 16384];
    let mut eof = false;
    let mut got_bytes = false;
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                got_bytes = true;
                conn.rd.extend_from_slice(&tmp[..n]);
                // A read that did not fill the buffer found the socket
                // drained. The registration is level-triggered, so epoll
                // reports whatever arrives after it, and the read that
                // would return EAGAIN is saved.
                if n < tmp.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                eof = true;
                break;
            }
        }
    }
    if got_bytes {
        conn.last_rx = Instant::now();
    }
    if !process_input(fs, stats, cfg, conn) {
        stats.protocol_errors.add(1);
        return false;
    }
    if eof {
        // Peer is gone; whatever replies are still queued have no reader.
        return false;
    }
    flush_replies(epfd, conn).is_ok()
}

/// Parses and executes every complete frame buffered on `conn`.
/// Returns false on a protocol violation.
fn process_input<F: Served>(
    fs: &F,
    stats: &GatewayStats,
    cfg: &ServerConfig,
    conn: &mut Conn,
) -> bool {
    let mut consumed = 0usize;
    loop {
        match wire::split_frame(&conn.rd[consumed..]) {
            Ok(Some((used, body))) => {
                if !conn.hello_done {
                    match Hello::decode(body) {
                        Ok(h) if h.version == PROTOCOL_VERSION => {
                            conn.hello_done = true;
                            // The fd namespace is the *server-assigned*
                            // connection id; only credentials come from
                            // the client.
                            conn.ctx = ProcCtx::new(conn.id(), h.creds);
                            let ok =
                                HelloOk { version: PROTOCOL_VERSION, conn_id: conn.id() };
                            wire::frame_into(&mut conn.wr, |out| {
                                out.extend_from_slice(&ok.encode())
                            });
                        }
                        _ => return false,
                    }
                } else {
                    match Request::decode(body) {
                        Ok(r) => conn.burst.push(r),
                        Err(_) => return false,
                    }
                }
                consumed += used;
            }
            Ok(None) => break,
            Err(_) => return false,
        }
    }
    conn.rd.drain(..consumed);
    if !conn.burst.is_empty() {
        run_burst(fs, stats, cfg, conn);
    }
    conn.wr.len() - conn.wr_pos <= MAX_PENDING_REPLY
}

/// Admission-checks and executes the decoded burst under a single
/// persistence batch, framing each reply in request order straight into
/// the connection's write buffer.
fn run_burst<F: Served>(fs: &F, stats: &GatewayStats, cfg: &ServerConfig, conn: &mut Conn) {
    let Conn { ctx, burst, wr, fds, .. } = conn;
    let limit = cfg.max_in_flight as u64;
    // One reading per burst: the gauge is a sum over every thread's block.
    let in_flight = stats.in_flight.load(Ordering::Relaxed);
    // Admission takes a prefix of the burst, as much as the budget has
    // room for; the rest is refused in order.
    let admitted = (burst.len() as u64).min(limit.saturating_sub(in_flight));
    let mut requests = burst.drain(..);
    if admitted > 0 {
        stats.in_flight.add(admitted);
        fs.with_batch(|| {
            for req in requests.by_ref().take(admitted as usize) {
                serve_into(fs, ctx, req, fds, wr);
            }
        });
        stats.flushes.add(1);
        stats.in_flight.sub(admitted);
        stats.ops.add(admitted);
        if admitted > 1 {
            stats.batched_ops.add(admitted);
        }
    }
    let busy = Response::Busy {
        in_flight: (in_flight + admitted).min(u32::MAX as u64) as u32,
        limit: cfg.max_in_flight,
    };
    for _ in requests {
        stats.admission_rejections.add(1);
        wire::frame_into(wr, |out| busy.encode_into(out));
    }
}

/// Writes queued replies until done or the socket backpressures, arming
/// or disarming `EPOLLOUT` interest to match.
fn flush_replies(epfd: RawFd, conn: &mut Conn) -> io::Result<()> {
    while conn.wr_pos < conn.wr.len() {
        match conn.stream.write(&conn.wr[conn.wr_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.wr_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let drained = conn.wr_pos == conn.wr.len();
    if drained {
        conn.wr.clear();
        conn.wr_pos = 0;
    }
    if drained == conn.want_out {
        // Interest set must flip: backpressured needs EPOLLOUT, drained
        // must drop it (a level-triggered always-writable socket would
        // spin the loop otherwise).
        conn.want_out = !drained;
        let mut bits = sys::EPOLLIN | sys::EPOLLRDHUP;
        if conn.want_out {
            bits |= sys::EPOLLOUT;
        }
        sys::modify(epfd, conn.stream.as_raw_fd(), bits, conn.id() as u64)?;
    }
    Ok(())
}
