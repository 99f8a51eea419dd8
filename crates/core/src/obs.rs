//! Unified observability layer (DESIGN.md "Observability").
//!
//! The paper's premise is that the kernel is out of the loop (§3) — which
//! also puts kernel-side tracing (blktrace, perf syscall accounting) out of
//! the loop. A user-space NVMM FS has to carry its own observability. This
//! module is that substrate, three layers deep:
//!
//! 1. **[`ObsRegistry`]** — one registry absorbing every counter surface the
//!    workspace grew separately (`DirStats`, `DataStats`, pmem's
//!    `StatsSnapshot`, the fsapi `OpTimers` breakdown and the `AllocFaults`
//!    injector) plus per-op latency histograms, rendered by one
//!    [`ObsRegistry::to_json`] (exported as `paper obs [--json]`).
//! 2. **Latency histograms** — log2-bucket [`Histogram`]s around every
//!    `FileSystem` op (keyed by the wire table's `RequestKind`) and each
//!    mount/recovery [`Phase`], driven by [`ObsRegistry::time_op`] and
//!    reported per op as count/p50/p99/max. Recording is two relaxed atomic
//!    RMWs per op; quantiles are computed at snapshot time.
//! 3. **Trace ring** — a lock-free fixed-size per-thread ring of
//!    [`TraceEvent`]s ([`trace`]) recording op begin/end, `TsLock` steals,
//!    busy-flag timeouts, alloc-fault injections and sfence boundaries.
//!    Writers never block or allocate after ring setup; [`recent`] drains a
//!    best-effort snapshot on demand. The **flight recorder**
//!    ([`flight_dump`]) renders the last N events per thread as text lines
//!    for embedding in failure reports (crash-matrix cells attach it to
//!    their `failures` output; `crashlab matrix --trace` prints it).
//!
//! The ring is global to the process (threads outlive file systems, and a
//! steal event has no natural owner fs), so drains from concurrent tests
//! interleave; consumers filter by payload (e.g. their own lock stamps).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use simurgh_fsapi::wire::RequestKind;
use simurgh_fsapi::{OpTimers, TimerCategory};

// ---------------------------------------------------------------------------
// Phase vocabulary
// ---------------------------------------------------------------------------

/// Mount and recovery phases. Each gets a latency histogram next to the
/// per-op ones, which are keyed by the wire table's [`RequestKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Mount,
    RecoverMark,
    RecoverRepair,
    RecoverSweep,
    RecoverRebuild,
}

impl Phase {
    /// Every phase, in histogram-index order.
    pub const ALL: [Phase; 5] = [
        Phase::Mount,
        Phase::RecoverMark,
        Phase::RecoverRepair,
        Phase::RecoverSweep,
        Phase::RecoverRebuild,
    ];

    /// Stable lowercase name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Mount => "mount",
            Phase::RecoverMark => "recover_mark",
            Phase::RecoverRepair => "recover_repair",
            Phase::RecoverSweep => "recover_sweep",
            Phase::RecoverRebuild => "recover_rebuild",
        }
    }
}

// ---------------------------------------------------------------------------
// Log2-bucket latency histogram
// ---------------------------------------------------------------------------

/// Number of log2 buckets: bucket `i` holds samples in `[2^(i-1), 2^i)` ns
/// (bucket 0 holds 0-ns samples), so 64 buckets cover every `u64`.
const BUCKETS: usize = 64;

/// A lock-free log2-bucket latency histogram. Recording is one relaxed
/// `fetch_add` plus one relaxed `fetch_max`; the exact maximum is kept so
/// the tail is never rounded to a bucket boundary.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    max_ns: AtomicU64,
}

/// Point-in-time quantile summary of one [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Upper bound of the bucket holding the median, in ns.
    pub p50_ns: u64,
    /// Upper bound of the bucket holding the 99th percentile, in ns.
    pub p99_ns: u64,
    /// Exact largest sample, in ns.
    pub max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram. Public so out-of-crate recorders (the gateway
    /// load generator measures client-side latency) can reuse the same
    /// bucketing as the in-FS probes.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max_ns: AtomicU64::new(0),
        }
    }

    fn bucket_of(ns: u64) -> usize {
        ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one sample of `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Inclusive upper bound of bucket `i` in ns.
    fn upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i) - 1
        }
    }

    /// Captures count/p50/p99/max. Quantiles are bucket upper bounds (≤ one
    /// power of two above the true value), capped at the exact max.
    pub fn snapshot(&self) -> HistSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        if count == 0 {
            return HistSnapshot::default();
        }
        let quantile = |q_num: u64, q_den: u64| -> u64 {
            let target = (count * q_num).div_ceil(q_den).max(1);
            let mut cum = 0u64;
            for (i, c) in counts.iter().enumerate() {
                cum += c;
                if cum >= target {
                    return Histogram::upper(i).min(max_ns);
                }
            }
            max_ns
        };
        HistSnapshot { count, p50_ns: quantile(1, 2), p99_ns: quantile(99, 100), max_ns }
    }
}

// ---------------------------------------------------------------------------
// Gateway counters
// ---------------------------------------------------------------------------

/// Counter battery of the `simurgh-served` gateway: connection lifecycle,
/// admission control and batch-flush accounting. Owned by the
/// [`ObsRegistry`] so `paper obs` reports a `gateway` section without any
/// extra plumbing; the serving crate bumps these through
/// `SimurghFs::obs()`. All fields are relaxed monotonic counters except
/// [`in_flight`](Self::in_flight), which is a gauge.
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Connections accepted over the daemon's lifetime.
    pub connections: AtomicU64,
    /// Connections closed, for any reason (client EOF, kill, timeout,
    /// protocol error, shutdown).
    pub disconnects: AtomicU64,
    /// Gauge: ops decoded but not yet answered, across all connections.
    pub in_flight: AtomicU64,
    /// Ops dispatched into the file system (admission rejections excluded).
    pub ops: AtomicU64,
    /// Ops that shared a fence-scope flush with at least one pipelined
    /// sibling — the gateway's group-commit win.
    pub batched_ops: AtomicU64,
    /// Batch flushes: one per drained pipeline burst (fence-scope commit).
    pub flushes: AtomicU64,
    /// Requests refused with `Busy` because the in-flight budget was spent.
    pub admission_rejections: AtomicU64,
    /// Descriptors force-closed when their connection died with fds open.
    pub fds_reaped: AtomicU64,
    /// Connections closed by the idle/half-open deadline.
    pub idle_timeouts: AtomicU64,
    /// Connections dropped for unparseable or oversized frames.
    pub protocol_errors: AtomicU64,
}

impl GatewayStats {
    /// An all-zero battery.
    pub const fn new() -> Self {
        GatewayStats {
            connections: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            batched_ops: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            admission_rejections: AtomicU64::new(0),
            fds_reaped: AtomicU64::new(0),
            idle_timeouts: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        }
    }

    /// Relaxed `+1` on one counter (the gateway's hot-path increment).
    pub fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed read of one counter.
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// The `"gateway"` JSON object of [`ObsRegistry::to_json`].
    pub fn to_json(&self) -> String {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            "{{\"connections\":{},\"disconnects\":{},\"in_flight\":{},\"ops\":{},\
             \"batched_ops\":{},\"flushes\":{},\"admission_rejections\":{},\
             \"fds_reaped\":{},\"idle_timeouts\":{},\"protocol_errors\":{}}}",
            g(&self.connections),
            g(&self.disconnects),
            g(&self.in_flight),
            g(&self.ops),
            g(&self.batched_ops),
            g(&self.flushes),
            g(&self.admission_rejections),
            g(&self.fds_reaped),
            g(&self.idle_timeouts),
            g(&self.protocol_errors),
        )
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One latency histogram per wire op and per [`Phase`], plus the single
/// `to_json` front door for every counter surface in the workspace.
pub struct ObsRegistry {
    ops: [Histogram; RequestKind::COUNT],
    phases: [Histogram; Phase::ALL.len()],
    /// Serving-gateway counters (`simurgh-served`); zero when this mount
    /// is not behind a daemon.
    pub gateway: GatewayStats,
}

impl Default for ObsRegistry {
    fn default() -> Self {
        ObsRegistry::new()
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

impl ObsRegistry {
    /// An empty registry (all histograms zero).
    pub fn new() -> Self {
        ObsRegistry {
            ops: std::array::from_fn(|_| Histogram::new()),
            phases: std::array::from_fn(|_| Histogram::new()),
            gateway: GatewayStats::new(),
        }
    }

    /// Runs one `FileSystem` op between `OpBegin`/`OpEnd` trace events and
    /// reads the clock once around it: that one duration feeds both the
    /// op's latency histogram and the `Fs` share of `timers`.
    pub fn time_op<R>(&self, kind: RequestKind, timers: &OpTimers, f: impl FnOnce() -> R) -> R {
        trace(EventKind::OpBegin, kind as u64, 0);
        let start = Instant::now();
        let out = f();
        let ns = nanos(start.elapsed());
        self.ops[kind as usize].record(ns);
        timers.charge(TimerCategory::Fs, ns);
        trace(EventKind::OpEnd, kind as u64, ns);
        out
    }

    /// Records an externally measured mount/recovery phase duration.
    pub fn record_phase(&self, phase: Phase, d: Duration) {
        self.phases[phase as usize].record(nanos(d));
    }

    /// Quantile summary for one op.
    pub fn snapshot(&self, kind: RequestKind) -> HistSnapshot {
        self.ops[kind as usize].snapshot()
    }

    /// `(name, summary)` of every op (by trait method name) and then every
    /// phase, including empty ones.
    pub fn latencies(&self) -> impl Iterator<Item = (&'static str, HistSnapshot)> + '_ {
        let ops = RequestKind::ALL.into_iter().map(|k| (k.method_name(), self.snapshot(k)));
        let phases = Phase::ALL.into_iter().map(|p| (p.name(), self.phases[p as usize].snapshot()));
        ops.chain(phases)
    }

    /// The `"latency"` JSON object: one entry per op or phase with at least
    /// one sample, as `{"count":…,"p50_ns":…,"p99_ns":…,"max_ns":…}`.
    pub fn latency_json(&self) -> String {
        let entries: Vec<String> = self
            .latencies()
            .filter(|(_, s)| s.count > 0)
            .map(|(name, s)| {
                format!(
                    "\"{name}\":{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                    s.count, s.p50_ns, s.p99_ns, s.max_ns
                )
            })
            .collect();
        format!("{{{}}}", entries.join(","))
    }

    /// Renders the whole unified registry as one JSON object, absorbing the
    /// previously separate surfaces: `DirStats` (as its snapshot), `DataStats`
    /// (likewise), pmem traffic, the fsapi `OpTimers` wall-clock breakdown
    /// and the `AllocFaults` injector counters, plus the latency histograms,
    /// the allocator round-trip counters ([`MetaAllocator`] pool trips,
    /// [`BlockAlloc`] segment trips), the process-wide [`LockStats`]
    /// busy-wait battery and the [`FragStats`] fragmentation/compaction
    /// battery (with its live allocator gauges and the `(files, extents)`
    /// census the mount supplies).
    ///
    /// [`MetaAllocator`]: crate::alloc::MetaAllocator
    /// [`BlockAlloc`]: crate::alloc::BlockAlloc
    /// [`LockStats`]: crate::alloc::LockStats
    /// [`FragStats`]: crate::compact::FragStats
    // One parameter per absorbed surface: the registry is the single place
    // these meet, and the obs-coverage rule keys on the typed signature.
    #[allow(clippy::too_many_arguments)]
    pub fn to_json(
        &self,
        dir: &crate::dir::DirStatsSnapshot,
        data: &crate::file::DataStatsSnapshot,
        pmem: &simurgh_pmem::stats::StatsSnapshot,
        timers: &OpTimers,
        faults: &crate::alloc::AllocFaults,
        meta: &crate::alloc::MetaAllocator,
        blocks: &crate::alloc::BlockAlloc,
        lock: &crate::alloc::LockStats,
        frag: &crate::compact::FragStats,
        census: (u64, u64),
    ) -> String {
        let alloc = format!(
            "{{\"pool_trips\":{},\"seg_trips\":{}}}",
            meta.pool_trips(),
            blocks.seg_trips()
        );
        format!(
            "{{\"latency\":{},\"dir\":{},\"data\":{},\"pmem\":{},\"timers\":{},\
             \"alloc_faults\":{},\"alloc\":{},\"lock\":{},\"gateway\":{},\"frag\":{}}}",
            self.latency_json(),
            dir.to_json(),
            data.to_json(),
            pmem.to_json(),
            timers.to_json(),
            faults.to_json(),
            alloc,
            lock.to_json(),
            self.gateway.to_json(),
            frag.to_json(blocks, census.0, census.1)
        )
    }
}

// ---------------------------------------------------------------------------
// Per-thread trace ring
// ---------------------------------------------------------------------------

/// Events in the ring each thread keeps the last [`RING_EVENTS`] of.
pub const RING_EVENTS: usize = 1024;

/// Trace event vocabulary. Payload meaning per kind:
///
/// | kind | `a` | `b` |
/// |---|---|---|
/// | `OpBegin` / `OpEnd` | [`RequestKind`] index | 0 / duration ns |
/// | `LockSteal` (TsLock) | victim stamp (µs) | thief stamp (µs) |
/// | `LockSteal` (busy line) | first hash block offset | line index |
/// | `BusyTimeout` | lock/flag address or line | observed word |
/// | `AllocFault` | k-th attempt injected | 0 meta / 1 data |
/// | `Fence` | running fence count | 0 |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    OpBegin,
    OpEnd,
    LockSteal,
    BusyTimeout,
    AllocFault,
    Fence,
}

impl EventKind {
    fn encode(self) -> u64 {
        match self {
            EventKind::OpBegin => 1,
            EventKind::OpEnd => 2,
            EventKind::LockSteal => 3,
            EventKind::BusyTimeout => 4,
            EventKind::AllocFault => 5,
            EventKind::Fence => 6,
        }
    }

    fn decode(v: u64) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::OpBegin,
            2 => EventKind::OpEnd,
            3 => EventKind::LockSteal,
            4 => EventKind::BusyTimeout,
            5 => EventKind::AllocFault,
            6 => EventKind::Fence,
            _ => return None,
        })
    }
}

/// One drained trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Globally ordered sequence number (allocation order, not retirement).
    pub seq: u64,
    /// Small per-thread id (assigned at the thread's first trace).
    pub tid: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (see [`EventKind`]).
    pub a: u64,
    /// Second payload word (see [`EventKind`]).
    pub b: u64,
}

impl TraceEvent {
    /// One-line human/grep-friendly rendering. Contains no characters that
    /// need JSON escaping, so flight-recorder dumps embed it verbatim.
    pub fn render(&self) -> String {
        let head = format!("t{} #{}", self.tid, self.seq);
        let op_name =
            |idx: u64| RequestKind::ALL.get(idx as usize).map_or("?", |k| k.method_name());
        match self.kind {
            EventKind::OpBegin => format!("{head} op_begin {}", op_name(self.a)),
            EventKind::OpEnd => format!("{head} op_end {} dur_ns={}", op_name(self.a), self.b),
            EventKind::LockSteal => {
                format!("{head} lock_steal victim={} thief={}", self.a, self.b)
            }
            EventKind::BusyTimeout => {
                format!("{head} busy_timeout at={} word={:#x}", self.a, self.b)
            }
            EventKind::AllocFault => format!(
                "{head} alloc_fault k={} site={}",
                self.a,
                if self.b == 0 { "meta" } else { "data" }
            ),
            EventKind::Fence => format!("{head} fence n={}", self.a),
        }
    }
}

/// One ring slot. The owning thread writes `seq = 0`, then the payload,
/// then the real `seq` (release); readers accept a slot only if `seq` is
/// nonzero and unchanged across reading the payload.
struct Slot {
    seq: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// A single-writer trace ring. Only the owning thread stores; any thread
/// may read a best-effort snapshot.
struct Ring {
    tid: u64,
    /// Next write position; written only by the owner, read by drainers.
    widx: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u64) -> Self {
        let slots = (0..RING_EVENTS)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect();
        Ring { tid, widx: AtomicU64::new(0), slots }
    }

    /// Owner-only append.
    fn push(&self, seq: u64, kind: EventKind, a: u64, b: u64) {
        let i = self.widx.load(Ordering::Relaxed);
        let slot = &self.slots[(i as usize) % RING_EVENTS];
        slot.seq.store(0, Ordering::Release); // invalidate for racing readers
        slot.kind.store(kind.encode(), Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
        self.widx.store(i + 1, Ordering::Release);
    }

    /// Best-effort snapshot of currently valid slots.
    fn drain(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(RING_EVENTS);
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 {
                continue;
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue; // torn by a concurrent overwrite — drop it
            }
            let Some(kind) = EventKind::decode(kind) else { continue };
            out.push(TraceEvent { seq: s1, tid: self.tid, kind, a, b });
        }
        out
    }
}

/// Global event ordering. Starts at 1 so `seq == 0` can mean "empty slot".
static SEQ: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// This thread's ring; created (and registered globally) on first use.
    static MY_RING: Arc<Ring> = {
        let ring = Arc::new(Ring::new(NEXT_TID.fetch_add(1, Ordering::Relaxed)));
        rings().lock().expect("ring registry").push(Arc::clone(&ring));
        ring
    };
}

/// Appends one event to the calling thread's ring. Lock-free and
/// allocation-free after the thread's first call.
pub fn trace(kind: EventKind, a: u64, b: u64) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    MY_RING.with(|r| r.push(seq, kind, a, b));
}

/// Drains up to the `per_thread` most recent events from every thread's
/// ring, merged and sorted by sequence number. Best-effort under concurrent
/// writers (in-flight slots are skipped, never misread).
pub fn recent(per_thread: usize) -> Vec<TraceEvent> {
    let rings: Vec<Arc<Ring>> =
        rings().lock().expect("ring registry").iter().map(Arc::clone).collect();
    let mut all = Vec::new();
    for ring in rings {
        let mut evs = ring.drain();
        evs.sort_by_key(|e| std::cmp::Reverse(e.seq));
        evs.truncate(per_thread);
        all.extend(evs);
    }
    all.sort_by_key(|e| e.seq);
    all
}

/// Flight recorder: the last `per_thread` events per thread, rendered as
/// text lines safe to embed in JSON string arrays without escaping.
pub fn flight_dump(per_thread: usize) -> Vec<String> {
    recent(per_thread).iter().map(TraceEvent::render).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_cover_spread() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 7, upper 127
        }
        h.record(1_000_000); // lone tail sample
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_ns, 1_000_000);
        assert!(s.p50_ns >= 100 && s.p50_ns < 256, "p50 {}", s.p50_ns);
        // p99 target is the 99th sample, still in the 100-ns bucket.
        assert!(s.p99_ns < 256, "p99 {}", s.p99_ns);
        assert!(s.p99_ns <= s.max_ns);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.snapshot(), HistSnapshot::default());
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.max_ns, 0);
    }

    #[test]
    fn timer_records_into_registry_and_ring() {
        let reg = ObsRegistry::new();
        let timers = OpTimers::default();
        assert_eq!(reg.time_op(RequestKind::Mkdir, &timers, || 7), 7);
        let s = reg.snapshot(RequestKind::Mkdir);
        assert_eq!(s.count, 1);
        // The same single reading feeds the Table 1 `Fs` share.
        assert_eq!(timers.ops(), 1);
        assert_eq!(timers.fs_ns(), s.max_ns);
        let evs = recent(RING_EVENTS);
        let op = RequestKind::Mkdir as u64;
        let begin = evs.iter().any(|e| e.kind == EventKind::OpBegin && e.a == op);
        let end = evs.iter().any(|e| e.kind == EventKind::OpEnd && e.a == op);
        assert!(begin && end, "{evs:?}");
    }

    #[test]
    fn ring_keeps_most_recent_on_wrap() {
        // Use a distinctive payload so concurrent tests don't interfere.
        let tag = 0xD15C_0B5E_u64;
        for i in 0..(RING_EVENTS as u64 + 10) {
            trace(EventKind::BusyTimeout, tag, i);
        }
        let evs = recent(RING_EVENTS);
        let mine: Vec<u64> = evs
            .iter()
            .filter(|e| e.kind == EventKind::BusyTimeout && e.a == tag)
            .map(|e| e.b)
            .collect();
        // The oldest 10 were overwritten; the newest survive in order.
        assert!(mine.len() <= RING_EVENTS);
        assert_eq!(*mine.last().expect("events"), RING_EVENTS as u64 + 9);
        assert!(mine.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn render_is_json_embeddable() {
        let e = TraceEvent {
            seq: 7,
            tid: 1,
            kind: EventKind::LockSteal,
            a: 100,
            b: 200,
        };
        let r = e.render();
        assert!(r.contains("lock_steal"));
        assert!(r.contains("victim=100"));
        assert!(r.contains("thief=200"));
        assert!(!r.contains('"') && !r.contains('\\'), "{r}");
    }

    #[test]
    fn op_names_are_unique_and_indexed() {
        let reg = ObsRegistry::new();
        let mut names: Vec<&str> = reg.latencies().map(|(name, _)| name).collect();
        assert_eq!(names.len(), RequestKind::COUNT + Phase::ALL.len());
        names.sort();
        names.dedup();
        assert_eq!(names.len(), RequestKind::COUNT + Phase::ALL.len());
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(*phase as usize, i);
        }
        for (i, kind) in RequestKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
    }
}
