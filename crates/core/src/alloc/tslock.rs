//! Timestamp-stamped busy-wait lock with crash stealing.
//!
//! The paper's allocator segments use "an atomic flag per segment ... while
//! a `last_accessed` field stores the timestamp of acquiring this lock.
//! Processes can detect that another process crashed while holding the lock
//! by considering this field, the current time, and the maximum duration
//! that a process is allowed to hold a lock" (§4.2). [`TsLock`] is exactly
//! that: the lock word *is* the acquisition timestamp, and a waiter that
//! observes the same timestamp for longer than the hold limit steals the
//! lock (after which the caller runs whatever recovery the protected
//! structure needs).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn monotonic_us() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    // +1 keeps 0 reserved as the "free" value.
    epoch.elapsed().as_micros() as u64 + 1
}

// ---------------------------------------------------------------------------
// Backoff policy
// ---------------------------------------------------------------------------

/// Cap on pause instructions per backoff round (the plateau of the
/// exponential).
const SPIN_CAP: u32 = 64;
/// Total pause instructions after which backoff rounds start yielding.
/// 1+2+…+64 ≈ 127 pauses reach the plateau; eight plateau rounds (~640
/// pauses total) before conceding the core — roughly the point where the
/// old ladder had yielded ten times.
const YIELD_AFTER: u64 = 640;

/// Per-wait state of the adaptive busy-wait schedule shared by every spin
/// path (segment locks, file rw-locks, directory line flags). Replaces the
/// old fixed ladder — one `pause` per probe, one `yield` every 64th — with
/// bounded exponential backoff: round *r* issues `min(2^r, SPIN_CAP)` pause
/// instructions, and once `YIELD_AFTER` total pauses have been burnt every
/// further round also yields the CPU (oversubscribed-host courtesy).
///
/// The schedule is deterministic (no randomized jitter): waiters desynchronize
/// naturally because their round counters differ, and determinism keeps the
/// crash matrix and the spin-accounting assertions reproducible. Create one
/// per blocking acquisition; call [`wait`](Backoff::wait) once per failed
/// probe.
#[derive(Debug, Default)]
pub struct Backoff {
    round: u32,
    spun: u64,
}

impl Backoff {
    /// One backoff round: exponentially more pause instructions up to the
    /// cap, then cooperative yields. Also feeds the process-wide
    /// [`LockStats`] spin-round counter.
    pub fn wait(&mut self) {
        let n = 1u32.checked_shl(self.round.min(31)).unwrap_or(u32::MAX).min(SPIN_CAP);
        for _ in 0..n {
            std::hint::spin_loop();
        }
        self.round += 1;
        self.spun += n as u64;
        if self.spun >= YIELD_AFTER {
            std::thread::yield_now();
        }
        lock_stats().spin_rounds.add(1);
    }

    /// Rounds waited so far (diagnostics).
    pub fn rounds(&self) -> u32 {
        self.round
    }
}

/// Grace-period clock of a waiter on a flag lock (directory lines, file
/// rw-locks). It starts at the first failed probe, so an uncontended
/// acquisition reads no clock, and restarts after each expiry, so a
/// takeover gives whoever holds the lock next a full period of its own.
#[derive(Debug, Default)]
pub struct Grace(Option<Instant>);

impl Grace {
    /// Records one failed probe. True once the probes have failed for
    /// longer than `max_hold`: the holder is presumed crashed, and the
    /// next failed probe starts a fresh period.
    pub fn expired(&mut self, max_hold: Duration) -> bool {
        match self.0 {
            None => {
                self.0 = Some(Instant::now());
                false
            }
            Some(start) if start.elapsed() > max_hold => {
                self.0 = None;
                true
            }
            Some(_) => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Process-wide lock battery
// ---------------------------------------------------------------------------

simurgh_pmem::counters! {
    /// Process-wide busy-wait accounting, exported through the `ObsRegistry`
    /// lock section: blocking acquisitions, crash steals, and backoff rounds.
    /// Tests assert contention deltas (steals/op, spin-rounds/op) against it.
    pub struct LockStats / LockStatsSnapshot {
        /// Blocking acquisitions completed (any spin path).
        acquires,
        /// Crash steals: a waiter replaced a presumed-dead holder's stamp.
        steals,
        /// Backoff rounds burnt across all waits.
        spin_rounds,
    }
}

/// The process-wide [`LockStats`] battery.
pub fn lock_stats() -> &'static LockStats {
    static STATS: LockStats = LockStats::new();
    &STATS
}

/// A busy-wait lock whose held-state is the acquisition timestamp.
#[derive(Debug, Default)]
pub struct TsLock {
    /// 0 = free; otherwise the µs timestamp at acquisition.
    state: AtomicU64,
}

/// Outcome of an acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquired {
    /// Normal acquisition of a free lock.
    Fresh,
    /// The previous holder exceeded the hold limit and was presumed
    /// crashed; the protected structure may need recovery.
    Stolen,
}

/// RAII guard; releases on drop.
pub struct TsGuard<'a> {
    lock: &'a TsLock,
    stamp: u64,
}

impl TsLock {
    pub const fn new() -> Self {
        TsLock { state: AtomicU64::new(0) }
    }

    /// Single non-blocking attempt.
    pub fn try_acquire(&self) -> Option<TsGuard<'_>> {
        let stamp = monotonic_us();
        self.state
            .compare_exchange(0, stamp, Ordering::AcqRel, Ordering::Acquire)
            .ok()
            .map(|_| TsGuard { lock: self, stamp })
    }

    /// Busy-waits until acquired. If the same holder is observed for longer
    /// than `max_hold`, the lock is stolen and [`Acquired::Stolen`] returned.
    pub fn acquire(&self, max_hold: Duration) -> (TsGuard<'_>, Acquired) {
        let max_us = max_hold.as_micros() as u64;
        let mut backoff = Backoff::default();
        loop {
            if let Some(g) = self.try_acquire() {
                lock_stats().acquires.add(1);
                return (g, Acquired::Fresh);
            }
            let seen = self.state.load(Ordering::Acquire);
            if seen != 0 {
                let now = monotonic_us();
                if now.saturating_sub(seen) > max_us {
                    // Presumed-crashed holder: steal by replacing its stamp.
                    // The holder may in fact be alive but slow (oversubscribed
                    // host), which is why critical sections must re-validate
                    // ownership via `TsGuard::still_owned` before publishing.
                    let stamp = monotonic_us();
                    if self
                        .state
                        .compare_exchange(seen, stamp, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        crate::obs::trace(crate::obs::EventKind::LockSteal, seen, stamp);
                        let stats = lock_stats();
                        stats.acquires.add(1);
                        stats.steals.add(1);
                        return (TsGuard { lock: self, stamp }, Acquired::Stolen);
                    }
                }
            }
            backoff.wait();
        }
    }

    /// Whether the lock is currently held (racy; diagnostics only).
    pub fn is_held(&self) -> bool {
        self.state.load(Ordering::Acquire) != 0
    }

    /// Simulates a crash while holding: leaks the guard so the lock stays
    /// held forever (until stolen). Test helper.
    pub fn crash_while_held(guard: TsGuard<'_>) {
        std::mem::forget(guard);
    }
}

impl TsGuard<'_> {
    /// Whether this guard still owns the lock — i.e. the lock word still
    /// carries our acquisition stamp. A live-but-slow holder that exceeded
    /// `max_hold` may have been stolen from ([`Acquired::Stolen`]) without
    /// noticing; critical sections must call this *immediately before
    /// publishing* their updates and discard the work on loss (the window
    /// between validation and the publishing store is the irreducible
    /// residue; the thief's repair pass covers it).
    pub fn still_owned(&self) -> bool {
        self.lock.state.load(Ordering::Acquire) == self.stamp
    }

    /// The acquisition stamp (µs). Diagnostics: matches the victim/thief
    /// payloads of `LockSteal` trace events.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }
}

impl Drop for TsGuard<'_> {
    fn drop(&mut self) {
        // Release only if we still own it (a stealer may have replaced us).
        let _ = self.lock.state.compare_exchange(
            self.stamp,
            0,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release() {
        let l = TsLock::new();
        assert!(!l.is_held());
        {
            let g = l.try_acquire().unwrap();
            assert!(l.is_held());
            assert!(l.try_acquire().is_none());
            drop(g);
        }
        assert!(!l.is_held());
    }

    #[test]
    fn blocking_acquire_is_fresh_when_free() {
        let l = TsLock::new();
        let (g, how) = l.acquire(Duration::from_millis(50));
        assert_eq!(how, Acquired::Fresh);
        drop(g);
    }

    #[test]
    fn steal_after_crash() {
        let l = TsLock::new();
        let g = l.try_acquire().unwrap();
        TsLock::crash_while_held(g);
        assert!(l.is_held());
        let start = Instant::now();
        let (g2, how) = l.acquire(Duration::from_millis(10));
        assert_eq!(how, Acquired::Stolen);
        assert!(start.elapsed() >= Duration::from_millis(10));
        drop(g2);
        assert!(!l.is_held());
    }

    #[test]
    fn stale_guard_release_does_not_free_stolen_lock() {
        let l = TsLock::new();
        let g1 = l.try_acquire().unwrap();
        // Simulate: holder stalls past the limit, lock gets stolen...
        let stale = TsGuard { lock: &l, stamp: g1.stamp };
        std::mem::forget(g1);
        std::thread::sleep(Duration::from_millis(12));
        let (g2, how) = l.acquire(Duration::from_millis(10));
        assert_eq!(how, Acquired::Stolen);
        // ...then the stale holder "wakes up" and releases: must be a no-op.
        drop(stale);
        assert!(l.is_held(), "stolen lock still held by new owner");
        drop(g2);
        assert!(!l.is_held());
    }

    #[test]
    fn still_owned_flips_on_steal() {
        let l = TsLock::new();
        let g1 = l.try_acquire().unwrap();
        assert!(g1.still_owned());
        let stale = TsGuard { lock: &l, stamp: g1.stamp };
        std::mem::forget(g1);
        std::thread::sleep(Duration::from_millis(12));
        let (g2, how) = l.acquire(Duration::from_millis(10));
        assert_eq!(how, Acquired::Stolen);
        assert!(!stale.still_owned(), "victim must observe the loss");
        assert!(g2.still_owned());
        drop(stale); // stale release is a no-op
        assert!(g2.still_owned());
    }

    #[test]
    fn every_steal_is_traced_exactly_once() {
        // Satellite: steal under contention — each steal must appear in the
        // trace ring exactly once, with the right victim/thief stamp pair.
        // Other tests in this process also trace; we filter by our own
        // stamps, which the global µs clock makes unique.
        use std::sync::Mutex;

        const THREADS: usize = 4;
        const STEALS: usize = 25;
        let expected = Mutex::new(Vec::<(u64, u64)>::new());
        crossbeam::thread::scope(|s| {
            for _ in 0..THREADS {
                let expected = &expected;
                s.spawn(move |_| {
                    let l = TsLock::new();
                    let mut mine = Vec::with_capacity(STEALS);
                    for _ in 0..STEALS {
                        let g = l.try_acquire().unwrap();
                        let victim = g.stamp();
                        TsLock::crash_while_held(g);
                        std::thread::sleep(Duration::from_millis(2));
                        let (g2, how) = l.acquire(Duration::from_millis(1));
                        assert_eq!(how, Acquired::Stolen);
                        mine.push((victim, g2.stamp()));
                        drop(g2);
                    }
                    expected.lock().unwrap().extend(mine);
                });
            }
        })
        .unwrap();

        let expected = expected.into_inner().unwrap();
        assert_eq!(expected.len(), THREADS * STEALS);
        let events = crate::obs::recent(crate::obs::RING_EVENTS);
        for &(victim, thief) in &expected {
            let hits = events
                .iter()
                .filter(|e| {
                    e.kind == crate::obs::EventKind::LockSteal
                        && e.a == victim
                        && e.b == thief
                })
                .count();
            // µs stamps can collide across lockstep threads, so compare
            // against the pair's multiplicity, not a bare 1.
            let want = expected.iter().filter(|&&p| p == (victim, thief)).count();
            assert_eq!(hits, want, "steal ({victim} -> {thief}) traced {hits}/{want} times");
        }
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let mut b = Backoff::default();
        let before = lock_stats().spin_rounds.load(Ordering::Relaxed);
        for _ in 0..10 {
            b.wait(); // 1,2,4,…,64,64,64,64 — capped at the plateau
        }
        assert_eq!(b.rounds(), 10);
        assert_eq!(b.spun, 1 + 2 + 4 + 8 + 16 + 32 + u64::from(SPIN_CAP) * 4);
        assert!(b.spun < YIELD_AFTER, "ten rounds stay below the yield threshold");
        assert!(
            lock_stats().spin_rounds.load(Ordering::Relaxed) >= before + 8,
            "rounds feed the process-wide battery"
        );
    }

    #[test]
    fn acquisitions_and_steals_feed_lock_stats() {
        let stats = lock_stats();
        let (a0, s0) =
            (stats.acquires.load(Ordering::Relaxed), stats.steals.load(Ordering::Relaxed));
        let l = TsLock::new();
        let (g, how) = l.acquire(Duration::from_millis(50));
        assert_eq!(how, Acquired::Fresh);
        drop(g);
        let g = l.try_acquire().unwrap();
        TsLock::crash_while_held(g);
        let (g2, how) = l.acquire(Duration::from_millis(5));
        assert_eq!(how, Acquired::Stolen);
        drop(g2);
        // Other tests run concurrently, so the battery is monotone, not exact.
        assert!(stats.acquires.load(Ordering::Relaxed) >= a0 + 2);
        assert!(stats.steals.load(Ordering::Relaxed) > s0);
        let j = stats.snapshot().to_json();
        assert!(j.contains("\"acquires\":") && j.contains("\"steals\":"));
    }

    #[test]
    fn contention_is_mutual_exclusion() {
        let l = std::sync::Arc::new(TsLock::new());
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                let l = &l;
                let counter = &counter;
                s.spawn(move |_| {
                    for _ in 0..200 {
                        let (g, _) = l.acquire(Duration::from_secs(5));
                        // Non-atomic-looking critical section.
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        drop(g);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 800);
    }
}
