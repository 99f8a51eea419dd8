//! Per-thread statistic cells: every statistic in the workspace is kept
//! here, one block per thread, so that no two threads write one cache line.
//!
//! A statistic that every op bumps must not be one shared atomic: two
//! threads bumping it bounce its line between their cores on every op, a
//! central lock implemented in hardware. So each statistic is a
//! [`PerThread`] value with one block per *thread slot*:
//! - A thread takes one of [`SLOTS`] slots on its first write and hands it
//!   back when it exits. Threads beyond `SLOTS` share one overflow slot.
//! - A block is allocated on its slot's first write and is 128-byte
//!   aligned, so no two slots share a line (or an adjacent-line prefetch
//!   pair).
//! - Writers update their block with relaxed read-modify-writes. Only the
//!   slot's owner writes a block (the overflow block excepted), so the
//!   line stays in its writer's cache between reads.
//! - Blocks belong to the statistic, not to the thread: an exited thread's
//!   counts stay, and the next owner of its slot adds on top of them.
//! - A read sums the allocated blocks with wrapping adds, so a gauge may
//!   rise on one thread and fall on another. It is exact once the writers
//!   are quiescent.
//!
//! # Cost when unoptimized
//!
//! A bump is a thread-local read, a pointer load and an add: a few ns when
//! optimized, but a dozen nested std calls at `opt-level = 0`, where it
//! would cost several times the shared `fetch_add` it replaces and swamp
//! the debug build's timings of the code it measures. So the workspace
//! builds this crate at opt-level 3 in the dev profile too (the root
//! `Cargo.toml`), and [`Counter::add`] and the slot lookup are deliberately
//! not `#[inline]`: an unoptimized caller makes one call into the optimized
//! copy. Release builds inline them across crates through LTO.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Thread slots with blocks of their own; later threads share one more.
pub const SLOTS: usize = 32;

/// The slot shared by the threads beyond [`SLOTS`].
const OVERFLOW: usize = SLOTS;

const _: () = assert!(SLOTS >= 1 && SLOTS <= 64, "the free-slot map is one u64");

/// Bit `i` is set while slot `i` has no owner.
static FREE_SLOTS: AtomicU64 = AtomicU64::new(u64::MAX >> (64 - SLOTS));

thread_local! {
    /// The calling thread's slot; above [`OVERFLOW`] until its first write.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Hands the slot back when the thread exits.
    static RELEASE: SlotRelease = const { SlotRelease };
}

struct SlotRelease;

impl Drop for SlotRelease {
    fn drop(&mut self) {
        // Writes from thread-local destructors that run after this one go
        // to the overflow blocks.
        let slot = SLOT.with(|s| s.replace(OVERFLOW));
        if slot < SLOTS {
            // Release: our last block writes happen before the next owner's.
            FREE_SLOTS.fetch_or(1 << slot, Ordering::Release);
        }
    }
}

/// The calling thread's slot, taken on its first call. Not `#[inline]`:
/// see the [crate docs](crate).
fn my_slot() -> usize {
    let slot = SLOT.get();
    if slot <= OVERFLOW {
        slot
    } else {
        take_slot()
    }
}

#[cold]
fn take_slot() -> usize {
    let mut free = FREE_SLOTS.load(Ordering::Relaxed);
    let mut slot = loop {
        if free == 0 {
            break OVERFLOW;
        }
        let lowest = free.trailing_zeros() as usize;
        match FREE_SLOTS.compare_exchange_weak(
            free,
            free & !(1 << lowest),
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => break lowest,
            Err(now) => free = now,
        }
    };
    if slot < SLOTS && RELEASE.try_with(|_| ()).is_err() {
        // The thread is past its own destructors: nothing would hand the
        // slot back.
        FREE_SLOTS.fetch_or(1 << slot, Ordering::Release);
        slot = OVERFLOW;
    }
    SLOT.with(|s| s.set(slot));
    slot
}

/// One slot's block. The alignment keeps every slot's writes on lines of
/// its own.
#[repr(align(128))]
struct Block<T>(T);

const _: () = assert!(std::mem::align_of::<Block<AtomicU64>>() >= 128);

/// A value kept once per thread slot: the calling thread writes its own
/// block through [`local`](Self::local), any thread reads them all
/// through [`blocks`](Self::blocks). See the [crate docs](crate).
pub struct PerThread<T> {
    blocks: [AtomicPtr<Block<T>>; SLOTS + 1],
    _owns: PhantomData<Box<T>>,
}

impl<T> PerThread<T> {
    /// No blocks yet. A `const fn`, so a statistic can be a `static`.
    pub const fn new() -> Self {
        let blocks = [const { AtomicPtr::new(ptr::null_mut()) }; SLOTS + 1];
        PerThread { blocks, _owns: PhantomData }
    }

    /// Every block allocated so far.
    pub fn blocks(&self) -> impl Iterator<Item = &T> {
        self.blocks.iter().filter_map(|b| {
            // SAFETY: a non-null pointer is a block `alloc` published; it is
            // freed only by `drop`, which `&self` excludes.
            unsafe { b.load(Ordering::Acquire).as_ref() }.map(|b| &b.0)
        })
    }
}

impl<T: Default> PerThread<T> {
    /// The calling thread's block, allocated on its slot's first write.
    /// Other threads share it only in the overflow slot, so update it with
    /// read-modify-writes.
    #[inline]
    pub fn local(&self) -> &T {
        let slot = my_slot();
        let p = self.blocks[slot].load(Ordering::Acquire);
        if p.is_null() {
            &self.alloc(slot).0
        } else {
            // SAFETY: as in `blocks`.
            unsafe { &(*p).0 }
        }
    }

    #[cold]
    fn alloc(&self, slot: usize) -> &Block<T> {
        let fresh = Box::into_raw(Box::new(Block(T::default())));
        match self.blocks[slot].compare_exchange(
            ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // SAFETY: published just now; freed only by `drop`.
            Ok(_) => unsafe { &*fresh },
            Err(won) => {
                // Another overflow thread published first.
                // SAFETY: `fresh` came from `Box::into_raw` and was never shared.
                drop(unsafe { Box::from_raw(fresh) });
                // SAFETY: `won` is live as in `blocks`.
                unsafe { &*won }
            }
        }
    }
}

impl<T> Default for PerThread<T> {
    fn default() -> Self {
        PerThread::new()
    }
}

impl<T> Drop for PerThread<T> {
    fn drop(&mut self) {
        for b in &mut self.blocks {
            let p = *b.get_mut();
            if !p.is_null() {
                // SAFETY: `alloc` made it with `Box::into_raw`; `&mut self`
                // excludes every reader and writer.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// One statistic: a `u64` per thread slot, read as the wrapping sum of
/// all of them.
#[derive(Default)]
pub struct Counter(PerThread<AtomicU64>);

impl Counter {
    /// A zero counter.
    pub const fn new() -> Self {
        Counter(PerThread::new())
    }

    /// Adds `n` on the calling thread's block. Not `#[inline]`: see the
    /// [crate docs](crate).
    pub fn add(&self, n: u64) {
        self.0.local().fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` on the calling thread's block (gauges: the sum wraps
    /// back however the adds and subtracts are spread over threads).
    pub fn sub(&self, n: u64) {
        self.add(n.wrapping_neg());
    }

    /// The total over all threads, each block read with `order`.
    pub fn load(&self, order: Ordering) -> u64 {
        self.0.blocks().fold(0, |sum, cell| sum.wrapping_add(cell.load(order)))
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.load(Ordering::Relaxed).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex, MutexGuard};
    use std::thread;

    /// Every test here takes thread slots, and one watches which slot a
    /// new thread gets: they run one at a time, and only on threads they
    /// spawn and join, so no test holds a slot while another counts on it.
    fn one_at_a_time() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn an_exited_threads_counts_stay_and_its_slot_adds_on_top() {
        let _serial = one_at_a_time();
        let c = Counter::new();
        let bump = |n| {
            c.add(n);
            my_slot()
        };
        let first = thread::scope(|s| s.spawn(|| bump(5)).join().unwrap());
        assert_eq!(c.load(Ordering::Relaxed), 5, "the exited thread's count survives");
        // A freed slot is the lowest free one, so the next thread takes it.
        let blocks = c.0.blocks().count();
        let next = thread::scope(|s| s.spawn(|| bump(1)).join().unwrap());
        assert_eq!(next, first, "the next thread takes the freed slot");
        assert_eq!(c.0.blocks().count(), blocks, "and adds on top of its block");
        assert_eq!(c.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn threads_beyond_the_slots_stay_exact_in_the_overflow_block() {
        const EXTRA: usize = 8;
        const BUMPS: u64 = 2_000;
        let _serial = one_at_a_time();
        let c = Counter::new();
        let all_in = Barrier::new(SLOTS + EXTRA);
        thread::scope(|scope| {
            for _ in 0..SLOTS + EXTRA {
                scope.spawn(|| {
                    c.add(1);
                    // Every thread holds its slot at once: at least EXTRA
                    // of them share the overflow slot.
                    all_in.wait();
                    for _ in 1..BUMPS {
                        c.add(1);
                    }
                });
            }
        });
        assert!(!c.0.blocks[OVERFLOW].load(Ordering::Relaxed).is_null(), "overflow unused");
        assert_eq!(c.load(Ordering::Relaxed), (SLOTS + EXTRA) as u64 * BUMPS);
    }

    #[test]
    fn a_gauge_raised_on_one_thread_and_lowered_on_another_sums_to_zero() {
        let _serial = one_at_a_time();
        let g = Counter::new();
        thread::scope(|s| {
            s.spawn(|| g.add(7)).join().unwrap();
            s.spawn(|| g.sub(7)).join().unwrap();
        });
        assert_eq!(g.load(Ordering::Relaxed), 0);
    }
}
