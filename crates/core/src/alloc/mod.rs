//! Simurgh's two allocators (§4.2): the segmented data-**block** allocator
//! and the slab-style **metadata-object** allocator, plus the
//! timestamp-stamped busy-wait lock they share for crash-detectable mutual
//! exclusion — and the [`AllocFaults`] injector the crash-matrix harness
//! uses to make the *k*-th allocation fail with an injected ENOSPC.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use simurgh_fsapi::{FsError, FsResult};

pub mod blocks;
pub mod meta;
pub mod tslock;

pub use blocks::BlockAlloc;
pub use meta::MetaAllocator;
pub use tslock::{lock_stats, Acquired, Backoff, Grace, LockStats, TsGuard, TsLock};

/// Programmable resource-fault injector shared by both allocators of a
/// mount (reachable through [`crate::SimurghFs::alloc_faults`]).
///
/// Disarmed (the default) it costs one relaxed load per allocation. Armed
/// with [`arm_at`](Self::arm_at), it counts every allocation attempt on the
/// metadata and file data paths and fails the *k*-th one with
/// [`FsError::Injected`] — distinguishable from organic exhaustion so the
/// crash-matrix report can assert the op failed *because we told it to*,
/// and failed atomically.
#[derive(Default)]
pub struct AllocFaults {
    armed: AtomicBool,
    /// Allocation attempts observed since the last arm.
    calls: AtomicU64,
    /// 1-based index of the attempt to fail; `u64::MAX` = record only.
    fail_at: AtomicU64,
    /// Number of faults injected since the last arm.
    injected: AtomicU64,
}

impl AllocFaults {
    /// Arms the injector: the `k`-th allocation attempt (1-based) from now
    /// on fails with [`FsError::Injected`]. Resets the counters.
    pub fn arm_at(&self, k: u64) {
        self.calls.store(0, Ordering::Relaxed);
        self.injected.store(0, Ordering::Relaxed);
        self.fail_at.store(k, Ordering::Relaxed);
        self.armed.store(true, Ordering::Release);
    }

    /// Recording mode: count allocation attempts, fail nothing.
    pub fn arm_recording(&self) {
        self.arm_at(u64::MAX);
    }

    /// Disarms the injector; counters keep their last values for reading.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Allocation attempts observed since the last arm.
    pub fn observed(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Faults injected since the last arm.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Renders the injector counters as a single-line JSON object, for
    /// embedding in the unified observability registry ([`crate::obs`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"armed\":{},\"observed\":{},\"injected\":{}}}",
            self.armed.load(Ordering::Relaxed),
            self.observed(),
            self.injected()
        )
    }

    /// Called by the allocators before each allocation attempt: counts it
    /// and delivers the planned fault when its turn has come. `site` names
    /// the allocation path for the report.
    pub(crate) fn check(&self, site: &'static str) -> FsResult<()> {
        if !self.armed.load(Ordering::Acquire) {
            return Ok(());
        }
        let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.fail_at.load(Ordering::Relaxed) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            let site_code = u64::from(!site.contains("meta"));
            crate::obs::trace(crate::obs::EventKind::AllocFault, n, site_code);
            return Err(FsError::Injected(site));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injector_never_fires() {
        let f = AllocFaults::default();
        for _ in 0..100 {
            assert!(f.check("x").is_ok());
        }
        assert_eq!(f.observed(), 0, "disarmed attempts are not counted");
    }

    #[test]
    fn armed_injector_fails_exactly_the_kth_attempt() {
        let f = AllocFaults::default();
        f.arm_at(3);
        assert!(f.check("site").is_ok());
        assert!(f.check("site").is_ok());
        assert_eq!(f.check("site"), Err(FsError::Injected("site")));
        assert!(f.check("site").is_ok(), "only the k-th attempt fails");
        assert_eq!(f.observed(), 4);
        assert_eq!(f.injected(), 1);
        f.disarm();
        assert!(f.check("site").is_ok());
    }

    #[test]
    fn recording_mode_counts_without_failing() {
        let f = AllocFaults::default();
        f.arm_recording();
        for _ in 0..10 {
            assert!(f.check("s").is_ok());
        }
        assert_eq!(f.observed(), 10);
        assert_eq!(f.injected(), 0);
    }
}
