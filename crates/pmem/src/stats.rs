//! Traffic statistics for an emulated NVMM region.
//!
//! Byte, flush and fence counters for every region access; the harness
//! samples a [`StatsSnapshot`] before and after a phase and diffs it. The
//! *data copy* share of the paper's Table 1 and Fig. 10 breakdowns does not
//! come from these counters: it is the `Copy` span of `fsapi::OpTimers`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of region traffic. All counters use relaxed atomics:
/// they are statistics, not synchronization.
#[derive(Default)]
pub struct PmemStats {
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    bytes_nt_written: AtomicU64,
    flushed_lines: AtomicU64,
    fences: AtomicU64,
    fences_elided: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub bytes_nt_written: u64,
    pub flushed_lines: u64,
    pub fences: u64,
    /// Fences requested while a [`FenceScope`](crate::FenceScope) was active
    /// on the calling thread and therefore deferred to the scope's single
    /// closing `sfence` — the group-commit win, directly observable.
    pub fences_elided: u64,
}

impl StatsSnapshot {
    /// Total bytes moved between NVMM and DRAM in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written + self.bytes_nt_written
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            bytes_nt_written: self.bytes_nt_written.saturating_sub(earlier.bytes_nt_written),
            flushed_lines: self.flushed_lines.saturating_sub(earlier.flushed_lines),
            fences: self.fences.saturating_sub(earlier.fences),
            fences_elided: self.fences_elided.saturating_sub(earlier.fences_elided),
        }
    }

    /// Renders the snapshot as a single-line JSON object, for embedding in
    /// the harness's machine-readable probe output.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bytes_read\":{},\"bytes_written\":{},\"bytes_nt_written\":{},\
             \"flushed_lines\":{},\"fences\":{},\"fences_elided\":{}}}",
            self.bytes_read, self.bytes_written, self.bytes_nt_written, self.flushed_lines,
            self.fences, self.fences_elided
        )
    }
}

impl PmemStats {
    #[inline]
    pub(crate) fn count_read(&self, bytes: usize) {
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_write(&self, bytes: usize) {
        self.bytes_written.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_nt_write(&self, bytes: usize) {
        self.bytes_nt_written.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_flush(&self, lines: usize) {
        self.flushed_lines.fetch_add(lines as u64, Ordering::Relaxed);
    }

    /// Counts one fence and returns the new running total (the region's
    /// fence hook reports it as the sfence-boundary number).
    #[inline]
    pub(crate) fn count_fence(&self) -> u64 {
        self.fences.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Counts one fence request absorbed by an active group-commit scope.
    #[inline]
    pub(crate) fn count_elided_fence(&self) {
        self.fences_elided.fetch_add(1, Ordering::Relaxed);
    }

    /// Captures the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_nt_written: self.bytes_nt_written.load(Ordering::Relaxed),
            flushed_lines: self.flushed_lines.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            fences_elided: self.fences_elided.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff() {
        let s = PmemStats::default();
        s.count_read(10);
        let a = s.snapshot();
        s.count_read(5);
        s.count_write(3);
        s.count_nt_write(2);
        s.count_fence();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.bytes_read, 5);
        assert_eq!(d.bytes_written, 3);
        assert_eq!(d.bytes_nt_written, 2);
        assert_eq!(d.fences, 1);
        assert_eq!(d.bytes_total(), 10);
    }

    #[test]
    fn json_lists_every_counter() {
        let snap = StatsSnapshot { bytes_read: 1, fences: 5, ..Default::default() };
        let j = snap.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "bytes_read",
            "bytes_written",
            "bytes_nt_written",
            "flushed_lines",
            "fences",
            "fences_elided",
        ] {
            assert!(j.contains(&format!("\"{key}\":")), "missing {key} in {j}");
        }
        assert!(j.contains("\"bytes_read\":1"));
        assert!(j.contains("\"fences\":5"));
    }

    #[test]
    fn since_saturates() {
        let newer = StatsSnapshot { bytes_read: 1, ..Default::default() };
        let older = StatsSnapshot { bytes_read: 5, ..Default::default() };
        assert_eq!(newer.since(&older).bytes_read, 0);
    }
}
