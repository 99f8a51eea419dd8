//! Traffic statistics for an emulated NVMM region, and the `counters!`
//! macro every counter battery in the workspace is declared with.
//!
//! Byte, flush and fence counters for every region access; the harness
//! samples a [`StatsSnapshot`] before and after a phase and diffs it. The
//! *data copy* share of the paper's Table 1 and Fig. 10 breakdowns does not
//! come from these counters: it is the file system's `DataStats::copy_ns`.
//!
//! Every statistic is a per-thread [`Counter`] (see
//! [`simurgh_perthread`]): a thread writes only cache lines of its own,
//! and a read sums all threads.

pub use simurgh_perthread::{Counter, PerThread};

/// Declares a counter battery: a struct of `pub` [`Counter`]s (with
/// `Default`, a `const fn new()` and `snapshot()`) and its `Copy` snapshot
/// (the same fields as `u64`, a saturating `since()`, `fields()` and
/// `to_json()`, keyed by field name in declaration order). Callers bump a
/// field with `add` (or `sub`, for a gauge). Derived ratios and non-counter
/// gauges stay hand-written beside it.
///
/// ```
/// simurgh_pmem::counters! {
///     /// Lookups of a cache.
///     pub struct CacheStats / CacheStatsSnapshot {
///         /// Lookups answered from the cache.
///         hits,
///         /// Lookups that went to the backing store.
///         misses,
///     }
/// }
/// static CACHE: CacheStats = CacheStats::new();
/// let before = CACHE.snapshot();
/// CACHE.hits.add(2);
/// std::thread::spawn(|| CACHE.hits.add(1)).join().unwrap();
/// let delta = CACHE.snapshot().since(&before);
/// assert_eq!(delta.to_json(), r#"{"hits":3,"misses":0}"#);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident / $snap:ident {
            $( $(#[$fattr:meta])* $field:ident ),+ $(,)?
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $( $(#[$fattr])* pub $field: $crate::stats::Counter, )+
        }

        impl $name {
            /// An all-zero battery.
            pub const fn new() -> Self {
                $name { $( $field: $crate::stats::Counter::new(), )+ }
            }

            /// Sums every counter over all threads (exact when quiescent).
            pub fn snapshot(&self) -> $snap {
                $snap { $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )+ }
            }
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($name), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap {
            $( $(#[$fattr])* pub $field: u64, )+
        }

        impl $snap {
            /// Counter-wise difference `self - earlier`, saturating at zero.
            pub fn since(&self, earlier: &$snap) -> $snap {
                $snap { $( $field: self.$field.saturating_sub(earlier.$field), )+ }
            }

            /// `(name, value)` of every counter, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($field), self.$field) ),+].into_iter()
            }

            /// One single-line JSON object keyed by field name.
            pub fn to_json(&self) -> String {
                $crate::stats::json_object(self.fields())
            }
        }
    };
}

/// Renders `(key, value)` pairs as one single-line JSON object, in order.
pub fn json_object(fields: impl IntoIterator<Item = (&'static str, u64)>) -> String {
    let body: Vec<String> = fields.into_iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

crate::counters! {
    /// Monotonic counters of region traffic. Statistics, not
    /// synchronization: see the [module docs](self).
    pub struct PmemStats / StatsSnapshot {
        bytes_read,
        bytes_written,
        bytes_nt_written,
        flushed_lines,
        fences,
        /// Fences requested while a [`FenceScope`](crate::FenceScope) was active
        /// on the calling thread and therefore deferred to the scope's single
        /// closing `sfence` — the group-commit win, directly observable.
        fences_elided,
    }
}

impl StatsSnapshot {
    /// Total bytes moved between NVMM and DRAM in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written + self.bytes_nt_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// A battery can be a `static`: `new` is a `const fn`.
    static STATIC_BATTERY: PmemStats = PmemStats::new();

    #[test]
    fn snapshot_diff() {
        let s = &STATIC_BATTERY;
        s.bytes_read.add(10);
        let a = s.snapshot();
        s.bytes_read.add(5);
        s.bytes_written.add(3);
        s.bytes_nt_written.add(2);
        s.fences.add(1);
        let d = s.snapshot().since(&a);
        assert_eq!(d.bytes_read, 5);
        assert_eq!(d.bytes_written, 3);
        assert_eq!(d.bytes_nt_written, 2);
        assert_eq!(d.fences, 1);
        assert_eq!(d.flushed_lines, 0);
        assert_eq!(d.bytes_total(), 10);
        assert_eq!(PmemStats::default().snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn json_lists_every_counter() {
        let snap = StatsSnapshot { bytes_read: 1, fences: 5, ..Default::default() };
        // Keys are the field names in declaration order.
        assert_eq!(
            snap.to_json(),
            "{\"bytes_read\":1,\"bytes_written\":0,\"bytes_nt_written\":0,\
             \"flushed_lines\":0,\"fences\":5,\"fences_elided\":0}"
        );
        let keys: Vec<&str> = snap.fields().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "bytes_read",
                "bytes_written",
                "bytes_nt_written",
                "flushed_lines",
                "fences",
                "fences_elided"
            ]
        );
    }

    #[test]
    fn since_saturates() {
        let newer = StatsSnapshot { bytes_read: 1, fences_elided: 7, ..Default::default() };
        let older = StatsSnapshot { bytes_read: 5, fences_elided: 9, ..Default::default() };
        assert_eq!(newer.since(&older), StatsSnapshot::default());
        assert_eq!(older.since(&newer).bytes_read, 4);
    }

    #[test]
    fn concurrent_bumps_of_a_static_battery_sum_exactly() {
        const THREADS: u64 = 4;
        const BUMPS: u64 = 50_000;
        static S: PmemStats = PmemStats::new();
        thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..BUMPS {
                        S.flushed_lines.add(1);
                        S.bytes_read.add(3);
                    }
                });
            }
        });
        let snap = S.snapshot();
        assert_eq!(snap.flushed_lines, THREADS * BUMPS);
        assert_eq!(snap.bytes_read, 3 * THREADS * BUMPS);
    }
}
