//! BAD fixture: counter batteries the observability layer cannot see.
//! Not compiled — scanned by `simurgh-analyze --path crates/analyze/fixtures/bad`.

/// A hand-written counter battery nobody wired into the ObsRegistry: its
/// numbers never reach `paper obs`, so a regression here is invisible.
pub struct ShadowStats {
    pub steals: AtomicU64,
    pub timeouts: AtomicU64,
}

simurgh_pmem::counters! {
    /// The same mistake in the declarative form, which spells out no
    /// `AtomicU64` at all.
    pub struct HiddenStats / HiddenStatsSnapshot {
        /// Retries nobody will ever see.
        retries,
        drops,
    }
}
