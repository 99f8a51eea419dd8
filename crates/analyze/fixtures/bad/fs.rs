//! BAD fixture: ops and counters the observability layer cannot see.
//! Not compiled — scanned by `simurgh-analyze --path crates/analyze/fixtures/bad`.

/// A counter battery nobody wired into the ObsRegistry: its numbers never
/// reach `paper obs`, so a regression here is invisible.
pub struct ShadowStats {
    pub steals: AtomicU64,
    pub timeouts: AtomicU64,
}

impl FileSystem for ShadowFs {
    fn name(&self) -> &str {
        "shadow"
    }

    // Untimed op: outside `protected_op`, no trace events — exactly how a
    // slow or misbehaving path hides from the latency histograms.
    fn open(&self, ctx: &ProcCtx, p: &str, flags: OpenFlags, mode: FileMode) -> FsResult<Fd> {
        self.do_open(ctx, p, flags, mode)
    }

    fn unlink(&self, ctx: &ProcCtx, p: &str) -> FsResult<()> {
        self.do_unlink(ctx, p)
    }
}
