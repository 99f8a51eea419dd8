//! The crash matrix: exhaustive fault injection at every persistence
//! boundary (§4.3, Fig. 5 — systematically, not by hand-picked prefixes).
//!
//! For each scripted operation the driver first *records* a run on a fresh
//! file system, counting the `sfence` boundaries the operation crosses
//! (`simurgh_pmem::FaultPlan` in recording mode). It then *replays* the
//! operation once per boundary `i`, cutting the power there
//! ([`simurgh_pmem::FaultPlan::cut_after`]), remounts the frozen media
//! image through whole-system recovery ([`simurgh_core::recovery`]), runs
//! the [`simurgh_core::check`] fsck, and asserts the paper's prescribed
//! outcome:
//!
//! * the recovered tree equals the pre-op snapshot (**roll-back**) or the
//!   post-op snapshot (**roll-forward**) — never a third state;
//! * the flip from pre to post happens exactly once (the protocol's commit
//!   point): recovery rolls forward from every boundary after it and rolls
//!   back from every boundary before it;
//! * recovery converges: a second crash with no intervening operations
//!   reclaims nothing and reproduces the same tree — i.e. no leaked block
//!   and no allocated-but-unreachable object survived the first repair.
//!
//! A second sub-matrix injects ENOSPC at every allocation the operation
//! performs ([`simurgh_core::alloc::AllocFaults`]) and asserts failed operations
//! are atomic: the error is the planned [`FsError::Injected`], the tree
//! still matches a snapshot, and a subsequent crash-remount reclaims
//! nothing.
//!
//! Because the plan counts boundaries instead of naming them, **adding a
//! fence to any protocol automatically adds a tested crash point**.

use std::sync::Arc;

use simurgh_fsapi::{FileMode, FileSystem, FileType, FsResult, OpenFlags, ProcCtx};
use simurgh_pmem::{FaultPlan, PmemRegion};

use simurgh_core::check;
use simurgh_core::dir::chain;
use simurgh_core::fs::{SimurghConfig, SimurghFs};

use super::colliding_name;

/// Region size for matrix runs: small enough to remount hundreds of times,
/// large enough that no scripted op organically exhausts it.
const REGION_BYTES: usize = 8 << 20;

/// One scripted operation: a deterministic setup phase (not fault-injected)
/// and the operation under test.
pub struct OpSpec {
    /// Report label ("create", "rename-crossdir", ...).
    pub name: &'static str,
    pub(crate) setup: fn(&SimurghFs, &ProcCtx),
    pub(crate) op: fn(&SimurghFs, &ProcCtx) -> FsResult<()>,
}

/// Which snapshot a recovered tree matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveredState {
    /// Rolled back: the operation left no trace.
    PreOp,
    /// Rolled forward: the operation fully took effect.
    PostOp,
}

/// Outcome of one power-cut replay.
#[derive(Debug, Clone)]
pub struct BoundaryCase {
    /// The boundary the power was cut at (0 = nothing from the op durable).
    pub boundary: u64,
    /// Snapshot the recovered tree matched.
    pub state: RecoveredState,
    /// Objects the post-crash recovery reclaimed (allocated but
    /// unreachable on the crash image; reclaiming them is correct).
    pub reclaimed: u64,
}

/// Outcome of one injected-ENOSPC replay.
#[derive(Debug, Clone)]
pub struct EnospcCase {
    /// 1-based index of the allocation that failed.
    pub k: u64,
    /// Rendered error the operation returned.
    pub error: String,
    /// Snapshot the tree matched after the failed operation.
    pub state: RecoveredState,
}

/// The full matrix result for one scripted operation.
#[derive(Debug, Clone, Default)]
pub struct OpMatrix {
    /// Operation label.
    pub op: String,
    /// Total persistence boundaries the recorded run crossed.
    pub boundaries: u64,
    /// Boundary replays actually run (== `boundaries + 1` when uncapped:
    /// every cut point plus the complete-run anchor).
    pub cases: Vec<BoundaryCase>,
    /// First boundary whose recovery rolled *forward* (the commit point).
    pub commit_point: Option<u64>,
    /// Allocation attempts the recorded run performed.
    pub allocs: u64,
    /// Injected-ENOSPC replays.
    pub enospc: Vec<EnospcCase>,
    /// True when a cap skipped some middle boundaries.
    pub capped: bool,
    /// Invariant violations; empty means every replay recovered correctly.
    pub failures: Vec<String>,
    /// Flight recorder: the most recent trace events per thread (rendered
    /// via [`simurgh_core::obs`]), captured when a replay failed. Empty for clean
    /// matrices.
    pub trace: Vec<String>,
}

/// Trace events per thread the flight recorder keeps when a cell fails.
pub const FLIGHT_EVENTS: usize = 64;

impl OpMatrix {
    /// True when every replay satisfied every invariant.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Setup shared by most cells: `/d` holding three small files `f0`–`f2`.
fn base_setup(fs: &SimurghFs, ctx: &ProcCtx) {
    fs.mkdir(ctx, "/d", FileMode::dir(0o755)).expect("setup mkdir /d");
    for i in 0..3 {
        fs.write_file(ctx, &format!("/d/f{i}"), format!("hello-{i}").as_bytes())
            .expect("setup file");
    }
}

/// The seven scripted operations of the paper's protocol table: `create`,
/// `unlink`, same- and cross-directory `rename`, `append`, shrinking
/// `truncate` and `symlink`.
pub fn scripted_ops() -> Vec<OpSpec> {
    fn cross_setup(fs: &SimurghFs, ctx: &ProcCtx) {
        base_setup(fs, ctx);
        fs.mkdir(ctx, "/e", FileMode::dir(0o755)).expect("setup mkdir /e");
    }
    fn big_setup(fs: &SimurghFs, ctx: &ProcCtx) {
        base_setup(fs, ctx);
        fs.write_file(ctx, "/d/big", &[0xb5; 10_000]).expect("setup big file");
    }

    vec![
        OpSpec {
            name: "create",
            setup: base_setup,
            op: |fs, ctx| {
                let fd = fs.create(ctx, "/d/new", FileMode::default())?;
                fs.close(ctx, fd)
            },
        },
        OpSpec {
            name: "unlink",
            setup: base_setup,
            op: |fs, ctx| fs.unlink(ctx, "/d/f1"),
        },
        OpSpec {
            name: "rename-samedir",
            setup: base_setup,
            op: |fs, ctx| fs.rename(ctx, "/d/f1", "/d/r1"),
        },
        OpSpec {
            name: "rename-crossdir",
            setup: cross_setup,
            op: |fs, ctx| fs.rename(ctx, "/d/f1", "/e/r1"),
        },
        OpSpec {
            name: "append",
            setup: base_setup,
            op: |fs, ctx| {
                let fd = fs.open(ctx, "/d/f1", OpenFlags::WRONLY, FileMode::default())?;
                let st = fs.fstat(ctx, fd)?;
                let mut done = 0usize;
                let data = [0xa7u8; 6000];
                while done < data.len() {
                    done += fs.pwrite(ctx, fd, &data[done..], st.size + done as u64)?;
                }
                fs.fsync(ctx, fd)?;
                fs.close(ctx, fd)
            },
        },
        OpSpec {
            name: "truncate-shrink",
            setup: big_setup,
            op: |fs, ctx| {
                let fd = fs.open(ctx, "/d/big", OpenFlags::WRONLY, FileMode::default())?;
                fs.ftruncate(ctx, fd, 100)?;
                fs.close(ctx, fd)
            },
        },
        OpSpec {
            name: "symlink",
            setup: base_setup,
            op: |fs, ctx| fs.symlink(ctx, "/d/f0", "/d/link"),
        },
    ]
}

/// The compaction op as a spec: setup builds one deliberately fragmented
/// file (interleaved appends against a decoy so the tail can never extend
/// in place), the op is one bounded online-compaction pass. Not part of
/// [`scripted_ops`] — relocation is *invisible* to the tree (same paths,
/// sizes and bytes before and after), so the generic pre≠post machinery
/// cannot discriminate it; [`run_compact_matrix`] and the kill-9 harness
/// drive it with an extent-map witness instead.
pub fn compact_spec() -> OpSpec {
    OpSpec {
        name: "compact",
        setup: |fs, ctx| {
            fs.mkdir(ctx, "/d", FileMode::dir(0o755)).expect("setup mkdir /d");
            let a = fs
                .open(ctx, "/d/frag", OpenFlags::CREATE, FileMode::default())
                .expect("setup open frag");
            let b = fs
                .open(ctx, "/d/decoy", OpenFlags::CREATE, FileMode::default())
                .expect("setup open decoy");
            let chunk = vec![0xc4u8; 4096];
            for i in 0..4u64 {
                fs.pwrite(ctx, a, &chunk, i * 4096).expect("setup pwrite frag");
                fs.pwrite(ctx, b, &chunk, i * 4096).expect("setup pwrite decoy");
            }
            fs.close(ctx, a).expect("setup close");
            fs.close(ctx, b).expect("setup close");
        },
        op: |fs, _ctx| {
            let (files, _blocks) = fs.compact(usize::MAX);
            if files == 0 {
                return Err(simurgh_fsapi::FsError::Corrupt("compaction moved nothing"));
            }
            Ok(())
        },
    }
}

/// The hard-link cells: `link` of an existing file, and `unlink` of one of
/// an inode's two names. `link` persists the raised `nlink` before it
/// inserts the entry and `unlink` retires the entry before it drops the
/// count, so a cut between the two steps leaves `nlink` one too high until
/// recovery recounts it. [`run_matrix`] runs these cells; they stay out of
/// [`scripted_ops`], whose seven ops are the cost baseline of
/// [`probe_costs`].
pub fn hard_link_ops() -> Vec<OpSpec> {
    vec![
        OpSpec {
            name: "link",
            setup: base_setup,
            op: |fs, ctx| fs.link(ctx, "/d/f0", "/d/hard"),
        },
        OpSpec {
            name: "unlink-hardlinked",
            setup: |fs, ctx| {
                base_setup(fs, ctx);
                fs.link(ctx, "/d/f0", "/d/hard").expect("setup link");
            },
            op: |fs, ctx| fs.unlink(ctx, "/d/f0"),
        },
    ]
}

/// The chain-block cell: `/d` holds three names on one hash line, so each
/// sits in its own chain block, and the op unlinks the middle one. Its
/// block empties but stays linked while mounted; every recovery mount after
/// the unlink splices it out and frees it. [`run_matrix`] runs this cell
/// beside [`hard_link_ops`], outside the [`scripted_ops`] cost baseline.
pub fn chain_block_op() -> OpSpec {
    fn names() -> [String; 3] {
        ["c0".to_owned(), colliding_name("c0", "c1-"), colliding_name("c0", "c2-")]
    }
    OpSpec {
        name: "unlink-midblock",
        setup: |fs, ctx| {
            fs.mkdir(ctx, "/d", FileMode::dir(0o755)).expect("setup mkdir /d");
            for n in names() {
                fs.write_file(ctx, &format!("/d/{n}"), n.as_bytes()).expect("setup file");
            }
            let (region, first) = fs.testing_dir_block("/d").expect("setup resolve /d");
            assert_eq!(chain(&region, first).count(), 3, "setup: one chain block per name");
        },
        op: |fs, ctx| fs.unlink(ctx, &format!("/d/{}", names()[1])),
    }
}

/// Extent map of one file: `(start, len)` rows in logical order — the
/// witness [`run_compact_matrix`] discriminates old-vs-new layouts with.
pub(crate) fn extent_map_of(
    fs: &SimurghFs,
    ctx: &ProcCtx,
    path: &str,
) -> Result<Vec<(u64, u64)>, String> {
    let st = fs.stat(ctx, path).map_err(|e| format!("stat {path}: {e}"))?;
    let ino = simurgh_core::obj::inode::Inode(simurgh_pmem::PPtr::new(st.ino));
    let mut v = Vec::new();
    simurgh_core::file::for_each_extent(fs.region(), ino, |_, e| v.push((e.start, e.len)));
    Ok(v)
}

/// The compaction crash sweep: power-cut at every persistence boundary of
/// one relocation pass, then assert after recovery that
///
/// * fsck is clean and the tree (paths, sizes, **bytes**) is untouched,
/// * the relocated file's extent map is exactly the old layout or exactly
///   the new one — never a mixture (the relocation-journal guarantee),
/// * the flip old→new happens once, at the map-swap commit point,
/// * nothing leaks: a second idle crash-recovery reclaims zero objects.
pub fn run_compact_matrix(cap: Option<u64>) -> OpMatrix {
    let mut m = run_compact_matrix_inner(cap);
    if !m.failures.is_empty() {
        m.trace = simurgh_core::obs::flight_dump(FLIGHT_EVENTS);
    }
    m
}

fn run_compact_matrix_inner(cap: Option<u64>) -> OpMatrix {
    let ctx = ProcCtx::root(1);
    let spec = compact_spec();
    let mut m = OpMatrix { op: spec.name.to_owned(), ..OpMatrix::default() };

    // Reference tree (compaction never changes it) and the two reference
    // extent layouts. Setup and op are single-threaded and deterministic,
    // so every replay reproduces the same old and new block placement.
    let (tree, old_map) = {
        let fs = fresh(&spec, &ctx);
        let r = crash_remount(&fs).and_then(|(fs2, _)| {
            Ok((state_of(&fs2)?, extent_map_of(&fs2, &ctx, "/d/frag")?))
        });
        match r {
            Ok(x) => x,
            Err(e) => {
                m.failures.push(format!("pre-op snapshot: {e}"));
                return m;
            }
        }
    };
    let new_map = {
        let fs = fresh(&spec, &ctx);
        if let Err(e) = (spec.op)(&fs, &ctx) {
            m.failures.push(format!("post-op reference run failed: {e}"));
            return m;
        }
        match crash_remount(&fs).and_then(|(fs2, _)| extent_map_of(&fs2, &ctx, "/d/frag")) {
            Ok(x) => x,
            Err(e) => {
                m.failures.push(format!("post-op snapshot: {e}"));
                return m;
            }
        }
    };
    if old_map.len() < 2 {
        m.failures.push(format!("setup failed to fragment: old map {old_map:?}"));
        return m;
    }
    if new_map.len() != 1 {
        m.failures.push(format!("compaction failed to merge: new map {new_map:?}"));
        return m;
    }

    // Recorded run: count the pass's persistence boundaries.
    {
        let fs = fresh(&spec, &ctx);
        fs.region().arm_faults(FaultPlan::record());
        if let Err(e) = (spec.op)(&fs, &ctx) {
            m.failures.push(format!("recording run failed: {e}"));
            return m;
        }
        m.boundaries = fs.region().fence_count();
    }

    let (samples, capped) = sample_boundaries(m.boundaries, cap);
    m.capped = capped;
    for i in samples {
        let label = format!("compact @boundary {i}");
        let fs = fresh(&spec, &ctx);
        fs.region().arm_faults(FaultPlan::cut_after(i));
        if let Err(e) = (spec.op)(&fs, &ctx) {
            m.failures.push(format!("{label}: volatile replay failed: {e}"));
            continue;
        }
        if (i < m.boundaries) != fs.region().powercut_tripped() {
            m.failures.push(format!("{label}: power cut did not fire as planned"));
            continue;
        }
        let (fs2, reclaimed) = match crash_remount(&fs) {
            Ok(x) => x,
            Err(e) => {
                m.failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        // Tree: identical before and after — pass the same snapshot for
        // both sides; verify_recovered also runs fsck and the idle-crash
        // convergence (zero-leak) witness.
        if verify_recovered(&fs2, &tree, &tree, &label, &mut m.failures).is_none() {
            continue;
        }
        let got_map = match extent_map_of(&fs2, &ctx, "/d/frag") {
            Ok(x) => x,
            Err(e) => {
                m.failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        let state = if got_map == old_map {
            RecoveredState::PreOp
        } else if got_map == new_map {
            RecoveredState::PostOp
        } else {
            m.failures.push(format!(
                "{label}: recovered extent map is a mixture:\n  got {got_map:?}\n  \
                 old {old_map:?}\n  new {new_map:?}"
            ));
            continue;
        };
        m.cases.push(BoundaryCase { boundary: i, state, reclaimed });
    }

    m.commit_point = m
        .cases
        .iter()
        .find(|c| c.state == RecoveredState::PostOp)
        .map(|c| c.boundary);
    match m.commit_point {
        None => m.failures.push("compact: no boundary rolled forward".into()),
        Some(cp) => {
            for c in &m.cases {
                let want =
                    if c.boundary < cp { RecoveredState::PreOp } else { RecoveredState::PostOp };
                if c.state != want {
                    m.failures.push(format!(
                        "compact: non-monotone recovery at boundary {} (commit point {cp}, got {:?})",
                        c.boundary, c.state
                    ));
                }
            }
        }
    }

    m
}

// ---------------------------------------------------------------------------
// Tree states
// ---------------------------------------------------------------------------

/// A recovered tree with content: `(path, kind, size, content hash)` rows.
/// Content comes from `read_file` for files and `readlink` for symlinks, so
/// a crash that tears file bytes (not just structure) is caught.
type TreeState = Vec<(String, FileType, u64, u64)>;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn state_of(fs: &SimurghFs) -> Result<TreeState, String> {
    let ctx = ProcCtx::root(7);
    let tree = fs.snapshot_tree(&ctx, "/").map_err(|e| format!("snapshot walk: {e}"))?;
    tree.into_iter()
        .map(|(path, ftype, size)| {
            let hash = match ftype {
                FileType::Regular => {
                    fnv1a(&fs.read_file(&ctx, &path).map_err(|e| format!("read {path}: {e}"))?)
                }
                FileType::Symlink => fnv1a(
                    fs.readlink(&ctx, &path).map_err(|e| format!("readlink {path}: {e}"))?.as_bytes(),
                ),
                _ => 0,
            };
            Ok((path, ftype, size, hash))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

fn matrix_config() -> SimurghConfig {
    // A fixed segment count keeps the recorded boundary sequence identical
    // across record and replay regardless of the host's core count.
    SimurghConfig { segments: Some(4), ..SimurghConfig::default() }
}

/// A formatted tracked region with `spec`'s setup applied.
fn set_up(spec: &OpSpec, ctx: &ProcCtx) -> SimurghFs {
    let region = Arc::new(PmemRegion::new_tracked(REGION_BYTES));
    let fs = SimurghFs::format(region, matrix_config()).expect("format tracked region");
    (spec.setup)(&fs, ctx);
    fs
}

/// [`set_up`] with this thread's allocator caches drained, ready for a
/// fault plan.
fn fresh(spec: &OpSpec, ctx: &ProcCtx) -> SimurghFs {
    let fs = set_up(spec, ctx);
    // The per-thread refill cache and open files' parked block runs are
    // claimed-but-unreachable *by design* (bounded, reclaimed by any
    // recovery — the group-commit tests assert that separately). Draining
    // them before any fault plan is armed makes the un-claims durable, so
    // a cut at boundary 0 leaves nothing to reclaim.
    fs.quiesce_thread_caches();
    fs
}

/// Crash `fs` now and remount through recovery; returns the recovered fs
/// and its reclaimed-object count.
fn crash_remount(fs: &SimurghFs) -> Result<(SimurghFs, u64), String> {
    // Quiesce again for the idle second crash of `verify_recovered`. After
    // an armed cut the un-claims never reach media, so a replay's
    // reclaimed count still includes the refill claims of the op itself.
    fs.quiesce_thread_caches();
    let image = Arc::new(fs.region().simulate_crash());
    let fs2 = SimurghFs::mount(image, matrix_config()).map_err(|e| format!("recovery mount: {e}"))?;
    let reclaimed = fs2.recovery_report().reclaimed_objects;
    Ok((fs2, reclaimed))
}

/// Post-recovery invariants shared by every replay: fsck comes back clean,
/// the tree matches pre or post, and a second crash with no operations in
/// between reclaims nothing and reproduces the same tree (convergence — the
/// "no leaked block / no unreachable-but-allocated object" witness).
fn verify_recovered(
    fs: &SimurghFs,
    pre: &TreeState,
    post: &TreeState,
    label: &str,
    failures: &mut Vec<String>,
) -> Option<RecoveredState> {
    let fsck = check::check(fs, true);
    if !fsck.is_clean() {
        for v in &fsck.violations {
            failures.push(format!("{label}: fsck at {:?}: {}", v.at, v.what));
        }
        return None;
    }
    let got = match state_of(fs) {
        Ok(s) => s,
        Err(e) => {
            failures.push(format!("{label}: unreadable recovered tree: {e}"));
            return None;
        }
    };
    let state = if &got == pre {
        RecoveredState::PreOp
    } else if &got == post {
        RecoveredState::PostOp
    } else {
        failures.push(format!(
            "{label}: recovered tree matches neither snapshot:\n  got  {got:?}\n  pre  {pre:?}\n  post {post:?}"
        ));
        return None;
    };
    match crash_remount(fs) {
        Ok((fs3, reclaimed)) => {
            if reclaimed != 0 {
                failures.push(format!(
                    "{label}: second recovery reclaimed {reclaimed} objects — the first left garbage"
                ));
            }
            match state_of(&fs3) {
                Ok(s2) if s2 == got => {}
                Ok(_) => failures.push(format!("{label}: tree changed across an idle crash")),
                Err(e) => failures.push(format!("{label}: second recovery unreadable: {e}")),
            }
            if !check::check(&fs3, true).is_clean() {
                failures.push(format!("{label}: fsck dirty after second recovery"));
            }
        }
        Err(e) => failures.push(format!("{label}: second recovery failed: {e}")),
    }
    Some(state)
}

/// Boundaries to replay: all of `0..=n`, or a head+tail window of `cap`
/// when the protocol is longer (tier-1 smoke mode). The window always
/// includes boundary 0 and the complete-run anchor `n`.
fn sample_boundaries(n: u64, cap: Option<u64>) -> (Vec<u64>, bool) {
    let total = n + 1;
    match cap {
        Some(c) if total > c => {
            let head = c.div_ceil(2);
            let tail = c - head;
            let mut v: Vec<u64> = (0..head).collect();
            v.extend((total - tail)..total);
            (v, true)
        }
        _ => ((0..total).collect(), false),
    }
}

/// Runs the full matrix for one scripted operation.
///
/// `cap` bounds the number of power-cut replays (head+tail sampling);
/// `None` enumerates every boundary.
pub fn run_op_matrix(spec: &OpSpec, cap: Option<u64>) -> OpMatrix {
    let mut m = run_op_matrix_inner(spec, cap);
    if !m.failures.is_empty() {
        // Flight recorder: attach the tail of every thread's trace ring so
        // the failure report shows what the code was doing at the end.
        m.trace = simurgh_core::obs::flight_dump(FLIGHT_EVENTS);
    }
    m
}

fn run_op_matrix_inner(spec: &OpSpec, cap: Option<u64>) -> OpMatrix {
    let ctx = ProcCtx::root(1);
    let mut m = OpMatrix { op: spec.name.to_owned(), ..OpMatrix::default() };

    // Reference snapshots, both taken through the same crash+recover
    // pipeline the replays use.
    let pre = {
        let fs = fresh(spec, &ctx);
        match crash_remount(&fs).and_then(|(fs2, _)| state_of(&fs2)) {
            Ok(s) => s,
            Err(e) => {
                m.failures.push(format!("pre-op snapshot: {e}"));
                return m;
            }
        }
    };
    let post = {
        let fs = fresh(spec, &ctx);
        if let Err(e) = (spec.op)(&fs, &ctx) {
            m.failures.push(format!("post-op reference run failed: {e}"));
            return m;
        }
        match crash_remount(&fs).and_then(|(fs2, _)| state_of(&fs2)) {
            Ok(s) => s,
            Err(e) => {
                m.failures.push(format!("post-op snapshot: {e}"));
                return m;
            }
        }
    };
    if pre == post {
        m.failures.push("op is invisible: pre and post snapshots are identical".into());
        return m;
    }

    // Recorded run: count boundaries and allocation attempts.
    {
        let fs = fresh(spec, &ctx);
        fs.alloc_faults().arm_recording();
        fs.region().arm_faults(FaultPlan::record());
        if let Err(e) = (spec.op)(&fs, &ctx) {
            m.failures.push(format!("recording run failed: {e}"));
            return m;
        }
        m.boundaries = fs.region().fence_count();
        m.allocs = fs.alloc_faults().observed();
        fs.alloc_faults().disarm();
    }

    // Power-cut replays.
    let (samples, capped) = sample_boundaries(m.boundaries, cap);
    m.capped = capped;
    for i in samples {
        let label = format!("{} @boundary {i}", spec.name);
        let fs = fresh(spec, &ctx);
        fs.region().arm_faults(FaultPlan::cut_after(i));
        // The volatile run completes; only its first `i` fences are durable.
        if let Err(e) = (spec.op)(&fs, &ctx) {
            m.failures.push(format!("{label}: volatile replay failed: {e}"));
            continue;
        }
        if (i < m.boundaries) != fs.region().powercut_tripped() {
            m.failures.push(format!("{label}: power cut did not fire as planned"));
            continue;
        }
        let (fs2, reclaimed) = match crash_remount(&fs) {
            Ok(x) => x,
            Err(e) => {
                m.failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        if let Some(state) = verify_recovered(&fs2, &pre, &post, &label, &mut m.failures) {
            m.cases.push(BoundaryCase { boundary: i, state, reclaimed });
        }
    }

    // Roll-back before the commit point, roll-forward after it — exactly
    // one flip, anchored by PreOp at boundary 0 and PostOp at the end.
    m.commit_point = m
        .cases
        .iter()
        .find(|c| c.state == RecoveredState::PostOp)
        .map(|c| c.boundary);
    match m.commit_point {
        None => m.failures.push(format!("{}: no boundary rolled forward", spec.name)),
        Some(cp) => {
            for c in &m.cases {
                let want =
                    if c.boundary < cp { RecoveredState::PreOp } else { RecoveredState::PostOp };
                if c.state != want {
                    m.failures.push(format!(
                        "{}: non-monotone recovery at boundary {} (commit point {cp}, got {:?})",
                        spec.name, c.boundary, c.state
                    ));
                }
            }
        }
    }

    // ENOSPC replays: fail each allocation attempt in turn.
    for k in 1..=m.allocs {
        let label = format!("{} enospc@{k}", spec.name);
        let fs = fresh(spec, &ctx);
        fs.alloc_faults().arm_at(k);
        let res = (spec.op)(&fs, &ctx);
        fs.alloc_faults().disarm();
        let err = match res {
            Err(e) if e.is_injected() => e,
            Err(e) => {
                m.failures.push(format!("{label}: surfaced as organic error {e}"));
                continue;
            }
            Ok(()) => {
                m.failures.push(format!("{label}: op succeeded despite injected fault"));
                continue;
            }
        };
        if let Some(state) = verify_recovered(&fs, &pre, &post, &label, &mut m.failures) {
            if state != RecoveredState::PreOp {
                m.failures.push(format!("{label}: failed op left a partial result"));
                continue;
            }
            m.enospc.push(EnospcCase { k, error: err.to_string(), state });
        }
    }

    m
}

/// Runs [`run_op_matrix`] for every scripted operation, hard-link cell and
/// the chain-block cell.
pub fn run_matrix(cap: Option<u64>) -> Vec<OpMatrix> {
    let cells = scripted_ops().into_iter().chain(hard_link_ops()).chain([chain_block_op()]);
    cells.map(|s| run_op_matrix(&s, cap)).collect()
}

/// Persistence-cost profile of one scripted operation: counter deltas
/// across the op alone (setup excluded) on a fresh deterministic region.
/// This is the group-commit ledger — fences issued, fences absorbed by an
/// active [`simurgh_pmem::FenceScope`], and allocator round trips.
#[derive(Debug, Clone, Default)]
pub struct OpCosts {
    /// Operation label (same vocabulary as [`OpMatrix::op`]).
    pub op: String,
    /// `sfence` boundaries the op crossed.
    pub fences: u64,
    /// Fence requests absorbed by group-commit scopes during the op.
    pub fences_elided: u64,
    /// Metadata-allocator round trips to the shared pools.
    pub pool_trips: u64,
    /// Block-allocator segment-lock round trips.
    pub seg_trips: u64,
}

/// Measures [`OpCosts`] for every scripted op, in [`scripted_ops`] order.
/// Deterministic: same fixed-segment config the crash matrix records with.
/// The setup's allocator caches stay warm, so the op pays its steady-state
/// pool trips.
pub fn probe_costs() -> Vec<OpCosts> {
    let ctx = ProcCtx::root(1);
    scripted_ops()
        .iter()
        .map(|spec| {
            let fs = set_up(spec, &ctx);
            let s0 = fs.region().stats().snapshot();
            let p0 = fs.meta_alloc().pool_trips();
            let g0 = fs.block_alloc().seg_trips();
            (spec.op)(&fs, &ctx).expect("cost probe op");
            let d = fs.region().stats().snapshot().since(&s0);
            OpCosts {
                op: spec.name.to_owned(),
                fences: d.fences,
                fences_elided: d.fences_elided,
                pool_trips: fs.meta_alloc().pool_trips() - p0,
                seg_trips: fs.block_alloc().seg_trips() - g0,
            }
        })
        .collect()
}

/// Test support: a spec whose op makes no durable change, so the matrix
/// deterministically fails its pre≠post sanity check — used to assert the
/// failure path (flight-recorder attachment) without planting a real bug.
#[doc(hidden)]
pub fn failing_spec_for_tests() -> OpSpec {
    OpSpec {
        name: "noop-injected-failure",
        setup: |fs, ctx| {
            fs.mkdir(ctx, "/d", FileMode::dir(0o755)).expect("setup mkdir /d");
        },
        op: |fs, ctx| fs.stat(ctx, "/d").map(|_| ()),
    }
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders matrix results as the `crashlab matrix --json` report (one JSON
/// object; see EXPERIMENTS.md for the schema).
pub fn to_json(results: &[OpMatrix]) -> String {
    let ops: Vec<String> = results
        .iter()
        .map(|m| {
            let cases: Vec<String> = m
                .cases
                .iter()
                .map(|c| {
                    format!(
                        "{{\"boundary\":{},\"state\":{},\"reclaimed\":{}}}",
                        c.boundary,
                        json_str(match c.state {
                            RecoveredState::PreOp => "pre",
                            RecoveredState::PostOp => "post",
                        }),
                        c.reclaimed
                    )
                })
                .collect();
            let enospc: Vec<String> = m
                .enospc
                .iter()
                .map(|c| format!("{{\"k\":{},\"error\":{}}}", c.k, json_str(&c.error)))
                .collect();
            let failures: Vec<String> = m.failures.iter().map(|f| json_str(f)).collect();
            let trace: Vec<String> = m.trace.iter().map(|t| json_str(t)).collect();
            format!(
                "{{\"op\":{},\"boundaries\":{},\"commit_point\":{},\"capped\":{},\
                 \"allocs\":{},\"cases\":[{}],\"enospc\":[{}],\"failures\":[{}],\
                 \"trace\":[{}]}}",
                json_str(&m.op),
                m.boundaries,
                m.commit_point.map_or("null".to_owned(), |c| c.to_string()),
                m.capped,
                m.allocs,
                cases.join(","),
                enospc.join(","),
                failures.join(","),
                trace.join(",")
            )
        })
        .collect();
    let unrecoverable: usize = results.iter().map(|m| m.failures.len()).sum();
    format!(
        "{{\"region_bytes\":{},\"unrecoverable\":{},\"ops\":[{}]}}",
        REGION_BYTES,
        unrecoverable,
        ops.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_survives_every_boundary() {
        let ops = scripted_ops();
        let spec = ops.iter().find(|s| s.name == "create").unwrap();
        let m = run_op_matrix(spec, None);
        assert!(m.is_clean(), "{:#?}", m.failures);
        assert!(m.boundaries > 1, "create crosses multiple fences");
        assert_eq!(m.cases.len() as u64, m.boundaries + 1);
        assert!(m.commit_point.is_some());
        assert!(m.allocs > 0 && m.enospc.len() as u64 == m.allocs);
    }

    #[test]
    fn compaction_survives_every_boundary() {
        let m = run_compact_matrix(None);
        assert!(m.is_clean(), "{:#?}", m.failures);
        assert!(m.boundaries > 1, "a relocation crosses multiple fences");
        assert_eq!(m.cases.len() as u64, m.boundaries + 1);
        let cp = m.commit_point.expect("relocation has a commit point");
        assert!(cp > 0, "boundary 0 must roll back to the old layout");
    }

    #[test]
    fn capped_sampling_keeps_both_anchors() {
        let (v, capped) = sample_boundaries(10, Some(4));
        assert!(capped);
        assert_eq!(v, vec![0, 1, 9, 10]);
        let (v, capped) = sample_boundaries(3, Some(8));
        assert!(!capped);
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn failing_cell_attaches_flight_recorder() {
        let m = run_op_matrix(&failing_spec_for_tests(), Some(2));
        assert!(!m.is_clean(), "the no-op spec must fail the pre≠post check");
        assert!(!m.trace.is_empty(), "flight-recorder dump missing on failure");
        let j = to_json(std::slice::from_ref(&m));
        assert!(j.contains("\"trace\":[\""), "dump missing from the JSON report");
    }

    #[test]
    fn clean_matrix_has_no_flight_dump() {
        let ops = scripted_ops();
        let spec = ops.iter().find(|s| s.name == "create").unwrap();
        let m = run_op_matrix(spec, Some(2));
        assert!(m.is_clean(), "{:#?}", m.failures);
        assert!(m.trace.is_empty(), "clean runs must not carry a dump");
    }

    #[test]
    fn probe_costs_prints_current_persistence_profile() {
        for c in probe_costs() {
            println!(
                "BASELINE {}: fences={} elided={} pool_trips={} seg_trips={}",
                c.op, c.fences, c.fences_elided, c.pool_trips, c.seg_trips
            );
            assert!(c.fences > 0, "{} crossed no fence", c.op);
        }
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let ops = scripted_ops();
        let spec = ops.iter().find(|s| s.name == "symlink").unwrap();
        let m = run_op_matrix(spec, Some(4));
        assert!(m.is_clean(), "{:#?}", m.failures);
        let j = to_json(std::slice::from_ref(&m));
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"unrecoverable\":0"));
        assert!(j.contains("\"op\":\"symlink\""));
    }
}
