//! Multi-process `kill -9` recovery harness (`crashlab procs`).
//!
//! The crash matrix ([`super::matrix`]) proves crash consistency against
//! *power failure*: the media image is frozen at a fence and everything
//! after it is discarded. A `kill -9` is a different fault: the process
//! loses its DRAM (volatile caches, lock ownership, attach count) but every
//! store it already issued to the `MAP_SHARED` region file **stays visible**
//! to the surviving processes. This harness exercises exactly that fault:
//!
//! 1. The driver formats a region *file*, populates it, and spawns `N` real
//!    OS processes (via a caller-supplied spawner, so the libtest binary and
//!    `crashlab` reuse one driver). Every worker maps the same file and
//!    joins the mount group through [`SimurghFs::mount_shared`].
//! 2. Phase gates live in the region itself (the [`shared::O_SCRATCH`]
//!    words) — the harness needs no IPC beyond the file. Once everyone is
//!    attached, the victim (slot 0) plants a sentinel **busy line** (a held
//!    line lock in `/sent`, the thing only a peer's timeout-steal can free),
//!    then runs one scripted op from [`super::matrix::scripted_ops`] with a
//!    fence hook armed to `SIGKILL` itself at a scripted persistence
//!    boundary. Boundary counts are measured beforehand on a scratch heap
//!    region; if the live run crosses fewer fences than scripted, the victim
//!    falls back to killing itself right after the op — either way it dies
//!    by signal 9, never a clean exit (the driver asserts the wait status).
//! 3. The survivors then write colliding names into the sentinel line. Each
//!    must observe the victim's stale busy flag, time out, repair and steal
//!    it ([`EventKind::LockSteal`] in *their* trace ring — the
//!    decentralized-recovery witness), and complete its own workload.
//! 4. Finally the driver takes an exclusive [`SimurghFs::mount`]
//!    of the file (full recovery: the killed process leaked its attach
//!    count, so the region is unclean) and asserts convergence: fsck clean,
//!    a second recovery reclaims nothing, and the tree and used-block count
//!    are identical across the two recoveries — no leaked block survives.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simurgh_fsapi::{FileMode, FileSystem, FsResult, ProcCtx};
use simurgh_pmem::{FaultPlan, PPtr, PmemRegion, RegionBuilder};

use simurgh_core::check;
use simurgh_core::fs::{SimurghConfig, SimurghFs};
use simurgh_core::obs::{self, EventKind};
use simurgh_core::shared;

use crate::testing::{colliding_name, crash_holding_line};

use super::matrix::{compact_spec, extent_map_of, scripted_ops, OpSpec};

/// Region-file size: matches the matrix so boundary counts are comparable.
const REGION_BYTES: usize = 8 << 20;

/// Directory the victim's sentinel busy line lives in.
const SENT_DIR: &str = "/sent";
/// Name hashed to pick the sentinel line.
const SENT_NAME: &str = "victim";

/// Ops the tier-1 smoke matrix runs (a structural sample of the seven).
pub const DEFAULT_OPS: &[&str] = &["create", "unlink", "append"];

/// Every op the harness can kill a victim inside: the scripted matrix ops
/// plus the online-compaction pass. `compact` is deliberately absent from
/// [`scripted_ops`] (relocation is tree-invisible, so the generic pre≠post
/// machinery cannot witness it); here the cell adds an extent-map witness
/// on the relocated file instead.
fn known_specs() -> Vec<OpSpec> {
    let mut specs = scripted_ops();
    specs.push(compact_spec());
    specs
}

// Environment protocol between driver and worker processes.
pub const ENV_ROLE: &str = "SIMURGH_PROCS_ROLE";
pub const ENV_FILE: &str = "SIMURGH_PROCS_FILE";
pub const ENV_OP: &str = "SIMURGH_PROCS_OP";
pub const ENV_KILL_FENCE: &str = "SIMURGH_PROCS_KILL_FENCE";
pub const ENV_SLOT: &str = "SIMURGH_PROCS_SLOT";

/// Harness phase gate (parent-advanced) at [`shared::O_SCRATCH`].
const O_PHASE: u64 = shared::O_SCRATCH;
/// Worker ready counter at `O_SCRATCH + 8`.
const O_READY: u64 = shared::O_SCRATCH + 8;

/// Phase values: 0 = booting, 1 = all attached (victim may run and die),
/// 2 = victim confirmed dead (survivors steal and report).
const PHASE_RUN: u64 = 1;
const PHASE_STEAL: u64 = 2;

/// How long the driver waits for all workers to attach.
const ATTACH_WAIT: Duration = Duration::from_secs(60);
/// How long a worker waits on a phase gate before giving up (exit 3).
const PHASE_WAIT: Duration = Duration::from_secs(120);

fn procs_config() -> SimurghConfig {
    // Fixed segments keep scratch-measured boundary counts host-independent;
    // a short line hold keeps the survivors' timeout-steal quick.
    SimurghConfig {
        segments: Some(4),
        line_max_hold: Duration::from_millis(15),
        ..SimurghConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

static KILL_ARMED: AtomicBool = AtomicBool::new(false);
static KILL_SEEN: AtomicU64 = AtomicU64::new(0);
static KILL_AFTER: AtomicU64 = AtomicU64::new(0);

mod sys {
    extern "C" {
        pub fn getpid() -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }
}

/// `SIGKILL` ourselves: the OS reaps us mid-store like a real crash — no
/// destructors, no unwinding, no flush of anything still in DRAM.
fn die_by_sigkill() -> ! {
    // SAFETY: kill(getpid(), SIGKILL) only targets this process.
    unsafe {
        sys::kill(sys::getpid(), 9);
    }
    // SIGKILL cannot be handled; this is unreachable in practice.
    loop {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The fence observer the victim installs *before* `mount_shared` (the hook
/// slot is first-set-wins, so installing early beats the mount's own
/// observer). Counts persistence boundaries crossed since arming: its own
/// calls, since the victim runs its op on one thread.
fn kill_hook() {
    if !KILL_ARMED.load(Ordering::Acquire) {
        return;
    }
    let since = KILL_SEEN.fetch_add(1, Ordering::Relaxed) + 1;
    if since >= KILL_AFTER.load(Ordering::Acquire) {
        die_by_sigkill();
    }
}

fn wait_phase(region: &PmemRegion, at_least: u64) {
    let phase = region.atomic_u64(PPtr::new(O_PHASE));
    let deadline = Instant::now() + PHASE_WAIT;
    while phase.load(Ordering::Acquire) < at_least {
        if Instant::now() > deadline {
            eprintln!("procs worker: phase {at_least} never arrived");
            std::process::exit(3);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn env_req(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| panic!("procs worker: missing {key}"))
}

/// True when this process was spawned as a harness worker (the hidden
/// re-exec entry points gate on this before calling [`worker_main`]).
pub fn is_worker() -> bool {
    std::env::var(ENV_ROLE).is_ok()
}

/// Body of a spawned worker process. Victims die by `SIGKILL`; survivors
/// print one `PROCS_REPORT {...}` line on stdout and exit 0 (4 when their
/// own workload failed, 3 on a phase-gate timeout).
pub fn worker_main() -> ! {
    let role = env_req(ENV_ROLE);
    let file = env_req(ENV_FILE);
    let op_name = env_req(ENV_OP);
    let kill_fence: u64 = env_req(ENV_KILL_FENCE).parse().expect("numeric kill fence");
    let slot: u32 = env_req(ENV_SLOT).parse().expect("numeric slot");

    let specs = known_specs();
    let spec = specs
        .iter()
        .find(|s| s.name == op_name)
        .unwrap_or_else(|| panic!("procs worker: unknown op {op_name}"));

    let region =
        Arc::new(RegionBuilder::open_file(&file).build().expect("map shared region file"));
    if role == "victim" {
        region.set_fence_hook(Box::new(kill_hook));
    }
    let fs = SimurghFs::mount_shared(Arc::clone(&region), procs_config())
        .expect("mount_shared region file");
    region.atomic_u64(PPtr::new(O_READY)).fetch_add(1, Ordering::AcqRel);
    wait_phase(&region, PHASE_RUN);

    if role == "victim" {
        let ctx = ProcCtx::root(1);
        // The sentinel: a line lock only a *peer's* timeout-steal can free.
        crash_holding_line(&fs, SENT_DIR, SENT_NAME);
        if kill_fence == 0 {
            die_by_sigkill();
        }
        KILL_SEEN.store(0, Ordering::Relaxed);
        KILL_AFTER.store(kill_fence, Ordering::Release);
        KILL_ARMED.store(true, Ordering::Release);
        let _ = (spec.op)(&fs, &ctx);
        // The live run crossed fewer boundaries than scripted (mount state
        // shifted an allocation): die right after the op instead.
        die_by_sigkill();
    }

    // Survivor: wait for the driver to confirm the victim is dead, then
    // steal the sentinel line and prove liveness.
    wait_phase(&region, PHASE_STEAL);
    let ctx = ProcCtx::root(100 + slot);
    let coll = colliding_name(SENT_NAME, &format!("s{slot}-"));
    let sentinel_ok = fs.write_file(&ctx, &format!("{SENT_DIR}/{coll}"), b"stolen").is_ok();
    let own = format!("/p{slot}");
    let ops_ok = (|| -> FsResult<()> {
        fs.mkdir(&ctx, &own, FileMode::dir(0o755))?;
        for i in 0..3 {
            fs.write_file(&ctx, &format!("{own}/f{i}"), b"alive")?;
        }
        assert_eq!(fs.read_file(&ctx, &format!("{own}/f0"))?, b"alive");
        Ok(())
    })()
    .is_ok();
    let events = obs::recent(4096);
    let lock_steals = events.iter().filter(|e| e.kind == EventKind::LockSteal).count();
    let busy_timeouts = events.iter().filter(|e| e.kind == EventKind::BusyTimeout).count();
    println!(
        "PROCS_REPORT {{\"slot\":{slot},\"lock_steals\":{lock_steals},\
         \"busy_timeouts\":{busy_timeouts},\"sentinel_ok\":{sentinel_ok},\
         \"ops_ok\":{ops_ok}}}"
    );
    fs.unmount(); // not last out: the victim leaked its attach count
    std::process::exit(if sentinel_ok && ops_ok { 0 } else { 4 });
}

// ---------------------------------------------------------------------------
// Driver side
// ---------------------------------------------------------------------------

/// How the driver spawns one worker: gets the environment protocol pairs,
/// must return a child running [`worker_main`] with **stdout piped** (the
/// report line is scraped from it). `crashlab` re-execs itself with a hidden
/// subcommand; the test suite re-execs the test binary with `--exact`.
pub type SpawnFn<'a> = &'a dyn Fn(&[(String, String)]) -> std::io::Result<std::process::Child>;

/// Driver options.
pub struct ProcsOpts {
    /// Scripted ops to run (matrix names); empty selects [`DEFAULT_OPS`].
    pub ops: Vec<String>,
    /// Total processes per cell, including the victim (≥ 2).
    pub nprocs: u32,
    /// Max kill points per op (≥ 1; boundary 0 always included).
    pub cap: u64,
    /// Directory for region files; `None` uses the system temp dir.
    pub dir: Option<PathBuf>,
}

impl Default for ProcsOpts {
    fn default() -> Self {
        ProcsOpts { ops: Vec::new(), nprocs: 2, cap: 2, dir: None }
    }
}

/// One survivor's scraped report line.
#[derive(Debug, Clone)]
pub struct SurvivorReport {
    pub slot: u32,
    pub lock_steals: u64,
    pub busy_timeouts: u64,
    pub sentinel_ok: bool,
    pub ops_ok: bool,
}

/// Outcome of one (op × kill-boundary) cell.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    pub op: String,
    /// Scripted boundary the victim died at (post-op fallback if the live
    /// run crossed fewer fences).
    pub kill_fence: u64,
    /// Boundaries the op crossed on the scratch measurement run.
    pub boundaries: u64,
    pub nprocs: u32,
    /// The wait status said signal 9 — a real `kill -9`, not an exit.
    pub victim_killed: bool,
    pub survivors: Vec<SurvivorReport>,
    /// Objects the first exclusive recovery reclaimed (victim garbage; any
    /// value is legitimate).
    pub reclaimed_first: u64,
    /// Objects the second recovery reclaimed — must be 0 (convergence).
    pub reclaimed_second: u64,
    /// Invariant violations; empty means the cell passed.
    pub failures: Vec<String>,
}

impl CellResult {
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The whole kill-9 matrix run.
#[derive(Debug, Clone, Default)]
pub struct ProcsReport {
    pub nprocs: u32,
    pub cells: Vec<CellResult>,
}

impl ProcsReport {
    pub fn is_clean(&self) -> bool {
        self.cells.iter().all(|c| c.is_clean())
    }

    pub fn unrecoverable(&self) -> usize {
        self.cells.iter().map(|c| c.failures.len()).sum()
    }
}

/// Kill boundaries for an op that crosses `b` fences: start, middle, end,
/// truncated to `cap` points. A `cap` above 3 adds the quartiles — the
/// compaction cell uses that to land kills *inside* a relocation (between
/// the data copy and the map-swap), not just at its edges.
fn kill_points(b: u64, cap: u64) -> Vec<u64> {
    let mut v = vec![0, b / 2, b];
    if cap > 3 {
        v.push(b / 4);
        v.push(3 * b / 4);
    }
    v.sort_unstable();
    v.dedup();
    v.truncate(cap.max(1) as usize);
    v
}

/// Populates a fresh file system for one cell: the op's scripted setup plus
/// the sentinel directory. Shared by the real region file and the scratch
/// boundary-measurement region so both see the same media layout.
fn populate(fs: &SimurghFs, spec: &OpSpec, ctx: &ProcCtx) {
    (spec.setup)(fs, ctx);
    fs.mkdir(ctx, SENT_DIR, FileMode::dir(0o755)).expect("mkdir sentinel dir");
}

/// Counts the persistence boundaries `spec`'s op crosses, on a scratch heap
/// region with the same config and populate sequence. The victim's live run
/// starts from a remounted (not freshly formatted) image, so the count is a
/// close bound rather than exact — the victim's post-op fallback kill covers
/// the difference.
fn measure_boundaries(spec: &OpSpec) -> u64 {
    let ctx = ProcCtx::root(1);
    let region = Arc::new(PmemRegion::new_tracked(REGION_BYTES));
    let fs = SimurghFs::format(region, procs_config()).expect("format scratch region");
    populate(&fs, spec, &ctx);
    fs.region().arm_faults(FaultPlan::record());
    (spec.op)(&fs, &ctx).expect("measurement run");
    fs.region().fence_count()
}

fn worker_env(path: &Path, role: &str, op: &str, kill_fence: u64, slot: u32) -> Vec<(String, String)> {
    vec![
        (ENV_ROLE.into(), role.into()),
        (ENV_FILE.into(), path.display().to_string()),
        (ENV_OP.into(), op.into()),
        (ENV_KILL_FENCE.into(), kill_fence.to_string()),
        (ENV_SLOT.into(), slot.to_string()),
    ]
}

fn field_u64(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = json.find(&pat)? + pat.len();
    let rest = &json[i..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_bool(json: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let i = json.find(&pat)? + pat.len();
    let rest = &json[i..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

fn parse_report(stdout: &str) -> Option<SurvivorReport> {
    // The marker may be mid-line: a libtest worker prints it on the same
    // line as the harness's own "test ... " progress prefix.
    let line = stdout
        .lines()
        .find_map(|l| l.find("PROCS_REPORT ").map(|i| &l[i..]))?;
    Some(SurvivorReport {
        slot: field_u64(line, "slot")? as u32,
        lock_steals: field_u64(line, "lock_steals")?,
        busy_timeouts: field_u64(line, "busy_timeouts")?,
        sentinel_ok: field_bool(line, "sentinel_ok")?,
        ops_ok: field_bool(line, "ops_ok")?,
    })
}

/// The fragmented file's pre-kill `(start, len)` extent map and bytes —
/// the compaction cell's relocation witness.
type FragWitness = (Vec<(u64, u64)>, Vec<u8>);

/// Runs one cell: populate the region file, spawn the process group, kill
/// the victim at `kill_fence`, collect survivor reports, then verify
/// convergence with two exclusive recovery mounts.
fn run_cell(
    spec: &OpSpec,
    boundaries: u64,
    kill_fence: u64,
    nprocs: u32,
    dir: &Path,
    spawn: SpawnFn,
) -> CellResult {
    let mut cell = CellResult {
        op: spec.name.to_owned(),
        kill_fence,
        boundaries,
        nprocs,
        ..CellResult::default()
    };
    let fail = |cell: &mut CellResult, msg: String| cell.failures.push(format!(
        "{} @kill {kill_fence} x{nprocs}: {msg}",
        spec.name
    ));

    let path = dir.join(format!(
        "simurgh-procs-{}-{}-k{kill_fence}-n{nprocs}.img",
        std::process::id(),
        spec.name
    ));
    let _ = std::fs::remove_file(&path);

    // Populate through a private mapping, then unmap before anyone mounts.
    // For the compaction op, also capture the relocation witness: the
    // fragmented file's pre-kill extent map and bytes. After recovery the
    // map must be exactly this old layout or exactly one merged extent —
    // never a mixture — and the bytes must be untouched.
    let mut frag_witness: Option<FragWitness> = None;
    {
        let region = match RegionBuilder::new(REGION_BYTES).file(&path).build() {
            Ok(r) => Arc::new(r),
            Err(e) => {
                fail(&mut cell, format!("create region file: {e}"));
                return cell;
            }
        };
        let ctx = ProcCtx::root(1);
        let fs = match SimurghFs::format(region, procs_config()) {
            Ok(fs) => fs,
            Err(e) => {
                fail(&mut cell, format!("format region file: {e}"));
                return cell;
            }
        };
        populate(&fs, spec, &ctx);
        if spec.name == "compact" {
            let w = extent_map_of(&fs, &ctx, "/d/frag").and_then(|map| {
                let bytes = fs
                    .read_to_vec(&ctx, "/d/frag")
                    .map_err(|e| format!("read witness bytes: {e}"))?;
                Ok((map, bytes))
            });
            match w {
                Ok((map, bytes)) if map.len() >= 2 => frag_witness = Some((map, bytes)),
                Ok((map, _)) => {
                    fail(&mut cell, format!("setup failed to fragment /d/frag: {map:?}"));
                    return cell;
                }
                Err(e) => {
                    fail(&mut cell, format!("capture relocation witness: {e}"));
                    return cell;
                }
            }
        }
        fs.unmount();
    }

    // The monitor mapping: the driver's window onto the phase gate words.
    let monitor = match RegionBuilder::open_file(&path).build() {
        Ok(r) => r,
        Err(e) => {
            fail(&mut cell, format!("map monitor region: {e}"));
            return cell;
        }
    };
    monitor.atomic_u64(PPtr::new(O_PHASE)).store(0, Ordering::Release);
    monitor.atomic_u64(PPtr::new(O_READY)).store(0, Ordering::Release);

    let mut victim = match spawn(&worker_env(&path, "victim", spec.name, kill_fence, 0)) {
        Ok(c) => c,
        Err(e) => {
            fail(&mut cell, format!("spawn victim: {e}"));
            return cell;
        }
    };
    let mut survivors = Vec::new();
    for slot in 1..nprocs {
        match spawn(&worker_env(&path, "survivor", spec.name, kill_fence, slot)) {
            Ok(c) => survivors.push((slot, c)),
            Err(e) => fail(&mut cell, format!("spawn survivor {slot}: {e}")),
        }
    }

    // Barrier: every worker attached (mount_shared done) before the victim
    // is allowed to run — the kill lands mid-op, never mid-mount.
    let ready = monitor.atomic_u64(PPtr::new(O_READY));
    let deadline = Instant::now() + ATTACH_WAIT;
    while ready.load(Ordering::Acquire) < nprocs as u64 {
        if Instant::now() > deadline {
            fail(&mut cell, "workers never attached".into());
            let _ = victim.kill();
            for (_, c) in &mut survivors {
                let _ = c.kill();
            }
            return cell;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    monitor.atomic_u64(PPtr::new(O_PHASE)).store(PHASE_RUN, Ordering::Release);

    // The victim must die by signal 9 — a clean exit means the harness
    // failed to kill a real process mid-op.
    match victim.wait() {
        Ok(status) => {
            #[cfg(unix)]
            {
                use std::os::unix::process::ExitStatusExt;
                cell.victim_killed = status.signal() == Some(9);
            }
            if !cell.victim_killed {
                fail(&mut cell, format!("victim did not die by SIGKILL: {status}"));
            }
        }
        Err(e) => fail(&mut cell, format!("wait victim: {e}")),
    }
    monitor.atomic_u64(PPtr::new(O_PHASE)).store(PHASE_STEAL, Ordering::Release);

    for (slot, child) in survivors {
        match child.wait_with_output() {
            Ok(out) => {
                if !out.status.success() {
                    fail(&mut cell, format!("survivor {slot} exited {}", out.status));
                }
                let stdout = String::from_utf8_lossy(&out.stdout);
                match parse_report(&stdout) {
                    Some(r) => cell.survivors.push(r),
                    None => fail(
                        &mut cell,
                        format!(
                            "survivor {slot} printed no report; stdout: {:?}",
                            &stdout[..stdout.len().min(400)]
                        ),
                    ),
                }
            }
            Err(e) => fail(&mut cell, format!("wait survivor {slot}: {e}")),
        }
    }
    drop(monitor);

    let mut survivor_failures = Vec::new();
    for r in &cell.survivors {
        if !r.sentinel_ok {
            survivor_failures
                .push(format!("survivor {} could not steal the sentinel line", r.slot));
        }
        if !r.ops_ok {
            survivor_failures.push(format!("survivor {} workload failed after the kill", r.slot));
        }
    }
    for msg in survivor_failures {
        fail(&mut cell, msg);
    }
    let steals: u64 = cell.survivors.iter().map(|r| r.lock_steals).sum();
    if cell.victim_killed && steals == 0 {
        fail(&mut cell, "no surviving process traced a lock_steal".into());
    }

    // Convergence: exclusive recovery, then a second one that must find
    // nothing left to do.
    let ctx = ProcCtx::root(1);
    let verdict = (|| -> Result<(), String> {
        let region = Arc::new(
            RegionBuilder::open_file(&path).build().map_err(|e| format!("reopen: {e}"))?,
        );
        let fs = SimurghFs::mount(region, procs_config())
            .map_err(|e| format!("recovery mount: {e}"))?;
        cell.reclaimed_first = fs.recovery_report().reclaimed_objects;
        let used1 = fs.recovery_report().used_blocks;
        let fsck = check::check(&fs, true);
        if !fsck.is_clean() {
            return Err(format!("fsck dirty after recovery: {:?}", fsck.violations));
        }
        let tree1 = fs
            .snapshot_tree(&ctx, "/")
            .map_err(|e| format!("recovered tree unreadable: {e}"))?;
        if let Some((old_map, old_bytes)) = &frag_witness {
            // A committed relocation is by construction one inline extent
            // covering the whole file; anything else must be the untouched
            // old layout (the relocation journal rolled back). A mixture
            // means the map-swap tore across the kill.
            let got = extent_map_of(&fs, &ctx, "/d/frag")?;
            let committed = got.len() == 1 && got[0].1 == old_bytes.len() as u64;
            if &got != old_map && !committed {
                return Err(format!(
                    "relocated extent map is a mixture after kill -9: {got:?} \
                     (old layout {old_map:?})"
                ));
            }
            let now = fs
                .read_to_vec(&ctx, "/d/frag")
                .map_err(|e| format!("read relocated file after recovery: {e}"))?;
            if &now != old_bytes {
                return Err("relocated file bytes changed across kill -9 + recovery".into());
            }
        }
        drop(fs); // no unmount: the file stays unclean for the second pass

        let region2 = Arc::new(
            RegionBuilder::open_file(&path).build().map_err(|e| format!("reopen 2: {e}"))?,
        );
        let fs2 = SimurghFs::mount(region2, procs_config())
            .map_err(|e| format!("second recovery mount: {e}"))?;
        cell.reclaimed_second = fs2.recovery_report().reclaimed_objects;
        if cell.reclaimed_second != 0 {
            return Err(format!(
                "second recovery reclaimed {} objects — the first left garbage",
                cell.reclaimed_second
            ));
        }
        if fs2.recovery_report().used_blocks != used1 {
            return Err(format!(
                "used blocks drifted across idle recoveries: {used1} -> {}",
                fs2.recovery_report().used_blocks
            ));
        }
        let tree2 = fs2
            .snapshot_tree(&ctx, "/")
            .map_err(|e| format!("second recovered tree unreadable: {e}"))?;
        if tree1 != tree2 {
            return Err("tree changed across an idle recovery".into());
        }
        if !check::check(&fs2, true).is_clean() {
            return Err("fsck dirty after second recovery".into());
        }
        fs2.unmount();
        Ok(())
    })();
    if let Err(e) = verdict {
        fail(&mut cell, e);
    }

    let _ = std::fs::remove_file(&path);
    cell
}

/// Runs the kill-9 matrix: for each selected op, measure its boundary
/// count, then run one cell per kill point with `opts.nprocs` processes.
pub fn run_procs(opts: &ProcsOpts, spawn: SpawnFn) -> ProcsReport {
    assert!(opts.nprocs >= 2, "need a victim and at least one survivor");
    let dir = opts.dir.clone().unwrap_or_else(std::env::temp_dir);
    let names: Vec<String> = if opts.ops.is_empty() {
        DEFAULT_OPS.iter().map(|s| s.to_string()).collect()
    } else {
        opts.ops.clone()
    };
    let specs = known_specs();
    let mut report = ProcsReport { nprocs: opts.nprocs, cells: Vec::new() };
    for name in &names {
        let Some(spec) = specs.iter().find(|s| s.name == name.as_str()) else {
            report.cells.push(CellResult {
                op: name.clone(),
                nprocs: opts.nprocs,
                failures: vec![format!("unknown op {name}")],
                ..CellResult::default()
            });
            continue;
        };
        let boundaries = measure_boundaries(spec);
        for k in kill_points(boundaries, opts.cap) {
            report.cells.push(run_cell(spec, boundaries, k, opts.nprocs, &dir, spawn));
        }
    }
    report
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

/// Renders the report as the `crashlab procs --json` object (see
/// EXPERIMENTS.md for the schema).
pub fn to_json(report: &ProcsReport) -> String {
    let cells: Vec<String> = report
        .cells
        .iter()
        .map(|c| {
            let survivors: Vec<String> = c
                .survivors
                .iter()
                .map(|s| {
                    format!(
                        "{{\"slot\":{},\"lock_steals\":{},\"busy_timeouts\":{},\
                         \"sentinel_ok\":{},\"ops_ok\":{}}}",
                        s.slot, s.lock_steals, s.busy_timeouts, s.sentinel_ok, s.ops_ok
                    )
                })
                .collect();
            let failures: Vec<String> = c.failures.iter().map(|f| json_str(f)).collect();
            format!(
                "{{\"op\":{},\"kill_fence\":{},\"boundaries\":{},\"nprocs\":{},\
                 \"victim_killed\":{},\"reclaimed_first\":{},\"reclaimed_second\":{},\
                 \"survivors\":[{}],\"failures\":[{}]}}",
                json_str(&c.op),
                c.kill_fence,
                c.boundaries,
                c.nprocs,
                c.victim_killed,
                c.reclaimed_first,
                c.reclaimed_second,
                survivors.join(","),
                failures.join(",")
            )
        })
        .collect();
    format!(
        "{{\"region_bytes\":{},\"nprocs\":{},\"unrecoverable\":{},\"cells\":[{}]}}",
        REGION_BYTES,
        report.nprocs,
        report.unrecoverable(),
        cells.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_points_keep_anchors_and_cap() {
        assert_eq!(kill_points(10, 3), vec![0, 5, 10]);
        assert_eq!(kill_points(10, 2), vec![0, 5]);
        assert_eq!(kill_points(1, 3), vec![0, 1]);
        assert_eq!(kill_points(0, 3), vec![0]);
        // Above three points the quartiles join in — interior kills.
        assert_eq!(kill_points(12, 5), vec![0, 3, 6, 9, 12]);
        assert_eq!(kill_points(12, 4), vec![0, 3, 6, 9]);
    }

    #[test]
    fn compact_is_a_known_op_with_boundaries() {
        let specs = known_specs();
        let spec = specs.iter().find(|s| s.name == "compact").expect("compact spec wired in");
        assert!(
            measure_boundaries(spec) > 1,
            "a relocation pass crosses several persistence boundaries"
        );
    }

    #[test]
    fn report_line_roundtrips() {
        let line = "PROCS_REPORT {\"slot\":3,\"lock_steals\":2,\"busy_timeouts\":1,\
                    \"sentinel_ok\":true,\"ops_ok\":false}";
        let r = parse_report(&format!("noise\n{line}\nmore noise")).expect("parse");
        assert_eq!(r.slot, 3);
        assert_eq!(r.lock_steals, 2);
        assert_eq!(r.busy_timeouts, 1);
        assert!(r.sentinel_ok);
        assert!(!r.ops_ok);
        assert!(parse_report("no report here").is_none());
    }

    #[test]
    fn scripted_boundaries_are_measurable() {
        let specs = scripted_ops();
        for name in DEFAULT_OPS {
            let spec = specs.iter().find(|s| s.name == *name).expect("known op");
            assert!(measure_boundaries(spec) > 0, "{name} crosses at least one fence");
        }
    }

    #[test]
    fn json_report_shape() {
        let report = ProcsReport {
            nprocs: 2,
            cells: vec![CellResult {
                op: "create".into(),
                kill_fence: 3,
                boundaries: 7,
                nprocs: 2,
                victim_killed: true,
                survivors: vec![SurvivorReport {
                    slot: 1,
                    lock_steals: 1,
                    busy_timeouts: 1,
                    sentinel_ok: true,
                    ops_ok: true,
                }],
                reclaimed_first: 2,
                reclaimed_second: 0,
                failures: Vec::new(),
            }],
        };
        assert!(report.is_clean());
        let j = to_json(&report);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"unrecoverable\":0"));
        assert!(j.contains("\"victim_killed\":true"));
        assert!(j.contains("\"lock_steals\":1"));
    }
}
