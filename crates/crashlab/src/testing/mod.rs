//! Crash-injection helpers for tests, the `crashlab` binary and the
//! matrices.
//!
//! These utilities simulate the *process-crash* scenarios of §4.3 — a
//! process dying between protocol steps while holding a busy flag — which
//! cannot be produced through the public API (the API always completes its
//! protocols). They reach into the on-NVMM structures exactly the way a
//! dying process would leave them, through `SimurghFs`'s hidden
//! `testing_*` accessors.

use simurgh_fsapi::{FileSystem, ProcCtx};

use simurgh_core::dir;

pub mod matrix;
pub mod procs;
use simurgh_core::fs::SimurghFs;
use simurgh_core::hash::dir_line;
use simurgh_core::obj::{self, dirblock::NLINES};

/// Simulates a process that crashed mid-unlink of `dir_path/name`: the
/// line's busy flag is taken and the file entry invalidated (Fig. 5b steps
/// 1–2), then the "process" vanishes. The next process that needs this
/// line will time out, repair it, and roll the delete forward.
///
/// Panics if the entry does not exist.
pub fn crash_mid_unlink(fs: &SimurghFs, dir_path: &str, name: &str) {
    let ctx = ProcCtx::root(u32::MAX);
    let st = fs.stat(&ctx, dir_path).expect("directory exists");
    assert!(st.is_dir(), "{dir_path} is a directory");
    let (region, first) = fs.testing_dir_block(dir_path).expect("resolve dir block");
    let line = dir_line(name, NLINES);
    // analyze:allow(lock-discipline): deliberately leaks the busy flag to
    // simulate the crashed holder (waiters must repair the line).
    assert!(first.try_busy(&region, line), "line not busy before the crash");
    let env = fs.testing_dir_env();
    let fe = dir::lookup(&env, first, name).expect("entry exists");
    obj::invalidate(&region, fe.ptr());
    // The crashed process never releases the busy flag.
}

/// Simulates a process that crashed holding a busy line *before* doing any
/// persistent damage (e.g. right after acquiring the flag). Waiters must
/// still detect the crash and force-release.
pub fn crash_holding_line(fs: &SimurghFs, dir_path: &str, name: &str) {
    let (region, first) = fs.testing_dir_block(dir_path).expect("resolve dir block");
    let line = dir_line(name, NLINES);
    // analyze:allow(lock-discipline): deliberately leaks the busy flag to
    // simulate the crashed holder (waiters must repair the line).
    assert!(first.try_busy(&region, line), "line not busy before the crash");
}

/// Finds a name that hashes to the same directory line as `name` (useful
/// to force a waiter onto a crashed line).
pub fn colliding_name(name: &str, prefix: &str) -> String {
    let target = dir_line(name, NLINES);
    for i in 0.. {
        let cand = format!("{prefix}{i}");
        if dir_line(&cand, NLINES) == target {
            return cand;
        }
    }
    unreachable!()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simurgh_core::fs::SimurghConfig;
    use simurgh_fsapi::FileMode;
    use simurgh_pmem::PmemRegion;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn colliding_names_share_a_line() {
        let c = colliding_name("victim", "x");
        assert_eq!(dir_line(&c, NLINES), dir_line("victim", NLINES));
        assert_ne!(c, "victim");
    }

    #[test]
    fn waiter_completes_crashed_unlink() {
        let region = Arc::new(PmemRegion::new(32 << 20));
        let cfg = SimurghConfig {
            line_max_hold: Duration::from_millis(15),
            ..SimurghConfig::default()
        };
        let fs = SimurghFs::format(region, cfg).unwrap();
        let ctx = ProcCtx::root(1);
        fs.mkdir(&ctx, "/d", FileMode::dir(0o777)).unwrap();
        fs.write_file(&ctx, "/d/victim", b"x").unwrap();
        crash_mid_unlink(&fs, "/d", "victim");
        // Touch the same line from a "different process".
        let other = colliding_name("victim", "new");
        fs.write_file(&ctx, &format!("/d/{other}"), b"y").unwrap();
        assert!(fs.stat(&ctx, "/d/victim").is_err(), "delete rolled forward");
        assert!(fs.stat(&ctx, &format!("/d/{other}")).is_ok());
    }

    #[test]
    fn waiter_releases_innocent_crashed_line() {
        let region = Arc::new(PmemRegion::new(32 << 20));
        let cfg = SimurghConfig {
            line_max_hold: Duration::from_millis(15),
            ..SimurghConfig::default()
        };
        let fs = SimurghFs::format(region, cfg).unwrap();
        let ctx = ProcCtx::root(1);
        fs.mkdir(&ctx, "/d", FileMode::dir(0o777)).unwrap();
        fs.write_file(&ctx, "/d/keep", b"x").unwrap();
        crash_holding_line(&fs, "/d", "keep");
        let other = colliding_name("keep", "sib");
        fs.write_file(&ctx, &format!("/d/{other}"), b"y").unwrap();
        assert_eq!(fs.read_to_vec(&ctx, "/d/keep").unwrap(), b"x", "no damage to repair");
    }
}
