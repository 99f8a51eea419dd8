//! Multi-process shared-region tests: file-backed regions, cold-cache
//! attach convergence, and the kill-9 recovery matrix.
//!
//! The kill-9 matrix spawns real OS processes by re-exec'ing this test
//! binary with `--exact procs_worker_entry` — the hidden worker test below
//! is inert in a normal run and becomes the worker body when the driver's
//! environment protocol is present.

use std::process::{Command, Stdio};
use std::sync::Arc;

use simurgh_core::{check, SimurghConfig, SimurghFs};
use simurgh_crashlab::testing::procs::{self, ProcsOpts};
use simurgh_fsapi::{FileMode, FileSystem, ProcCtx};
use simurgh_pmem::{PmemError, RegionBuilder};
use simurgh_tests::snapshot_tree;

const CTX: ProcCtx = ProcCtx::root(1);
const REGION_BYTES: usize = 8 << 20;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("simurgh-mp-{}-{name}.img", std::process::id()))
}

/// Hidden worker entry. A normal test run sees no worker environment and
/// passes trivially; the kill-9 driver re-execs this binary with the
/// protocol set, and then this "test" is the whole worker process.
#[test]
fn procs_worker_entry() {
    if procs::is_worker() {
        procs::worker_main();
    }
}

fn libtest_spawner(env: &[(String, String)]) -> std::io::Result<std::process::Child> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    // --nocapture: the survivor's report line must reach our pipe even
    // though the worker exits via process::exit.
    cmd.args(["--exact", "procs_worker_entry", "--nocapture"]).stdout(Stdio::piped());
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.spawn()
}

#[test]
fn same_file_remount_round_trip() {
    let path = tmp("roundtrip");
    let _ = std::fs::remove_file(&path);

    let region = Arc::new(
        RegionBuilder::new(REGION_BYTES).file(&path).build().expect("create region file"),
    );
    assert!(region.is_file_backed());
    let fs = SimurghFs::format(region, SimurghConfig::default()).expect("format");
    fs.mkdir(&CTX, "/d", FileMode::dir(0o755)).unwrap();
    fs.write_file(&CTX, "/d/a", b"alpha").unwrap();
    fs.write_file(&CTX, "/d/b", b"beta").unwrap();
    fs.symlink(&CTX, "/d/a", "/d/l").unwrap();
    let tree = snapshot_tree(&fs);
    fs.unmount();

    // A brand-new mapping of the same file sees everything.
    let region = Arc::new(RegionBuilder::open_file(&path).build().expect("reopen region file"));
    assert_eq!(region.file_path().unwrap(), path.as_path());
    let fs = SimurghFs::mount(region, SimurghConfig::default()).expect("remount");
    assert!(fs.recovery_report().was_clean, "clean unmount was durable in the file");
    assert_eq!(snapshot_tree(&fs), tree);
    assert_eq!(fs.read_to_vec(&CTX, "/d/a").unwrap(), b"alpha");
    assert_eq!(fs.readlink(&CTX, "/d/l").unwrap(), "/d/a");
    fs.unmount();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shrinking_a_region_file_is_a_typed_error() {
    // Growing an existing smaller file is aged-image adoption and succeeds
    // (see the aging tests); *shrinking* would truncate media and stays a
    // hard typed error.
    let path = tmp("badlen");
    std::fs::write(&path, vec![0u8; 2 * REGION_BYTES]).unwrap();
    match RegionBuilder::new(REGION_BYTES).file(&path).build() {
        Err(PmemError::SizeMismatch { file_len, requested }) => {
            assert_eq!(file_len, 2 * REGION_BYTES);
            assert_eq!(requested, REGION_BYTES);
        }
        Err(e) => panic!("expected SizeMismatch, got {e}"),
        Ok(_) => panic!("mapping an existing larger file must fail, not shrink it"),
    }
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        2 * REGION_BYTES as u64,
        "file untouched by the rejected open"
    );
    let _ = std::fs::remove_file(&path);
}

/// A second mount of the same file starts with every volatile cache cold —
/// empty directory index, no cursors, allocator rebuilt from the shared
/// claim bitmap — and must converge on media alone, without trusting the
/// first mount's DRAM.
#[test]
fn cold_cache_attach_converges_without_peer_dram() {
    let path = tmp("coldcache");
    let _ = std::fs::remove_file(&path);
    {
        let region = Arc::new(
            RegionBuilder::new(REGION_BYTES).file(&path).build().expect("create region file"),
        );
        let fs = SimurghFs::format(region, SimurghConfig::default()).expect("format");
        fs.mkdir(&CTX, "/d", FileMode::dir(0o755)).unwrap();
        for i in 0..20 {
            fs.write_file(&CTX, &format!("/d/f{i}"), format!("v{i}").as_bytes()).unwrap();
        }
        fs.unmount();
    }

    let r1 = Arc::new(RegionBuilder::open_file(&path).build().unwrap());
    let fs1 = SimurghFs::mount_shared(r1, SimurghConfig::default()).expect("recoverer mount");
    assert!(fs1.is_shared());
    let r2 = Arc::new(RegionBuilder::open_file(&path).build().unwrap());
    let fs2 = SimurghFs::mount_shared(r2, SimurghConfig::default()).expect("attacher mount");
    assert!(fs2.is_shared());

    // The attacher's cold index resolves the whole tree by verify-on-use.
    assert_eq!(snapshot_tree(&fs2), snapshot_tree(&fs1));
    assert_eq!(fs2.read_to_vec(&CTX, "/d/f7").unwrap(), b"v7");

    // Writes through either mount are visible through the other: no mount
    // may answer "definitely absent" from a stale negative cache, and block
    // allocation is arbitrated by the shared bitmap, never by local lists.
    fs1.write_file(&CTX, "/d/from1", b"one").unwrap();
    assert_eq!(fs2.read_to_vec(&CTX, "/d/from1").unwrap(), b"one");
    fs2.write_file(&CTX, "/d/from2", b"two").unwrap();
    assert_eq!(fs1.read_to_vec(&CTX, "/d/from2").unwrap(), b"two");
    fs2.unlink(&CTX, "/d/f3").unwrap();
    assert!(fs1.stat(&CTX, "/d/f3").is_err(), "peer unlink visible");
    assert_eq!(snapshot_tree(&fs2), snapshot_tree(&fs1));

    fs2.unmount(); // not last out
    fs1.unmount(); // last out: owns the clean flag

    let region = Arc::new(RegionBuilder::open_file(&path).build().unwrap());
    let fs = SimurghFs::mount(region, SimurghConfig::default()).expect("final mount");
    assert!(fs.recovery_report().was_clean, "last process out unmounted cleanly");
    assert!(check::check(&fs, true).is_clean());
    assert_eq!(fs.read_to_vec(&CTX, "/d/from1").unwrap(), b"one");
    assert_eq!(fs.read_to_vec(&CTX, "/d/from2").unwrap(), b"two");
    fs.unmount();
    let _ = std::fs::remove_file(&path);
}

fn assert_kill9_matrix(nprocs: u32) {
    let opts = ProcsOpts { nprocs, cap: 2, ..ProcsOpts::default() };
    let report = procs::run_procs(&opts, &libtest_spawner);
    assert!(
        report.is_clean(),
        "kill-9 matrix x{nprocs} failed:\n{:#?}",
        report.cells.iter().flat_map(|c| &c.failures).collect::<Vec<_>>()
    );
    assert_eq!(report.cells.len(), procs::DEFAULT_OPS.len() * 2, "3 op shapes x 2 kill points");
    for c in &report.cells {
        assert!(c.victim_killed, "{}: victim must die by SIGKILL", c.op);
        assert_eq!(c.survivors.len() as u32, nprocs - 1, "{}: every survivor reported", c.op);
        let steals: u64 = c.survivors.iter().map(|s| s.lock_steals).sum();
        assert!(steals >= 1, "{}: a survivor must trace the lock steal", c.op);
        assert_eq!(c.reclaimed_second, 0, "{}: recovery must converge", c.op);
    }
    let json = procs::to_json(&report);
    assert!(json.contains("\"unrecoverable\":0"));
    assert!(json.contains("\"victim_killed\":true"));
}

#[test]
fn kill9_matrix_two_procs() {
    assert_kill9_matrix(2);
}

/// Kill -9 *during compaction*: the victim dies mid-relocation (cap 5 adds
/// quartile kill points, landing between the data copy and the map-swap),
/// survivors keep operating, and the exclusive recovery resolves the
/// relocated file to exactly its old or its new extent map — never a
/// mixture — with zero leaked blocks (second recovery reclaims nothing).
#[test]
fn kill9_during_compaction_converges() {
    let opts = ProcsOpts {
        ops: vec!["compact".into()],
        nprocs: 2,
        cap: 5,
        ..ProcsOpts::default()
    };
    let report = procs::run_procs(&opts, &libtest_spawner);
    assert!(
        report.is_clean(),
        "kill-9 during compaction failed:\n{:#?}",
        report.cells.iter().flat_map(|c| &c.failures).collect::<Vec<_>>()
    );
    assert!(report.cells.len() >= 4, "anchor + quartile kill points all ran");
    for c in &report.cells {
        assert!(c.victim_killed, "victim must die by SIGKILL at fence {}", c.kill_fence);
        assert_eq!(c.reclaimed_second, 0, "recovery must converge at fence {}", c.kill_fence);
        let steals: u64 = c.survivors.iter().map(|s| s.lock_steals).sum();
        assert!(steals >= 1, "a survivor must trace the lock steal");
    }
}

#[test]
fn kill9_matrix_four_procs() {
    assert_kill9_matrix(4);
}
