//! What the observability registry times, checked at runtime: every wire
//! op, issued once, moves exactly its own latency histogram (the composed
//! trait helpers move their constituents' instead), and the data-copy
//! share of the Table 1 / Fig. 10 breakdowns times the copy alone.

use std::sync::Arc;

use simurgh_core::{SimurghConfig, SimurghFs};
use simurgh_fsapi::wire::{Request, RequestKind, Response};
use simurgh_fsapi::{Fd, FileMode, FileSystem, FsError, OpenFlags, ProcCtx, SeekFrom};
use simurgh_pmem::PmemRegion;
use simurgh_served::{dispatch, ConnFds};

fn fresh_fs() -> SimurghFs {
    SimurghFs::format(Arc::new(PmemRegion::new(32 << 20)), SimurghConfig::default())
        .expect("format")
}

/// The trait helpers that are not timed as themselves, with the ops they
/// are built from (in `RequestKind::ALL` order); `None` for a timed op.
fn composed_of(kind: RequestKind) -> Option<&'static [RequestKind]> {
    use RequestKind::*;
    Some(match kind {
        Name => &[],
        Create => &[Open],
        ReadFile | ReadToVec => &[Open, Close, Pread, Fstat],
        WriteFile => &[Open, Close, Pwrite, Fsync],
        SnapshotTree => &[Stat, Readdir],
        _ => return None,
    })
}

/// A request of `kind` that succeeds on the coverage test's tree, after
/// whatever setup it needs (issued through the trait, before the counts
/// are read). `fd` is an open read-write descriptor on `/d/f`.
fn request(fs: &SimurghFs, ctx: &ProcCtx, fd: Fd, kind: RequestKind) -> Request {
    let data = vec![0x5Au8; 64];
    let file = || "/d/f".to_owned();
    match kind {
        RequestKind::Name => Request::Name,
        RequestKind::Open => {
            Request::Open { path: file(), flags: OpenFlags::RDONLY, mode: FileMode::default() }
        }
        RequestKind::Create => Request::Create { path: "/d/c".into(), mode: FileMode::default() },
        RequestKind::Close => {
            let fd = fs.open(ctx, "/d/f", OpenFlags::RDONLY, FileMode::default()).unwrap();
            Request::Close { fd }
        }
        RequestKind::Read => Request::Read { fd, len: 64 },
        RequestKind::Write => Request::Write { fd, data },
        RequestKind::Pread => Request::Pread { fd, len: 64, off: 0 },
        RequestKind::Pwrite => Request::Pwrite { fd, data, off: 128 },
        RequestKind::Lseek => Request::Lseek { fd, pos: SeekFrom::Start(0) },
        RequestKind::Fsync => Request::Fsync { fd },
        RequestKind::Fstat => Request::Fstat { fd },
        RequestKind::Ftruncate => Request::Ftruncate { fd, len: 4096 },
        RequestKind::Fallocate => Request::Fallocate { fd, off: 0, len: 16384 },
        RequestKind::Unlink => {
            fs.write_file(ctx, "/d/gone", b"x").unwrap();
            Request::Unlink { path: "/d/gone".into() }
        }
        RequestKind::Mkdir => Request::Mkdir { path: "/m".into(), mode: FileMode::dir(0o755) },
        RequestKind::Rmdir => {
            fs.mkdir(ctx, "/r", FileMode::dir(0o755)).unwrap();
            Request::Rmdir { path: "/r".into() }
        }
        RequestKind::Rename => {
            fs.write_file(ctx, "/d/a", b"x").unwrap();
            Request::Rename { old: "/d/a".into(), new: "/d/b".into() }
        }
        RequestKind::Stat => Request::Stat { path: file() },
        RequestKind::Readdir => Request::Readdir { path: "/d".into() },
        RequestKind::Symlink => Request::Symlink { target: file(), linkpath: "/s".into() },
        RequestKind::Readlink => {
            fs.symlink(ctx, "/d/f", "/rl").unwrap();
            Request::Readlink { path: "/rl".into() }
        }
        RequestKind::Link => Request::Link { existing: file(), new: "/hard".into() },
        RequestKind::Chmod => Request::Chmod { path: file(), perm: 0o640 },
        RequestKind::SetTimes => Request::SetTimes { path: file(), atime: 1, mtime: 2 },
        RequestKind::Statfs => Request::Statfs,
        RequestKind::ReadFile => Request::ReadFile { path: file() },
        RequestKind::ReadToVec => Request::ReadToVec { path: file() },
        RequestKind::WriteFile => Request::WriteFile { path: "/w".into(), data },
        RequestKind::SnapshotTree => Request::SnapshotTree { root: "/d".into() },
    }
}

fn op_counts(fs: &SimurghFs) -> Vec<u64> {
    RequestKind::ALL.iter().map(|&k| fs.obs().snapshot(k).count).collect()
}

#[test]
fn every_wire_op_is_timed_as_itself() {
    let fs = fresh_fs();
    let ctx = ProcCtx::root(1);
    fs.mkdir(&ctx, "/d", FileMode::dir(0o755)).unwrap();
    fs.write_file(&ctx, "/d/f", &[7u8; 8192]).unwrap();
    let fd = fs.open(&ctx, "/d/f", OpenFlags::RDWR, FileMode::default()).unwrap();
    let mut fds = ConnFds::new();
    for kind in RequestKind::ALL {
        let req = request(&fs, &ctx, fd, kind);
        let before = op_counts(&fs);
        let resp = dispatch(&fs, &ctx, req, &mut fds);
        assert!(!matches!(resp, Response::Err(_)), "{kind:?} failed: {resp:?}");
        let moved: Vec<(RequestKind, u64)> = RequestKind::ALL
            .into_iter()
            .zip(op_counts(&fs).into_iter().zip(before))
            .filter(|(_, (after, before))| after != before)
            .map(|(k, (after, before))| (k, after - before))
            .collect();
        match composed_of(kind) {
            None => assert_eq!(moved, [(kind, 1)], "{kind:?} must move its own histogram only"),
            Some(parts) => {
                let kinds: Vec<RequestKind> = moved.iter().map(|&(k, _)| k).collect();
                assert_eq!(kinds, parts, "{kind:?} must record its constituent ops");
            }
        }
    }
}

#[test]
fn copy_time_excludes_a_failed_allocation() {
    let fs = fresh_fs();
    let ctx = ProcCtx::root(1);
    let fd = fs.open(&ctx, "/f", OpenFlags::CREATE, FileMode::default()).unwrap();
    let before = fs.data_stats().copy_ns;
    fs.alloc_faults().arm_at(1);
    let r = fs.pwrite(&ctx, fd, &[1u8; 4096], 0);
    assert!(matches!(r, Err(FsError::Injected(_))), "{r:?}");
    // The write failed allocating its block: nothing was copied, so no
    // copy time may be charged.
    assert_eq!(fs.data_stats().copy_ns, before);
    fs.alloc_faults().disarm();
    assert_eq!(fs.pwrite(&ctx, fd, &[1u8; 4096], 0).unwrap(), 4096);
    assert!(fs.data_stats().copy_ns > before, "a real copy is charged");
}
