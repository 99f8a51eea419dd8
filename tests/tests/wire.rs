//! Wire-surface conformance: the serializable `Request` mirror of the
//! `FileSystem` trait drives an implementation to exactly the same place
//! as direct trait calls.
//!
//! Two `RefFs` instances run the same script — one through
//! `encode → decode → dispatch`, one through plain method calls — and
//! every step must agree on outcome class, payloads and metadata. The
//! script is checked to cover *all* `RequestKind`s, so adding a wire op
//! without extending the conformance script fails here (and adding a
//! trait method without a wire row fails the fsapi unit test
//! `every_trait_method_has_a_row`).

use std::collections::HashSet;

use simurgh_fsapi::reffs::RefFs;
use simurgh_fsapi::wire::{Request, RequestKind, Response};
use simurgh_fsapi::{
    Fd, FileMode, FileSystem, FsResult, OpenFlags, ProcCtx, SeekFrom, Stat,
};
use simurgh_served::dispatch::{dispatch, ConnFds};

const CTX: ProcCtx = ProcCtx::root(7);

/// The direct-call side's answer, normalized to the same shape space as
/// [`Response`].
#[derive(Debug)]
enum Direct {
    Unit(FsResult<()>),
    Fd(FsResult<Fd>),
    Size(FsResult<u64>),
    Data(FsResult<Vec<u8>>),
    Str(FsResult<String>),
    Stat(FsResult<Stat>),
    Statfs(FsResult<simurgh_fsapi::FsStats>),
    Entries(FsResult<Vec<simurgh_fsapi::DirEntry>>),
    Tree(FsResult<Vec<(String, simurgh_fsapi::FileType, u64)>>),
}

/// Runs `req` through the full wire path on `fs_w` and the equivalent
/// direct call on `fs_d`; panics on any observable divergence. Returns
/// the wire-side response (for fd extraction).
fn step(
    fs_w: &RefFs,
    fs_d: &RefFs,
    fds: &mut ConnFds,
    req: Request,
    covered: &mut HashSet<u8>,
) -> Response {
    covered.insert(req.kind() as u8);
    // The request itself must survive its wire form bit-for-bit.
    let decoded = Request::decode(&req.encode()).expect("request decodes");
    assert_eq!(decoded, req, "encode→decode is identity for {req:?}");

    let direct = direct_call(fs_d, &req);
    let resp = dispatch(fs_w, &CTX, decoded, fds);
    // Responses survive their wire form too.
    let resp2 = Response::decode(&resp.encode()).expect("response decodes");
    assert_eq!(resp2, resp, "response encode→decode is identity for {req:?}");

    check_agreement(&req, &resp, &direct);
    resp
}

/// The plain trait call equivalent of `req`, using the direct side's own
/// descriptor in place of the wire side's (`fd_map`-free: the script
/// substitutes fds before calling).
fn direct_call(fs: &RefFs, req: &Request) -> Direct {
    match req.clone() {
        Request::Name => Direct::Str(Ok(fs.name().to_owned())),
        Request::Open { path, flags, mode } => Direct::Fd(fs.open(&CTX, &path, flags, mode)),
        Request::Create { path, mode } => Direct::Fd(fs.create(&CTX, &path, mode)),
        Request::Close { fd } => Direct::Unit(fs.close(&CTX, fd)),
        Request::Read { fd, len } => {
            let mut buf = vec![0u8; len as usize];
            Direct::Data(fs.read(&CTX, fd, &mut buf).map(|n| {
                buf.truncate(n);
                buf
            }))
        }
        Request::Write { fd, data } => Direct::Size(fs.write(&CTX, fd, &data).map(|n| n as u64)),
        Request::Pread { fd, len, off } => {
            let mut buf = vec![0u8; len as usize];
            Direct::Data(fs.pread(&CTX, fd, &mut buf, off).map(|n| {
                buf.truncate(n);
                buf
            }))
        }
        Request::Pwrite { fd, data, off } => {
            Direct::Size(fs.pwrite(&CTX, fd, &data, off).map(|n| n as u64))
        }
        Request::Lseek { fd, pos } => Direct::Size(fs.lseek(&CTX, fd, pos)),
        Request::Fsync { fd } => Direct::Unit(fs.fsync(&CTX, fd)),
        Request::Fstat { fd } => Direct::Stat(fs.fstat(&CTX, fd)),
        Request::Ftruncate { fd, len } => Direct::Unit(fs.ftruncate(&CTX, fd, len)),
        Request::Fallocate { fd, off, len } => Direct::Unit(fs.fallocate(&CTX, fd, off, len)),
        Request::Unlink { path } => Direct::Unit(fs.unlink(&CTX, &path)),
        Request::Mkdir { path, mode } => Direct::Unit(fs.mkdir(&CTX, &path, mode)),
        Request::Rmdir { path } => Direct::Unit(fs.rmdir(&CTX, &path)),
        Request::Rename { old, new } => Direct::Unit(fs.rename(&CTX, &old, &new)),
        Request::Stat { path } => Direct::Stat(fs.stat(&CTX, &path)),
        Request::Readdir { path } => Direct::Entries(fs.readdir(&CTX, &path)),
        Request::Symlink { target, linkpath } => {
            Direct::Unit(fs.symlink(&CTX, &target, &linkpath))
        }
        Request::Readlink { path } => Direct::Str(fs.readlink(&CTX, &path)),
        Request::Link { existing, new } => Direct::Unit(fs.link(&CTX, &existing, &new)),
        Request::Chmod { path, perm } => Direct::Unit(fs.chmod(&CTX, &path, perm)),
        Request::SetTimes { path, atime, mtime } => {
            Direct::Unit(fs.set_times(&CTX, &path, atime, mtime))
        }
        Request::Statfs => Direct::Statfs(fs.statfs(&CTX)),
        Request::ReadFile { path } => Direct::Data(fs.read_file(&CTX, &path)),
        Request::ReadToVec { path } => Direct::Data(fs.read_to_vec(&CTX, &path)),
        Request::WriteFile { path, data } => Direct::Unit(fs.write_file(&CTX, &path, &data)),
        Request::SnapshotTree { root } => Direct::Tree(fs.snapshot_tree(&CTX, &root)),
    }
}

/// Both sides must agree on outcome class, errno, and payload (fds and
/// inos are instance-local, so those compare by presence, not value).
fn check_agreement(req: &Request, resp: &Response, direct: &Direct) {
    let ctx = format!("{req:?} → wire {resp:?} vs direct {direct:?}");
    match (resp, direct) {
        (Response::Err(we), d) => {
            let de = match d {
                Direct::Unit(Err(e))
                | Direct::Fd(Err(e))
                | Direct::Size(Err(e))
                | Direct::Data(Err(e))
                | Direct::Str(Err(e))
                | Direct::Stat(Err(e))
                | Direct::Statfs(Err(e))
                | Direct::Entries(Err(e))
                | Direct::Tree(Err(e)) => e,
                _ => panic!("wire errored, direct succeeded: {ctx}"),
            };
            assert_eq!(we.errno(), de.errno(), "same errno: {ctx}");
        }
        (Response::Unit, Direct::Unit(Ok(()))) => {}
        (Response::Fd(_), Direct::Fd(Ok(_))) => {}
        (Response::Size(w), Direct::Size(Ok(d))) => assert_eq!(w, d, "size agrees: {ctx}"),
        (Response::Data(w), Direct::Data(Ok(d))) => assert_eq!(w, d, "payload agrees: {ctx}"),
        (Response::Str(w), Direct::Str(Ok(d))) => assert_eq!(w, d, "string agrees: {ctx}"),
        (Response::Stat(w), Direct::Stat(Ok(d))) => {
            assert_eq!(w.size, d.size, "stat size agrees: {ctx}");
            assert_eq!(w.mode, d.mode, "stat mode agrees: {ctx}");
            assert_eq!(w.nlink, d.nlink, "stat nlink agrees: {ctx}");
        }
        (Response::Statfs(w), Direct::Statfs(Ok(d))) => {
            assert_eq!(w.total_bytes, d.total_bytes, "statfs agrees: {ctx}");
        }
        (Response::Entries(w), Direct::Entries(Ok(d))) => {
            let wn: Vec<_> = w.iter().map(|e| &e.name).collect();
            let dn: Vec<_> = d.iter().map(|e| &e.name).collect();
            assert_eq!(wn, dn, "entries agree: {ctx}");
        }
        (Response::Tree(w), Direct::Tree(Ok(d))) => {
            let wp: Vec<_> = w.iter().map(|(p, t, s)| (p, t, s)).collect();
            let dp: Vec<_> = d.iter().map(|(p, t, s)| (p, t, s)).collect();
            assert_eq!(wp, dp, "tree agrees: {ctx}");
        }
        _ => panic!("shape mismatch: {ctx}"),
    }
}

fn got_fd(resp: &Response) -> Fd {
    match resp {
        Response::Fd(fd) => *fd,
        other => panic!("expected fd, got {other:?}"),
    }
}

#[test]
fn every_request_kind_conforms_to_direct_trait_calls() {
    let fs_w = RefFs::new();
    let fs_d = RefFs::new();
    let mut fds = ConnFds::new();
    let mut covered: HashSet<u8> = HashSet::new();
    let rw = OpenFlags::RDWR;
    let mode = FileMode::default();
    let dmode = FileMode::dir(0o755);

    // Descriptor ops run twice — once per side — so fd values are carried
    // separately. The wire side's fd comes out of the Response.
    let s = |req: Request, fds: &mut ConnFds, covered: &mut HashSet<u8>| {
        step(&fs_w, &fs_d, fds, req, covered)
    };

    s(Request::Name, &mut fds, &mut covered);
    s(Request::Mkdir { path: "/d".into(), mode: dmode }, &mut fds, &mut covered);
    let r = s(Request::Create { path: "/d/a".into(), mode }, &mut fds, &mut covered);
    let fd_w = got_fd(&r);
    // `step` already created `/d/a` on the direct side (and dropped that
    // fd), so pick up a descriptor with the same access as `create`'s
    // (write-only) — Read/Pread below must err identically on both sides.
    let fd_d = fs_d.open(&CTX, "/d/a", OpenFlags::WRONLY, mode).unwrap();
    // From here the two sides use their own descriptors; the wire request
    // carries the wire side's, `direct_call` substitutes nothing because
    // the script re-issues the same op shape on the direct side's fd via
    // a second request value.
    let wire_direct = |req_w: Request, req_d: Request,
                       fds: &mut ConnFds,
                       covered: &mut HashSet<u8>| {
        covered.insert(req_w.kind() as u8);
        let decoded = Request::decode(&req_w.encode()).expect("request decodes");
        assert_eq!(decoded, req_w);
        let direct = direct_call(&fs_d, &req_d);
        let resp = dispatch(&fs_w, &CTX, decoded, fds);
        check_agreement(&req_w, &resp, &direct);
        resp
    };

    wire_direct(
        Request::Write { fd: fd_w, data: b"hello world".to_vec() },
        Request::Write { fd: fd_d, data: b"hello world".to_vec() },
        &mut fds,
        &mut covered,
    );
    wire_direct(
        Request::Lseek { fd: fd_w, pos: SeekFrom::Start(0) },
        Request::Lseek { fd: fd_d, pos: SeekFrom::Start(0) },
        &mut fds,
        &mut covered,
    );
    wire_direct(
        Request::Read { fd: fd_w, len: 5 },
        Request::Read { fd: fd_d, len: 5 },
        &mut fds,
        &mut covered,
    );
    wire_direct(
        Request::Pwrite { fd: fd_w, data: b"WIRE".to_vec(), off: 6 },
        Request::Pwrite { fd: fd_d, data: b"WIRE".to_vec(), off: 6 },
        &mut fds,
        &mut covered,
    );
    wire_direct(
        Request::Pread { fd: fd_w, len: 16, off: 0 },
        Request::Pread { fd: fd_d, len: 16, off: 0 },
        &mut fds,
        &mut covered,
    );
    wire_direct(
        Request::Fsync { fd: fd_w },
        Request::Fsync { fd: fd_d },
        &mut fds,
        &mut covered,
    );
    wire_direct(
        Request::Fstat { fd: fd_w },
        Request::Fstat { fd: fd_d },
        &mut fds,
        &mut covered,
    );
    wire_direct(
        Request::Ftruncate { fd: fd_w, len: 4 },
        Request::Ftruncate { fd: fd_d, len: 4 },
        &mut fds,
        &mut covered,
    );
    wire_direct(
        Request::Fallocate { fd: fd_w, off: 0, len: 128 },
        Request::Fallocate { fd: fd_d, off: 0, len: 128 },
        &mut fds,
        &mut covered,
    );
    wire_direct(
        Request::Close { fd: fd_w },
        Request::Close { fd: fd_d },
        &mut fds,
        &mut covered,
    );
    assert!(fds.is_empty(), "dispatch stopped tracking the closed fd");

    let r = s(Request::Open { path: "/d/a".into(), flags: rw, mode }, &mut fds, &mut covered);
    let fd_w = got_fd(&r);
    let fd_d2 = fs_d.open(&CTX, "/d/a", rw, mode).unwrap();
    // The reopened descriptor is readable — the success paths of the
    // positioned and positional reads.
    wire_direct(
        Request::Read { fd: fd_w, len: 4 },
        Request::Read { fd: fd_d2, len: 4 },
        &mut fds,
        &mut covered,
    );
    wire_direct(
        Request::Pread { fd: fd_w, len: 8, off: 0 },
        Request::Pread { fd: fd_d2, len: 8, off: 0 },
        &mut fds,
        &mut covered,
    );
    wire_direct(
        Request::Close { fd: fd_w },
        Request::Close { fd: fd_d2 },
        &mut fds,
        &mut covered,
    );

    s(Request::WriteFile { path: "/d/b".into(), data: b"blob".to_vec() }, &mut fds, &mut covered);
    s(Request::ReadFile { path: "/d/b".into() }, &mut fds, &mut covered);
    s(Request::ReadToVec { path: "/d/b".into() }, &mut fds, &mut covered);
    s(Request::Stat { path: "/d/b".into() }, &mut fds, &mut covered);
    s(Request::Chmod { path: "/d/b".into(), perm: 0o600 }, &mut fds, &mut covered);
    s(Request::SetTimes { path: "/d/b".into(), atime: 11, mtime: 22 }, &mut fds, &mut covered);
    s(Request::Link { existing: "/d/b".into(), new: "/d/c".into() }, &mut fds, &mut covered);
    s(
        Request::Symlink { target: "/d/b".into(), linkpath: "/d/l".into() },
        &mut fds,
        &mut covered,
    );
    s(Request::Readlink { path: "/d/l".into() }, &mut fds, &mut covered);
    s(Request::Rename { old: "/d/c".into(), new: "/d/r".into() }, &mut fds, &mut covered);
    s(Request::Readdir { path: "/d".into() }, &mut fds, &mut covered);
    s(Request::SnapshotTree { root: "/".into() }, &mut fds, &mut covered);
    s(Request::Statfs, &mut fds, &mut covered);
    s(Request::Unlink { path: "/d/r".into() }, &mut fds, &mut covered);
    s(Request::Mkdir { path: "/d/e".into(), mode: dmode }, &mut fds, &mut covered);
    s(Request::Rmdir { path: "/d/e".into() }, &mut fds, &mut covered);

    // Error-path agreement, same script shape on both sides.
    s(Request::Stat { path: "/missing".into() }, &mut fds, &mut covered);
    s(Request::Close { fd: Fd(9999) }, &mut fds, &mut covered);

    // The script must exercise the entire wire surface: a new RequestKind
    // without a conformance step fails here.
    assert_eq!(
        covered.len(),
        RequestKind::COUNT,
        "conformance script covers every RequestKind (missing: {:?})",
        RequestKind::ALL
            .iter()
            .filter(|k| !covered.contains(&(**k as u8)))
            .collect::<Vec<_>>()
    );
}
