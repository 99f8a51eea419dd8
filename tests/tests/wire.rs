//! Wire-surface conformance: the serializable `Request` mirror of the
//! `FileSystem` trait drives an implementation to exactly the same place
//! as direct trait calls.
//!
//! Three `RefFs` instances run the same script — one through
//! `encode → decode → dispatch`, one through the daemon's in-place reply
//! path (`serve_into`), one through plain method calls. Every step must
//! agree on outcome class, payloads and metadata, and the in-place reply
//! frame must equal `wire::frame(&resp.encode())` of the `dispatch` side
//! byte for byte. The script is checked to cover *all* `RequestKind`s, so
//! adding a wire op without extending the conformance script fails here
//! (and adding a trait method without a wire row fails the fsapi unit test
//! `every_trait_method_has_a_row`).

use std::collections::HashSet;

use simurgh_fsapi::reffs::RefFs;
use simurgh_fsapi::wire::{self, Request, RequestKind, Response, MAX_FRAME};
use simurgh_fsapi::{
    Fd, FileMode, FileSystem, FsResult, OpenFlags, ProcCtx, SeekFrom, Stat,
};
use simurgh_served::dispatch::{dispatch, serve_into, ConnFds};

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

/// The three sides of the conformance script.
#[derive(Default)]
struct Sides {
    /// Served through `encode → decode → dispatch`.
    wire: RefFs,
    wire_fds: ConnFds,
    /// Served through `serve_into`, framing into one growing buffer as the
    /// daemon frames into a connection's write buffer.
    in_place: RefFs,
    in_place_fds: ConnFds,
    out: Vec<u8>,
    /// Plain trait calls.
    direct: RefFs,
    covered: HashSet<u8>,
}

impl Sides {
    /// Runs `req` on the wire and in-place sides and `req_d` — the same op
    /// on the direct side's own descriptors — as a plain trait call; panics
    /// on any observable divergence. Returns the wire side's response (for
    /// fd extraction).
    fn step_with(&mut self, req: Request, req_d: Request) -> Response {
        self.covered.insert(req.kind() as u8);
        // The request itself must survive its wire form bit-for-bit.
        let decoded = Request::decode(&req.encode()).expect("request decodes");
        assert_eq!(decoded, req, "encode→decode is identity for {req:?}");

        let direct = direct_call(&self.direct, &req_d);
        let resp = dispatch(&self.wire, &CTX, decoded.clone(), &mut self.wire_fds);
        // Responses survive their wire form too.
        let resp2 = Response::decode(&resp.encode()).expect("response decodes");
        assert_eq!(resp2, resp, "response encode→decode is identity for {req:?}");

        let at = self.out.len();
        serve_into(&self.in_place, &CTX, decoded, &mut self.in_place_fds, &mut self.out);
        assert!(
            self.out[at..] == wire::frame(&resp.encode())[..],
            "in-place frame equals the dispatch frame for {req:?}"
        );

        check_agreement(&req, &resp, &direct);
        resp
    }

    /// [`Sides::step_with`] with the same request on every side.
    fn step(&mut self, req: Request) -> Response {
        self.step_with(req.clone(), req)
    }
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
    let mut s = Sides::default();
    let rw = OpenFlags::RDWR;
    let mode = FileMode::default();
    let dmode = FileMode::dir(0o755);

    s.step(Request::Name);
    s.step(Request::Mkdir { path: "/d".into(), mode: dmode });
    let fd_w = got_fd(&s.step(Request::Create { path: "/d/a".into(), mode }));
    // `step` already created `/d/a` on the direct side (and dropped that
    // fd), so pick up a descriptor with the same access as `create`'s
    // (write-only) — Read/Pread below must err identically on every side.
    let fd_d = s.direct.open(&CTX, "/d/a", OpenFlags::WRONLY, mode).unwrap();
    // From here the direct side uses its own descriptors: the wire and
    // in-place sides run in lockstep and share descriptor numbers, and the
    // direct side gets the same op shape on its own fd.
    s.step_with(
        Request::Write { fd: fd_w, data: b"hello world".to_vec() },
        Request::Write { fd: fd_d, data: b"hello world".to_vec() },
    );
    s.step_with(
        Request::Lseek { fd: fd_w, pos: SeekFrom::Start(0) },
        Request::Lseek { fd: fd_d, pos: SeekFrom::Start(0) },
    );
    // Reads on a write-only descriptor: an `Err` frame.
    s.step_with(Request::Read { fd: fd_w, len: 5 }, Request::Read { fd: fd_d, len: 5 });
    s.step_with(
        Request::Pwrite { fd: fd_w, data: b"WIRE".to_vec(), off: 6 },
        Request::Pwrite { fd: fd_d, data: b"WIRE".to_vec(), off: 6 },
    );
    s.step_with(
        Request::Pread { fd: fd_w, len: 16, off: 0 },
        Request::Pread { fd: fd_d, len: 16, off: 0 },
    );
    s.step_with(Request::Fsync { fd: fd_w }, Request::Fsync { fd: fd_d });
    s.step_with(Request::Fstat { fd: fd_w }, Request::Fstat { fd: fd_d });
    s.step_with(
        Request::Ftruncate { fd: fd_w, len: 4 },
        Request::Ftruncate { fd: fd_d, len: 4 },
    );
    s.step_with(
        Request::Fallocate { fd: fd_w, off: 0, len: 128 },
        Request::Fallocate { fd: fd_d, off: 0, len: 128 },
    );
    s.step_with(Request::Close { fd: fd_w }, Request::Close { fd: fd_d });
    assert!(s.wire_fds.is_empty(), "dispatch stopped tracking the closed fd");
    assert!(s.in_place_fds.is_empty(), "serve_into stopped tracking the closed fd");

    let fd_w = got_fd(&s.step(Request::Open { path: "/d/a".into(), flags: rw, mode }));
    let fd_d2 = s.direct.open(&CTX, "/d/a", rw, mode).unwrap();
    // The reopened descriptor is readable — the success paths of the
    // positioned and positional reads.
    s.step_with(Request::Read { fd: fd_w, len: 4 }, Request::Read { fd: fd_d2, len: 4 });
    s.step_with(
        Request::Pread { fd: fd_w, len: 8, off: 0 },
        Request::Pread { fd: fd_d2, len: 8, off: 0 },
    );
    // A read that starts past EOF answers an empty `Data` body.
    s.step_with(
        Request::Pread { fd: fd_w, len: 8, off: 1 << 20 },
        Request::Pread { fd: fd_d2, len: 8, off: 1 << 20 },
    );
    s.step_with(Request::Close { fd: fd_w }, Request::Close { fd: fd_d2 });

    s.step(Request::WriteFile { path: "/d/b".into(), data: b"blob".to_vec() });
    s.step(Request::ReadFile { path: "/d/b".into() });
    s.step(Request::ReadToVec { path: "/d/b".into() });
    let fd_w = got_fd(&s.step(Request::Open {
        path: "/d/b".into(),
        flags: OpenFlags::RDONLY,
        mode,
    }));
    let fd_d3 = s.direct.open(&CTX, "/d/b", OpenFlags::RDONLY, mode).unwrap();
    // A short read at EOF, then one exactly at EOF.
    s.step_with(
        Request::Pread { fd: fd_w, len: 16, off: 2 },
        Request::Pread { fd: fd_d3, len: 16, off: 2 },
    );
    s.step_with(
        Request::Pread { fd: fd_w, len: 16, off: 4 },
        Request::Pread { fd: fd_d3, len: 16, off: 4 },
    );
    s.step_with(Request::Close { fd: fd_w }, Request::Close { fd: fd_d3 });

    // A `len` above the clamp reads what a `len` at the clamp does: the
    // server bounds a read so its reply fits one frame.
    let clamp = (MAX_FRAME - 64) as u32;
    let big: Vec<u8> = (0..MAX_FRAME).map(|i| i as u8).collect();
    s.step(Request::WriteFile { path: "/d/big".into(), data: big });
    let fd_w = got_fd(&s.step(Request::Open {
        path: "/d/big".into(),
        flags: OpenFlags::RDONLY,
        mode,
    }));
    let fd_d4 = s.direct.open(&CTX, "/d/big", OpenFlags::RDONLY, mode).unwrap();
    let resp = s.step_with(
        Request::Pread { fd: fd_w, len: MAX_FRAME as u32, off: 0 },
        Request::Pread { fd: fd_d4, len: clamp, off: 0 },
    );
    assert!(matches!(&resp, Response::Data(d) if d.len() == clamp as usize), "clamped read");
    s.step_with(
        Request::Read { fd: fd_w, len: u32::MAX },
        Request::Read { fd: fd_d4, len: clamp },
    );
    // `read` goes on from the descriptor's position: the file's last 64
    // bytes, a short read.
    s.step_with(Request::Read { fd: fd_w, len: 4096 }, Request::Read { fd: fd_d4, len: 4096 });
    s.step_with(Request::Close { fd: fd_w }, Request::Close { fd: fd_d4 });
    s.step(Request::Unlink { path: "/d/big".into() });

    s.step(Request::Stat { path: "/d/b".into() });
    s.step(Request::Chmod { path: "/d/b".into(), perm: 0o600 });
    s.step(Request::SetTimes { path: "/d/b".into(), atime: 11, mtime: 22 });
    s.step(Request::Link { existing: "/d/b".into(), new: "/d/c".into() });
    s.step(Request::Symlink { target: "/d/b".into(), linkpath: "/d/l".into() });
    s.step(Request::Readlink { path: "/d/l".into() });
    s.step(Request::Rename { old: "/d/c".into(), new: "/d/r".into() });
    s.step(Request::Readdir { path: "/d".into() });
    s.step(Request::SnapshotTree { root: "/".into() });
    s.step(Request::Statfs);
    s.step(Request::Unlink { path: "/d/r".into() });
    s.step(Request::Mkdir { path: "/d/e".into(), mode: dmode });
    s.step(Request::Rmdir { path: "/d/e".into() });

    // Error-path agreement, same script shape on every side.
    s.step(Request::Stat { path: "/missing".into() });
    s.step(Request::Close { fd: Fd(9999) });

    // The script must exercise the entire wire surface: a new RequestKind
    // without a conformance step fails here.
    assert_eq!(
        s.covered.len(),
        RequestKind::COUNT,
        "conformance script covers every RequestKind (missing: {:?})",
        RequestKind::ALL
            .iter()
            .filter(|k| !s.covered.contains(&(**k as u8)))
            .collect::<Vec<_>>()
    );
}
