//! Request → trait-call → response translation, one arm per wire op.
//!
//! [`dispatch`] is an exhaustive `match` over `Request` with no wildcard
//! arm, so a row added to the wire table in `fsapi` without a handler here
//! fails to compile. [`serve_into`] is the daemon's reply path: it frames
//! each reply straight into the connection's write buffer, and a `read` or
//! `pread` reads its data into its slot in that frame.

use std::collections::HashSet;

use simurgh_fsapi::error::FsResult;
use simurgh_fsapi::wire::{self, Request, Response, MAX_FRAME};
use simurgh_fsapi::{Fd, FileSystem, ProcCtx};

/// Descriptors a connection currently holds, tracked server-side so a
/// dead connection's fd table can be reaped (`close` issued on its
/// behalf) without trusting anything the client said.
#[derive(Debug, Default)]
pub struct ConnFds {
    set: HashSet<u32>,
}

impl ConnFds {
    /// An empty descriptor set.
    pub fn new() -> Self {
        ConnFds::default()
    }

    /// Number of live descriptors.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no descriptor is held.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Drains the set for reaping on disconnect.
    pub fn drain(&mut self) -> Vec<Fd> {
        self.set.drain().map(Fd).collect()
    }
}

fn unit(r: FsResult<()>) -> Response {
    match r {
        Ok(()) => Response::Unit,
        Err(e) => Response::Err(e),
    }
}

fn size(r: FsResult<usize>) -> Response {
    match r {
        Ok(n) => Response::Size(n as u64),
        Err(e) => Response::Err(e),
    }
}

fn data(r: FsResult<Vec<u8>>) -> Response {
    match r {
        Ok(d) => Response::Data(d),
        Err(e) => Response::Err(e),
    }
}

/// The gateway's one read: a `pread` at `off`, or a `read` at the
/// descriptor's position when `off` is `None`. Returns the length to read,
/// `len` clamped so the reply fits one frame, and the read itself, which
/// fills the buffer it is given and returns the bytes it read.
fn reader<'a, F: FileSystem>(
    fs: &'a F,
    ctx: &'a ProcCtx,
    fd: Fd,
    len: u32,
    off: Option<u64>,
) -> (usize, impl FnOnce(&mut [u8]) -> FsResult<usize> + 'a) {
    let read = move |buf: &mut [u8]| match off {
        Some(off) => fs.pread(ctx, fd, buf, off),
        None => fs.read(ctx, fd, buf),
    };
    ((len as usize).min(MAX_FRAME - 64), read)
}

/// [`reader`] into a buffer of its own, for [`dispatch`].
fn read_data((len, read): (usize, impl FnOnce(&mut [u8]) -> FsResult<usize>)) -> Response {
    let mut buf = vec![0u8; len];
    match read(&mut buf) {
        Ok(n) => {
            buf.truncate(n);
            Response::Data(buf)
        }
        Err(e) => Response::Err(e),
    }
}

/// Executes one decoded request against `fs` under the connection's
/// server-assigned identity `ctx`, maintaining the connection's fd set.
pub fn dispatch(fs: &impl FileSystem, ctx: &ProcCtx, req: Request, fds: &mut ConnFds) -> Response {
    match req {
        Request::Name => Response::Str(fs.name().to_owned()),
        Request::Open { path, flags, mode } => match fs.open(ctx, &path, flags, mode) {
            Ok(fd) => {
                fds.set.insert(fd.0);
                Response::Fd(fd)
            }
            Err(e) => Response::Err(e),
        },
        Request::Create { path, mode } => match fs.create(ctx, &path, mode) {
            Ok(fd) => {
                fds.set.insert(fd.0);
                Response::Fd(fd)
            }
            Err(e) => Response::Err(e),
        },
        Request::Close { fd } => {
            let r = fs.close(ctx, fd);
            if r.is_ok() {
                fds.set.remove(&fd.0);
            }
            unit(r)
        }
        Request::Read { fd, len } => read_data(reader(fs, ctx, fd, len, None)),
        Request::Write { fd, data } => size(fs.write(ctx, fd, &data)),
        Request::Pread { fd, len, off } => read_data(reader(fs, ctx, fd, len, Some(off))),
        Request::Pwrite { fd, data, off } => size(fs.pwrite(ctx, fd, &data, off)),
        Request::Lseek { fd, pos } => match fs.lseek(ctx, fd, pos) {
            Ok(n) => Response::Size(n),
            Err(e) => Response::Err(e),
        },
        Request::Fsync { fd } => unit(fs.fsync(ctx, fd)),
        Request::Fstat { fd } => match fs.fstat(ctx, fd) {
            Ok(st) => Response::Stat(st),
            Err(e) => Response::Err(e),
        },
        Request::Ftruncate { fd, len } => unit(fs.ftruncate(ctx, fd, len)),
        Request::Fallocate { fd, off, len } => unit(fs.fallocate(ctx, fd, off, len)),
        Request::Unlink { path } => unit(fs.unlink(ctx, &path)),
        Request::Mkdir { path, mode } => unit(fs.mkdir(ctx, &path, mode)),
        Request::Rmdir { path } => unit(fs.rmdir(ctx, &path)),
        Request::Rename { old, new } => unit(fs.rename(ctx, &old, &new)),
        Request::Stat { path } => match fs.stat(ctx, &path) {
            Ok(st) => Response::Stat(st),
            Err(e) => Response::Err(e),
        },
        Request::Readdir { path } => match fs.readdir(ctx, &path) {
            Ok(es) => Response::Entries(es),
            Err(e) => Response::Err(e),
        },
        Request::Symlink { target, linkpath } => unit(fs.symlink(ctx, &target, &linkpath)),
        Request::Readlink { path } => match fs.readlink(ctx, &path) {
            Ok(t) => Response::Str(t),
            Err(e) => Response::Err(e),
        },
        Request::Link { existing, new } => unit(fs.link(ctx, &existing, &new)),
        Request::Chmod { path, perm } => unit(fs.chmod(ctx, &path, perm)),
        Request::SetTimes { path, atime, mtime } => unit(fs.set_times(ctx, &path, atime, mtime)),
        Request::Statfs => match fs.statfs(ctx) {
            Ok(st) => Response::Statfs(st),
            Err(e) => Response::Err(e),
        },
        Request::ReadFile { path } => data(fs.read_file(ctx, &path)),
        Request::ReadToVec { path } => data(fs.read_to_vec(ctx, &path)),
        Request::WriteFile { path, data } => unit(fs.write_file(ctx, &path, &data)),
        Request::SnapshotTree { root } => match fs.snapshot_tree(ctx, &root) {
            Ok(rows) => Response::Tree(rows),
            Err(e) => Response::Err(e),
        },
    }
}

/// Serves one decoded request and appends its reply frame to `out`, the
/// connection's write buffer. A `read` or `pread` reads its data straight
/// into the frame; every other op encodes [`dispatch`]'s response in place.
/// The bytes are those of `wire::frame(&dispatch(..).encode())`.
pub fn serve_into(
    fs: &impl FileSystem,
    ctx: &ProcCtx,
    req: Request,
    fds: &mut ConnFds,
    out: &mut Vec<u8>,
) {
    wire::frame_into(out, |out| {
        let (len, read) = match req {
            Request::Read { fd, len } => reader(fs, ctx, fd, len, None),
            Request::Pread { fd, len, off } => reader(fs, ctx, fd, len, Some(off)),
            req => return dispatch(fs, ctx, req, fds).encode_into(out),
        };
        Response::encode_data_into(out, len, read);
    });
}
