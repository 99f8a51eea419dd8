//! The common `FileSystem` trait all implementations provide, plus the
//! per-call process context and a shared open-file-table utility.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::RwLock;

use crate::error::{FsError, FsResult};
use crate::types::{Credentials, Fd, FileMode, FsStats, OpenFlags, SeekFrom, Stat};

/// Identity of the calling process for one operation: a process id (used to
/// scope file descriptors) and its credentials (used for permission checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcCtx {
    /// Process id; descriptors are scoped to it.
    pub pid: u32,
    /// Credentials checked against file owners and permission bits.
    pub creds: Credentials,
}

impl ProcCtx {
    /// A process with explicit credentials.
    pub const fn new(pid: u32, creds: Credentials) -> Self {
        ProcCtx { pid, creds }
    }

    /// A root-credentialed process (most benchmarks run as root, like the
    /// paper's FxMark runs).
    pub const fn root(pid: u32) -> Self {
        ProcCtx { pid, creds: Credentials::ROOT }
    }
}

/// One entry returned by `readdir`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (one path component, no slashes).
    pub name: String,
    /// Kind of the object the entry names.
    pub ftype: crate::types::FileType,
    /// Implementation-stable identifier (persistent pointer for Simurgh).
    pub ino: u64,
}

/// The POSIX-like interface every evaluated file system implements.
///
/// Semantics follow Linux closely for the subset the paper's workloads
/// exercise. Symbolic links are followed in intermediate components and in
/// the final component of read-like operations; `unlink`, `rename` and
/// `readlink` operate on the link itself.
pub trait FileSystem: Send + Sync {
    /// Short label for harness output ("simurgh", "nova", ...).
    fn name(&self) -> &str;

    /// Opens (and optionally creates) a file. `mode` applies on creation.
    fn open(&self, ctx: &ProcCtx, path: &str, flags: OpenFlags, mode: FileMode) -> FsResult<Fd>;

    /// `O_CREAT | O_EXCL | O_WRONLY` — what FxMark's create benchmark issues.
    fn create(&self, ctx: &ProcCtx, path: &str, mode: FileMode) -> FsResult<Fd> {
        self.open(ctx, path, OpenFlags::WRONLY.with_excl(), mode)
    }

    /// Releases a descriptor; a second close of the same `fd` is `BadFd`.
    fn close(&self, ctx: &ProcCtx, fd: Fd) -> FsResult<()>;

    /// Reads at the descriptor's position, advancing it.
    fn read(&self, ctx: &ProcCtx, fd: Fd, buf: &mut [u8]) -> FsResult<usize>;

    /// Writes at the descriptor's position (or EOF with `O_APPEND`),
    /// advancing it.
    fn write(&self, ctx: &ProcCtx, fd: Fd, data: &[u8]) -> FsResult<usize>;

    /// Positional read; does not move the descriptor position.
    fn pread(&self, ctx: &ProcCtx, fd: Fd, buf: &mut [u8], off: u64) -> FsResult<usize>;

    /// Positional write; does not move the descriptor position.
    fn pwrite(&self, ctx: &ProcCtx, fd: Fd, data: &[u8], off: u64) -> FsResult<usize>;

    /// Moves the descriptor position; returns the new absolute offset.
    fn lseek(&self, ctx: &ProcCtx, fd: Fd, pos: SeekFrom) -> FsResult<u64>;

    /// Flushes file data and metadata to persistent media.
    fn fsync(&self, ctx: &ProcCtx, fd: Fd) -> FsResult<()>;

    /// Metadata of the file an open descriptor refers to.
    fn fstat(&self, ctx: &ProcCtx, fd: Fd) -> FsResult<Stat>;

    /// Sets the file size to `len`, freeing or zero-extending the tail.
    fn ftruncate(&self, ctx: &ProcCtx, fd: Fd, len: u64) -> FsResult<()>;

    /// Preallocates `[off, off+len)` (FxMark's DWTL benchmark).
    fn fallocate(&self, ctx: &ProcCtx, fd: Fd, off: u64, len: u64) -> FsResult<()>;

    /// Removes a non-directory name; the file lives on while it has other
    /// names or open descriptors.
    fn unlink(&self, ctx: &ProcCtx, path: &str) -> FsResult<()>;

    /// Creates an empty directory with `mode`'s permission bits.
    fn mkdir(&self, ctx: &ProcCtx, path: &str, mode: FileMode) -> FsResult<()>;

    /// Removes an empty directory.
    fn rmdir(&self, ctx: &ProcCtx, path: &str) -> FsResult<()>;

    /// Moves `old` to `new` atomically, replacing an existing `new`.
    fn rename(&self, ctx: &ProcCtx, old: &str, new: &str) -> FsResult<()>;

    /// Metadata of `path`, following a final symlink.
    fn stat(&self, ctx: &ProcCtx, path: &str) -> FsResult<Stat>;

    /// Entries of a directory, without `.` and `..`, in no fixed order.
    fn readdir(&self, ctx: &ProcCtx, path: &str) -> FsResult<Vec<DirEntry>>;

    /// Creates `linkpath` as a symbolic link whose contents are `target`.
    fn symlink(&self, ctx: &ProcCtx, target: &str, linkpath: &str) -> FsResult<()>;

    /// Contents of the symbolic link at `path`.
    fn readlink(&self, ctx: &ProcCtx, path: &str) -> FsResult<String>;

    /// Hard link: `new` becomes another name for `existing`.
    fn link(&self, ctx: &ProcCtx, existing: &str, new: &str) -> FsResult<()>;

    /// Replaces the permission bits; only root or the owner may.
    fn chmod(&self, ctx: &ProcCtx, path: &str, perm: u16) -> FsResult<()>;

    /// Sets access/modification times (tar unpack issues this per file).
    fn set_times(&self, ctx: &ProcCtx, path: &str, atime: u64, mtime: u64) -> FsResult<()>;

    /// Device-level statistics (`statvfs`). Implementations without a real
    /// device report [`crate::FsError::Unsupported`].
    fn statfs(&self, _ctx: &ProcCtx) -> FsResult<FsStats> {
        Err(crate::FsError::Unsupported)
    }

    /// Convenience: full-file read. Every implementation serves this and the
    /// other whole-file helpers through the same descriptor-based primitives,
    /// so the harness, the baselines and the crash-matrix driver all exercise
    /// one surface.
    fn read_file(&self, ctx: &ProcCtx, path: &str) -> FsResult<Vec<u8>> {
        let fd = self.open(ctx, path, OpenFlags::RDONLY, FileMode::default())?;
        let st = self.fstat(ctx, fd)?;
        let mut buf = vec![0u8; st.size as usize];
        let mut done = 0;
        while done < buf.len() {
            let n = self.pread(ctx, fd, &mut buf[done..], done as u64)?;
            if n == 0 {
                break;
            }
            done += n;
        }
        buf.truncate(done);
        self.close(ctx, fd)?;
        Ok(buf)
    }

    /// Alias of [`read_file`](Self::read_file), kept for callers written
    /// against the pre-v2 helper name.
    fn read_to_vec(&self, ctx: &ProcCtx, path: &str) -> FsResult<Vec<u8>> {
        self.read_file(ctx, path)
    }

    /// Convenience: create/truncate and write a whole file.
    fn write_file(&self, ctx: &ProcCtx, path: &str, data: &[u8]) -> FsResult<()> {
        let fd = self.open(ctx, path, OpenFlags::CREATE, FileMode::default())?;
        let mut done = 0;
        while done < data.len() {
            done += self.pwrite(ctx, fd, &data[done..], done as u64)?;
        }
        self.fsync(ctx, fd)?;
        self.close(ctx, fd)
    }

    /// Convenience: the whole tree under `root` as sorted
    /// `(path, kind, size)` rows (directories report size 0). Used to
    /// compare two file systems — or two crash outcomes — structurally.
    fn snapshot_tree(&self, ctx: &ProcCtx, root: &str) -> FsResult<Vec<TreeEntry>> {
        let mut out = Vec::new();
        let mut stack = vec![if root.is_empty() { "/".to_owned() } else { root.to_owned() }];
        while let Some(dir) = stack.pop() {
            for e in self.readdir(ctx, &dir)? {
                let path =
                    if dir == "/" { format!("/{}", e.name) } else { format!("{dir}/{}", e.name) };
                let st = self.stat(ctx, &path)?;
                out.push((path.clone(), e.ftype, if st.is_dir() { 0 } else { st.size }));
                if e.ftype == crate::types::FileType::Directory {
                    stack.push(path);
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

/// One row of [`FileSystem::snapshot_tree`]: `(path, kind, size)`.
pub type TreeEntry = (String, crate::types::FileType, u64);

/// A sharded open-file table mapping descriptors to per-open state.
///
/// Implementations keep their own `T` (position, flags, inode handle).
/// Descriptors are scoped by the `pid` word of the caller's [`ProcCtx`]: a
/// descriptor returned to owner A is invisible to owner B, as with kernel
/// fd tables.
///
/// **The scoping id must come from a trusted source.** In process that is
/// the caller's own pid; over a wire it must be the *server-assigned*
/// connection id, never an id the client supplied — a client choosing its
/// own `pid` could name another connection's `(pid, fd)` keys and read or
/// close descriptors it never opened (see `wire::Hello`/`wire::HelloOk`:
/// requests carry no identity at all, so the collision is impossible by
/// construction).
pub struct OpenTable<T> {
    shards: Vec<RwLock<HashMap<(u32, u32), T>>>,
    next_fd: AtomicU32,
}

impl<T> OpenTable<T> {
    const SHARDS: usize = 16;

    /// An empty table; descriptors start at 3 (0..2 are "stdio").
    pub fn new() -> Self {
        OpenTable {
            shards: (0..Self::SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            next_fd: AtomicU32::new(3), // 0..2 are "stdio"
        }
    }

    #[inline]
    fn shard(&self, pid: u32, fd: Fd) -> &RwLock<HashMap<(u32, u32), T>> {
        let h = (pid as usize).wrapping_mul(31).wrapping_add(fd.0 as usize);
        &self.shards[h % Self::SHARDS]
    }

    /// Inserts state for a new descriptor and returns it.
    pub fn insert(&self, pid: u32, state: T) -> Fd {
        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        self.shard(pid, fd).write().insert((pid, fd.0), state);
        fd
    }

    /// Removes a descriptor, returning its state.
    pub fn remove(&self, pid: u32, fd: Fd) -> FsResult<T> {
        self.shard(pid, fd).write().remove(&(pid, fd.0)).ok_or(FsError::BadFd)
    }

    /// Reads through a shared reference to the open state.
    pub fn with<R>(&self, pid: u32, fd: Fd, f: impl FnOnce(&T) -> R) -> FsResult<R> {
        let shard = self.shard(pid, fd).read();
        shard.get(&(pid, fd.0)).map(f).ok_or(FsError::BadFd)
    }

    /// Mutates the open state.
    pub fn with_mut<R>(&self, pid: u32, fd: Fd, f: impl FnOnce(&mut T) -> R) -> FsResult<R> {
        let mut shard = self.shard(pid, fd).write();
        shard.get_mut(&(pid, fd.0)).map(f).ok_or(FsError::BadFd)
    }

    /// Number of open descriptors across all processes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether no descriptor is open anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for OpenTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_table_scopes_by_pid() {
        let t: OpenTable<u64> = OpenTable::new();
        let fd = t.insert(1, 42);
        assert_eq!(t.with(1, fd, |v| *v).unwrap(), 42);
        assert_eq!(t.with(2, fd, |v| *v), Err(FsError::BadFd));
        t.with_mut(1, fd, |v| *v += 1).unwrap();
        assert_eq!(t.remove(1, fd).unwrap(), 43);
        assert_eq!(t.remove(1, fd), Err(FsError::BadFd));
        assert!(t.is_empty());
    }

    #[test]
    fn descriptors_are_distinct() {
        let t: OpenTable<u8> = OpenTable::new();
        let a = t.insert(1, 0);
        let b = t.insert(1, 1);
        assert_ne!(a, b);
        assert!(a.0 >= 3, "stdio descriptors reserved");
        assert_eq!(t.len(), 2);
    }
}
