//! Vocabulary types shared by every file-system implementation.

/// A file descriptor. Descriptors are scoped to a `(file system, process)`
/// pair, like kernel fd tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u32);

/// Kind of a directory entry / inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FileType {
    /// A regular file.
    Regular,
    /// A directory.
    Directory,
    /// A symbolic link.
    Symlink,
}

/// Permission bits plus file type, i.e. `st_mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMode {
    /// What kind of object this is.
    pub ftype: FileType,
    /// Classic 9-bit rwxrwxrwx permission mask.
    pub perm: u16,
}

impl FileMode {
    /// Regular file with the given permission bits.
    pub const fn file(perm: u16) -> Self {
        FileMode { ftype: FileType::Regular, perm }
    }

    /// Directory with the given permission bits.
    pub const fn dir(perm: u16) -> Self {
        FileMode { ftype: FileType::Directory, perm }
    }

    /// Symlink; permissions are conventionally `0o777` and ignored.
    pub const fn symlink() -> Self {
        FileMode { ftype: FileType::Symlink, perm: 0o777 }
    }
}

impl Default for FileMode {
    fn default() -> Self {
        FileMode::file(0o644)
    }
}

/// Identity of a calling process, used for permission checks. Simurgh
/// captures these at preload time and stores them in the protected pages
/// (§3.2); the kernel baselines read them per syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Credentials {
    /// User id; 0 is root.
    pub uid: u32,
    /// Primary group id.
    pub gid: u32,
}

impl Credentials {
    /// Superuser: passes every permission check.
    pub const ROOT: Credentials = Credentials { uid: 0, gid: 0 };

    /// An ordinary user.
    pub const fn user(uid: u32, gid: u32) -> Self {
        Credentials { uid, gid }
    }

    /// POSIX permission check of `want` bits (4=r, 2=w, 1=x) against an
    /// object owned by `owner_uid`/`owner_gid` with permission mask `perm`.
    pub fn may(&self, want: u16, perm: u16, owner_uid: u32, owner_gid: u32) -> bool {
        if self.uid == 0 {
            return true;
        }
        let class_shift = if self.uid == owner_uid {
            6
        } else if self.gid == owner_gid {
            3
        } else {
            0
        };
        (perm >> class_shift) & want == want
    }
}

/// Access-intent bits for [`Credentials::may`].
pub mod access {
    /// Read intent.
    pub const R: u16 = 4;
    /// Write intent.
    pub const W: u16 = 2;
    /// Execute / directory-search intent.
    pub const X: u16 = 1;
}

/// Open flags (subset of POSIX the workloads use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// The descriptor may read.
    pub read: bool,
    /// The descriptor may write.
    pub write: bool,
    /// `O_CREAT`: create the file if it does not exist.
    pub create: bool,
    /// `O_EXCL`: with `create`, fail if the path already exists.
    pub excl: bool,
    /// `O_TRUNC`: cut an existing file to length 0.
    pub truncate: bool,
    /// `O_APPEND`: every write lands at end of file.
    pub append: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub const RDONLY: OpenFlags =
        OpenFlags { read: true, write: false, create: false, excl: false, truncate: false, append: false };
    /// `O_WRONLY`.
    pub const WRONLY: OpenFlags =
        OpenFlags { read: false, write: true, create: false, excl: false, truncate: false, append: false };
    /// `O_RDWR`.
    pub const RDWR: OpenFlags =
        OpenFlags { read: true, write: true, create: false, excl: false, truncate: false, append: false };

    /// `O_CREAT | O_WRONLY | O_TRUNC` — the classic "create for writing".
    pub const CREATE: OpenFlags =
        OpenFlags { read: false, write: true, create: true, excl: false, truncate: true, append: false };

    /// `O_CREAT | O_WRONLY | O_APPEND`.
    pub const APPEND: OpenFlags =
        OpenFlags { read: false, write: true, create: true, excl: false, truncate: false, append: true };

    /// Adds `O_EXCL` (implies `O_CREAT`): fail if the path already exists.
    pub fn with_excl(mut self) -> Self {
        self.excl = true;
        self.create = true;
        self
    }
}

/// File-system level statistics, i.e. `statvfs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsStats {
    /// Total capacity of the underlying device in bytes.
    pub total_bytes: u64,
    /// Bytes currently allocatable for file data.
    pub free_bytes: u64,
    /// Device block size.
    pub block_size: u32,
}

/// Seek origin for `lseek`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekFrom {
    /// Absolute offset from the start of the file.
    Start(u64),
    /// Offset relative to the current position.
    Current(i64),
    /// Offset relative to the end of the file.
    End(i64),
}

/// File metadata, i.e. `struct stat`. `ino` is the implementation's stable
/// identifier — for Simurgh it is the persistent pointer itself (§4.3
/// "Inode": the 64-bit persistent pointer acts as the unique inode id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Stable inode identifier.
    pub ino: u64,
    /// File type and permission bits.
    pub mode: FileMode,
    /// Owner user id.
    pub uid: u32,
    /// Owner group id.
    pub gid: u32,
    /// Length in bytes.
    pub size: u64,
    /// Number of directory entries naming the file.
    pub nlink: u32,
    /// Last access time, in the implementation's logical clock ticks.
    pub atime: u64,
    /// Last data modification time, in logical clock ticks.
    pub mtime: u64,
    /// Last metadata change time, in logical clock ticks.
    pub ctime: u64,
}

impl Stat {
    /// Whether this is a directory.
    pub fn is_dir(&self) -> bool {
        self.mode.ftype == FileType::Directory
    }

    /// Whether this is a regular file.
    pub fn is_file(&self) -> bool {
        self.mode.ftype == FileType::Regular
    }

    /// Whether this is a symbolic link.
    pub fn is_symlink(&self) -> bool {
        self.mode.ftype == FileType::Symlink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_bypasses_permissions() {
        assert!(Credentials::ROOT.may(access::W, 0o000, 1000, 1000));
    }

    #[test]
    fn owner_class_is_used_for_owner() {
        let c = Credentials::user(1000, 100);
        assert!(c.may(access::R | access::W, 0o600, 1000, 999));
        assert!(!c.may(access::X, 0o600, 1000, 999));
        // Owner match uses owner bits even if group/world bits are wider.
        assert!(!c.may(access::W, 0o477, 1000, 100));
    }

    #[test]
    fn group_and_other_classes() {
        let c = Credentials::user(1000, 100);
        assert!(c.may(access::R, 0o040, 1, 100), "group read");
        assert!(!c.may(access::W, 0o040, 1, 100));
        assert!(c.may(access::R, 0o004, 1, 2), "other read");
        assert!(!c.may(access::R, 0o040, 1, 2), "not in group");
    }

    #[test]
    fn open_flag_presets() {
        let create = OpenFlags::CREATE;
        assert!(create.create && create.truncate && create.write);
        let append = OpenFlags::APPEND;
        assert!(append.append && !append.truncate);
        let x = OpenFlags::WRONLY.with_excl();
        assert!(x.excl && x.create);
        let rdonly = OpenFlags::RDONLY;
        assert!(rdonly.read && !rdonly.write);
    }

    #[test]
    fn mode_constructors() {
        assert_eq!(FileMode::file(0o644).ftype, FileType::Regular);
        assert_eq!(FileMode::dir(0o755).ftype, FileType::Directory);
        assert_eq!(FileMode::symlink().ftype, FileType::Symlink);
        assert_eq!(FileMode::default().perm, 0o644);
    }

    #[test]
    fn stat_kind_helpers() {
        let mut s = Stat {
            ino: 1,
            mode: FileMode::dir(0o755),
            uid: 0,
            gid: 0,
            size: 0,
            nlink: 2,
            atime: 0,
            mtime: 0,
            ctime: 0,
        };
        assert!(s.is_dir() && !s.is_file());
        s.mode = FileMode::symlink();
        assert!(s.is_symlink());
    }
}
