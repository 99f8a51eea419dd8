//! Versioned wire form of the [`FileSystem`] trait.
//!
//! `simurgh-served` exposes the syscall-free data path over a socket, which
//! needs a serializable twin of the in-process trait. [`Request`] mirrors
//! every `FileSystem` method one-to-one and is generated, with its opcode
//! and codec, from the single `requests!` table below; [`Response`] is
//! organised by payload shape. Drift between the trait and the table fails
//! the build (see `requests!`), and the golden frames in
//! `tests/tests/wire_golden.rs` pin every byte.
//!
//! Framing is length-prefixed binary: every message is a little-endian
//! `u32` body length followed by the body; request bodies start with a
//! one-byte opcode, response bodies with a one-byte tag. There is no
//! self-description — both sides pin [`PROTOCOL_VERSION`] during the
//! [`Hello`]/[`HelloOk`] handshake and a mismatch is refused before the
//! first op.
//!
//! Two deliberate asymmetries against the trait:
//!
//! * **No `ProcCtx` on the wire.** The caller identity that scopes fd
//!   tables is assigned by the *server* at handshake time (the connection
//!   id) — a client-supplied pid would let one connection collide another
//!   connection's descriptors (see `OpenTable`). Only credentials travel,
//!   once, inside [`Hello`].
//! * **Reads return data, not lengths.** `read`/`pread` fill a
//!   caller-provided buffer in process; over the wire the server reads
//!   straight into the payload of the reply frame it is writing
//!   ([`Response::encode_data_into`] inside [`frame_into`]) and ships the
//!   bytes back as a [`Response::Data`] body.
//!
//! [`FileSystem`]: crate::FileSystem

use crate::error::FsError;
use crate::types::{
    Credentials, Fd, FileMode, FileType, FsStats, OpenFlags, SeekFrom, Stat,
};
use crate::{DirEntry, TreeEntry};

/// Wire protocol version; bumped on any incompatible framing change.
pub const PROTOCOL_VERSION: u16 = 1;

/// Magic word opening the [`Hello`]/[`HelloOk`] handshake frames, so a
/// stray client speaking another protocol is refused on the first frame.
pub const HELLO_MAGIC: u32 = 0x5349_4D57; // "SIMW"

/// Upper bound on one frame body. Larger frames are a protocol error: the
/// server closes the connection rather than buffering unbounded input.
pub const MAX_FRAME: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Decode errors
// ---------------------------------------------------------------------------

/// Why a frame failed to decode. Any of these on a live connection is a
/// protocol error — the peer is mis-framed, stale-versioned or hostile —
/// and the connection is closed rather than resynchronized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Body ended before the advertised field width.
    Truncated,
    /// Unknown opcode / tag byte for the named message kind.
    BadTag(&'static str, u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// Frame length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// Handshake magic or version mismatch.
    BadHandshake,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated frame"),
            DecodeError::BadTag(what, tag) => write!(f, "bad {what} tag {tag:#04x}"),
            DecodeError::BadUtf8 => f.write_str("non-UTF-8 string field"),
            DecodeError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
            DecodeError::BadHandshake => f.write_str("bad handshake magic/version"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Primitive codec
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_bytes(buf, v.as_bytes());
}

/// Sequential reader over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME {
            return Err(DecodeError::FrameTooLarge(n));
        }
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes()?).map_err(|_| DecodeError::BadUtf8)
    }

    fn finish(self) -> Result<(), DecodeError> {
        // Trailing garbage means mis-framing; refuse rather than ignore.
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError::Truncated)
        }
    }
}

// ---------------------------------------------------------------------------
// Field codec
// ---------------------------------------------------------------------------

/// Wire form of one message field. The request table encodes every row's
/// fields through this, in declaration order; the response payloads reuse
/// it for their vocabulary types.
trait Field: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(c: &mut Cursor<'_>) -> Result<Self, DecodeError>;
}

macro_rules! int_field {
    ($($t:ident => $put:ident),*) => {$(
        impl Field for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                $put(buf, *self);
            }

            fn get(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
                c.$t()
            }
        }
    )*};
}

int_field!(u16 => put_u16, u32 => put_u32, u64 => put_u64);

impl Field for Fd {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.0);
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        Ok(Fd(c.u32()?))
    }
}

impl Field for String {
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(buf, self);
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        c.string()
    }
}

impl Field for Vec<u8> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self);
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        c.bytes()
    }
}

impl Field for FileType {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u8(
            buf,
            match self {
                FileType::Regular => 0,
                FileType::Directory => 1,
                FileType::Symlink => 2,
            },
        );
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        match c.u8()? {
            0 => Ok(FileType::Regular),
            1 => Ok(FileType::Directory),
            2 => Ok(FileType::Symlink),
            t => Err(DecodeError::BadTag("FileType", t)),
        }
    }
}

impl Field for FileMode {
    fn put(&self, buf: &mut Vec<u8>) {
        self.ftype.put(buf);
        put_u16(buf, self.perm);
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        Ok(FileMode { ftype: FileType::get(c)?, perm: c.u16()? })
    }
}

impl Field for OpenFlags {
    fn put(&self, buf: &mut Vec<u8>) {
        let bits = (self.read as u8)
            | (self.write as u8) << 1
            | (self.create as u8) << 2
            | (self.excl as u8) << 3
            | (self.truncate as u8) << 4
            | (self.append as u8) << 5;
        put_u8(buf, bits);
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        let bits = c.u8()?;
        if bits & !0x3f != 0 {
            return Err(DecodeError::BadTag("OpenFlags", bits));
        }
        Ok(OpenFlags {
            read: bits & 1 != 0,
            write: bits & 2 != 0,
            create: bits & 4 != 0,
            excl: bits & 8 != 0,
            truncate: bits & 16 != 0,
            append: bits & 32 != 0,
        })
    }
}

impl Field for SeekFrom {
    fn put(&self, buf: &mut Vec<u8>) {
        match *self {
            SeekFrom::Start(v) => {
                put_u8(buf, 0);
                put_u64(buf, v);
            }
            SeekFrom::Current(v) => {
                put_u8(buf, 1);
                put_i64(buf, v);
            }
            SeekFrom::End(v) => {
                put_u8(buf, 2);
                put_i64(buf, v);
            }
        }
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        match c.u8()? {
            0 => Ok(SeekFrom::Start(c.u64()?)),
            1 => Ok(SeekFrom::Current(c.i64()?)),
            2 => Ok(SeekFrom::End(c.i64()?)),
            t => Err(DecodeError::BadTag("SeekFrom", t)),
        }
    }
}

impl Field for Stat {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.ino);
        self.mode.put(buf);
        put_u32(buf, self.uid);
        put_u32(buf, self.gid);
        put_u64(buf, self.size);
        put_u32(buf, self.nlink);
        put_u64(buf, self.atime);
        put_u64(buf, self.mtime);
        put_u64(buf, self.ctime);
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, DecodeError> {
        Ok(Stat {
            ino: c.u64()?,
            mode: FileMode::get(c)?,
            uid: c.u32()?,
            gid: c.u32()?,
            size: c.u64()?,
            nlink: c.u32()?,
            atime: c.u64()?,
            mtime: c.u64()?,
            ctime: c.u64()?,
        })
    }
}

// ---------------------------------------------------------------------------
// FsError wire form
// ---------------------------------------------------------------------------

/// Interns a decoded detail string, giving back the `&'static str` that
/// `FsError::Corrupt`/`Injected` carry in process. The pool deduplicates,
/// so the leak is bounded by the number of *distinct* detail strings a
/// peer ever sends — in practice the handful of literal sites in core.
fn intern(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL.get_or_init(|| Mutex::new(HashSet::new())).lock().unwrap();
    if let Some(&have) = pool.get(s) {
        return have;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Encodes an [`FsError`] into `buf`: a one-byte variant tag, a detail
/// string for the payload-carrying variants, and — for variants this
/// protocol version does not know (`#[non_exhaustive]` future additions) —
/// a catch-all tag carrying the errno and rendered message, so an old peer
/// still sees the right errno.
fn put_err(buf: &mut Vec<u8>, e: &FsError) {
    let tag = match e {
        FsError::NotFound => 0u8,
        FsError::Exists => 1,
        FsError::NotDir => 2,
        FsError::IsDir => 3,
        FsError::NotEmpty => 4,
        FsError::Access => 5,
        FsError::NoSpace => 6,
        FsError::BadFd => 7,
        FsError::NameTooLong => 8,
        FsError::Invalid => 9,
        FsError::TooManyLinks => 10,
        FsError::Unsupported => 11,
        FsError::Corrupt(_) => 12,
        FsError::Injected(_) => 13,
        // `FsError` is `#[non_exhaustive]`: unreachable today inside the
        // defining crate, load-bearing the day a variant is added.
        #[allow(unreachable_patterns)]
        _ => 255,
    };
    put_u8(buf, tag);
    match e {
        FsError::Corrupt(what) => put_str(buf, what),
        FsError::Injected(site) => put_str(buf, site),
        _ if tag == 255 => {
            // Future variant: errno + rendering keep the failure meaningful
            // across a version skew even though the exact variant is lost.
            put_u32(buf, e.errno() as u32);
            put_str(buf, &e.to_string());
        }
        _ => {}
    }
}

/// Decodes an [`FsError`] written by [`put_err`]. Unknown-variant
/// catch-alls map back through the errno table, collapsing to the closest
/// known variant.
fn get_err(c: &mut Cursor<'_>) -> Result<FsError, DecodeError> {
    Ok(match c.u8()? {
        0 => FsError::NotFound,
        1 => FsError::Exists,
        2 => FsError::NotDir,
        3 => FsError::IsDir,
        4 => FsError::NotEmpty,
        5 => FsError::Access,
        6 => FsError::NoSpace,
        7 => FsError::BadFd,
        8 => FsError::NameTooLong,
        9 => FsError::Invalid,
        10 => FsError::TooManyLinks,
        11 => FsError::Unsupported,
        12 => FsError::Corrupt(intern(&c.string()?)),
        13 => FsError::Injected(intern(&c.string()?)),
        255 => {
            let errno = c.u32()? as i32;
            let _rendering = c.string()?;
            std::io::Error::from_raw_os_error(errno).into()
        }
        t => return Err(DecodeError::BadTag("FsError", t)),
    })
}

/// Round-trips an [`FsError`] through its wire form (test/fuzz surface for
/// the encode→decode→encode property).
pub fn err_round_trip(e: &FsError) -> Result<FsError, DecodeError> {
    let mut buf = Vec::new();
    put_err(&mut buf, e);
    let mut c = Cursor::new(&buf);
    let back = get_err(&mut c)?;
    c.finish()?;
    Ok(back)
}

/// Encodes `e` to its standalone wire bytes (property tests compare the
/// byte strings of both encode passes).
pub fn err_bytes(e: &FsError) -> Vec<u8> {
    let mut buf = Vec::new();
    put_err(&mut buf, e);
    buf
}

/// Decodes the standalone wire bytes of one [`FsError`] (the inverse of
/// [`err_bytes`]; rejects trailing garbage).
pub fn err_from_bytes(body: &[u8]) -> Result<FsError, DecodeError> {
    let mut c = Cursor::new(body);
    let e = get_err(&mut c)?;
    c.finish()?;
    Ok(e)
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// First frame a client sends: protocol version plus the credentials the
/// server should attach to every op on this connection. The kernel would
/// authenticate these via `SO_PEERCRED`; this reproduction trusts the
/// client's claim, like the paper's preload shim trusts `getuid()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Client's [`PROTOCOL_VERSION`]; the server refuses a mismatch.
    pub version: u16,
    /// Identity for permission checks on this connection.
    pub creds: Credentials,
}

impl Hello {
    /// Encodes the handshake frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(14);
        put_u32(&mut buf, HELLO_MAGIC);
        put_u16(&mut buf, self.version);
        put_u32(&mut buf, self.creds.uid);
        put_u32(&mut buf, self.creds.gid);
        buf
    }

    /// Decodes a handshake frame body.
    pub fn decode(body: &[u8]) -> Result<Hello, DecodeError> {
        let mut c = Cursor::new(body);
        if c.u32()? != HELLO_MAGIC {
            return Err(DecodeError::BadHandshake);
        }
        let h = Hello {
            version: c.u16()?,
            creds: Credentials { uid: c.u32()?, gid: c.u32()? },
        };
        c.finish()?;
        Ok(h)
    }
}

/// Server's handshake reply: the negotiated version and the
/// server-assigned connection id that namespaces every fd this connection
/// opens. Clients never send an id of their own — that is the fix for the
/// fd-collision hole a client-supplied pid would open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloOk {
    /// Server's [`PROTOCOL_VERSION`].
    pub version: u16,
    /// Server-assigned connection id (the fd namespace for this session).
    pub conn_id: u32,
}

impl HelloOk {
    /// Encodes the handshake-reply frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(10);
        put_u32(&mut buf, HELLO_MAGIC);
        put_u16(&mut buf, self.version);
        put_u32(&mut buf, self.conn_id);
        buf
    }

    /// Decodes a handshake-reply frame body.
    pub fn decode(body: &[u8]) -> Result<HelloOk, DecodeError> {
        let mut c = Cursor::new(body);
        if c.u32()? != HELLO_MAGIC {
            return Err(DecodeError::BadHandshake);
        }
        let h = HelloOk { version: c.u16()?, conn_id: c.u32()? };
        c.finish()?;
        Ok(h)
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Generates everything that mirrors the `FileSystem` trait from one table:
/// [`Request`], [`RequestKind`] (with `COUNT`, `ALL` and `method_name`),
/// `Request::kind` and the request codec. Each row is
/// `Variant method { field: Type, … }` in trait declaration order. The
/// opcode is the row position + 1 (0 is reserved) and the fields travel in
/// declaration order through their [`Field`] codec, so reordering rows or
/// fields changes the wire format.
///
/// A row whose `method` is not a `FileSystem` method fails to compile;
/// a trait method without a row fails the `every_trait_method_has_a_row`
/// test below; a row without a `dispatch` arm in `simurgh-served` fails
/// that exhaustive `match`.
macro_rules! requests {
    ($(
        $(#[$attr:meta])*
        $variant:ident $method:ident $({ $($(#[$fattr:meta])* $field:ident: $ty:ty,)* })?
    ),* $(,)?) => {
        /// One `FileSystem` call in wire form — exactly one variant per
        /// trait method, in trait declaration order.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Request {
            $($(#[$attr])* $variant $({ $($(#[$fattr])* $field: $ty,)* })?,)*
        }

        /// Discriminant-only view of [`Request`], used by the conformance
        /// tests to enumerate the wire surface exhaustively.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum RequestKind {
            $(#[doc = concat!("`Request::", stringify!($variant), "`.")] $variant,)*
        }

        impl RequestKind {
            /// Number of wire ops — one per `FileSystem` method.
            pub const COUNT: usize = [$(stringify!($variant)),*].len();

            /// Every wire op, in trait declaration order.
            pub const ALL: [RequestKind; RequestKind::COUNT] = [$(RequestKind::$variant),*];

            /// The `FileSystem` trait method this wire op mirrors.
            pub fn method_name(self) -> &'static str {
                match self {
                    $(RequestKind::$variant => stringify!($method),)*
                }
            }
        }

        impl Request {
            /// The discriminant of this request.
            pub fn kind(&self) -> RequestKind {
                match self {
                    $(Request::$variant { .. } => RequestKind::$variant,)*
                }
            }

            /// Encodes the frame body (opcode + fields, no length prefix).
            pub fn encode(&self) -> Vec<u8> {
                let mut buf = Vec::new();
                put_u8(&mut buf, self.kind() as u8 + 1); // opcode 0 is reserved
                match self {
                    $(Request::$variant $({ $($field,)* })? => { $($($field.put(&mut buf);)*)? })*
                }
                buf
            }

            /// Decodes a frame body produced by [`Request::encode`].
            pub fn decode(body: &[u8]) -> Result<Request, DecodeError> {
                let mut c = Cursor::new(body);
                let op = c.u8()?;
                let kind = *RequestKind::ALL
                    .get(op.wrapping_sub(1) as usize)
                    .ok_or(DecodeError::BadTag("Request", op))?;
                let req = match kind {
                    $(RequestKind::$variant => Request::$variant $({
                        $($field: <$ty as Field>::get(&mut c)?,)*
                    })?,)*
                };
                c.finish()?;
                Ok(req)
            }
        }

        /// Names every row's method as a `FileSystem` item, so a row
        /// without a trait method is a compile error.
        #[allow(dead_code)]
        fn rows_name_trait_methods<F: crate::FileSystem>() {
            $(let _ = F::$method;)*
        }
    };
}

requests! {
    /// `FileSystem::name`.
    Name name,
    /// `FileSystem::open`.
    Open open {
        /// Path to open.
        path: String,
        /// Open flags.
        flags: OpenFlags,
        /// Creation mode (applies with `flags.create`).
        mode: FileMode,
    },
    /// `FileSystem::create`.
    Create create {
        /// Path to create.
        path: String,
        /// Creation mode.
        mode: FileMode,
    },
    /// `FileSystem::close`.
    Close close {
        /// Descriptor to close.
        fd: Fd,
    },
    /// `FileSystem::read` — the server reads up to `len` bytes into the
    /// reply and ships them back ([`Response::Data`]).
    Read read {
        /// Descriptor to read from.
        fd: Fd,
        /// Maximum bytes to return.
        len: u32,
    },
    /// `FileSystem::write`.
    Write write {
        /// Descriptor to write to.
        fd: Fd,
        /// Bytes to append at the descriptor position.
        data: Vec<u8>,
    },
    /// `FileSystem::pread`.
    Pread pread {
        /// Descriptor to read from.
        fd: Fd,
        /// Maximum bytes to return.
        len: u32,
        /// Absolute file offset.
        off: u64,
    },
    /// `FileSystem::pwrite`.
    Pwrite pwrite {
        /// Descriptor to write to.
        fd: Fd,
        /// Bytes to store at `off`.
        data: Vec<u8>,
        /// Absolute file offset.
        off: u64,
    },
    /// `FileSystem::lseek`.
    Lseek lseek {
        /// Descriptor to reposition.
        fd: Fd,
        /// Seek origin and delta.
        pos: SeekFrom,
    },
    /// `FileSystem::fsync`.
    Fsync fsync {
        /// Descriptor to flush.
        fd: Fd,
    },
    /// `FileSystem::fstat`.
    Fstat fstat {
        /// Descriptor to stat.
        fd: Fd,
    },
    /// `FileSystem::ftruncate`.
    Ftruncate ftruncate {
        /// Descriptor to resize.
        fd: Fd,
        /// New length in bytes.
        len: u64,
    },
    /// `FileSystem::fallocate`.
    Fallocate fallocate {
        /// Descriptor to preallocate within.
        fd: Fd,
        /// Range start.
        off: u64,
        /// Range length.
        len: u64,
    },
    /// `FileSystem::unlink`.
    Unlink unlink {
        /// Path to remove.
        path: String,
    },
    /// `FileSystem::mkdir`.
    Mkdir mkdir {
        /// Directory path to create.
        path: String,
        /// Creation mode.
        mode: FileMode,
    },
    /// `FileSystem::rmdir`.
    Rmdir rmdir {
        /// Directory path to remove.
        path: String,
    },
    /// `FileSystem::rename`.
    Rename rename {
        /// Existing path.
        old: String,
        /// Destination path.
        new: String,
    },
    /// `FileSystem::stat`.
    Stat stat {
        /// Path to stat.
        path: String,
    },
    /// `FileSystem::readdir`.
    Readdir readdir {
        /// Directory path to list.
        path: String,
    },
    /// `FileSystem::symlink`.
    Symlink symlink {
        /// Link target (stored verbatim).
        target: String,
        /// Path of the new symlink.
        linkpath: String,
    },
    /// `FileSystem::readlink`.
    Readlink readlink {
        /// Symlink path to read.
        path: String,
    },
    /// `FileSystem::link`.
    Link link {
        /// Existing file path.
        existing: String,
        /// New hard-link path.
        new: String,
    },
    /// `FileSystem::chmod`.
    Chmod chmod {
        /// Path to re-mode.
        path: String,
        /// New 9-bit permission mask.
        perm: u16,
    },
    /// `FileSystem::set_times`.
    SetTimes set_times {
        /// Path to touch.
        path: String,
        /// New access time.
        atime: u64,
        /// New modification time.
        mtime: u64,
    },
    /// `FileSystem::statfs`.
    Statfs statfs,
    /// `FileSystem::read_file`.
    ReadFile read_file {
        /// Path to read in full.
        path: String,
    },
    /// `FileSystem::read_to_vec`.
    ReadToVec read_to_vec {
        /// Path to read in full.
        path: String,
    },
    /// `FileSystem::write_file`.
    WriteFile write_file {
        /// Path to create/truncate.
        path: String,
        /// Full new contents.
        data: Vec<u8>,
    },
    /// `FileSystem::snapshot_tree`.
    SnapshotTree snapshot_tree {
        /// Root of the tree walk.
        root: String,
    },
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Result of one [`Request`], by payload shape rather than per-op (several
/// ops share a shape: every `FsResult<()>` op answers [`Response::Unit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success with no payload (`close`, `fsync`, `unlink`, …).
    Unit,
    /// A descriptor (`open`, `create`).
    Fd(Fd),
    /// A size or offset (`write`, `pwrite`, `lseek`).
    Size(u64),
    /// Raw bytes (`read`, `pread`, `read_file`, `read_to_vec`).
    Data(Vec<u8>),
    /// A string (`name`, `readlink`).
    Str(String),
    /// File metadata (`stat`, `fstat`).
    Stat(Stat),
    /// Device statistics (`statfs`).
    Statfs(FsStats),
    /// Directory listing (`readdir`).
    Entries(Vec<DirEntry>),
    /// Recursive tree rows (`snapshot_tree`).
    Tree(Vec<TreeEntry>),
    /// The op failed with an [`FsError`].
    Err(FsError),
    /// Admission control pushback: the op was *not* executed because the
    /// server's in-flight budget is exhausted; retry after draining
    /// already-pipelined replies. Carries the observed load and the limit.
    Busy {
        /// Ops in flight when the request was refused.
        in_flight: u32,
        /// The server's admission limit.
        limit: u32,
    },
}

// Response tags: the first byte of every response body.
const TAG_UNIT: u8 = 0;
const TAG_FD: u8 = 1;
const TAG_SIZE: u8 = 2;
const TAG_DATA: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_STAT: u8 = 5;
const TAG_STATFS: u8 = 6;
const TAG_ENTRIES: u8 = 7;
const TAG_TREE: u8 = 8;
const TAG_ERR: u8 = 9;
const TAG_BUSY: u8 = 10;

impl Response {
    /// Encodes the frame body (tag + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the frame body (tag + payload, no length prefix) to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Unit => put_u8(buf, TAG_UNIT),
            Response::Fd(fd) => {
                put_u8(buf, TAG_FD);
                put_u32(buf, fd.0);
            }
            Response::Size(n) => {
                put_u8(buf, TAG_SIZE);
                put_u64(buf, *n);
            }
            Response::Data(d) => {
                put_u8(buf, TAG_DATA);
                put_bytes(buf, d);
            }
            Response::Str(s) => {
                put_u8(buf, TAG_STR);
                put_str(buf, s);
            }
            Response::Stat(s) => {
                put_u8(buf, TAG_STAT);
                s.put(buf);
            }
            Response::Statfs(s) => {
                put_u8(buf, TAG_STATFS);
                put_u64(buf, s.total_bytes);
                put_u64(buf, s.free_bytes);
                put_u32(buf, s.block_size);
            }
            Response::Entries(es) => {
                put_u8(buf, TAG_ENTRIES);
                put_u32(buf, es.len() as u32);
                for e in es {
                    put_str(buf, &e.name);
                    e.ftype.put(buf);
                    put_u64(buf, e.ino);
                }
            }
            Response::Tree(rows) => {
                put_u8(buf, TAG_TREE);
                put_u32(buf, rows.len() as u32);
                for (path, ftype, size) in rows {
                    put_str(buf, path);
                    ftype.put(buf);
                    put_u64(buf, *size);
                }
            }
            Response::Err(e) => {
                put_u8(buf, TAG_ERR);
                put_err(buf, e);
            }
            Response::Busy { in_flight, limit } => {
                put_u8(buf, TAG_BUSY);
                put_u32(buf, *in_flight);
                put_u32(buf, *limit);
            }
        }
    }

    /// Appends a [`Response::Data`] body whose payload `fill` writes in
    /// place: it gets `len` zeroed bytes and returns how many it used. An
    /// error becomes the [`Response::Err`] body instead, so the bytes are
    /// those `encode` writes for the equivalent `Response`.
    pub fn encode_data_into(
        buf: &mut Vec<u8>,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<usize, FsError>,
    ) {
        let at = buf.len();
        put_u8(buf, TAG_DATA);
        put_u32(buf, 0);
        let payload = buf.len();
        buf.resize(payload + len, 0);
        match fill(&mut buf[payload..]) {
            Ok(n) => {
                let n = n.min(len);
                buf.truncate(payload + n);
                buf[at + 1..payload].copy_from_slice(&(n as u32).to_le_bytes());
            }
            Err(e) => {
                buf.truncate(at);
                Response::Err(e).encode_into(buf);
            }
        }
    }

    /// Decodes a frame body produced by [`Response::encode`].
    pub fn decode(body: &[u8]) -> Result<Response, DecodeError> {
        let mut c = Cursor::new(body);
        let resp = match c.u8()? {
            TAG_UNIT => Response::Unit,
            TAG_FD => Response::Fd(Fd(c.u32()?)),
            TAG_SIZE => Response::Size(c.u64()?),
            TAG_DATA => Response::Data(c.bytes()?),
            TAG_STR => Response::Str(c.string()?),
            TAG_STAT => Response::Stat(Stat::get(&mut c)?),
            TAG_STATFS => Response::Statfs(FsStats {
                total_bytes: c.u64()?,
                free_bytes: c.u64()?,
                block_size: c.u32()?,
            }),
            TAG_ENTRIES => {
                let n = c.u32()? as usize;
                let mut es = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    es.push(DirEntry {
                        name: c.string()?,
                        ftype: FileType::get(&mut c)?,
                        ino: c.u64()?,
                    });
                }
                Response::Entries(es)
            }
            TAG_TREE => {
                let n = c.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    rows.push((c.string()?, FileType::get(&mut c)?, c.u64()?));
                }
                Response::Tree(rows)
            }
            TAG_ERR => Response::Err(get_err(&mut c)?),
            TAG_BUSY => Response::Busy { in_flight: c.u32()?, limit: c.u32()? },
            t => return Err(DecodeError::BadTag("Response", t)),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Wraps a frame body with its little-endian `u32` length prefix.
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    frame_into(&mut out, |out| out.extend_from_slice(body));
    out
}

/// Appends one frame to `out`: reserves the length prefix, lets `body`
/// append the frame body, then back-patches the prefix with its length.
pub fn frame_into(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    body(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Incremental deframer: given the unconsumed byte stream, returns
/// `Ok(Some((consumed, body)))` when a complete frame is buffered,
/// `Ok(None)` when more bytes are needed, or the protocol error for an
/// oversized length prefix.
pub fn split_frame(buf: &[u8]) -> Result<Option<(usize, &[u8])>, DecodeError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(DecodeError::FrameTooLarge(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((4 + len, &buf[4..4 + len])))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: RequestKind) -> Request {
        let mode = FileMode::file(0o640);
        match kind {
            RequestKind::Name => Request::Name,
            RequestKind::Open => {
                Request::Open { path: "/a/b".into(), flags: OpenFlags::RDWR, mode }
            }
            RequestKind::Create => Request::Create { path: "/a/c".into(), mode },
            RequestKind::Close => Request::Close { fd: Fd(7) },
            RequestKind::Read => Request::Read { fd: Fd(7), len: 4096 },
            RequestKind::Write => Request::Write { fd: Fd(7), data: vec![1, 2, 3] },
            RequestKind::Pread => Request::Pread { fd: Fd(7), len: 512, off: 9 },
            RequestKind::Pwrite => Request::Pwrite { fd: Fd(7), data: vec![9; 17], off: 33 },
            RequestKind::Lseek => Request::Lseek { fd: Fd(7), pos: SeekFrom::End(-3) },
            RequestKind::Fsync => Request::Fsync { fd: Fd(7) },
            RequestKind::Fstat => Request::Fstat { fd: Fd(7) },
            RequestKind::Ftruncate => Request::Ftruncate { fd: Fd(7), len: 100 },
            RequestKind::Fallocate => Request::Fallocate { fd: Fd(7), off: 4096, len: 8192 },
            RequestKind::Unlink => Request::Unlink { path: "/a/b".into() },
            RequestKind::Mkdir => Request::Mkdir { path: "/d".into(), mode: FileMode::dir(0o755) },
            RequestKind::Rmdir => Request::Rmdir { path: "/d".into() },
            RequestKind::Rename => Request::Rename { old: "/a".into(), new: "/b".into() },
            RequestKind::Stat => Request::Stat { path: "/a".into() },
            RequestKind::Readdir => Request::Readdir { path: "/".into() },
            RequestKind::Symlink => {
                Request::Symlink { target: "/a".into(), linkpath: "/l".into() }
            }
            RequestKind::Readlink => Request::Readlink { path: "/l".into() },
            RequestKind::Link => Request::Link { existing: "/a".into(), new: "/h".into() },
            RequestKind::Chmod => Request::Chmod { path: "/a".into(), perm: 0o600 },
            RequestKind::SetTimes => {
                Request::SetTimes { path: "/a".into(), atime: 1, mtime: 2 }
            }
            RequestKind::Statfs => Request::Statfs,
            RequestKind::ReadFile => Request::ReadFile { path: "/a".into() },
            RequestKind::ReadToVec => Request::ReadToVec { path: "/a".into() },
            RequestKind::WriteFile => {
                Request::WriteFile { path: "/a".into(), data: b"hello".to_vec() }
            }
            RequestKind::SnapshotTree => Request::SnapshotTree { root: "/".into() },
        }
    }

    #[test]
    fn every_trait_method_has_a_row() {
        // rustc rejects a row that names no trait method; this is the
        // other direction, which it cannot see: a `FileSystem` method
        // added without a wire row.
        let src = include_str!("fs.rs");
        let body = src.split("pub trait FileSystem").nth(1).expect("trait in fs.rs");
        let body = &body[..body.find("\n}\n").expect("end of trait")];
        let methods: Vec<&str> = body
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("fn "))
            .map(|l| &l[..l.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(l.len())])
            .collect();
        let rows: Vec<&str> = RequestKind::ALL.iter().map(|k| k.method_name()).collect();
        assert_eq!(methods, rows, "trait methods vs wire rows, in declaration order");
    }

    #[test]
    fn every_request_round_trips() {
        for kind in RequestKind::ALL {
            let req = sample(kind);
            assert_eq!(req.kind(), kind);
            let body = req.encode();
            let back = Request::decode(&body).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(back, req, "{kind:?} round-trips");
        }
    }

    #[test]
    fn responses_round_trip() {
        let stat = Stat {
            ino: 42,
            mode: FileMode::dir(0o755),
            uid: 1,
            gid: 2,
            size: 0,
            nlink: 2,
            atime: 3,
            mtime: 4,
            ctime: 5,
        };
        let all = [
            Response::Unit,
            Response::Fd(Fd(9)),
            Response::Size(1 << 40),
            Response::Data(vec![0, 255, 7]),
            Response::Str("simurgh".into()),
            Response::Stat(stat),
            Response::Statfs(FsStats { total_bytes: 10, free_bytes: 4, block_size: 4096 }),
            Response::Entries(vec![DirEntry {
                name: "x".into(),
                ftype: FileType::Symlink,
                ino: 3,
            }]),
            Response::Tree(vec![("/a".into(), FileType::Regular, 11)]),
            Response::Err(FsError::Corrupt("bad line")),
            Response::Busy { in_flight: 128, limit: 128 },
        ];
        for r in all {
            let back = Response::decode(&r.encode()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn framing_is_incremental() {
        let body = Request::Statfs.encode();
        let framed = frame(&body);
        for cut in 0..framed.len() {
            assert_eq!(split_frame(&framed[..cut]).unwrap(), None, "partial at {cut}");
        }
        let (consumed, got) = split_frame(&framed).unwrap().unwrap();
        assert_eq!(consumed, framed.len());
        assert_eq!(got, &body[..]);
        // Oversized length prefix is refused, not buffered.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(matches!(split_frame(&huge), Err(DecodeError::FrameTooLarge(_))));
    }

    #[test]
    fn in_place_writers_match_the_owned_encoders() {
        // `frame_into` appends after what the buffer already holds.
        let mut out = vec![0xAA];
        frame_into(&mut out, |b| Response::Size(7).encode_into(b));
        assert_eq!(out[1..], frame(&Response::Size(7).encode())[..]);

        let data = |len, fill: Result<&[u8], FsError>| {
            let mut body = vec![0xBB];
            Response::encode_data_into(&mut body, len, |buf| {
                assert_eq!(buf, &vec![0; len][..], "the payload slot starts zeroed");
                fill.map(|d| {
                    buf[..d.len()].copy_from_slice(d);
                    d.len()
                })
            });
            body.split_off(1)
        };
        assert_eq!(data(8, Ok(b"abc")), Response::Data(b"abc".to_vec()).encode());
        assert_eq!(data(3, Ok(b"abc")), Response::Data(b"abc".to_vec()).encode());
        assert_eq!(data(0, Ok(b"")), Response::Data(Vec::new()).encode());
        assert_eq!(data(8, Err(FsError::BadFd)), Response::Err(FsError::BadFd).encode());
    }

    #[test]
    fn handshake_round_trips_and_rejects_garbage() {
        let h = Hello { version: PROTOCOL_VERSION, creds: Credentials::user(10, 20) };
        assert_eq!(Hello::decode(&h.encode()).unwrap(), h);
        let ok = HelloOk { version: PROTOCOL_VERSION, conn_id: 77 };
        assert_eq!(HelloOk::decode(&ok.encode()).unwrap(), ok);
        assert_eq!(Hello::decode(&[0; 14]), Err(DecodeError::BadHandshake));
    }

    #[test]
    fn unknown_error_tag_decodes_by_errno() {
        // A future FsError variant arrives as the catch-all tag: errno +
        // rendering. The decode maps it to the closest known variant.
        let mut buf = vec![255u8];
        buf.extend_from_slice(&28u32.to_le_bytes());
        let msg = b"EFUTURE (something new)";
        buf.extend_from_slice(&(msg.len() as u32).to_le_bytes());
        buf.extend_from_slice(msg);
        let mut c = Cursor::new(&buf);
        let e = get_err(&mut c).unwrap();
        c.finish().unwrap();
        assert_eq!(e.errno(), 28);
    }
}
