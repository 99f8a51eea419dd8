//! Common file-system interface for the Simurgh reproduction.
//!
//! Simurgh is benchmarked against four other file systems across identical
//! workloads, so every implementation — `simurgh-core` and each model in
//! `simurgh-baselines` — speaks the same POSIX-like [`FileSystem`] trait
//! defined here. The crate also carries the shared vocabulary types
//! (credentials, modes, stat, errors), path handling, an instrumentation
//! layer for the paper's execution-time breakdowns (Table 1, Fig. 10), and
//! [`reffs::RefFs`], a deliberately simple in-memory reference file system
//! used as the oracle in differential and property tests.

/// Error vocabulary: [`FsError`], errno mappings, `io::Error` conversions.
pub mod error;
/// The [`FileSystem`] trait and its default helper methods.
pub mod fs;
/// Lexical path normalization and name validation.
pub mod path;
/// Per-operation instrumentation for the paper's time breakdowns.
pub mod profile;
/// In-memory reference file system used as the test oracle.
pub mod reffs;
/// Shared vocabulary types: modes, flags, stat, credentials.
pub mod types;
/// Serializable wire form of the trait: `Request`/`Response` + codec.
pub mod wire;

pub use error::{FsError, FsResult};
pub use fs::{DirEntry, FileSystem, ProcCtx, TreeEntry};
pub use profile::{Breakdown, OpTimers, TimerCategory};
pub use types::{Credentials, Fd, FileMode, FileType, FsStats, OpenFlags, SeekFrom, Stat};

/// Maximum file-name length accepted by every implementation (bytes).
pub const NAME_MAX: usize = 230;
