//! Simurgh: a fully decentralized NVMM user-space file system.
//!
//! This crate is the primary contribution of the SC '21 paper, rebuilt in
//! Rust on the emulated substrates of `simurgh-pmem` (persistent memory)
//! and `simurgh-protfn` (protected functions). The design goals of §4:
//!
//! 1. **User space only** — the file system is a library; after
//!    format/mount there is no central server and no kernel involvement.
//!    Concurrent "processes" (threads holding [`SimurghFs`] through an
//!    `Arc`) coordinate exclusively through the shared NVMM region and
//!    shared volatile maps, exactly like independent processes sharing a
//!    DAX mapping and shared DRAM.
//! 2. **Decentralized scalability** — no global locks: a segmented block
//!    allocator ([`alloc::blocks`]), a lock-free slab allocator for
//!    metadata objects with atomic valid/dirty bits ([`alloc::meta`]), and
//!    per-line busy flags on chained directory hash blocks ([`dir`])
//!    following the step-by-step create/unlink/rename protocols of Fig. 5.
//! 3. **Kernel-equivalent protection** — uid/gid/mode permission checks on
//!    every path walk, and optional enforcement that the NVMM region is
//!    only touchable from within protected functions ([`security`]).
//!
//! Persistence follows the paper: metadata updates are ordered with
//! `clwb`/`sfence`; data writes use non-temporal stores and are fenced
//! before the metadata that publishes them ([`file`]). Crash recovery is
//! decentralized: a process that times out on a busy flag repairs the line
//! itself, and a whole-system crash is healed by the mark-and-sweep scan of
//! [`recovery`] at mount time.
//!
//! ```
//! use std::sync::Arc;
//! use simurgh_core::{SimurghFs, SimurghConfig};
//! use simurgh_fsapi::{FileSystem, ProcCtx, FileMode};
//!
//! let region = Arc::new(simurgh_pmem::PmemRegion::new(16 << 20));
//! let fs = SimurghFs::format(region, SimurghConfig::default()).unwrap();
//! let ctx = ProcCtx::root(1);
//! fs.mkdir(&ctx, "/home", FileMode::dir(0o755)).unwrap();
//! fs.write_file(&ctx, "/home/hello", b"simurgh").unwrap();
//! assert_eq!(fs.read_to_vec(&ctx, "/home/hello").unwrap(), b"simurgh");
//! ```

pub mod alloc;
pub mod check;
pub mod compact;
pub mod dindex;
pub mod dir;
pub mod file;
pub mod fs;
pub mod hash;
pub mod obj;
pub mod obs;
pub mod recovery;
pub mod security;
pub mod shared;
pub mod super_block;

pub use fs::{SimurghConfig, SimurghFs};
pub use recovery::RecoveryReport;

/// Size of one file data block.
pub const BLOCK_SIZE: usize = 4096;
