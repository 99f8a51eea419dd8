//! `simurgh-served`: the serving gateway over the syscall-free data path.
//!
//! The paper's file system is a library — every "process" in the
//! evaluation links it and touches NVMM directly. This crate is the
//! other deployment shape: a daemon owns the mounted region and exposes
//! the full [`FileSystem`] surface to remote clients over a
//! length-prefixed binary protocol (`simurgh_fsapi::wire`), so processes
//! that cannot (or should not) map the device still get the same API.
//!
//! Architecture (DESIGN.md §7):
//!
//! * [`server`] — one nonblocking acceptor plus a fixed pool of epoll
//!   shard loops; no per-connection OS thread. A connection's pipeline is
//!   drained into one burst and executed under a single persistence
//!   batch.
//! * [`dispatch`] — `Request` → trait call → `Response`, one arm per wire
//!   op (an exhaustive `match`, so a missing arm fails to compile), with
//!   server-side fd tracking for crash reaping; `serve_into`, the
//!   daemon's reply path, frames each reply straight into the
//!   connection's write buffer.
//! * [`batch`] — the [`Served`] extension trait: fence-scope batching and
//!   the gateway counter battery.
//! * [`loadgen`] — the measurement client: hundreds of connections,
//!   configurable op mix, p50/p99 via the shared histogram.
//! * [`sys`] — the three-syscall epoll FFI shim.
//!
//! Identity is server-assigned: the fd namespace of a connection is its
//! connection id from the `HelloOk` handshake, never a client-supplied
//! pid — two clients claiming the same pid can no longer collide in the
//! open-file table.
//!
//! [`FileSystem`]: simurgh_fsapi::FileSystem

pub mod batch;
pub mod dispatch;
pub mod loadgen;
pub mod server;
pub mod sys;

pub use batch::Served;
pub use dispatch::{dispatch, ConnFds};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use server::{Server, ServerConfig, ServerHandle};
