//! Simurgh's crash harness, kept out of the production `simurgh-core`
//! crate so that no release build of the file system links it.
//!
//! [`testing`] holds the process-crash helpers, the power-cut matrix
//! ([`testing::matrix`]) and the multi-process `kill -9` matrix
//! ([`testing::procs`]); the `crashlab` binary drives them. The module keeps
//! the path it had inside `simurgh-core`, so callers changed only the crate
//! name.

pub mod testing;
