//! The shared-DRAM directory index.
//!
//! Simurgh's memory layout (paper Fig. 3) pairs the persistent NVMM region
//! with a *shared DRAM* area holding volatile metadata — the allocator
//! free lists and friends — that every process maps and that is rebuilt at
//! mount ("the recovery [is] split into two parts: scanning and repairing
//! the persistent data, and rebuilding the shared memory data structures",
//! artifact appendix). This module is that shared-DRAM structure for
//! directories: a hash index from `(directory, name-hash)` to the file
//! entry's persistent pointer, plus per-`(dir, line)` free-slot stacks, a
//! per-line completeness bitmap and the chain tail.
//!
//! The persistent hash-block chains remain the ground truth — the index is
//! never required for correctness. Lookups verify every hit against the
//! persistent entry (valid bit + name compare) and fall back to the chain
//! walk whenever the *line* is not marked fully indexed (e.g. right after a
//! decentralized line repair — other lines keep their authority). What the
//! index buys is O(1) lookup and insertion independent of directory size,
//! where the raw chain costs one probe per chained block:
//!
//! * **Lookup**: hit → one entry-map probe (verified); authoritative miss →
//!   one bitmap test. Only an incomplete line walks the chain.
//! * **Insert**: the free-slot stack yields a block with a hole at this
//!   line, or the cached chain tail is probed/extended — never a walk from
//!   the first block.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use parking_lot::RwLock;
use simurgh_pmem::PPtr;

use crate::obj::dirblock::NLINES;

const SHARDS: usize = 32;
const LINE_WORDS: usize = NLINES / 64;

/// Multiply-xorshift folding hasher. Index keys are persistent pointers and
/// FNV-1a name hashes — already well-mixed words — so the default SipHash
/// (DoS hardening for untrusted keys) only adds per-op cost on the hottest
/// metadata path. Not stable across mounts; never persisted.
#[derive(Default)]
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let x = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FastBuild = BuildHasherDefault<FoldHasher>;
type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// `(dir, fnv64(name))` → `(file-entry pointer, containing block)`.
type EntryShard = RwLock<FastMap<(u64, u64), (u64, u64)>>;

/// Volatile per-directory state: chain tail, per-line miss authority and
/// per-line free-slot stacks.
#[derive(Default)]
struct DirState {
    /// Chain tail block (0 = unknown; inserts then start from the first
    /// block, which is always correct, just slower).
    tail: u64,
    /// Bit `i` set ⇒ line `i` is fully indexed and a miss is authoritative.
    complete: [u64; LINE_WORDS],
    /// `line` → blocks known to have a free slot at that line (pushed by
    /// deletes, popped — and re-verified — by inserts).
    free: FastMap<u32, Vec<u64>>,
}

impl DirState {
    #[inline]
    fn line_complete(&self, line: usize) -> bool {
        self.complete[line / 64] & (1 << (line % 64)) != 0
    }
}

/// Volatile per-mount directory index. Directories are keyed by the
/// persistent pointer of their first hash block.
pub struct DirIndex {
    entries: Vec<EntryShard>,
    dirs: Vec<RwLock<FastMap<u64, DirState>>>,
    /// Whether completeness bits may turn a miss into an authoritative
    /// `AbsentForSure`. Shared (multi-process) mounts turn this off: a peer
    /// process inserting a name cannot invalidate *our* DRAM, so only the
    /// verified positive hints, free-slot stacks and chain tails — all
    /// re-checked against media on use — remain safe to serve.
    negative_authority: std::sync::atomic::AtomicBool,
}

impl Default for DirIndex {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of an index lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexHit {
    /// The name maps to this candidate `(entry, block)` (caller verifies).
    Found(PPtr, PPtr),
    /// The line is fully indexed and the name is not present.
    AbsentForSure,
    /// The index cannot answer; walk the persistent chain.
    Unknown,
}

impl DirIndex {
    pub fn new() -> Self {
        DirIndex {
            entries: (0..SHARDS).map(|_| RwLock::new(FastMap::default())).collect(),
            dirs: (0..SHARDS).map(|_| RwLock::new(FastMap::default())).collect(),
            negative_authority: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Demotes the index to positive-hints-only (shared mounts): misses are
    /// never authoritative and always fall back to the chain walk.
    pub fn disable_negative_authority(&self) {
        self.negative_authority.store(false, std::sync::atomic::Ordering::Release);
    }

    #[inline]
    fn negatives_on(&self) -> bool {
        self.negative_authority.load(std::sync::atomic::Ordering::Acquire)
    }

    #[inline]
    fn eshard(&self, nhash: u64) -> usize {
        (nhash ^ (nhash >> 32)) as usize % SHARDS
    }

    #[inline]
    fn dshard(&self, dir: u64) -> usize {
        (dir.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % SHARDS
    }

    /// Runs `f` on the (existing or fresh) state of `dir` under a write lock.
    fn with_dir<R>(&self, dir: PPtr, f: impl FnOnce(&mut DirState) -> R) -> R {
        f(self.dirs[self.dshard(dir.off())].write().entry(dir.off()).or_default())
    }

    /// Runs `f` on the state of `dir` under a read lock, if it exists.
    fn read_dir<R>(&self, dir: PPtr, f: impl FnOnce(&DirState) -> R) -> Option<R> {
        self.dirs[self.dshard(dir.off())].read().get(&dir.off()).map(f)
    }

    /// Looks up `(dir, name-hash)`; `line` is the name's hash line, used for
    /// per-line miss authority.
    pub fn lookup(&self, dir: PPtr, line: usize, nhash: u64) -> IndexHit {
        let shard = &self.entries[self.eshard(nhash)];
        if let Some(&(fe, blk)) = shard.read().get(&(dir.off(), nhash)) {
            return IndexHit::Found(PPtr::new(fe), PPtr::new(blk));
        }
        match self.negatives_on() && self.read_dir(dir, |st| st.line_complete(line)) == Some(true)
        {
            true => IndexHit::AbsentForSure,
            false => IndexHit::Unknown,
        }
    }

    /// Records a published entry and the block whose line slot holds it.
    pub fn insert(&self, dir: PPtr, nhash: u64, fe: PPtr, block: PPtr) {
        self.entries[self.eshard(nhash)]
            .write()
            .insert((dir.off(), nhash), (fe.off(), block.off()));
    }

    /// Removes an entry.
    pub fn remove(&self, dir: PPtr, nhash: u64) {
        self.entries[self.eshard(nhash)].write().remove(&(dir.off(), nhash));
    }

    /// Marks every line of a directory as fully indexed (fresh mkdir, or
    /// after a full rebuild scan); misses become authoritative.
    pub fn mark_complete(&self, dir: PPtr) {
        self.with_dir(dir, |st| st.complete = [u64::MAX; LINE_WORDS]);
    }

    /// Marks one line fully indexed; misses on it become authoritative.
    pub fn mark_line_complete(&self, dir: PPtr, line: usize) {
        self.with_dir(dir, |st| st.complete[line / 64] |= 1 << (line % 64));
    }

    /// Drops one line's completeness (a repair touched it); lookups on this
    /// line fall back to the chain walk until it is reindexed, while every
    /// other line keeps its O(1) authority.
    pub fn mark_line_incomplete(&self, dir: PPtr, line: usize) {
        self.with_dir(dir, |st| st.complete[line / 64] &= !(1 << (line % 64)));
    }

    /// Whether misses on `(dir, line)` are authoritative.
    pub fn is_line_complete(&self, dir: PPtr, line: usize) -> bool {
        self.negatives_on() && self.read_dir(dir, |st| st.line_complete(line)).unwrap_or(false)
    }

    /// Whether misses on every line of this directory are authoritative.
    pub fn is_complete(&self, dir: PPtr) -> bool {
        self.negatives_on()
            && self
                .read_dir(dir, |st| st.complete.iter().all(|w| *w == u64::MAX))
                .unwrap_or(false)
    }

    /// Forgets everything about a directory (rmdir).
    pub fn forget_dir(&self, dir: PPtr) {
        self.dirs[self.dshard(dir.off())].write().remove(&dir.off());
        for shard in &self.entries {
            shard.write().retain(|(d, _), _| *d != dir.off());
        }
    }

    /// Pops a block known to have a free slot at `(dir, line)`, if any.
    /// The caller re-verifies the slot and drops stale hints.
    pub fn take_free_hint(&self, dir: PPtr, line: usize) -> Option<PPtr> {
        self.take_free_hint_or_tail(dir, line).0
    }

    /// One-locking-pass fetch of the insert-path hints: a popped free-slot
    /// block (if any) and the cached chain tail. The common no-hints case
    /// stays on the shared (read) lock.
    pub fn take_free_hint_or_tail(&self, dir: PPtr, line: usize) -> (Option<PPtr>, Option<PPtr>) {
        let shard = &self.dirs[self.dshard(dir.off())];
        {
            let g = shard.read();
            let Some(st) = g.get(&dir.off()) else {
                return (None, None);
            };
            let tail = (st.tail != 0).then(|| PPtr::new(st.tail));
            if st.free.get(&(line as u32)).is_none_or(|v| v.is_empty()) {
                return (None, tail);
            }
        }
        let mut g = shard.write();
        let Some(st) = g.get_mut(&dir.off()) else {
            return (None, None);
        };
        let tail = (st.tail != 0).then(|| PPtr::new(st.tail));
        let hint = st.free.get_mut(&(line as u32)).and_then(|v| v.pop()).map(PPtr::new);
        (hint, tail)
    }

    /// Remembers that `block` has a free slot at `(dir, line)`.
    pub fn put_free_hint(&self, dir: PPtr, line: usize, block: PPtr) {
        self.with_dir(dir, |st| {
            let v = st.free.entry(line as u32).or_default();
            if !v.contains(&block.off()) {
                v.push(block.off());
            }
        });
    }

    /// Drops the free-slot hints of one line (before a line reindex).
    pub fn clear_free_hints(&self, dir: PPtr, line: usize) {
        self.with_dir(dir, |st| {
            st.free.remove(&(line as u32));
        });
    }

    /// Drops every free-slot hint of a directory (before a full reindex).
    pub fn clear_all_free_hints(&self, dir: PPtr) {
        self.with_dir(dir, |st| st.free.clear());
    }

    /// The chain tail of `dir`, if known.
    pub fn tail(&self, dir: PPtr) -> Option<PPtr> {
        self.read_dir(dir, |st| (st.tail != 0).then(|| PPtr::new(st.tail))).flatten()
    }

    /// Updates the chain tail of `dir`.
    pub fn set_tail(&self, dir: PPtr, tail: PPtr) {
        self.with_dir(dir, |st| st.tail = tail.off());
    }

    /// Number of indexed entries of one directory (diagnostics; O(len)).
    pub fn dir_len(&self, dir: PPtr) -> usize {
        self.entries
            .iter()
            .map(|s| s.read().keys().filter(|(d, _)| *d == dir.off()).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_states() {
        let ix = DirIndex::new();
        let dir = PPtr::new(4096);
        assert_eq!(ix.lookup(dir, 3, 7), IndexHit::Unknown);
        ix.mark_complete(dir);
        assert_eq!(ix.lookup(dir, 3, 7), IndexHit::AbsentForSure);
        ix.insert(dir, 7, PPtr::new(8192), PPtr::new(12288));
        assert_eq!(ix.lookup(dir, 3, 7), IndexHit::Found(PPtr::new(8192), PPtr::new(12288)));
        ix.remove(dir, 7);
        assert_eq!(ix.lookup(dir, 3, 7), IndexHit::AbsentForSure);
        ix.mark_line_incomplete(dir, 3);
        assert_eq!(ix.lookup(dir, 3, 7), IndexHit::Unknown);
    }

    #[test]
    fn line_authority_is_independent() {
        let ix = DirIndex::new();
        let dir = PPtr::new(4096);
        ix.mark_complete(dir);
        assert!(ix.is_complete(dir));
        ix.mark_line_incomplete(dir, 5);
        assert!(!ix.is_complete(dir), "one incomplete line taints the whole");
        assert!(!ix.is_line_complete(dir, 5));
        assert_eq!(ix.lookup(dir, 5, 7), IndexHit::Unknown, "damaged line walks");
        for other in [0, 4, 6, 63, 64, 255] {
            assert!(ix.is_line_complete(dir, other));
            assert_eq!(ix.lookup(dir, other, 7), IndexHit::AbsentForSure, "line {other}");
        }
        ix.mark_line_complete(dir, 5);
        assert!(ix.is_complete(dir), "reindexing the line restores the whole");
    }

    #[test]
    fn forget_dir_clears_everything() {
        let ix = DirIndex::new();
        let a = PPtr::new(4096);
        let b = PPtr::new(8192);
        ix.mark_complete(a);
        ix.mark_complete(b);
        ix.insert(a, 1, PPtr::new(100), PPtr::new(1));
        ix.insert(b, 1, PPtr::new(200), PPtr::new(2));
        ix.put_free_hint(a, 3, PPtr::new(300));
        ix.set_tail(a, PPtr::new(400));
        ix.forget_dir(a);
        assert_eq!(ix.lookup(a, 0, 1), IndexHit::Unknown);
        assert_eq!(ix.lookup(b, 0, 1), IndexHit::Found(PPtr::new(200), PPtr::new(2)));
        assert_eq!(ix.take_free_hint(a, 3), None);
        assert_eq!(ix.tail(a), None);
    }

    #[test]
    fn free_hints_stack_and_dedup() {
        let ix = DirIndex::new();
        let dir = PPtr::new(4096);
        ix.put_free_hint(dir, 9, PPtr::new(555));
        ix.put_free_hint(dir, 9, PPtr::new(666));
        ix.put_free_hint(dir, 9, PPtr::new(555)); // duplicate: ignored
        // Every freed slot is remembered, each once.
        assert_eq!(ix.take_free_hint(dir, 9), Some(PPtr::new(666)));
        assert_eq!(ix.take_free_hint(dir, 9), Some(PPtr::new(555)));
        assert_eq!(ix.take_free_hint(dir, 9), None);
        assert_eq!(ix.take_free_hint(dir, 8), None, "lines are independent");
    }

    #[test]
    fn hint_or_tail_is_one_call() {
        let ix = DirIndex::new();
        let dir = PPtr::new(4096);
        assert_eq!(ix.take_free_hint_or_tail(dir, 9), (None, None));
        ix.set_tail(dir, PPtr::new(111));
        assert_eq!(ix.take_free_hint_or_tail(dir, 9), (None, Some(PPtr::new(111))));
        ix.put_free_hint(dir, 9, PPtr::new(555));
        assert_eq!(
            ix.take_free_hint_or_tail(dir, 9),
            (Some(PPtr::new(555)), Some(PPtr::new(111)))
        );
        assert_eq!(ix.take_free_hint_or_tail(dir, 9), (None, Some(PPtr::new(111))));
    }

    #[test]
    fn tails_update() {
        let ix = DirIndex::new();
        let dir = PPtr::new(4096);
        assert_eq!(ix.tail(dir), None);
        ix.set_tail(dir, PPtr::new(1));
        ix.set_tail(dir, PPtr::new(2));
        assert_eq!(ix.tail(dir), Some(PPtr::new(2)));
    }
}
