//! Directory operations over chained hash blocks (§4.3, Fig. 5).
//!
//! A directory is a chain of [`DirBlock`]s; a name hashes to a *line*, and
//! each block contributes one slot per line. Writers serialize per line via
//! the busy flags in the first block; readers are lock-free and rely on the
//! valid/dirty object headers to skip entries whose operation is in flight.
//!
//! Every mutating protocol follows the exact persist-step order of Fig. 5,
//! and every intermediate state maps to a unique repair action implemented
//! in [`repair_line`] — which is invoked both by mount-time recovery and,
//! decentralized as in the paper, by any process that times out waiting on
//! a busy flag (the previous holder is presumed crashed).

use std::time::Duration;

use simurgh_fsapi::types::FileType;
use simurgh_fsapi::{FsError, FsResult};
use simurgh_pmem::stats::Counter;
use simurgh_pmem::{PPtr, PmemRegion};

use crate::alloc::{lock_stats, Backoff, Grace, MetaAllocator};
use crate::dindex::{DirIndex, IndexHit};
use crate::hash::{dir_line, fnv1a};
use crate::obj::dirblock::{logop, DirBlock, RenameLog, NLINES};
use crate::obj::fentry::FileEntry;
use crate::obj::{self, Tag};
use crate::super_block::PoolKind;

/// Default busy-flag wait before a waiter presumes the holder crashed and
/// repairs the line itself.
pub const DEFAULT_LINE_MAX_HOLD: Duration = Duration::from_millis(200);

simurgh_pmem::counters! {
    /// Probe accounting for the directory hot paths. Counters are bumped with
    /// relaxed atomics (negligible cost, exact under a quiescent snapshot) and
    /// exist so the O(1) claim of the shared-DRAM index is *asserted* by tests
    /// and exported by the bench harness, not eyeballed.
    pub struct DirStats / DirStatsSnapshot {
        /// `find_entry` calls (every lookup-by-name, including internal ones).
        lookups,
        /// Lookups answered by a verified index hit.
        index_hits,
        /// Misses answered authoritatively by per-line completeness.
        index_absent,
        /// Stale index entries evicted after failing verification.
        stale_evicted,
        /// Fallback chain walks (no index, incomplete line, or stale hit).
        chain_walks,
        /// Blocks probed during fallback chain walks.
        chain_probes,
        /// Insert-path slot searches resolved by a free-slot hint.
        hint_hits,
        /// Stale free-slot hints dropped (slot re-taken before the pop).
        hint_stale,
        /// Blocks probed while searching for / extending to a free slot.
        slot_probes,
        /// Chain extensions (a new hash block was linked).
        extends,
    }
}

impl DirStatsSnapshot {
    /// Blocks touched per lookup, averaged: the number the scaling tests
    /// pin down as O(1). Index hits and authoritative misses cost one probe
    /// each; fallback walks cost their chain probes.
    pub fn probes_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        (self.index_hits + self.index_absent + self.chain_probes) as f64 / self.lookups as f64
    }
}

/// Shared context for directory operations.
#[derive(Clone, Copy)]
pub struct DirEnv<'a> {
    pub region: &'a PmemRegion,
    pub meta: &'a MetaAllocator,
    /// Busy-flag hold limit for crash detection.
    pub max_hold: Duration,
    /// Optional shared-DRAM directory index (see [`crate::dindex`]).
    pub index: Option<&'a DirIndex>,
    /// Optional probe accounting.
    pub stats: Option<&'a DirStats>,
}

impl<'a> DirEnv<'a> {
    pub fn new(region: &'a PmemRegion, meta: &'a MetaAllocator) -> Self {
        DirEnv { region, meta, max_hold: DEFAULT_LINE_MAX_HOLD, index: None, stats: None }
    }

    /// Attaches the shared-DRAM index.
    pub fn with_index(mut self, index: &'a DirIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Attaches probe accounting.
    pub fn with_stats(mut self, stats: &'a DirStats) -> Self {
        self.stats = Some(stats);
        self
    }

    #[inline]
    fn bump(&self, counter: impl Fn(&DirStats) -> &Counter) {
        if let Some(s) = self.stats {
            counter(s).add(1);
        }
    }
}

/// RAII guard over one busy line of a directory.
pub struct LineGuard<'a> {
    region: &'a PmemRegion,
    first: DirBlock,
    line: usize,
}

impl Drop for LineGuard<'_> {
    fn drop(&mut self) {
        self.first.release_busy(self.region, self.line);
    }
}

/// Acquires the busy flag of `line`, running crash recovery on timeout.
pub fn lock_line<'a>(env: &DirEnv<'a>, first: DirBlock, line: usize) -> LineGuard<'a> {
    let mut grace = Grace::default();
    let mut backoff = Backoff::default();
    loop {
        if first.try_busy(env.region, line) {
            lock_stats().acquires.add(1);
            return LineGuard { region: env.region, first, line };
        }
        if grace.expired(env.max_hold) {
            // Presumed-crashed holder: repair the line, then force-release
            // the flag so everyone can progress (paper §4.3 crash recovery).
            crate::obs::trace(
                crate::obs::EventKind::BusyTimeout,
                first.ptr().off(),
                line as u64,
            );
            repair_line(env, first, line);
            first.release_busy(env.region, line);
            lock_stats().steals.add(1);
            // The takeover is complete: the presumed-dead holder's line is
            // repaired and its flag is ours to race for. Surviving
            // processes prove decentralized recovery by this event.
            crate::obs::trace(
                crate::obs::EventKind::LockSteal,
                first.ptr().off(),
                line as u64,
            );
        }
        backoff.wait();
    }
}

/// Orders two line locks to avoid deadlock between multi-line operations.
fn lock_two<'a>(
    env: &DirEnv<'a>,
    a: (DirBlock, usize),
    b: (DirBlock, usize),
) -> (LineGuard<'a>, Option<LineGuard<'a>>) {
    if a.0 == b.0 && a.1 == b.1 {
        return (lock_line(env, a.0, a.1), None);
    }
    let key = |(d, l): (DirBlock, usize)| (d.ptr().off(), l);
    if key(a) <= key(b) {
        let ga = lock_line(env, a.0, a.1);
        let gb = lock_line(env, b.0, b.1);
        (ga, Some(gb))
    } else {
        let gb = lock_line(env, b.0, b.1);
        let ga = lock_line(env, a.0, a.1);
        (ga, Some(gb))
    }
}

/// Iterates the block chain of a directory.
pub fn chain(region: &PmemRegion, first: DirBlock) -> impl Iterator<Item = DirBlock> + '_ {
    let mut cur = Some(first);
    std::iter::from_fn(move || {
        let blk = cur?;
        let next = blk.next(region);
        cur = if next.is_null() { None } else { Some(DirBlock(next)) };
        Some(blk)
    })
}

/// Whether a published slot holds a *live* entry with this name.
fn live_match(region: &PmemRegion, slot: PPtr, name: &str) -> bool {
    let h = obj::header(region, slot);
    obj::is_valid(h)
        && Tag::from_header(h) == Some(Tag::FileEntry)
        && FileEntry(slot).name_eq(region, name)
}

/// Lock-free lookup of `name`. Entries being deleted (valid bit clear) are
/// skipped; entries being created (dirty but valid) are visible, matching
/// the paper's "published once the hash-line pointer is persisted" point.
pub fn lookup(env: &DirEnv<'_>, first: DirBlock, name: &str) -> Option<FileEntry> {
    let nhash = fnv1a(name.as_bytes());
    find_entry(env, first, (nhash % NLINES as u64) as usize, nhash, name).map(|(_, fe)| fe)
}

/// Finds the `(block, entry)` holding a live `name` at `line` (= `nhash %
/// NLINES`; the caller computes the hash once per operation).
fn find_entry(
    env: &DirEnv<'_>,
    first: DirBlock,
    line: usize,
    nhash: u64,
    name: &str,
) -> Option<(DirBlock, FileEntry)> {
    env.bump(|s| &s.lookups);
    if let Some(ix) = env.index {
        match ix.lookup(first.ptr(), line, nhash) {
            IndexHit::Found(fe, blk) => {
                // Verify against the persistent truth (the index is a hint).
                if env.region.in_bounds(blk.add(8), 8)
                    && DirBlock(blk).line(env.region, line) == fe
                    && live_match(env.region, fe, name)
                {
                    env.bump(|s| &s.index_hits);
                    return Some((DirBlock(blk), FileEntry(fe)));
                }
                // Stale hint: evict it so the verification cost is paid
                // once, not on every future lookup of this name.
                ix.remove(first.ptr(), nhash);
                env.bump(|s| &s.stale_evicted);
            }
            IndexHit::AbsentForSure => {
                env.bump(|s| &s.index_absent);
                return None;
            }
            IndexHit::Unknown => {}
        }
    }
    env.bump(|s| &s.chain_walks);
    for blk in chain(env.region, first) {
        env.bump(|s| &s.chain_probes);
        let slot = blk.line(env.region, line);
        if !slot.is_null() && live_match(env.region, slot, name) {
            if let Some(ix) = env.index {
                ix.insert(first.ptr(), nhash, slot, blk.ptr());
            }
            return Some((blk, FileEntry(slot)));
        }
    }
    None
}

/// Finds a block with a free slot at `line`, extending the chain with a new
/// hash block if necessary (Fig. 5a steps 3–4). Returns the block and
/// whether it was newly allocated (its dirty bit is still set).
fn find_or_extend_slot(
    env: &DirEnv<'_>,
    first: DirBlock,
    line: usize,
) -> FsResult<(DirBlock, bool)> {
    // Deletes stack free slots per (dir, line); pop until one verifies.
    // Stale hints (slot re-taken, block gone) are dropped here — popped and
    // never pushed back — so they cost one probe ever, not one per insert.
    let mut tail_hint = None;
    if let Some(ix) = env.index {
        let (mut hint, tail) = ix.take_free_hint_or_tail(first.ptr(), line);
        tail_hint = tail;
        while let Some(h) = hint {
            if env.region.in_bounds(h.add(8), 8) && DirBlock(h).line(env.region, line).is_null() {
                env.bump(|s| &s.hint_hits);
                return Ok((DirBlock(h), false));
            }
            env.bump(|s| &s.hint_stale);
            hint = ix.take_free_hint(first.ptr(), line);
        }
    }
    // No free slot recorded anywhere before the tail: start from the cached
    // chain tail (one probe in the steady state) rather than walking the
    // whole chain from the first block.
    let start = tail_hint
        .filter(|t| env.region.in_bounds(t.add(8), 8))
        .map(DirBlock)
        .unwrap_or(first);
    let mut cur = start;
    loop {
        env.bump(|s| &s.slot_probes);
        if cur.line(env.region, line).is_null() {
            return Ok((cur, false));
        }
        let next = cur.next(env.region);
        if !next.is_null() {
            cur = DirBlock(next);
            continue;
        }
        // End of chain: extend it. Writers on other lines hold other busy
        // flags and may be extending concurrently — publish the link with a
        // CAS and, on losing, follow the winner's block instead (which may
        // well have a free slot at our line).
        let nb = env.meta.alloc(PoolKind::DirBlock)?;
        let nblk = DirBlock(nb);
        nblk.init(env.region, false);
        if cur.try_set_next(env.region, nb) {
            env.bump(|s| &s.extends);
            if let Some(ix) = env.index {
                ix.set_tail(first.ptr(), nb);
            }
            return Ok((nblk, true));
        }
        env.meta.free(PoolKind::DirBlock, nb);
        cur = DirBlock(cur.next(env.region));
    }
}

/// Creates a directory entry: Fig. 5a steps 2–6 (step 1, inode creation, is
/// the caller's; the inode arrives persisted but still dirty and this
/// function clears its dirty bit before the entry's own).
pub fn insert(
    env: &DirEnv<'_>,
    first: DirBlock,
    name: &str,
    ftype: FileType,
    inode: PPtr,
) -> FsResult<FileEntry> {
    let nhash = fnv1a(name.as_bytes());
    let line = (nhash % NLINES as u64) as usize;
    let _busy = lock_line(env, first, line); // step 3
    if find_entry(env, first, line, nhash, name).is_some() {
        return Err(FsError::Exists);
    }
    // Group commit: the preparation persists (entry body, chain extension,
    // allocator claims) only need to be durable before the step-5 publish,
    // so coalesce their fences into the single `commit()` below.
    let scope = env.region.fence_scope();
    // Step 2: create and persist the file entry (allocated valid|dirty).
    let fe_ptr = env.meta.alloc(PoolKind::FileEntry)?;
    let fe = FileEntry(fe_ptr);
    fe.init(env.region, name, ftype, inode);
    env.region.persist(fe_ptr, crate::obj::fentry::FENTRY_SIZE as usize);
    // Steps 3–4: find (or chain) a block with a free slot at this line.
    let (blk, fresh_block) = match find_or_extend_slot(env, first, line) {
        Ok(v) => v,
        Err(e) => {
            env.meta.free(PoolKind::FileEntry, fe_ptr);
            return Err(e);
        }
    };
    // Step 5: publish & persist the pointer — the commit point. The scope
    // commit makes every staged preparation line durable *before* the
    // pointer store can be observed after a crash.
    scope.commit();
    blk.set_line(env.region, line, fe_ptr);
    if let Some(ix) = env.index {
        ix.insert(first.ptr(), nhash, fe_ptr, blk.ptr());
    }
    // Step 6: clear dirty bits — the file entry's goes LAST. Its dirty bit
    // is what recovery keys the roll-forward on, so everything it vouches
    // for (block, inode) must be clean before it is.
    if fresh_block {
        obj::clear_dirty(env.region, blk.ptr());
    }
    if !inode.is_null() {
        obj::clear_dirty(env.region, inode);
    }
    obj::clear_dirty(env.region, fe_ptr);
    Ok(fe)
}

/// Removes `name`: Fig. 5b. `dispose_inode` runs at step 3 (between the
/// entry's invalidation and its zeroing) and is where the caller drops the
/// inode's link count / frees the inode and data.
pub fn remove(
    env: &DirEnv<'_>,
    first: DirBlock,
    name: &str,
    dispose_inode: impl FnOnce(FileEntry),
) -> FsResult<()> {
    let nhash = fnv1a(name.as_bytes());
    let line = (nhash % NLINES as u64) as usize;
    let _busy = lock_line(env, first, line); // step 1
    let Some((blk, fe)) = find_entry(env, first, line, nhash, name) else {
        return Err(FsError::NotFound);
    };
    // Step 2: unset valid, set dirty on the file entry. Eagerly fenced: the
    // invalidation is the state recovery keys the delete roll-forward on.
    obj::invalidate(env.region, fe.ptr());
    // Group commit over the disposal: the entry is already invalid, so a
    // crash anywhere in steps 3–4 maps to the same repair (finish the free,
    // null the slot) regardless of which staged line became durable.
    let scope = env.region.fence_scope();
    // Step 3: dispose of the inode (zeroed via the metadata allocator when
    // its link count reaches zero).
    dispose_inode(fe);
    // Step 4: zero the file entry (persistently; not yet re-allocatable).
    env.meta.free_no_recycle(PoolKind::FileEntry, fe.ptr());
    // Step 5: zero the pointer in the hash block, after a commit that makes
    // the disposal durable first.
    scope.commit();
    blk.set_line(env.region, line, PPtr::NULL);
    if let Some(ix) = env.index {
        ix.remove(first.ptr(), nhash);
        ix.put_free_hint(first.ptr(), line, blk.ptr());
    }
    // Only now may other processes re-allocate the entry object. Step 6
    // (optional in the paper: free the block if it became empty) is left
    // to the next exclusive mount, so a mounted chain only ever grows.
    env.meta.recycle(PoolKind::FileEntry, fe.ptr());
    Ok(())
}

/// Renames within one directory: Fig. 5c. A replaced target entry is handed
/// to `dispose_replaced` so the caller can drop its inode.
pub fn rename_same_dir(
    env: &DirEnv<'_>,
    first: DirBlock,
    old_name: &str,
    new_name: &str,
    dispose_replaced: impl FnOnce(FileEntry),
) -> FsResult<()> {
    let old_hash = fnv1a(old_name.as_bytes());
    let new_hash = fnv1a(new_name.as_bytes());
    let old_line = (old_hash % NLINES as u64) as usize;
    let new_line = (new_hash % NLINES as u64) as usize;
    let (_g1, _g2) = lock_two(env, (first, old_line), (first, new_line)); // steps 3–4
    let Some((old_blk, old_fe)) = find_entry(env, first, old_line, old_hash, old_name) else {
        return Err(FsError::NotFound);
    };
    if old_name == new_name {
        return Ok(());
    }
    let inode = old_fe.inode(env.region);
    let ftype = old_fe.ftype(env.region);
    // Replace semantics: a live target is deleted under the same lock.
    let replaced = find_entry(env, first, new_line, new_hash, new_name);
    // Group commit over the preparation (shadow entry + slot reservation):
    // nothing is reachable until step 5 redirects the old line, so one
    // fence suffices.
    let scope = env.region.fence_scope();
    // Steps 1–2: shadow entry pointing at the same inode.
    let nfe_ptr = env.meta.alloc(PoolKind::FileEntry)?;
    let nfe = FileEntry(nfe_ptr);
    nfe.init(env.region, new_name, ftype, inode);
    env.region.persist(nfe_ptr, crate::obj::fentry::FENTRY_SIZE as usize);
    // Reserve the destination slot BEFORE step 5: find_or_extend_slot can
    // fail (DirBlock pool exhausted), and once the old line is redirected
    // there is no clean exit. An unused reservation is harmless — the slot
    // simply stays NULL.
    let dest = if replaced.is_some() {
        None
    } else {
        match find_or_extend_slot(env, first, new_line) {
            Ok(d) => Some(d),
            Err(e) => {
                env.meta.free(PoolKind::FileEntry, nfe_ptr);
                return Err(e);
            }
        }
    };
    // The scope commit makes the prepared entry durable. Fig. 5c's step 3
    // (set the directory's rename flag) is omitted: recovery recognizes an
    // interrupted rename from the line/name mismatch of step 5 alone.
    scope.commit();
    // Step 5: point the old line at the new entry — the hash mismatch is the
    // recoverable inconsistency the paper exploits.
    old_blk.set_line(env.region, old_line, nfe_ptr);
    // Step 6: the old entry object is no longer needed.
    obj::invalidate(env.region, old_fe.ptr());
    env.meta.free_no_recycle(PoolKind::FileEntry, old_fe.ptr());
    // Step 7: publish the entry at its correct line.
    if let Some((rblk, rfe)) = replaced {
        obj::invalidate(env.region, rfe.ptr());
        dispose_replaced(rfe);
        env.meta.free_no_recycle(PoolKind::FileEntry, rfe.ptr());
        rblk.set_line(env.region, new_line, nfe_ptr);
        env.meta.recycle(PoolKind::FileEntry, rfe.ptr());
        if let Some(ix) = env.index {
            ix.insert(first.ptr(), new_hash, nfe_ptr, rblk.ptr());
        }
    } else {
        let (nblk, fresh) = dest.expect("slot reserved before the old line was redirected");
        nblk.set_line(env.region, new_line, nfe_ptr);
        if fresh {
            obj::clear_dirty(env.region, nblk.ptr());
        }
        if let Some(ix) = env.index {
            ix.insert(first.ptr(), new_hash, nfe_ptr, nblk.ptr());
        }
    }
    // Step 8: remove the mismatched pointer from the old line.
    old_blk.set_line(env.region, old_line, PPtr::NULL);
    env.meta.recycle(PoolKind::FileEntry, old_fe.ptr());
    obj::clear_dirty(env.region, nfe_ptr);
    if let Some(ix) = env.index {
        ix.remove(first.ptr(), old_hash);
        ix.put_free_hint(first.ptr(), old_line, old_blk.ptr());
    }
    Ok(())
}

/// Cross-directory rename, journaled through the source directory's log
/// entry (§4.3 "Cross directory renames").
pub fn rename_cross_dir(
    env: &DirEnv<'_>,
    src: DirBlock,
    old_name: &str,
    dst: DirBlock,
    new_name: &str,
    dispose_replaced: impl FnOnce(FileEntry),
) -> FsResult<()> {
    let old_hash = fnv1a(old_name.as_bytes());
    let new_hash = fnv1a(new_name.as_bytes());
    let old_line = (old_hash % NLINES as u64) as usize;
    let new_line = (new_hash % NLINES as u64) as usize;
    // Step 3 (locks) taken up front; ordered by (dir, line) to avoid
    // deadlock with the reverse rename.
    let (_g1, _g2) = lock_two(env, (src, old_line), (dst, new_line));
    let Some((old_blk, old_fe)) = find_entry(env, src, old_line, old_hash, old_name) else {
        return Err(FsError::NotFound);
    };
    let inode = old_fe.inode(env.region);
    let ftype = old_fe.ftype(env.region);
    let replaced = find_entry(env, dst, new_line, new_hash, new_name);
    // Group commit over the preparation: the new entry and the reserved
    // slot are unreachable until the log is armed, so their persists
    // coalesce into the commit before `write_log`.
    let scope = env.region.fence_scope();
    // New entry for the destination directory.
    let nfe_ptr = env.meta.alloc(PoolKind::FileEntry)?;
    let nfe = FileEntry(nfe_ptr);
    nfe.init(env.region, new_name, ftype, inode);
    env.region.persist(nfe_ptr, crate::obj::fentry::FENTRY_SIZE as usize);
    // Reserve the destination slot BEFORE arming the log: find_or_extend_slot
    // can fail (DirBlock pool exhausted), and bailing out with the journal
    // armed would leave the source directory in a repair state for an
    // operation that never happened.
    let dest = if replaced.is_some() {
        None
    } else {
        match find_or_extend_slot(env, dst, new_line) {
            Ok(d) => Some(d),
            Err(e) => {
                env.meta.free(PoolKind::FileEntry, nfe_ptr);
                return Err(e);
            }
        }
    };
    // Step 1: arm the log in the source directory, with the preparation
    // made durable first by the scope commit. The armed log is what
    // recovery keys on; step 2's directory dirty flag is omitted.
    scope.commit();
    src.write_log(
        env.region,
        &RenameLog {
            op: logop::CROSS_RENAME,
            src_dir: src.ptr().off(),
            dst_dir: dst.ptr().off(),
            inode: inode.off(),
            old_fentry: old_fe.ptr().off(),
            new_fentry: nfe_ptr.off(),
            old_line: old_line as u64,
            new_line: new_line as u64,
        },
    );
    // Step 4: perform the operation — publish at destination, then retire
    // the source entry.
    if let Some((rblk, rfe)) = replaced {
        obj::invalidate(env.region, rfe.ptr());
        dispose_replaced(rfe);
        env.meta.free_no_recycle(PoolKind::FileEntry, rfe.ptr());
        rblk.set_line(env.region, new_line, nfe_ptr);
        env.meta.recycle(PoolKind::FileEntry, rfe.ptr());
        if let Some(ix) = env.index {
            ix.insert(dst.ptr(), new_hash, nfe_ptr, rblk.ptr());
        }
    } else {
        let (nblk, fresh) = dest.expect("slot reserved before the log was armed");
        nblk.set_line(env.region, new_line, nfe_ptr);
        if fresh {
            obj::clear_dirty(env.region, nblk.ptr());
        }
        if let Some(ix) = env.index {
            ix.insert(dst.ptr(), new_hash, nfe_ptr, nblk.ptr());
        }
    }
    obj::clear_dirty(env.region, nfe_ptr);
    obj::invalidate(env.region, old_fe.ptr());
    env.meta.free_no_recycle(PoolKind::FileEntry, old_fe.ptr());
    old_blk.set_line(env.region, old_line, PPtr::NULL);
    env.meta.recycle(PoolKind::FileEntry, old_fe.ptr());
    if let Some(ix) = env.index {
        ix.remove(src.ptr(), old_hash);
        ix.put_free_hint(src.ptr(), old_line, old_blk.ptr());
    }
    // Disarm the log.
    src.clear_log(env.region);
    Ok(())
}

/// Scans every live entry of a directory.
pub fn scan(env: &DirEnv<'_>, first: DirBlock) -> Vec<(String, FileType, PPtr)> {
    let mut out = Vec::new();
    for blk in chain(env.region, first) {
        for line in 0..NLINES {
            let slot = blk.line(env.region, line);
            if slot.is_null() {
                continue;
            }
            let h = obj::header(env.region, slot);
            if obj::is_valid(h) && Tag::from_header(h) == Some(Tag::FileEntry) {
                let fe = FileEntry(slot);
                out.push((fe.name(env.region), fe.ftype(env.region), fe.inode(env.region)));
            }
        }
    }
    out
}

/// Whether the directory has no live entries.
pub fn is_empty(env: &DirEnv<'_>, first: DirBlock) -> bool {
    for blk in chain(env.region, first) {
        for line in 0..NLINES {
            let slot = blk.line(env.region, line);
            if !slot.is_null() && obj::is_valid(obj::header(env.region, slot)) {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Decentralized repair
// ---------------------------------------------------------------------------

/// Repairs one hash line after a presumed process crash. Every intermediate
/// state of the Fig. 5 protocols maps to exactly one action here:
///
/// * slot → entry with `valid=0` (delete or rename retirement died between
///   steps 2 and 5): finish zeroing the entry and null the slot;
/// * slot → entry with `valid=1, dirty=1` whose name hashes to this line
///   (create died before step 6): the entry is fully published — clear the
///   dirty bits (roll forward);
/// * slot → entry whose name hashes to a *different* line (intra-dir
///   rename died between steps 5 and 8): make sure the entry is published
///   at its home line, then null the mismatched slot;
/// * armed cross-directory log: [`recover_cross_rename`].
pub fn repair_line(env: &DirEnv<'_>, first: DirBlock, line: usize) {
    if let Some(ix) = env.index {
        // The index may hold hints invalidated by the crashed operation;
        // drop authority for this line only — other lines' slots cannot be
        // touched by an operation that held this line's busy flag.
        ix.mark_line_incomplete(first.ptr(), line);
    }
    let log = first.read_log(env.region);
    if log.op == logop::CROSS_RENAME {
        recover_cross_rename(env, first, &log);
    }
    // A mid-rename entry found on this line has its home on a *different*
    // line whose index authority we also disturb when rolling it forward.
    let mut touched_home: Option<usize> = None;
    for blk in chain(env.region, first) {
        let slot = blk.line(env.region, line);
        if slot.is_null() {
            continue;
        }
        if !env.region.in_bounds(slot, 8) {
            blk.set_line(env.region, line, PPtr::NULL);
            continue;
        }
        let h = obj::header(env.region, slot);
        if Tag::from_header(h) != Some(Tag::FileEntry) || !obj::is_valid(h) {
            // Interrupted delete / retired rename source: finish it.
            if h != 0 {
                env.meta.free_no_recycle(PoolKind::FileEntry, slot);
            }
            blk.set_line(env.region, line, PPtr::NULL);
            if h != 0 {
                env.meta.recycle(PoolKind::FileEntry, slot);
            }
            continue;
        }
        let fe = FileEntry(slot);
        let home = dir_line(&fe.name(env.region), NLINES);
        if home != line {
            // Mid-rename mismatch: roll the rename forward.
            if let Some(ix) = env.index {
                ix.mark_line_incomplete(first.ptr(), home);
            }
            touched_home = Some(home);
            let published_home =
                chain(env.region, first).any(|b| b.line(env.region, home) == slot);
            if !published_home {
                if let Ok((nblk, fresh)) = find_or_extend_slot(env, first, home) {
                    nblk.set_line(env.region, home, slot);
                    if fresh {
                        obj::clear_dirty(env.region, nblk.ptr());
                    }
                }
            }
            blk.set_line(env.region, line, PPtr::NULL);
            obj::clear_dirty(env.region, slot);
            continue;
        }
        if obj::is_dirty(h) {
            // Interrupted create (after the step-5 commit): roll forward.
            let inode = fe.inode(env.region);
            if !inode.is_null() && env.region.in_bounds(inode, 8) {
                let ih = obj::header(env.region, inode);
                if obj::is_valid(ih) && obj::is_dirty(ih) {
                    obj::clear_dirty(env.region, inode);
                }
            }
            obj::clear_dirty(env.region, slot);
        }
    }
    // The line is consistent again: rebuild its index entries in place so
    // lookups re-converge to O(1) without a full-directory rescan.
    if env.index.is_some() {
        reindex_line(env, first, line);
        if let Some(home) = touched_home {
            reindex_line(env, first, home);
        }
    }
}

/// Completes an interrupted cross-directory rename from its log entry. The
/// decision point: if the new entry has been published in the destination
/// chain, roll forward (retire the source entry); otherwise roll back
/// (discard the new entry, keep the source).
pub fn recover_cross_rename(env: &DirEnv<'_>, src: DirBlock, log: &RenameLog) {
    let dst = DirBlock(PPtr::new(log.dst_dir));
    let nfe = PPtr::new(log.new_fentry);
    let old = PPtr::new(log.old_fentry);
    let new_line = log.new_line as usize;
    let old_line = log.old_line as usize;
    let dst_ok = env.region.in_bounds(dst.ptr(), 8) && new_line < NLINES;
    if let Some(ix) = env.index {
        // Only the two lines named by the log can hold torn state; every
        // other line of both directories keeps its index authority.
        if old_line < NLINES {
            ix.mark_line_incomplete(src.ptr(), old_line);
        }
        if dst_ok {
            ix.mark_line_incomplete(dst.ptr(), new_line);
        }
    }

    let published = new_line < NLINES
        && env.region.in_bounds(nfe, 8)
        && env.region.in_bounds(dst.ptr(), 8)
        && chain(env.region, dst).any(|b| b.line(env.region, new_line) == nfe);
    if published {
        // Roll forward: make the new entry consistent, retire the old one.
        if obj::is_valid(obj::header(env.region, nfe)) {
            obj::clear_dirty(env.region, nfe);
        }
        for blk in chain(env.region, src) {
            if blk.line(env.region, old_line) == old {
                let h = obj::header(env.region, old);
                if h != 0 {
                    env.meta.free_no_recycle(PoolKind::FileEntry, old);
                }
                blk.set_line(env.region, old_line, PPtr::NULL);
                if h != 0 {
                    env.meta.recycle(PoolKind::FileEntry, old);
                }
            }
        }
    } else {
        // Roll back: the new entry never became reachable; discard it if it
        // was allocated, and leave the source entry untouched.
        if env.region.in_bounds(nfe, 8) {
            let h = obj::header(env.region, nfe);
            if h != 0 && Tag::from_header(h) == Some(Tag::FileEntry) {
                env.meta.free(PoolKind::FileEntry, nfe);
            }
        }
        if env.region.in_bounds(old, 8) && obj::is_valid(obj::header(env.region, old)) {
            obj::clear_dirty(env.region, old);
        }
    }
    src.clear_log(env.region);
    // Both touched lines are consistent again — restore their authority.
    if env.index.is_some() {
        if old_line < NLINES {
            reindex_line(env, src, old_line);
        }
        if dst_ok {
            reindex_line(env, dst, new_line);
        }
    }
}

/// Repairs every line and the log of one directory (mount-time use).
pub fn repair_dir(env: &DirEnv<'_>, first: DirBlock) {
    let log = first.read_log(env.region);
    if log.op == logop::CROSS_RENAME {
        recover_cross_rename(env, first, &log);
    }
    for line in 0..NLINES {
        repair_line(env, first, line);
    }
    first.clear_all_busy(env.region);
    if env.index.is_some() {
        reindex_dir(env, first);
    }
}

/// Rebuilds the index state of a single hash line from the persistent
/// chain and restores that line's lookup authority. One chain walk: live
/// entries are (re-)inserted, free slots on non-tail blocks become free
/// hints (the tail's slot is found by the walk-from-tail in
/// [`find_or_extend_slot`], so hinting it would be redundant).
pub fn reindex_line(env: &DirEnv<'_>, first: DirBlock, line: usize) {
    let Some(ix) = env.index else {
        return;
    };
    ix.clear_free_hints(first.ptr(), line);
    let mut free: Vec<PPtr> = Vec::new();
    let mut tail = first;
    for blk in chain(env.region, first) {
        tail = blk;
        let slot = blk.line(env.region, line);
        if slot.is_null() {
            free.push(blk.ptr());
            continue;
        }
        let h = obj::header(env.region, slot);
        if obj::is_valid(h) && Tag::from_header(h) == Some(Tag::FileEntry) {
            let name = FileEntry(slot).name(env.region);
            ix.insert(first.ptr(), fnv1a(name.as_bytes()), slot, blk.ptr());
        }
    }
    ix.set_tail(first.ptr(), tail.ptr());
    for blk in free {
        if blk != tail.ptr() {
            ix.put_free_hint(first.ptr(), line, blk);
        }
    }
    ix.mark_line_complete(first.ptr(), line);
}

/// Rebuilds the shared-DRAM index entries of one directory from its
/// persistent chain and restores lookup authority (mount-time "rebuilding
/// the shared memory data structures", and the tail of a runtime repair).
pub fn reindex_dir(env: &DirEnv<'_>, first: DirBlock) {
    let Some(ix) = env.index else {
        return;
    };
    ix.clear_all_free_hints(first.ptr());
    let blocks: Vec<DirBlock> = chain(env.region, first).collect();
    let tail = *blocks.last().unwrap_or(&first);
    for blk in &blocks {
        let is_tail = blk.ptr() == tail.ptr();
        for line in 0..NLINES {
            let slot = blk.line(env.region, line);
            if slot.is_null() {
                // The common mount-time case is a single-block directory,
                // where every empty line would hint its own (tail) block;
                // skip those so rebuilding many small dirs allocates nothing.
                if !is_tail {
                    ix.put_free_hint(first.ptr(), line, blk.ptr());
                }
                continue;
            }
            let h = obj::header(env.region, slot);
            if obj::is_valid(h) && Tag::from_header(h) == Some(Tag::FileEntry) {
                let name = FileEntry(slot).name(env.region);
                ix.insert(first.ptr(), fnv1a(name.as_bytes()), slot, blk.ptr());
            }
        }
    }
    ix.set_tail(first.ptr(), tail.ptr());
    ix.mark_complete(first.ptr());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::BlockAlloc;
    use crate::super_block::Superblock;
    use simurgh_pmem::layout::Extent;
    use std::sync::Arc;
    use std::time::Instant;

    struct Fixture {
        region: Arc<PmemRegion>,
        _blocks: Arc<BlockAlloc>,
        meta: Arc<MetaAllocator>,
    }

    impl Fixture {
        fn new() -> Self {
            let region = Arc::new(PmemRegion::new(8 << 20));
            let data = Extent { start: PPtr::new(4096), len: (8 << 20) - 4096 };
            Superblock::format(&region, PPtr::NULL, data);
            let blocks = Arc::new(BlockAlloc::new(data, 2));
            let meta = Arc::new(MetaAllocator::new(region.clone(), blocks.clone()));
            Fixture { region, _blocks: blocks, meta }
        }

        fn env(&self) -> DirEnv<'_> {
            let mut e = DirEnv::new(&self.region, &self.meta);
            e.max_hold = Duration::from_millis(20);
            e
        }

        fn new_dir(&self) -> DirBlock {
            let p = self.meta.alloc(PoolKind::DirBlock).unwrap();
            let d = DirBlock(p);
            d.init(&self.region, true);
            obj::clear_dirty(&self.region, p);
            d
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let fx = Fixture::new();
        let env = fx.env();
        let dir = fx.new_dir();
        insert(&env, dir, "alpha", FileType::Regular, PPtr::new(1 << 16)).unwrap();
        let fe = lookup(&env, dir, "alpha").expect("found");
        assert_eq!(fe.inode(&fx.region), PPtr::new(1 << 16));
        assert!(lookup(&env, dir, "beta").is_none());
        assert_eq!(
            insert(&env, dir, "alpha", FileType::Regular, PPtr::new(2 << 16)).unwrap_err(),
            FsError::Exists
        );
        let mut disposed = false;
        remove(&env, dir, "alpha", |_| disposed = true).unwrap();
        assert!(disposed);
        assert!(lookup(&env, dir, "alpha").is_none());
        assert_eq!(remove(&env, dir, "alpha", |_| {}).unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn colliding_names_chain_blocks() {
        let fx = Fixture::new();
        let env = fx.env();
        let dir = fx.new_dir();
        // Find several names hashing to the same line.
        let target = dir_line("seed", NLINES);
        let mut names = vec!["seed".to_owned()];
        let mut i = 0;
        while names.len() < 4 {
            let cand = format!("n{i}");
            if dir_line(&cand, NLINES) == target {
                names.push(cand);
            }
            i += 1;
        }
        for (k, n) in names.iter().enumerate() {
            insert(&env, dir, n, FileType::Regular, PPtr::new((k as u64 + 1) * 4096)).unwrap();
        }
        assert!(chain(&fx.region, dir).count() >= 4, "chain extended per collision");
        for (k, n) in names.iter().enumerate() {
            let fe = lookup(&env, dir, n).expect("collided name found");
            assert_eq!(fe.inode(&fx.region), PPtr::new((k as u64 + 1) * 4096));
        }
        // Remove from the middle of the chain and re-check the rest.
        remove(&env, dir, &names[1], |_| {}).unwrap();
        assert!(lookup(&env, dir, &names[1]).is_none());
        for n in [&names[0], &names[2], &names[3]] {
            assert!(lookup(&env, dir, n).is_some());
        }
    }

    #[test]
    fn scan_and_is_empty() {
        let fx = Fixture::new();
        let env = fx.env();
        let dir = fx.new_dir();
        assert!(is_empty(&env, dir));
        for n in ["a", "b", "c"] {
            insert(&env, dir, n, FileType::Regular, PPtr::new(4096)).unwrap();
        }
        let mut names: Vec<_> = scan(&env, dir).into_iter().map(|(n, _, _)| n).collect();
        names.sort();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(!is_empty(&env, dir));
        for n in ["a", "b", "c"] {
            remove(&env, dir, n, |_| {}).unwrap();
        }
        assert!(is_empty(&env, dir));
    }

    #[test]
    fn rename_same_dir_moves_entry() {
        let fx = Fixture::new();
        let env = fx.env();
        let dir = fx.new_dir();
        insert(&env, dir, "old", FileType::Regular, PPtr::new(4096)).unwrap();
        rename_same_dir(&env, dir, "old", "new", |_| {}).unwrap();
        assert!(lookup(&env, dir, "old").is_none());
        let fe = lookup(&env, dir, "new").expect("renamed");
        assert_eq!(fe.inode(&fx.region), PPtr::new(4096));
        assert_eq!(rename_same_dir(&env, dir, "old", "x", |_| {}).unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn rename_same_dir_replaces_target() {
        let fx = Fixture::new();
        let env = fx.env();
        let dir = fx.new_dir();
        insert(&env, dir, "src", FileType::Regular, PPtr::new(4096)).unwrap();
        insert(&env, dir, "dst", FileType::Regular, PPtr::new(8192)).unwrap();
        let mut replaced = None;
        rename_same_dir(&env, dir, "src", "dst", |fe| replaced = Some(fe.inode(&fx.region)))
            .unwrap();
        assert_eq!(replaced, Some(PPtr::new(8192)));
        assert!(lookup(&env, dir, "src").is_none());
        assert_eq!(lookup(&env, dir, "dst").unwrap().inode(&fx.region), PPtr::new(4096));
        assert_eq!(scan(&env, dir).len(), 1);
    }

    #[test]
    fn rename_to_same_name_is_noop() {
        let fx = Fixture::new();
        let env = fx.env();
        let dir = fx.new_dir();
        insert(&env, dir, "same", FileType::Regular, PPtr::new(4096)).unwrap();
        rename_same_dir(&env, dir, "same", "same", |_| {}).unwrap();
        assert!(lookup(&env, dir, "same").is_some());
    }

    #[test]
    fn cross_dir_rename_moves_entry() {
        let fx = Fixture::new();
        let env = fx.env();
        let a = fx.new_dir();
        let b = fx.new_dir();
        insert(&env, a, "file", FileType::Regular, PPtr::new(4096)).unwrap();
        rename_cross_dir(&env, a, "file", b, "moved", |_| {}).unwrap();
        assert!(lookup(&env, a, "file").is_none());
        assert_eq!(lookup(&env, b, "moved").unwrap().inode(&fx.region), PPtr::new(4096));
        assert_eq!(a.read_log(&fx.region).op, logop::IDLE, "log disarmed");
        assert!(is_empty(&env, a));
    }

    #[test]
    fn cross_dir_rename_replaces_target() {
        let fx = Fixture::new();
        let env = fx.env();
        let a = fx.new_dir();
        let b = fx.new_dir();
        insert(&env, a, "x", FileType::Regular, PPtr::new(4096)).unwrap();
        insert(&env, b, "y", FileType::Regular, PPtr::new(8192)).unwrap();
        let mut replaced = None;
        rename_cross_dir(&env, a, "x", b, "y", |fe| replaced = Some(fe.inode(&fx.region)))
            .unwrap();
        assert_eq!(replaced, Some(PPtr::new(8192)));
        assert_eq!(lookup(&env, b, "y").unwrap().inode(&fx.region), PPtr::new(4096));
    }

    #[test]
    fn crashed_holder_line_is_repaired_by_waiter() {
        let fx = Fixture::new();
        let env = fx.env();
        let dir = fx.new_dir();
        insert(&env, dir, "victim", FileType::Regular, PPtr::new(4096)).unwrap();
        // Simulate a process that died holding the busy flag mid-delete:
        // the entry is invalidated but the slot still points at it.
        let line = dir_line("victim", NLINES);
        assert!(dir.try_busy(&fx.region, line));
        let fe = lookup(&env, dir, "victim").unwrap();
        obj::invalidate(&fx.region, fe.ptr());
        // A second process now inserts a same-line name: it must time out,
        // repair, and succeed.
        let mut collide = None;
        for i in 0.. {
            let cand = format!("c{i}");
            if dir_line(&cand, NLINES) == line {
                collide = Some(cand);
                break;
            }
        }
        let name = collide.unwrap();
        insert(&env, dir, &name, FileType::Regular, PPtr::new(8192)).unwrap();
        assert!(lookup(&env, dir, &name).is_some());
        assert!(lookup(&env, dir, "victim").is_none(), "interrupted delete completed");
    }

    #[test]
    fn takeover_restarts_the_grace_period() {
        let fx = Fixture::new();
        let mut env = fx.env();
        // Ten times the contender's hold, so a descheduled contender on a
        // loaded host still releases inside the limit.
        env.max_hold = Duration::from_millis(100);
        let dir = fx.new_dir();
        let line = 9;
        // A holder that died with the flag set.
        assert!(dir.try_busy(&fx.region, line));
        let region = &fx.region;
        let cleared = crossbeam::thread::scope(|s| {
            let contender = s.spawn(move |_| {
                // A live process grabs the flag the moment the waiter's
                // takeover frees it, and holds it well inside the limit.
                while !dir.try_busy(region, line) {
                    std::hint::spin_loop();
                }
                let until = Instant::now() + Duration::from_millis(10);
                let mut cleared = false;
                while Instant::now() < until {
                    cleared |= !dir.is_busy(region, line);
                }
                dir.release_busy(region, line);
                cleared
            });
            drop(lock_line(&env, dir, line));
            contender.join().unwrap()
        })
        .unwrap();
        assert!(!cleared, "the waiter took over a live holder's flag");
    }

    #[test]
    fn concurrent_inserts_same_directory() {
        let fx = Fixture::new();
        let dir = fx.new_dir();
        let region = &fx.region;
        let meta = &fx.meta;
        crossbeam::thread::scope(|s| {
            for t in 0..4u32 {
                s.spawn(move |_| {
                    let env = DirEnv::new(region, meta);
                    for i in 0..100 {
                        insert(&env, dir, &format!("t{t}-f{i}"), FileType::Regular, PPtr::new(4096))
                            .unwrap();
                    }
                });
            }
        })
        .unwrap();
        let env = fx.env();
        assert_eq!(scan(&env, dir).len(), 400);
        for t in 0..4 {
            for i in 0..100 {
                assert!(lookup(&env, dir, &format!("t{t}-f{i}")).is_some());
            }
        }
    }

    #[test]
    fn concurrent_create_delete_churn() {
        let fx = Fixture::new();
        let dir = fx.new_dir();
        let region = &fx.region;
        let meta = &fx.meta;
        crossbeam::thread::scope(|s| {
            for t in 0..4u32 {
                s.spawn(move |_| {
                    let env = DirEnv::new(region, meta);
                    for i in 0..60 {
                        let name = format!("churn-{t}-{i}");
                        insert(&env, dir, &name, FileType::Regular, PPtr::new(4096)).unwrap();
                        if i % 2 == 0 {
                            remove(&env, dir, &name, |_| {}).unwrap();
                        }
                    }
                });
            }
        })
        .unwrap();
        let env = fx.env();
        assert_eq!(scan(&env, dir).len(), 4 * 30);
    }

    #[test]
    fn repair_dir_clears_stale_busy_flags() {
        let fx = Fixture::new();
        let env = fx.env();
        let dir = fx.new_dir();
        insert(&env, dir, "keep", FileType::Regular, PPtr::new(4096)).unwrap();
        for l in [1, 5, 77] {
            dir.try_busy(&fx.region, l);
        }
        repair_dir(&env, dir);
        for l in [1, 5, 77] {
            assert!(!dir.is_busy(&fx.region, l));
        }
        assert!(lookup(&env, dir, "keep").is_some());
    }
}
