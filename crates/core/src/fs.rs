//! [`SimurghFs`]: the public file system, tying together allocators,
//! directory protocols, the data path, security and recovery.
//!
//! One `SimurghFs` corresponds to one mount of one NVMM region. Independent
//! "processes" are threads sharing the instance through an `Arc` — they
//! coordinate exclusively through the NVMM region and the volatile shared
//! maps, mirroring the paper's processes sharing a DAX mapping and shared
//! DRAM. There is no central metadata service: every operation is executed
//! entirely by its calling thread.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use simurgh_fsapi::fs::{DirEntry, FileSystem, OpenTable, ProcCtx};
use simurgh_fsapi::types::{access, Fd, FileMode, FileType, FsStats, OpenFlags, SeekFrom, Stat};
use simurgh_fsapi::wire::RequestKind;
use simurgh_fsapi::{path, FsError, FsResult};
use simurgh_pmem::layout::Carver;
use simurgh_pmem::{PPtr, PmemRegion, PAGE_SIZE};
use simurgh_protfn::SecurityMode;

use crate::alloc::{BlockAlloc, MetaAllocator};
use crate::compact;
use crate::dindex::DirIndex;
use crate::dir::{self, DirEnv};
use crate::file::{self, FileEnv};
use crate::obj::dirblock::{DirBlock, DIRBLOCK_SIZE};
use crate::obj::inode::{Extent, Inode};
use crate::obj::{self};
use crate::obs::{self, Phase};
use crate::recovery::{self, RecoveryReport};
use crate::security::{OpClass, Security};
use crate::shared;
use crate::super_block::{PoolKind, Superblock};

const SYMLINK_HOPS: usize = 16;

/// Mount/format configuration.
#[derive(Clone)]
pub struct SimurghConfig {
    /// Per-call security cost model used when `charge_security_cost` is on.
    pub security: SecurityMode,
    /// Busy-wait the per-call security cost (benchmark fidelity; off for
    /// plain unit tests).
    pub charge_security_cost: bool,
    /// Relaxed shared-file writes: skip the per-file write lock (Fig. 7k).
    pub relaxed_writes: bool,
    /// Block-allocator segments; default 2 × available parallelism (§4.2).
    pub segments: Option<usize>,
    /// Busy-flag hold limit before decentralized line recovery kicks in.
    pub line_max_hold: Duration,
}

impl Default for SimurghConfig {
    fn default() -> Self {
        SimurghConfig {
            security: SecurityMode::Jmpp,
            charge_security_cost: false,
            relaxed_writes: false,
            segments: None,
            line_max_hold: dir::DEFAULT_LINE_MAX_HOLD,
        }
    }
}

impl SimurghConfig {
    fn segment_count(&self) -> usize {
        self.segments.unwrap_or_else(|| {
            2 * std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
    }
}

#[derive(Debug, Clone)]
struct OpenFile {
    ino: Inode,
    pos: u64,
    flags: OpenFlags,
    /// The file's extent mirror, shared by every descriptor on this inode
    /// (cloned out of the [`OpenState`] at open time).
    cursor: Arc<file::FileCursor>,
}

#[derive(Debug, Default, Clone)]
struct OpenState {
    refs: u32,
    /// All directory entries are gone; free the inode on last close.
    orphaned: bool,
    /// One extent cursor per inode in use (§4.3 data path): every
    /// descriptor, O_TRUNC and the compactor reach the file's extent map
    /// through it. Dropped with the state on the last reference, so an
    /// unused file carries no volatile map and the next user rebuilds from
    /// NVMM.
    cursor: Arc<file::FileCursor>,
}

/// Shards of the open-state map. Create-heavy shared workloads take this
/// lock once per open/close; a single global mutex shows up at 2+ threads.
const OPEN_SHARDS: usize = 16;

/// The sharded open-state map. No block allocation happens under a shard
/// lock, so the allocator's pressure hook may take one.
type OpenStates = [Mutex<HashMap<u64, OpenState>>];

/// Returns every open file's parked block run to `blocks`: the pressure
/// hook of the mount's allocator, and the quiesce and unmount paths.
fn return_parked_runs(states: &OpenStates, blocks: &BlockAlloc) {
    for shard in states {
        for s in shard.lock().values() {
            s.cursor.return_parked(blocks);
        }
    }
}

/// The Simurgh file system.
pub struct SimurghFs {
    region: Arc<PmemRegion>,
    blocks: Arc<BlockAlloc>,
    meta: Arc<MetaAllocator>,
    root: Inode,
    opens: OpenTable<OpenFile>,
    open_states: Arc<OpenStates>,
    clock: AtomicU64,
    cfg: SimurghConfig,
    sec: Security,
    recovery: RecoveryReport,
    /// Shared-DRAM directory index (paper Fig. 3 volatile metadata).
    index: DirIndex,
    /// Unified observability registry: per-op latency histograms, the
    /// mount's counter batteries and the single `to_json` export point.
    obs: obs::ObsRegistry,
    /// Compactor candidate queue + pressure water-mark (volatile; listed
    /// in [`shared::REBUILDABLE_CACHES`]).
    compactq: compact::CompactQueue,
    /// This instance joined via [`SimurghFs::mount_shared`]: unmount goes
    /// through the attach-count protocol and only the last process out
    /// writes the clean flag.
    shared_mode: bool,
}

impl SimurghFs {
    /// Formats a fresh file system onto `region` and mounts it.
    pub fn format(region: Arc<PmemRegion>, cfg: SimurghConfig) -> FsResult<Self> {
        // Formatting is part of the §3.2 bootstrap and runs with OS
        // privilege, so it works on regions already marked as kernel pages.
        let _boot = simurgh_protfn::cpl::KernelGuard::enter();
        let mut carver = Carver::new(region.len() as u64);
        carver.take(PAGE_SIZE as u64, PAGE_SIZE as u64).map_err(|_| FsError::NoSpace)?;
        // The cross-process block-claim bitmap sits right after the
        // superblock page; exclusive mounts ignore it, shared mounts
        // republish it at attach time (see `crate::shared`).
        let bm_bytes = shared::bitmap_bytes(region.len());
        let bm = carver.take(bm_bytes, PAGE_SIZE as u64).map_err(|_| FsError::NoSpace)?;
        let data = carver.remainder().map_err(|_| FsError::NoSpace)?;
        Superblock::format(&region, PPtr::NULL, data);
        region.zero(bm.start, bm_bytes as usize);
        shared::record_bitmap_geometry(&region, bm.start, bm_bytes / 8);
        shared::reset(&region);
        let blocks = Arc::new(BlockAlloc::new(data, cfg.segment_count()));
        let meta = Arc::new(MetaAllocator::new(region.clone(), blocks.clone()));
        // Root inode + first hash block.
        let root_ptr = meta.alloc(PoolKind::Inode)?;
        let root = Inode(root_ptr);
        root.init(&region, FileMode::dir(0o755), 0, 0, 2, 1);
        let rblk = meta.alloc(PoolKind::DirBlock)?;
        DirBlock(rblk).init(&region, true);
        root.set_extent(&region, 0, Extent { start: rblk.off(), len: DIRBLOCK_SIZE });
        region.persist(root_ptr, crate::obj::inode::INODE_SIZE as usize);
        obj::clear_dirty(&region, rblk);
        obj::clear_dirty(&region, root_ptr);
        Superblock::set_root(&region, root_ptr);
        let fs = Self::assemble(region, blocks, meta, root, cfg, RecoveryReport::default());
        fs.index.mark_complete(rblk);
        fs.index.set_tail(rblk, rblk);
        Ok(fs)
    }

    /// Mounts an existing file system **exclusively**, running crash
    /// recovery if the region was not cleanly unmounted. This is the
    /// recovery entry point after a whole-process-group crash: it also
    /// resets the (volatile-semantics) shared-mount coordination words, so
    /// stale `UP`/attach state leaked by `kill -9`'d processes cannot
    /// divert it. Concurrent mounts of the same region file must use
    /// [`mount_shared`](Self::mount_shared) instead.
    pub fn mount(region: Arc<PmemRegion>, cfg: SimurghConfig) -> FsResult<Self> {
        if !Superblock::is_valid(&region) {
            return Err(FsError::Corrupt("bad superblock magic"));
        }
        shared::reset(&region);
        Self::mount_inner(region, cfg)
    }

    /// Joins a multi-process mount of a shared (file-backed) region. The
    /// first process in wins the `DOWN → INITIALIZING` race and runs the
    /// full recovery mount, then publishes the block-claim bitmap; later
    /// processes attach by rebuilding every volatile cache from media alone
    /// (bitmap → block free lists, header scan → metadata stacks, empty
    /// directory index that converges verify-on-use). See `crate::shared`
    /// for the ownership protocol.
    pub fn mount_shared(region: Arc<PmemRegion>, cfg: SimurghConfig) -> FsResult<Self> {
        let _boot = simurgh_protfn::cpl::KernelGuard::enter();
        if !Superblock::is_valid(&region) {
            return Err(FsError::Corrupt("bad superblock magic"));
        }
        if shared::bitmap_geometry(&region).is_none() {
            return Err(FsError::Corrupt("region formatted without a claim bitmap"));
        }
        match shared::begin_attach(&region)? {
            shared::AttachRole::Recoverer => {
                let fs = match Self::mount_inner(region.clone(), cfg) {
                    Ok(fs) => fs,
                    Err(e) => {
                        shared::abort_init(&region);
                        return Err(e);
                    }
                };
                // Geometry is re-read after the recovery mount: growth
                // adoption inside `mount_inner` may have relocated the
                // claim bitmap to the tail of the grown region.
                let (bm_start, bm_words) = shared::bitmap_geometry(&region)
                    .ok_or(FsError::Corrupt("claim bitmap geometry lost"))?;
                fs.blocks.publish_shared(region.clone(), bm_start, bm_words);
                fs.index.disable_negative_authority();
                shared::publish_up(&region);
                Ok(SimurghFs { shared_mode: true, ..fs })
            }
            shared::AttachRole::Attacher => {
                let t_mount = std::time::Instant::now();
                let (bm_start, bm_words) = shared::bitmap_geometry(&region)
                    .ok_or(FsError::Corrupt("claim bitmap geometry lost"))?;
                let data = Superblock::data_extent(&region);
                let blocks = Arc::new(BlockAlloc::attach(
                    data,
                    cfg.segment_count(),
                    region.clone(),
                    bm_start,
                    bm_words,
                ));
                let meta = Arc::new(MetaAllocator::new(region.clone(), blocks.clone()));
                meta.adopt_from_scan();
                let root = Inode(Superblock::root_inode(&region));
                let fs =
                    Self::assemble(region, blocks, meta, root, cfg, RecoveryReport::default());
                // No index rebuild: a walk would race live peers. Start
                // empty; positive hints fill in on use and misses always
                // verify against the persistent chains.
                fs.index.disable_negative_authority();
                fs.obs.record_phase(Phase::Mount, t_mount.elapsed());
                Ok(SimurghFs { shared_mode: true, ..fs })
            }
        }
    }

    /// The exclusive-recovery mount body, shared by [`mount`](Self::mount)
    /// and the recoverer arm of [`mount_shared`](Self::mount_shared) (which
    /// must *not* reset the coordination words — it owns `INITIALIZING`).
    fn mount_inner(region: Arc<PmemRegion>, cfg: SimurghConfig) -> FsResult<Self> {
        // Mounting (recovery included) is bootstrap work: OS privilege.
        let _boot = simurgh_protfn::cpl::KernelGuard::enter();
        let t_mount = std::time::Instant::now();
        if !Superblock::is_valid(&region) {
            return Err(FsError::Corrupt("bad superblock magic"));
        }
        Self::adopt_growth(&region);
        let (blocks, meta, mut report) = recovery::recover(&region, cfg.segment_count())?;
        let root = Inode(Superblock::root_inode(&region));
        Superblock::set_clean(&region, false);
        let fs = Self::assemble(region, blocks, meta, root, cfg, RecoveryReport::default());
        // Rebuild the shared-DRAM structures (second half of the paper's
        // recovery procedure) and account its time in the report.
        let t = std::time::Instant::now();
        fs.rebuild_index();
        report.rebuild_time = t.elapsed();
        let fs = SimurghFs { recovery: report, ..fs };
        // Mount and recovery phases land in the same histograms as the
        // regular ops, so `paper obs` reports them alongside.
        fs.obs.record_phase(Phase::RecoverMark, fs.recovery.mark_time);
        fs.obs.record_phase(Phase::RecoverRepair, fs.recovery.repair_time);
        fs.obs.record_phase(Phase::RecoverSweep, fs.recovery.sweep_time);
        fs.obs.record_phase(Phase::RecoverRebuild, fs.recovery.rebuild_time);
        fs.obs.record_phase(Phase::Mount, t_mount.elapsed());
        Ok(fs)
    }

    /// Adopts a backing file that was grown since the recorded geometry
    /// (aged-image capacity scale-up): lays a fresh, larger claim bitmap at
    /// the *tail* of the grown region and extends the data extent over the
    /// new space, keeping it contiguous. The old bitmap pages below the
    /// data start become dead slack — a one-time, bounded cost per growth.
    ///
    /// Runs only under the exclusive-recovery mount, before the allocator
    /// is rebuilt, so the larger extent and bitmap are what recovery's
    /// mark-and-sweep (and a subsequent `publish_shared`) observe. The
    /// whole sequence is idempotent and keyed off `len() > region_len`,
    /// so a crash mid-adoption simply re-runs it on the next mount.
    fn adopt_growth(region: &PmemRegion) {
        let recorded = Superblock::region_len(region);
        let new_len = region.len() as u64;
        if new_len <= recorded {
            return;
        }
        let data = Superblock::data_extent(region);
        let bm_bytes = shared::bitmap_bytes(region.len());
        // new_len and bm_bytes are page multiples, so the tail bitmap is
        // page aligned by construction.
        let bm_start = new_len - bm_bytes;
        let new_data_len = bm_start.saturating_sub(data.start.off());
        if new_data_len <= data.len {
            // Growth too small to pay for the larger bitmap: keep the old
            // geometry; the mapping stays valid (recorded <= len).
            return;
        }
        region.zero(PPtr::new(bm_start), bm_bytes as usize);
        shared::record_bitmap_geometry(region, PPtr::new(bm_start), bm_bytes / 8);
        Superblock::record_growth(
            region,
            simurgh_pmem::layout::Extent { start: data.start, len: new_data_len },
        );
    }

    /// Walks the tree and rebuilds the shared-DRAM directory index.
    fn rebuild_index(&self) {
        let env = self.dir_env();
        self.walk_dirs(|first, _| dir::reindex_dir(&env, first));
    }

    /// Depth-first walk of every directory reachable from the root: `visit`
    /// gets each directory's first hash block and its live entries as
    /// `(type, inode)`, null inodes skipped.
    fn walk_dirs(&self, mut visit: impl FnMut(DirBlock, &[(FileType, Inode)])) {
        let env = self.dir_env();
        let mut stack = vec![self.root];
        let mut entries = Vec::new();
        while let Some(ino) = stack.pop() {
            let Ok(first) = self.dir_block_of(ino) else {
                continue;
            };
            entries.clear();
            for (_, ftype, child) in dir::scan(&env, first) {
                if child.is_null() {
                    continue;
                }
                if ftype == FileType::Directory {
                    stack.push(Inode(child));
                }
                entries.push((ftype, Inode(child)));
            }
            visit(first, &entries);
        }
    }

    fn assemble(
        region: Arc<PmemRegion>,
        blocks: Arc<BlockAlloc>,
        meta: Arc<MetaAllocator>,
        root: Inode,
        cfg: SimurghConfig,
        recovery: RecoveryReport,
    ) -> Self {
        let sec = if cfg.charge_security_cost {
            Security::charging(cfg.security)
        } else {
            Security::disabled()
        };
        let open_states: Arc<OpenStates> =
            (0..OPEN_SHARDS).map(|_| Mutex::new(HashMap::new())).collect();
        // Under allocation pressure, open files' parked runs go back first.
        // Weak: a cursor holding a parked run keeps the allocator alive, so
        // a strong handle here would be a cycle.
        let states = Arc::downgrade(&open_states);
        blocks.set_reclaim_hook(move |b| {
            if let Some(states) = states.upgrade() {
                return_parked_runs(&states, b);
            }
        });
        Superblock::set_clean(&region, false);
        let fs = SimurghFs {
            region,
            blocks,
            meta,
            root,
            opens: OpenTable::new(),
            open_states,
            clock: AtomicU64::new(2),
            cfg,
            sec,
            recovery,
            index: DirIndex::new(),
            obs: obs::ObsRegistry::default(),
            compactq: compact::CompactQueue::default(),
            shared_mode: false,
        };
        // Trace every sfence boundary. Regions produced by `simulate_crash`
        // are fresh, so each format/mount re-installs the hook.
        fs.region.set_fence_hook(Box::new(obs::trace_fence));
        fs
    }

    /// Installs full protected-function enforcement (bootstrap, §3.2).
    pub fn with_enforcement(mut self, domain: Arc<simurgh_protfn::ProtectedDomain>) -> Self {
        self.sec = Security::enforced(domain, self.cfg.security, self.cfg.charge_security_cost);
        self
    }

    /// Cleanly unmounts: marks the region clean so the next mount skips
    /// repair. The instance is consumed. Shared mounts detach instead; only
    /// the last process out writes the clean flag — a `kill -9`'d peer
    /// never detaches, leaving the region unclean for the next recovery.
    pub fn unmount(self) {
        // Un-claim this thread's parked refill slots and return every open
        // file's parked block run: a clean unmount must leave no allocated-
        // but-unreachable objects behind. (Other threads' refill batches
        // can't be reached from here; the next mount's sweep frees those.)
        self.quiesce_thread_caches();
        if self.shared_mode {
            if shared::detach(&self.region) {
                Superblock::set_clean(&self.region, true);
            }
        } else {
            Superblock::set_clean(&self.region, true);
        }
    }

    /// Whether this instance is part of a multi-process shared mount.
    pub fn is_shared(&self) -> bool {
        self.shared_mode
    }

    /// The recovery report of the mount that produced this instance.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The underlying region (crash-test harness).
    pub fn region(&self) -> &Arc<PmemRegion> {
        &self.region
    }

    /// Block allocator statistics (benchmark assertions).
    pub fn block_alloc(&self) -> &Arc<BlockAlloc> {
        &self.blocks
    }

    /// Metadata allocator statistics (group-commit trip assertions).
    pub fn meta_alloc(&self) -> &Arc<MetaAllocator> {
        &self.meta
    }

    /// Returns the calling thread's pre-claimed metadata refill slots and
    /// every open file's parked block run to the shared pools. An orderly
    /// quiesce before handoff or a planned crash witness; caches abandoned
    /// by `kill -9` are reclaimed by recovery instead.
    pub fn quiesce_thread_caches(&self) {
        self.meta.drain_thread_cache();
        return_parked_runs(&self.open_states, &self.blocks);
    }

    /// The mount's resource-fault injector: arms ENOSPC at the *k*-th
    /// metadata or data-block allocation (crash-matrix harness).
    pub fn alloc_faults(&self) -> &Arc<crate::alloc::AllocFaults> {
        self.meta.faults()
    }

    /// Snapshot of the directory probe counters (scaling assertions and the
    /// bench harness's stats export).
    pub fn dir_stats(&self) -> dir::DirStatsSnapshot {
        self.obs.dir.snapshot()
    }

    /// Snapshot of the data-path probe counters (scaling assertions and the
    /// bench harness's stats export).
    pub fn data_stats(&self) -> file::DataStatsSnapshot {
        self.obs.data.snapshot()
    }

    /// The unified observability registry of this mount: latency
    /// histograms, the mount's counter batteries and the op-time totals of
    /// the Table 1 / Fig. 10 breakdowns.
    pub fn obs(&self) -> &obs::ObsRegistry {
        &self.obs
    }

    /// Number of descriptors currently open across every owner id — the
    /// gateway's reap tests assert this returns to zero after a client is
    /// killed mid-pipeline.
    pub fn open_count(&self) -> usize {
        self.opens.len()
    }

    /// One JSON document bundling every counter battery of this mount:
    /// latency histograms, directory and data-path probes, pmem traffic,
    /// execution-time totals and the fault injector (`paper obs --json`).
    pub fn obs_json(&self) -> String {
        let pmem = self.region.stats().snapshot();
        self.obs.to_json(&pmem, &self.meta, &self.blocks, self.extent_census())
    }

    /// The fragmentation/compaction counter battery of this mount.
    pub fn frag_stats(&self) -> &compact::FragStats {
        &self.obs.frag
    }

    /// Census for the `frag` obs section: regular files reachable from the
    /// root and their total extent-map entries. A full tree walk — the obs
    /// export and the aging harness are cold paths.
    pub fn extent_census(&self) -> (u64, u64) {
        let (mut files, mut extents) = (0u64, 0u64);
        self.walk_dirs(|_, entries| {
            for &(ftype, child) in entries {
                if ftype == FileType::Regular {
                    files += 1;
                    file::for_each_extent(&self.region, child, |_, _| extents += 1);
                }
            }
        });
        (files, extents)
    }

    /// One online compaction pass: harvests fragmented regular files from
    /// a tree walk, then relocates up to `max_files` of them (most
    /// fragmented first) onto freshly allocated contiguous runs. Safe
    /// against concurrent use: every file moves under its per-file write
    /// lock, the map swap is guarded by the relocation journal
    /// ([`compact::journal`]), and the file's shared extent cursor, taken
    /// with an open reference, is generation-invalidated. Returns
    /// `(files_moved, blocks_moved)`.
    pub fn compact(&self, max_files: usize) -> (u64, u64) {
        self.harvest_candidates();
        let (mut nfiles, mut nblocks) = (0u64, 0u64);
        for _ in 0..max_files {
            // Ascending fragmentation order, so `pop` yields worst-first.
            let Some(p) = self.compactq.queue.lock().unwrap().pop() else {
                break;
            };
            let ino = Inode(p);
            // The open reference shares the inode's cursor with every
            // descriptor, and defers an unlink's free to its close.
            let cursor = self.open_ref(ino);
            // Revalidate: the file may have been unlinked since harvest.
            let h = obj::header(&self.region, p);
            let live = obj::is_valid(h)
                && obj::Tag::from_header(h) == Some(obj::Tag::Inode)
                && ino.mode(&self.region).ftype == FileType::Regular;
            if live {
                let env = self.file_env(&cursor);
                let _w = file::lock_write(&env, ino);
                if let Ok(compact::Reloc::Moved(b)) =
                    compact::relocate_file(&env, ino, &self.obs.frag)
                {
                    nfiles += 1;
                    nblocks += b;
                }
            }
            self.close_ref(ino);
        }
        self.obs.frag.passes.add(1);
        (nfiles, nblocks)
    }

    /// Water-mark trigger: runs a bounded compaction pass when the block
    /// allocator recorded new fragmentation pressure (an opportunistic
    /// allocation pass that failed with free capacity on hand) since the
    /// last check. Cheap when idle — two atomic loads.
    pub fn maybe_compact(&self) -> (u64, u64) {
        let p = self.blocks.frag_pressure();
        if p <= self.compactq.seen_pressure.swap(p, Ordering::Relaxed) {
            return (0, 0);
        }
        self.compact(8)
    }

    /// Tree walk feeding [`compact`](Self::compact): fragmented regular
    /// files (2+ extents or any overflow chain), sorted ascending by
    /// extent count so the back of the queue is the worst offender.
    fn harvest_candidates(&self) {
        let mut found: Vec<(u64, PPtr)> = Vec::new();
        self.walk_dirs(|_, entries| {
            for &(ftype, c) in entries {
                if ftype != FileType::Regular {
                    continue;
                }
                let mut n = 0u64;
                file::for_each_extent(&self.region, c, |_, _| n += 1);
                if n >= 2 || !c.ext_next(&self.region).is_null() {
                    found.push((n, c.ptr()));
                }
            }
        });
        found.sort_by_key(|&(n, _)| n);
        *self.compactq.queue.lock().unwrap() = found.into_iter().map(|(_, p)| p).collect();
    }

    /// Runs one `FileSystem` op as a protected-function call (§3): the
    /// entry charge of `class`, then one clock-read pair around the body
    /// into the op's latency histogram, whose sums are also the Table 1
    /// `Fs` share.
    fn protected_op<R>(&self, kind: RequestKind, class: OpClass, f: impl FnOnce() -> R) -> R {
        self.sec.call(class, || self.obs.time_op(kind, f))
    }

    /// Test support: the shared-DRAM directory index of this mount.
    #[doc(hidden)]
    pub fn testing_index(&self) -> &DirIndex {
        &self.index
    }

    /// Test support: resolves a directory path to its first hash block.
    #[doc(hidden)]
    pub fn testing_dir_block(&self, path: &str) -> FsResult<(Arc<PmemRegion>, DirBlock)> {
        let ino = self.resolve(&ProcCtx::root(u32::MAX), path, true)?;
        Ok((self.region.clone(), self.dir_block_of(ino)?))
    }

    /// Test support: a directory environment bound to this mount.
    #[doc(hidden)]
    pub fn testing_dir_env(&self) -> DirEnv<'_> {
        self.dir_env()
    }

    // ----- internal helpers -------------------------------------------------

    fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn dir_env(&self) -> DirEnv<'_> {
        let mut env = DirEnv::new(&self.region, &self.meta)
            .with_index(&self.index)
            .with_stats(&self.obs.dir);
        env.max_hold = self.cfg.line_max_hold;
        env
    }

    /// Data-path context on the inode whose extent cursor is `cursor`.
    fn file_env<'a>(&'a self, cursor: &'a file::FileCursor) -> FileEnv<'a> {
        let mut env =
            FileEnv::new(&self.region, &self.blocks, cursor, &self.obs.data, self.meta.faults());
        env.relaxed = self.cfg.relaxed_writes;
        env
    }

    fn dir_block_of(&self, ino: Inode) -> FsResult<DirBlock> {
        if ino.mode(&self.region).ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        let e = ino.extent(&self.region, 0);
        if e.is_empty() {
            return Err(FsError::Corrupt("directory without hash block"));
        }
        Ok(DirBlock(PPtr::new(e.start)))
    }

    fn check_perm(&self, ctx: &ProcCtx, ino: Inode, want: u16) -> FsResult<()> {
        let m = ino.mode(&self.region);
        if ctx.creds.may(want, m.perm, ino.uid(&self.region), ino.gid(&self.region)) {
            Ok(())
        } else {
            Err(FsError::Access)
        }
    }

    /// Symlink targets are read through a private cursor: they are
    /// written once, at creation, and never change.
    fn read_symlink(&self, ino: Inode) -> FsResult<String> {
        let cursor = file::FileCursor::new();
        let env = self.file_env(&cursor);
        let len = ino.size(&self.region) as usize;
        let mut buf = vec![0u8; len];
        let n = file::read_at(&env, ino, 0, &mut buf);
        buf.truncate(n);
        String::from_utf8(buf).map_err(|_| FsError::Corrupt("non-utf8 symlink target"))
    }

    /// Resolves path components to an inode, following intermediate (and,
    /// optionally, final) symlinks. Permission: X on every directory walked.
    fn walk(&self, ctx: &ProcCtx, comps: &[&str], follow_final: bool, hops: usize) -> FsResult<Inode> {
        if hops > SYMLINK_HOPS {
            return Err(FsError::TooManyLinks);
        }
        let env = self.dir_env();
        let mut cur = self.root;
        for (i, comp) in comps.iter().enumerate() {
            let first = self.dir_block_of(cur)?;
            self.check_perm(ctx, cur, access::X)?;
            let fe = dir::lookup(&env, first, comp).ok_or(FsError::NotFound)?;
            let ino = Inode(fe.inode(&self.region));
            let is_final = i + 1 == comps.len();
            if fe.is_symlink(&self.region) && (!is_final || follow_final) {
                let target = self.read_symlink(ino)?;
                let tcomps = path::components(&target)?;
                let resolved = self.walk(ctx, &tcomps, true, hops + 1)?;
                if is_final {
                    return Ok(resolved);
                }
                cur = resolved;
            } else {
                cur = ino;
            }
        }
        Ok(cur)
    }

    fn resolve(&self, ctx: &ProcCtx, p: &str, follow_final: bool) -> FsResult<Inode> {
        let comps = path::components(p)?;
        self.walk(ctx, &comps, follow_final, 0)
    }

    /// Resolves the parent directory of `p`, checking W|X on it, and
    /// returns `(parent inode, its first hash block, final name)`.
    fn resolve_parent<'p>(
        &self,
        ctx: &ProcCtx,
        p: &'p str,
    ) -> FsResult<(Inode, DirBlock, &'p str)> {
        let (parent_comps, name) = path::split_parent(p)?;
        let parent = self.walk(ctx, &parent_comps, true, 0)?;
        let first = self.dir_block_of(parent)?;
        self.check_perm(ctx, parent, access::W | access::X)?;
        Ok((parent, first, name))
    }

    /// Allocates and initializes a fresh inode (still dirty; the directory
    /// insert clears it at its step 6).
    fn new_inode(&self, ctx: &ProcCtx, mode: FileMode, nlink: u32) -> FsResult<Inode> {
        let p = self.meta.alloc(PoolKind::Inode)?;
        let ino = Inode(p);
        ino.init(&self.region, mode, ctx.creds.uid, ctx.creds.gid, nlink, self.now());
        self.region.persist(p, crate::obj::inode::INODE_SIZE as usize);
        Ok(ino)
    }

    /// Drops one link of `ino`. Only the caller whose drop takes the count
    /// from 1 to 0 retires the inode: it frees inode + data, or orphans it
    /// while a descriptor holds it open (POSIX).
    fn drop_link(&self, ino: Inode) {
        if ino.dec_nlink(&self.region) != Some(1) {
            return;
        }
        let mut states = self.open_state_shard(ino).lock();
        if let Some(s) = states.get_mut(&ino.ptr().off()) {
            if s.refs > 0 {
                s.orphaned = true;
                return;
            }
        }
        drop(states);
        self.destroy_inode(ino);
    }

    fn destroy_inode(&self, ino: Inode) {
        if ino.mode(&self.region).ftype == FileType::Directory {
            // Free the hash-block chain.
            let e = ino.extent(&self.region, 0);
            if !e.is_empty() {
                self.index.forget_dir(PPtr::new(e.start));
                let mut blk = PPtr::new(e.start);
                while !blk.is_null() {
                    let next = DirBlock(blk).next(&self.region);
                    self.meta.free(PoolKind::DirBlock, blk);
                    blk = next;
                }
            }
        } else {
            file::free_all(&self.region, &self.blocks, ino);
        }
        self.meta.free(PoolKind::Inode, ino.ptr());
    }

    /// Inodes are pool-allocated at a fixed stride, so dropping the low
    /// bits before taking the modulus spreads neighbours across shards.
    fn open_state_shard(&self, ino: Inode) -> &Mutex<HashMap<u64, OpenState>> {
        &self.open_states[(ino.ptr().off() >> 7) as usize % OPEN_SHARDS]
    }

    /// Takes one open reference and returns the inode's shared extent
    /// cursor (created by the first reference, shared by every later one).
    fn open_ref(&self, ino: Inode) -> Arc<file::FileCursor> {
        let mut states = self.open_state_shard(ino).lock();
        let s = states.entry(ino.ptr().off()).or_default();
        s.refs += 1;
        s.cursor.clone()
    }

    /// Drops one open reference. The last one removes the open state; its
    /// cursor goes with it, returning the file's parked block run (see the
    /// cursor's `Drop`), before an orphan's blocks are freed.
    fn close_ref(&self, ino: Inode) {
        let mut states = self.open_state_shard(ino).lock();
        let Some(s) = states.get_mut(&ino.ptr().off()) else {
            return;
        };
        s.refs = s.refs.saturating_sub(1);
        if s.refs == 0 {
            let last = states.remove(&ino.ptr().off());
            drop(states);
            if last.is_some_and(|s| s.orphaned) {
                self.destroy_inode(ino);
            }
        }
    }

    fn with_open(&self, ctx: &ProcCtx, fd: Fd) -> FsResult<OpenFile> {
        self.opens.with(ctx.pid, fd, |o| o.clone())
    }

    /// Writes `data` at `off`, or at end of file when `off` is `None`
    /// (O_APPEND). The end-of-file offset is read under the file write
    /// lock, so concurrent appenders never get the same offset. Returns
    /// the offset written at and the byte count.
    fn do_pwrite(&self, open: &OpenFile, data: &[u8], off: Option<u64>) -> FsResult<(u64, usize)> {
        if !open.flags.write {
            return Err(FsError::BadFd);
        }
        let env = self.file_env(&open.cursor);
        let _w = file::lock_write(&env, open.ino);
        let off = off.unwrap_or_else(|| open.ino.size(&self.region));
        let n = file::write_at(&env, open.ino, off, data)?;
        open.ino.set_mtime(&self.region, self.now());
        Ok((off, n))
    }

    fn do_pread(&self, open: &OpenFile, buf: &mut [u8], off: u64) -> FsResult<usize> {
        if !open.flags.read {
            return Err(FsError::BadFd);
        }
        let env = self.file_env(&open.cursor);
        let _r = file::lock_read(&env, open.ino);
        Ok(file::read_at(&env, open.ino, off, buf))
    }

    /// The post-resolution half of `open` on an existing inode: type and
    /// permission checks, the descriptor's open reference, then O_TRUNC.
    /// Returns the inode and its shared extent cursor.
    fn open_existing(
        &self,
        ctx: &ProcCtx,
        ino: Inode,
        flags: OpenFlags,
    ) -> FsResult<(Inode, Arc<file::FileCursor>)> {
        let m = ino.mode(&self.region);
        if m.ftype == FileType::Directory && flags.write {
            return Err(FsError::IsDir);
        }
        let mut want = 0;
        if flags.read {
            want |= access::R;
        }
        if flags.write {
            want |= access::W;
        }
        if want != 0 {
            self.check_perm(ctx, ino, want)?;
        }
        // The reference is taken before O_TRUNC waits for the file lock:
        // a descriptor opened meanwhile shares the cursor whose mirror the
        // truncate invalidates, and an unlink meanwhile leaves the inode
        // to the last close.
        let cursor = self.open_ref(ino);
        if flags.truncate && flags.write && m.ftype == FileType::Regular {
            let fenv = self.file_env(&cursor);
            let truncated = {
                let _w = file::lock_write(&fenv, ino);
                file::truncate(&fenv, ino, 0)
            };
            if let Err(e) = truncated {
                drop(cursor);
                self.close_ref(ino);
                return Err(e);
            }
        }
        Ok((ino, cursor))
    }

    /// `open` with O_CREAT: one walk to the parent serves both the
    /// existence probe and the insert (the naive shape resolves the full
    /// path, fails, and walks the parent again — the extra walk is pure
    /// overhead on create-heavy metadata workloads).
    fn open_create(
        &self,
        ctx: &ProcCtx,
        p: &str,
        flags: OpenFlags,
        mode: FileMode,
    ) -> FsResult<(Inode, Arc<file::FileCursor>)> {
        let Ok((parent_comps, name)) = path::split_parent(p) else {
            // No final component to create ("/"): open what's there.
            let ino = self.resolve(ctx, p, true)?;
            if flags.excl {
                return Err(FsError::Exists);
            }
            return self.open_existing(ctx, ino, flags);
        };
        let parent = self.walk(ctx, &parent_comps, true, 0)?;
        let first = self.dir_block_of(parent)?;
        self.check_perm(ctx, parent, access::X)?;
        let env = self.dir_env();
        if let Some(fe) = dir::lookup(&env, first, name) {
            if flags.excl {
                return Err(FsError::Exists);
            }
            if fe.is_symlink(&self.region) {
                // A final-component symlink still gets followed; the
                // generic resolver handles hop counting.
                let ino = self.resolve(ctx, p, true)?;
                return self.open_existing(ctx, ino, flags);
            }
            return self.open_existing(ctx, Inode(fe.inode(&self.region)), flags);
        }
        self.check_perm(ctx, parent, access::W | access::X)?;
        path::validate_name(name)?;
        // Group commit: the inode claim + init persists coalesce with the
        // insert's own preparation; `dir::insert` fences them all at once
        // right before publishing the hash-line pointer.
        let scope = self.region.fence_scope();
        let ino = self.new_inode(ctx, FileMode::file(mode.perm), 1)?;
        let inserted = dir::insert(&env, first, name, FileType::Regular, ino.ptr());
        match inserted {
            Ok(_) => {
                drop(scope);
                Ok((ino, self.open_ref(ino)))
            }
            Err(e) => {
                self.meta.free(PoolKind::Inode, ino.ptr());
                drop(scope);
                // A concurrent creator may have won the race.
                if e == FsError::Exists && !flags.excl {
                    let ino = self.resolve(ctx, p, true)?;
                    self.open_existing(ctx, ino, flags)
                } else {
                    Err(e)
                }
            }
        }
    }
}

impl FileSystem for SimurghFs {
    fn name(&self) -> &str {
        "simurgh"
    }

    fn open(&self, ctx: &ProcCtx, p: &str, flags: OpenFlags, mode: FileMode) -> FsResult<Fd> {
        self.protected_op(RequestKind::Open, OpClass::Walk, || {
            let (ino, cursor) = if flags.create {
                self.open_create(ctx, p, flags, mode)?
            } else {
                let ino = self.resolve(ctx, p, true)?;
                self.open_existing(ctx, ino, flags)?
            };
            let pos = if flags.append { ino.size(&self.region) } else { 0 };
            Ok(self.opens.insert(ctx.pid, OpenFile { ino, pos, flags, cursor }))
        })
    }

    fn close(&self, ctx: &ProcCtx, fd: Fd) -> FsResult<()> {
        self.protected_op(RequestKind::Close, OpClass::Ctl, || {
            // Drop the descriptor's cursor handle first, so the open state
            // holds the last one when `close_ref` drops it.
            let ino = self.opens.remove(ctx.pid, fd)?.ino;
            self.close_ref(ino);
            Ok(())
        })
    }

    fn read(&self, ctx: &ProcCtx, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        self.protected_op(RequestKind::Read, OpClass::Data, || {
            let open = self.with_open(ctx, fd)?;
            let n = self.do_pread(&open, buf, open.pos)?;
            self.opens.with_mut(ctx.pid, fd, |o| o.pos += n as u64)?;
            Ok(n)
        })
    }

    fn write(&self, ctx: &ProcCtx, fd: Fd, data: &[u8]) -> FsResult<usize> {
        self.protected_op(RequestKind::Write, OpClass::Data, || {
            let open = self.with_open(ctx, fd)?;
            let at = if open.flags.append { None } else { Some(open.pos) };
            let (off, n) = self.do_pwrite(&open, data, at)?;
            self.opens.with_mut(ctx.pid, fd, |o| o.pos = off + n as u64)?;
            Ok(n)
        })
    }

    fn pread(&self, ctx: &ProcCtx, fd: Fd, buf: &mut [u8], off: u64) -> FsResult<usize> {
        self.protected_op(RequestKind::Pread, OpClass::Data, || {
            let open = self.with_open(ctx, fd)?;
            self.do_pread(&open, buf, off)
        })
    }

    fn pwrite(&self, ctx: &ProcCtx, fd: Fd, data: &[u8], off: u64) -> FsResult<usize> {
        self.protected_op(RequestKind::Pwrite, OpClass::Data, || {
            let open = self.with_open(ctx, fd)?;
            Ok(self.do_pwrite(&open, data, Some(off))?.1)
        })
    }

    fn lseek(&self, ctx: &ProcCtx, fd: Fd, pos: SeekFrom) -> FsResult<u64> {
        self.protected_op(RequestKind::Lseek, OpClass::Ctl, || {
            let open = self.with_open(ctx, fd)?;
            let size = open.ino.size(&self.region);
            self.opens.with_mut(ctx.pid, fd, |o| {
                let new = match pos {
                    SeekFrom::Start(s) => s as i128,
                    SeekFrom::Current(d) => o.pos as i128 + d as i128,
                    SeekFrom::End(d) => size as i128 + d as i128,
                };
                if new < 0 {
                    return Err(FsError::Invalid);
                }
                o.pos = new as u64;
                Ok(o.pos)
            })?
        })
    }

    fn fsync(&self, ctx: &ProcCtx, fd: Fd) -> FsResult<()> {
        self.protected_op(RequestKind::Fsync, OpClass::Ctl, || {
            let _ = self.with_open(ctx, fd)?;
            // Data is persisted eagerly on write; a final fence orders
            // anything still pending.
            self.region.fence();
            Ok(())
        })
    }

    fn fstat(&self, ctx: &ProcCtx, fd: Fd) -> FsResult<Stat> {
        self.protected_op(RequestKind::Fstat, OpClass::Walk, || {
            let open = self.with_open(ctx, fd)?;
            Ok(open.ino.stat(&self.region))
        })
    }

    fn ftruncate(&self, ctx: &ProcCtx, fd: Fd, len: u64) -> FsResult<()> {
        self.protected_op(RequestKind::Ftruncate, OpClass::Data, || {
            let open = self.with_open(ctx, fd)?;
            if !open.flags.write {
                return Err(FsError::BadFd);
            }
            let env = self.file_env(&open.cursor);
            let _w = file::lock_write(&env, open.ino);
            file::truncate(&env, open.ino, len)
        })
    }

    fn fallocate(&self, ctx: &ProcCtx, fd: Fd, off: u64, len: u64) -> FsResult<()> {
        self.protected_op(RequestKind::Fallocate, OpClass::Data, || {
            let open = self.with_open(ctx, fd)?;
            if !open.flags.write {
                return Err(FsError::BadFd);
            }
            let env = self.file_env(&open.cursor);
            let _w = file::lock_write(&env, open.ino);
            file::fallocate(&env, open.ino, off, len)
        })
    }

    fn unlink(&self, ctx: &ProcCtx, p: &str) -> FsResult<()> {
        self.protected_op(RequestKind::Unlink, OpClass::Meta, || {
            let (_, first, name) = self.resolve_parent(ctx, p)?;
            let env = self.dir_env();
            // Refuse directories (POSIX unlink semantics).
            if let Some(fe) = dir::lookup(&env, first, name) {
                if fe.ftype(&self.region) == FileType::Directory {
                    return Err(FsError::IsDir);
                }
            }
            dir::remove(&env, first, name, |fe| {
                self.drop_link(Inode(fe.inode(&self.region)));
            })
        })
    }

    fn mkdir(&self, ctx: &ProcCtx, p: &str, mode: FileMode) -> FsResult<()> {
        self.protected_op(RequestKind::Mkdir, OpClass::Meta, || {
            let (_, first, name) = self.resolve_parent(ctx, p)?;
            path::validate_name(name)?;
            let env = self.dir_env();
            // Group commit: inode + hash-block preparation persists
            // coalesce into one fence before the block's dirty-bit clear
            // (the first point a crash can observe the block as final).
            let scope = self.region.fence_scope();
            let ino = self.new_inode(ctx, FileMode::dir(mode.perm), 2)?;
            let blk = match self.meta.alloc(PoolKind::DirBlock) {
                Ok(b) => b,
                Err(e) => {
                    self.meta.free(PoolKind::Inode, ino.ptr());
                    return Err(e);
                }
            };
            DirBlock(blk).init(&self.region, true);
            ino.set_extent(&self.region, 0, Extent { start: blk.off(), len: DIRBLOCK_SIZE });
            scope.commit();
            obj::clear_dirty(&self.region, blk);
            self.index.mark_complete(blk);
            self.index.set_tail(blk, blk);
            match dir::insert(&env, first, name, FileType::Directory, ino.ptr()) {
                Ok(_) => Ok(()),
                Err(e) => {
                    self.meta.free(PoolKind::DirBlock, blk);
                    self.meta.free(PoolKind::Inode, ino.ptr());
                    Err(e)
                }
            }
        })
    }

    fn rmdir(&self, ctx: &ProcCtx, p: &str) -> FsResult<()> {
        self.protected_op(RequestKind::Rmdir, OpClass::Meta, || {
            let (_, first, name) = self.resolve_parent(ctx, p)?;
            let env = self.dir_env();
            let fe = dir::lookup(&env, first, name).ok_or(FsError::NotFound)?;
            if fe.ftype(&self.region) != FileType::Directory {
                return Err(FsError::NotDir);
            }
            let child = Inode(fe.inode(&self.region));
            let child_blk = self.dir_block_of(child)?;
            if !dir::is_empty(&env, child_blk) {
                return Err(FsError::NotEmpty);
            }
            dir::remove(&env, first, name, |fe| {
                // Directories cannot be hard-linked: retire the inode
                // outright (its conventional nlink of 2 counts the
                // self-reference, which dies with the directory).
                let ino = Inode(fe.inode(&self.region));
                ino.set_nlink(&self.region, 1);
                self.drop_link(ino);
            })?;
            Ok(())
        })
    }

    fn rename(&self, ctx: &ProcCtx, old: &str, new: &str) -> FsResult<()> {
        self.protected_op(RequestKind::Rename, OpClass::Meta, || {
            let (_, src_blk, old_name) = self.resolve_parent(ctx, old)?;
            let (_, dst_blk, new_name) = self.resolve_parent(ctx, new)?;
            path::validate_name(new_name)?;
            let env = self.dir_env();
            let src_fe = dir::lookup(&env, src_blk, old_name).ok_or(FsError::NotFound)?;
            let moving_dir = src_fe.ftype(&self.region) == FileType::Directory;
            if moving_dir {
                let oc = path::components(old)?;
                let nc = path::components(new)?;
                if path::is_descendant(&oc, &nc) {
                    return Err(FsError::Invalid);
                }
            }
            // Target compatibility checks (POSIX rename).
            if let Some(tfe) = dir::lookup(&env, dst_blk, new_name) {
                if tfe.inode(&self.region) == src_fe.inode(&self.region) {
                    // Hard links to the same inode: rename is a no-op
                    // that leaves both names (POSIX).
                    return Ok(());
                }
                let target_dir = tfe.ftype(&self.region) == FileType::Directory;
                match (moving_dir, target_dir) {
                    (true, false) => return Err(FsError::NotDir),
                    (false, true) => return Err(FsError::IsDir),
                    (true, true) => {
                        let t = Inode(tfe.inode(&self.region));
                        if !dir::is_empty(&env, self.dir_block_of(t)?) {
                            return Err(FsError::NotEmpty);
                        }
                    }
                    (false, false) => {}
                }
            }
            let dispose = |fe: crate::obj::fentry::FileEntry| {
                self.drop_link(Inode(fe.inode(&self.region)));
            };
            if src_blk == dst_blk {
                dir::rename_same_dir(&env, src_blk, old_name, new_name, dispose)
            } else {
                dir::rename_cross_dir(&env, src_blk, old_name, dst_blk, new_name, dispose)
            }
        })
    }

    fn stat(&self, ctx: &ProcCtx, p: &str) -> FsResult<Stat> {
        self.protected_op(RequestKind::Stat, OpClass::Walk, || {
            let ino = self.resolve(ctx, p, true)?;
            Ok(ino.stat(&self.region))
        })
    }

    fn readdir(&self, ctx: &ProcCtx, p: &str) -> FsResult<Vec<DirEntry>> {
        self.protected_op(RequestKind::Readdir, OpClass::Walk, || {
            let ino = self.resolve(ctx, p, true)?;
            self.check_perm(ctx, ino, access::R)?;
            let first = self.dir_block_of(ino)?;
            let env = self.dir_env();
            let mut entries: Vec<DirEntry> = dir::scan(&env, first)
                .into_iter()
                .map(|(name, ftype, inode)| DirEntry { name, ftype, ino: inode.off() })
                .collect();
            entries.sort_by(|a, b| a.name.cmp(&b.name));
            Ok(entries)
        })
    }

    fn symlink(&self, ctx: &ProcCtx, target: &str, linkpath: &str) -> FsResult<()> {
        self.protected_op(RequestKind::Symlink, OpClass::Meta, || {
            let (_, first, name) = self.resolve_parent(ctx, linkpath)?;
            path::validate_name(name)?;
            let env = self.dir_env();
            // Group commit over the inode claim + init only: the target
            // write below relies on the data path's own data-before-size
            // fencing, so the scope must not extend over it.
            let scope = self.region.fence_scope();
            let ino = self.new_inode(ctx, FileMode::symlink(), 1)?;
            scope.commit();
            drop(scope);
            // A private cursor: the inode is not linked yet, and its
            // target is written only here (see `read_symlink`).
            let cursor = file::FileCursor::new();
            if let Err(e) = file::write_at(&self.file_env(&cursor), ino, 0, target.as_bytes()) {
                file::free_all(&self.region, &self.blocks, ino);
                self.meta.free(PoolKind::Inode, ino.ptr());
                return Err(e);
            }
            match dir::insert(&env, first, name, FileType::Symlink, ino.ptr()) {
                Ok(_) => Ok(()),
                Err(e) => {
                    file::free_all(&self.region, &self.blocks, ino);
                    self.meta.free(PoolKind::Inode, ino.ptr());
                    Err(e)
                }
            }
        })
    }

    fn readlink(&self, ctx: &ProcCtx, p: &str) -> FsResult<String> {
        self.protected_op(RequestKind::Readlink, OpClass::Walk, || {
            let ino = self.resolve(ctx, p, false)?;
            if ino.mode(&self.region).ftype != FileType::Symlink {
                return Err(FsError::Invalid);
            }
            self.read_symlink(ino)
        })
    }

    fn link(&self, ctx: &ProcCtx, existing: &str, new: &str) -> FsResult<()> {
        self.protected_op(RequestKind::Link, OpClass::Meta, || {
            let ino = self.resolve(ctx, existing, false)?;
            let ftype = ino.mode(&self.region).ftype;
            if ftype == FileType::Directory {
                return Err(FsError::IsDir);
            }
            let (_, first, name) = self.resolve_parent(ctx, new)?;
            path::validate_name(name)?;
            let env = self.dir_env();
            // A count already at 0 means a concurrent unlink removed the
            // last name and is retiring the inode: it may not gain one.
            if !ino.inc_nlink(&self.region) {
                return Err(FsError::NotFound);
            }
            match dir::insert(&env, first, name, ftype, ino.ptr()) {
                Ok(_) => Ok(()),
                Err(e) => {
                    self.drop_link(ino);
                    Err(e)
                }
            }
        })
    }

    fn chmod(&self, ctx: &ProcCtx, p: &str, perm: u16) -> FsResult<()> {
        self.protected_op(RequestKind::Chmod, OpClass::Ctl, || {
            let ino = self.resolve(ctx, p, true)?;
            if ctx.creds.uid != 0 && ctx.creds.uid != ino.uid(&self.region) {
                return Err(FsError::Access);
            }
            let mut m = ino.mode(&self.region);
            m.perm = perm & 0o777;
            ino.set_mode(&self.region, m);
            self.region.persist(ino.ptr().add(8), 4);
            Ok(())
        })
    }

    fn statfs(&self, _ctx: &ProcCtx) -> FsResult<FsStats> {
        self.protected_op(RequestKind::Statfs, OpClass::Ctl, || {
            Ok(FsStats {
                total_bytes: self.region.len() as u64,
                free_bytes: self.blocks.free_blocks() * crate::BLOCK_SIZE as u64,
                block_size: crate::BLOCK_SIZE as u32,
            })
        })
    }

    fn set_times(&self, ctx: &ProcCtx, p: &str, atime: u64, mtime: u64) -> FsResult<()> {
        self.protected_op(RequestKind::SetTimes, OpClass::Ctl, || {
            let ino = self.resolve(ctx, p, true)?;
            if ctx.creds.uid != 0 && ctx.creds.uid != ino.uid(&self.region) {
                return Err(FsError::Access);
            }
            ino.set_atime(&self.region, atime);
            ino.set_mtime(&self.region, mtime);
            self.region.persist(ino.ptr().add(32), 16);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fs() -> (SimurghFs, ProcCtx) {
        let region = Arc::new(PmemRegion::new(32 << 20));
        let fs = SimurghFs::format(region, SimurghConfig::default()).unwrap();
        (fs, ProcCtx::root(1))
    }

    #[test]
    fn format_creates_usable_root() {
        let (fs, ctx) = small_fs();
        assert_eq!(fs.readdir(&ctx, "/").unwrap().len(), 0);
        let st = fs.stat(&ctx, "/").unwrap();
        assert!(st.is_dir());
    }

    #[test]
    fn full_file_lifecycle() {
        let (fs, ctx) = small_fs();
        fs.write_file(&ctx, "/data.bin", b"payload").unwrap();
        assert_eq!(fs.read_to_vec(&ctx, "/data.bin").unwrap(), b"payload");
        let st = fs.stat(&ctx, "/data.bin").unwrap();
        assert_eq!(st.size, 7);
        fs.unlink(&ctx, "/data.bin").unwrap();
        assert_eq!(fs.stat(&ctx, "/data.bin").unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn directories_nest_and_enumerate() {
        let (fs, ctx) = small_fs();
        fs.mkdir(&ctx, "/a", FileMode::dir(0o755)).unwrap();
        fs.mkdir(&ctx, "/a/b", FileMode::dir(0o755)).unwrap();
        fs.write_file(&ctx, "/a/b/c.txt", b"x").unwrap();
        let names: Vec<_> = fs.readdir(&ctx, "/a/b").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["c.txt"]);
        assert_eq!(fs.rmdir(&ctx, "/a").unwrap_err(), FsError::NotEmpty);
        fs.unlink(&ctx, "/a/b/c.txt").unwrap();
        fs.rmdir(&ctx, "/a/b").unwrap();
        fs.rmdir(&ctx, "/a").unwrap();
    }

    #[test]
    fn rename_within_and_across_directories() {
        let (fs, ctx) = small_fs();
        fs.mkdir(&ctx, "/d1", FileMode::dir(0o755)).unwrap();
        fs.mkdir(&ctx, "/d2", FileMode::dir(0o755)).unwrap();
        fs.write_file(&ctx, "/d1/f", b"content").unwrap();
        fs.rename(&ctx, "/d1/f", "/d1/g").unwrap();
        assert_eq!(fs.read_to_vec(&ctx, "/d1/g").unwrap(), b"content");
        fs.rename(&ctx, "/d1/g", "/d2/h").unwrap();
        assert_eq!(fs.stat(&ctx, "/d1/g").unwrap_err(), FsError::NotFound);
        assert_eq!(fs.read_to_vec(&ctx, "/d2/h").unwrap(), b"content");
    }

    #[test]
    fn rename_dir_into_own_subtree_rejected() {
        let (fs, ctx) = small_fs();
        fs.mkdir(&ctx, "/top", FileMode::dir(0o755)).unwrap();
        fs.mkdir(&ctx, "/top/sub", FileMode::dir(0o755)).unwrap();
        assert_eq!(fs.rename(&ctx, "/top", "/top/sub/evil").unwrap_err(), FsError::Invalid);
    }

    #[test]
    fn hard_links_and_nlink() {
        let (fs, ctx) = small_fs();
        fs.write_file(&ctx, "/orig", b"shared").unwrap();
        fs.link(&ctx, "/orig", "/alias").unwrap();
        let a = fs.stat(&ctx, "/orig").unwrap();
        let b = fs.stat(&ctx, "/alias").unwrap();
        assert_eq!(a.ino, b.ino);
        assert_eq!(a.nlink, 2);
        fs.unlink(&ctx, "/orig").unwrap();
        assert_eq!(fs.read_to_vec(&ctx, "/alias").unwrap(), b"shared");
        assert_eq!(fs.stat(&ctx, "/alias").unwrap().nlink, 1);
    }

    #[test]
    fn symlinks_follow_and_readlink() {
        let (fs, ctx) = small_fs();
        fs.mkdir(&ctx, "/real", FileMode::dir(0o755)).unwrap();
        fs.write_file(&ctx, "/real/f", b"deep").unwrap();
        fs.symlink(&ctx, "/real", "/lnk").unwrap();
        assert_eq!(fs.read_to_vec(&ctx, "/lnk/f").unwrap(), b"deep");
        assert_eq!(fs.readlink(&ctx, "/lnk").unwrap(), "/real");
        assert!(fs.stat(&ctx, "/lnk").unwrap().is_dir());
        // Loop detection.
        fs.symlink(&ctx, "/loop2", "/loop1").unwrap();
        fs.symlink(&ctx, "/loop1", "/loop2").unwrap();
        assert_eq!(fs.stat(&ctx, "/loop1").unwrap_err(), FsError::TooManyLinks);
    }

    #[test]
    fn unlinked_open_file_remains_readable_until_close() {
        let (fs, ctx) = small_fs();
        fs.write_file(&ctx, "/ghost", b"boo").unwrap();
        let fd = fs.open(&ctx, "/ghost", OpenFlags::RDONLY, FileMode::default()).unwrap();
        fs.unlink(&ctx, "/ghost").unwrap();
        assert_eq!(fs.stat(&ctx, "/ghost").unwrap_err(), FsError::NotFound);
        let mut buf = [0u8; 3];
        assert_eq!(fs.pread(&ctx, fd, &mut buf, 0).unwrap(), 3);
        assert_eq!(&buf, b"boo");
        fs.close(&ctx, fd).unwrap();
    }

    #[test]
    fn append_mode_appends() {
        let (fs, ctx) = small_fs();
        let fd = fs.open(&ctx, "/log", OpenFlags::APPEND, FileMode::default()).unwrap();
        fs.write(&ctx, fd, b"one,").unwrap();
        fs.write(&ctx, fd, b"two").unwrap();
        fs.close(&ctx, fd).unwrap();
        assert_eq!(fs.read_to_vec(&ctx, "/log").unwrap(), b"one,two");
    }

    #[test]
    fn permissions_checked_on_walk_and_open() {
        let (fs, root) = small_fs();
        fs.mkdir(&root, "/secret", FileMode::dir(0o700)).unwrap();
        fs.write_file(&root, "/secret/key", b"k").unwrap();
        fs.write_file(&root, "/open", b"o").unwrap();
        fs.chmod(&root, "/open", 0o600).unwrap();
        let user = ProcCtx::new(9, simurgh_fsapi::Credentials::user(1000, 1000));
        assert_eq!(fs.stat(&user, "/secret/key").unwrap_err(), FsError::Access);
        assert_eq!(
            fs.open(&user, "/open", OpenFlags::RDONLY, FileMode::default()).unwrap_err(),
            FsError::Access
        );
        assert_eq!(fs.chmod(&user, "/open", 0o777).unwrap_err(), FsError::Access);
        assert_eq!(fs.unlink(&user, "/open").unwrap_err(), FsError::Access);
    }

    #[test]
    fn concurrent_shared_directory_creates() {
        let region = Arc::new(PmemRegion::new(64 << 20));
        let fs = Arc::new(SimurghFs::format(region, SimurghConfig::default()).unwrap());
        fs.mkdir(&ProcCtx::root(0), "/shared", FileMode::dir(0o777)).unwrap();
        crossbeam::thread::scope(|s| {
            for t in 0..4u32 {
                let fs = &fs;
                s.spawn(move |_| {
                    let ctx = ProcCtx::root(t + 1);
                    for i in 0..50 {
                        let fd = fs
                            .create(&ctx, &format!("/shared/t{t}-f{i}"), FileMode::default())
                            .unwrap();
                        fs.close(&ctx, fd).unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(fs.readdir(&ProcCtx::root(0), "/shared").unwrap().len(), 200);
    }

    #[test]
    fn pressure_returns_open_files_parked_runs() {
        // File A parks a run after its tail and every other free block is
        // claimed outright: file B's append only fits if A's run comes
        // back, which the allocator's pressure hook does before failing.
        let (fs, ctx) = small_fs();
        let rw = OpenFlags { read: true, ..OpenFlags::CREATE };
        let a = fs.open(&ctx, "/a", rw, FileMode::default()).unwrap();
        let b = fs.open(&ctx, "/b", rw, FileMode::default()).unwrap();
        for i in 0..4u64 {
            fs.pwrite(&ctx, a, &[0xa0; 4096], i * 4096).unwrap();
        }
        let blocks = fs.block_alloc();
        let parked = blocks.reserved_idle_blocks();
        assert!(parked > 0, "A's appends parked a run");
        for hint in 0.. {
            if blocks.free_blocks() == 0 {
                break;
            }
            blocks.alloc(hint, 1).unwrap();
        }
        assert_eq!(blocks.reserved_idle_blocks(), parked);
        fs.pwrite(&ctx, b, &[0xb0; 4096], 0).expect("B's append fits in A's returned run");
        assert_eq!(blocks.reserved_idle_blocks(), 0);
        let mut buf = [0u8; 4096];
        assert_eq!(fs.pread(&ctx, b, &mut buf, 0).unwrap(), 4096);
        assert!(buf.iter().all(|&x| x == 0xb0));
        assert_eq!(fs.pread(&ctx, a, &mut buf, 3 * 4096).unwrap(), 4096);
        assert!(buf.iter().all(|&x| x == 0xa0), "A's data untouched");
        fs.close(&ctx, a).unwrap();
        fs.close(&ctx, b).unwrap();
    }

    #[test]
    fn quiesce_returns_every_open_files_parked_run() {
        // Two threads leave growing files open and a third quiesces: every
        // parked run comes back, so closing the files frees nothing more.
        let (fs, _) = small_fs();
        let open: Vec<(ProcCtx, Fd)> = std::thread::scope(|s| {
            let grow = |t: u32| {
                let fs = &fs;
                move || {
                    let ctx = ProcCtx::root(t + 1);
                    let fd = fs.open(&ctx, &format!("/grow{t}"), OpenFlags::CREATE, FileMode::default());
                    let fd = fd.unwrap();
                    for i in 0..10u64 {
                        fs.pwrite(&ctx, fd, &[t as u8; 4096], i * 4096).unwrap();
                    }
                    (ctx, fd)
                }
            };
            let threads = [s.spawn(grow(0)), s.spawn(grow(1))];
            threads.map(|h| h.join().unwrap()).into()
        });
        let blocks = fs.block_alloc();
        assert!(blocks.reserved_idle_blocks() > 0, "both files parked runs");
        std::thread::scope(|s| s.spawn(|| fs.quiesce_thread_caches()).join().unwrap());
        assert_eq!(blocks.reserved_idle_blocks(), 0);
        let quiesced = blocks.free_blocks();
        for (ctx, fd) in open {
            fs.close(&ctx, fd).unwrap();
        }
        assert_eq!(blocks.free_blocks(), quiesced, "closing found nothing left to return");
    }

    #[test]
    fn ftruncate_and_fallocate() {
        let (fs, ctx) = small_fs();
        let fd = fs.open(&ctx, "/t", OpenFlags::CREATE, FileMode::default()).unwrap();
        fs.fallocate(&ctx, fd, 0, 1 << 20).unwrap();
        assert_eq!(fs.fstat(&ctx, fd).unwrap().size, 1 << 20);
        fs.ftruncate(&ctx, fd, 100).unwrap();
        assert_eq!(fs.fstat(&ctx, fd).unwrap().size, 100);
        fs.close(&ctx, fd).unwrap();
    }

    #[test]
    fn lseek_semantics() {
        let (fs, ctx) = small_fs();
        fs.write_file(&ctx, "/s", b"0123456789").unwrap();
        let fd = fs.open(&ctx, "/s", OpenFlags::RDWR, FileMode::default()).unwrap();
        assert_eq!(fs.lseek(&ctx, fd, SeekFrom::End(-4)).unwrap(), 6);
        let mut buf = [0u8; 4];
        assert_eq!(fs.read(&ctx, fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"6789");
        assert_eq!(fs.lseek(&ctx, fd, SeekFrom::Current(-2)).unwrap(), 8);
        assert_eq!(fs.lseek(&ctx, fd, SeekFrom::Current(-20)).unwrap_err(), FsError::Invalid);
        fs.close(&ctx, fd).unwrap();
    }

    #[test]
    fn set_times_roundtrip() {
        let (fs, ctx) = small_fs();
        fs.write_file(&ctx, "/f", b"").unwrap();
        fs.set_times(&ctx, "/f", 1234, 5678).unwrap();
        let st = fs.stat(&ctx, "/f").unwrap();
        assert_eq!((st.atime, st.mtime), (1234, 5678));
    }

    #[test]
    fn stat_ino_is_persistent_pointer() {
        let (fs, ctx) = small_fs();
        fs.write_file(&ctx, "/p", b"").unwrap();
        let st = fs.stat(&ctx, "/p").unwrap();
        // The inode id is a valid offset into the region pointing at a
        // valid inode object — the paper's "no inode numbers" design.
        let ino = Inode(PPtr::new(st.ino));
        assert_eq!(ino.stat(&fs.region).size, 0);
    }
}
