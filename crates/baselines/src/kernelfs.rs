//! The generic modelled kernel file system.
//!
//! One implementation serves all four baselines; an [`FsProfile`] selects
//! the directory index, allocator, journal and data-path mechanisms. File
//! *data* lives in the shared pmem region (so copies cost what Simurgh's
//! copies cost); metadata lives in volatile maps guarded by the modelled
//! VFS locks — the baselines are never crash-tested, only benchmarked, and
//! their crash consistency is represented by their journal traffic.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use simurgh_fsapi::fs::{DirEntry, FileSystem, OpenTable, ProcCtx};
use simurgh_fsapi::types::{access, Fd, FileMode, FileType, FsStats, OpenFlags, SeekFrom, Stat};
use simurgh_fsapi::{path, FsError, FsResult, OpTimers, TimerCategory};
use simurgh_pmem::{PPtr, PmemRegion};

use crate::profile::{AllocKind, DirKind, FsProfile, JournalKind};
use crate::vfs::{DentryCache, DirLocks, RwSem, SyscallMeter};

const BLOCK: u64 = 4096;
const ROOT_INO: u64 = 1;
const JOURNAL_OFF: u64 = 4096;
const JOURNAL_LEN: u64 = 4 << 20;
const SYMLINK_HOPS: usize = 16;

// ---------------------------------------------------------------------------
// Directory index per profile
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum DirIndex {
    Hash(HashMap<String, u64>),
    /// PMFS: unsorted dirents; every lookup/remove scans.
    Linear(Vec<(String, u64)>),
    Tree(BTreeMap<String, u64>),
}

impl DirIndex {
    fn new(kind: DirKind) -> Self {
        match kind {
            DirKind::Hash => DirIndex::Hash(HashMap::new()),
            DirKind::Linear => DirIndex::Linear(Vec::new()),
            DirKind::Tree => DirIndex::Tree(BTreeMap::new()),
        }
    }

    fn get(&self, name: &str) -> Option<u64> {
        match self {
            DirIndex::Hash(m) => m.get(name).copied(),
            DirIndex::Linear(v) => v.iter().find(|(n, _)| n == name).map(|(_, i)| *i),
            DirIndex::Tree(m) => m.get(name).copied(),
        }
    }

    fn insert(&mut self, name: String, ino: u64) {
        match self {
            DirIndex::Hash(m) => {
                m.insert(name, ino);
            }
            DirIndex::Linear(v) => v.push((name, ino)),
            DirIndex::Tree(m) => {
                m.insert(name, ino);
            }
        }
    }

    fn remove(&mut self, name: &str) -> Option<u64> {
        match self {
            DirIndex::Hash(m) => m.remove(name),
            DirIndex::Linear(v) => {
                let idx = v.iter().position(|(n, _)| n == name)?;
                Some(v.remove(idx).1) // O(n) shift, like PMFS's dirent scan
            }
            DirIndex::Tree(m) => m.remove(name),
        }
    }

    fn len(&self) -> usize {
        match self {
            DirIndex::Hash(m) => m.len(),
            DirIndex::Linear(v) => v.len(),
            DirIndex::Tree(m) => m.len(),
        }
    }

    fn entries(&self) -> Vec<(String, u64)> {
        match self {
            DirIndex::Hash(m) => m.iter().map(|(n, i)| (n.clone(), *i)).collect(),
            DirIndex::Linear(v) => v.clone(),
            DirIndex::Tree(m) => m.iter().map(|(n, i)| (n.clone(), *i)).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Block pool & journal
// ---------------------------------------------------------------------------

struct BlockPool {
    kind: AllocKind,
    serial: Mutex<Vec<(u64, u64)>>,
    shards: Vec<Mutex<Vec<(u64, u64)>>>,
}

impl BlockPool {
    fn new(kind: AllocKind, first_block: u64, nblocks: u64) -> Self {
        const NSHARDS: u64 = 8;
        match kind {
            AllocKind::Serial => BlockPool {
                kind,
                serial: Mutex::new(vec![(first_block, nblocks)]),
                shards: Vec::new(),
            },
            AllocKind::PerCpu => {
                let per = nblocks / NSHARDS;
                let mut shards = Vec::new();
                for s in 0..NSHARDS {
                    let start = first_block + s * per;
                    let len = if s == NSHARDS - 1 { nblocks - s * per } else { per };
                    shards.push(Mutex::new(vec![(start, len)]));
                }
                BlockPool { kind, serial: Mutex::new(Vec::new()), shards }
            }
        }
    }

    fn take(list: &mut Vec<(u64, u64)>, blocks: u64) -> Option<u64> {
        let idx = list.iter().position(|&(_, len)| len >= blocks)?;
        let (start, len) = list[idx];
        if len == blocks {
            list.remove(idx);
        } else {
            list[idx] = (start + blocks, len - blocks);
        }
        Some(start)
    }

    fn alloc(&self, blocks: u64) -> Option<u64> {
        match self.kind {
            AllocKind::Serial => Self::take(&mut self.serial.lock(), blocks),
            AllocKind::PerCpu => {
                let tid = std::thread::current().id();
                let mut h = std::collections::hash_map::DefaultHasher::new();
                use std::hash::{Hash, Hasher};
                tid.hash(&mut h);
                let start = (h.finish() as usize) % self.shards.len();
                for i in 0..self.shards.len() {
                    let shard = &self.shards[(start + i) % self.shards.len()];
                    if let Some(b) = Self::take(&mut shard.lock(), blocks) {
                        return Some(b);
                    }
                }
                None
            }
        }
    }

    fn free(&self, first: u64, blocks: u64) {
        match self.kind {
            AllocKind::Serial => self.serial.lock().push((first, blocks)),
            AllocKind::PerCpu => self.shards[0].lock().push((first, blocks)),
        }
    }
}

/// Journals metadata operations with *real* pmem traffic per the profile.
struct Journal {
    kind: JournalKind,
    region: Arc<PmemRegion>,
    /// Rotating cursors; PerInode shards by inode, others use slot 0.
    cursors: Vec<AtomicU64>,
    global: Mutex<u32>,
    payload: Vec<u8>,
}

impl Journal {
    fn new(kind: JournalKind, region: Arc<PmemRegion>) -> Self {
        let max_bytes = match kind {
            JournalKind::PerInode { bytes } | JournalKind::GlobalMutex { bytes } => bytes,
            JournalKind::Batched { bytes, commit_bytes, .. } => bytes.max(commit_bytes),
        };
        Journal {
            kind,
            region,
            cursors: (0..16).map(|_| AtomicU64::new(0)).collect(),
            global: Mutex::new(0),
            payload: vec![0xa5; max_bytes],
        }
    }

    fn slot_write(&self, shard: usize, bytes: usize, persist: bool) {
        let lane = JOURNAL_LEN / 16;
        let cur = self.cursors[shard].fetch_add(bytes as u64, Ordering::Relaxed) % (lane - BLOCK);
        let off = PPtr::new(JOURNAL_OFF + shard as u64 * lane + cur);
        self.region.write_from(off, &self.payload[..bytes]);
        if persist {
            self.region.persist(off, bytes);
        }
    }

    /// Charges one metadata operation on `ino`.
    fn meta_op(&self, ino: u64) {
        match self.kind {
            JournalKind::PerInode { bytes } => {
                self.slot_write((ino as usize) % 16, bytes, true);
            }
            JournalKind::GlobalMutex { bytes } => {
                let _g = self.global.lock();
                self.slot_write(0, bytes, true);
            }
            JournalKind::Batched { bytes, flush_every, commit_bytes } => {
                let mut count = self.global.lock();
                self.slot_write(0, bytes, false);
                *count += 1;
                if *count >= flush_every {
                    *count = 0;
                    self.slot_write(0, commit_bytes, true);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum KKind {
    File { extents: Vec<(u64, u64)>, size: u64, allocated: u64 },
    Dir(DirIndex),
    Symlink(String),
}

#[derive(Debug, Clone)]
struct KNode {
    kind: KKind,
    perm: u16,
    uid: u32,
    gid: u32,
    nlink: u32,
    atime: u64,
    mtime: u64,
    ctime: u64,
}

impl KNode {
    fn ftype(&self) -> FileType {
        match self.kind {
            KKind::File { .. } => FileType::Regular,
            KKind::Dir(_) => FileType::Directory,
            KKind::Symlink(_) => FileType::Symlink,
        }
    }

    fn size(&self) -> u64 {
        match &self.kind {
            KKind::File { size, .. } => *size,
            KKind::Dir(d) => d.len() as u64,
            KKind::Symlink(t) => t.len() as u64,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct KOpen {
    ino: u64,
    pos: u64,
    flags: OpenFlags,
}

/// The modelled kernel file system.
pub struct KernelFs {
    region: Arc<PmemRegion>,
    profile: FsProfile,
    nodes: RwLock<HashMap<u64, Arc<RwLock<KNode>>>>,
    next_ino: AtomicU64,
    dcache: DentryCache,
    dir_locks: DirLocks,
    rwsems: Mutex<HashMap<u64, Arc<RwSem>>>,
    syscall: SyscallMeter,
    pool: BlockPool,
    journal: Journal,
    opens: OpenTable<KOpen>,
    timers: OpTimers,
    clock: AtomicU64,
}

impl KernelFs {
    pub fn new(region: Arc<PmemRegion>, profile: FsProfile) -> Self {
        let data_start = JOURNAL_OFF + JOURNAL_LEN;
        assert!(region.len() as u64 > data_start + BLOCK, "region too small for a baseline fs");
        let nblocks = (region.len() as u64 - data_start) / BLOCK;
        let mut nodes = HashMap::new();
        nodes.insert(
            ROOT_INO,
            Arc::new(RwLock::new(KNode {
                kind: KKind::Dir(DirIndex::new(profile.dir)),
                perm: 0o755,
                uid: 0,
                gid: 0,
                nlink: 2,
                atime: 0,
                mtime: 0,
                ctime: 0,
            })),
        );
        KernelFs {
            journal: Journal::new(profile.journal, region.clone()),
            pool: BlockPool::new(profile.alloc, data_start / BLOCK, nblocks),
            region,
            profile,
            nodes: RwLock::new(nodes),
            next_ino: AtomicU64::new(2),
            dcache: DentryCache::default(),
            dir_locks: DirLocks::default(),
            rwsems: Mutex::new(HashMap::new()),
            syscall: SyscallMeter::new(profile.syscall),
            opens: OpenTable::new(),
            timers: OpTimers::default(),
            clock: AtomicU64::new(1),
        }
    }

    /// Breakdown counters (Table 1 harness).
    pub fn timers(&self) -> &OpTimers {
        &self.timers
    }

    /// Number of syscalls charged so far (diagnostics).
    pub fn syscalls(&self) -> u64 {
        self.syscall.calls()
    }

    fn now(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn node(&self, ino: u64) -> FsResult<Arc<RwLock<KNode>>> {
        self.nodes.read().get(&ino).cloned().ok_or(FsError::BadFd)
    }

    fn rwsem(&self, ino: u64) -> Arc<RwSem> {
        self.rwsems.lock().entry(ino).or_insert_with(|| Arc::new(RwSem::default())).clone()
    }

    fn alloc_node(&self, node: KNode) -> u64 {
        let ino = self.next_ino.fetch_add(1, Ordering::Relaxed);
        self.nodes.write().insert(ino, Arc::new(RwLock::new(node)));
        ino
    }

    fn drop_node(&self, ino: u64) {
        if let Some(n) = self.nodes.write().remove(&ino) {
            let n = n.read();
            if let KKind::File { extents, .. } = &n.kind {
                for (start, len) in extents {
                    self.pool.free(start / BLOCK, len.div_ceil(BLOCK));
                }
            }
        }
        self.rwsems.lock().remove(&ino);
        self.dir_locks.forget(ino);
    }

    /// Resolves a path; the VFS walk: dcache first, directory index on miss.
    fn resolve(&self, ctx: &ProcCtx, p: &str, follow_final: bool) -> FsResult<u64> {
        let comps = path::components(p)?;
        self.walk(ctx, &comps, follow_final, 0)
    }

    fn walk(&self, ctx: &ProcCtx, comps: &[&str], follow_final: bool, hops: usize) -> FsResult<u64> {
        if hops > SYMLINK_HOPS {
            return Err(FsError::TooManyLinks);
        }
        let mut cur = ROOT_INO;
        for (i, comp) in comps.iter().enumerate() {
            let dir = self.node(cur).map_err(|_| FsError::NotFound)?;
            {
                let d = dir.read();
                if !matches!(d.kind, KKind::Dir(_)) {
                    return Err(FsError::NotDir);
                }
                if !ctx.creds.may(access::X, d.perm, d.uid, d.gid) {
                    return Err(FsError::Access);
                }
            }
            let next = match self.dcache.lookup(cur, comp) {
                Some(ino) => ino,
                None => {
                    let d = dir.read();
                    let KKind::Dir(index) = &d.kind else {
                        return Err(FsError::NotDir);
                    };
                    let ino = index.get(comp).ok_or(FsError::NotFound)?;
                    drop(d);
                    self.dcache.insert(cur, comp, ino);
                    ino
                }
            };
            let is_final = i + 1 == comps.len();
            let node = self.node(next).map_err(|_| FsError::NotFound)?;
            let target = {
                let n = node.read();
                match &n.kind {
                    KKind::Symlink(t) if !is_final || follow_final => Some(t.clone()),
                    _ => None,
                }
            };
            if let Some(t) = target {
                let tcomps = path::components(&t)?;
                let resolved = self.walk(ctx, &tcomps, true, hops + 1)?;
                if is_final {
                    return Ok(resolved);
                }
                cur = resolved;
            } else {
                cur = next;
            }
        }
        Ok(cur)
    }

    fn resolve_parent<'p>(&self, ctx: &ProcCtx, p: &'p str) -> FsResult<(u64, &'p str)> {
        let (parent, name) = path::split_parent(p)?;
        let dir = self.walk(ctx, &parent, true, 0)?;
        let node = self.node(dir)?;
        let n = node.read();
        if !matches!(n.kind, KKind::Dir(_)) {
            return Err(FsError::NotDir);
        }
        if !ctx.creds.may(access::W | access::X, n.perm, n.uid, n.gid) {
            return Err(FsError::Access);
        }
        Ok((dir, name))
    }

    fn stat_of(&self, ino: u64) -> FsResult<Stat> {
        let node = self.node(ino)?;
        let n = node.read();
        Ok(Stat {
            ino,
            mode: FileMode { ftype: n.ftype(), perm: n.perm },
            uid: n.uid,
            gid: n.gid,
            size: n.size(),
            nlink: n.nlink,
            atime: n.atime,
            mtime: n.mtime,
            ctime: n.ctime,
        })
    }

    /// Grows a file's allocation; staging-aware for SplitFS appends.
    fn grow(&self, node: &mut KNode, want: u64) -> FsResult<()> {
        let KKind::File { extents, allocated, .. } = &mut node.kind else {
            return Err(FsError::IsDir);
        };
        if want <= *allocated {
            return Ok(());
        }
        let staging = self.profile.append_staging as u64;
        let need = want - *allocated;
        // Staged growth doubles from 64 KB up to the staging region size,
        // so small files do not each pin a whole 2-MB region.
        let chunk_bytes = if staging > 0 {
            need.max(staging.min((*allocated).max(64 * 1024)))
        } else {
            need
        };
        let mut blocks = chunk_bytes.div_ceil(BLOCK);
        while blocks > 0 {
            let mut try_blocks = blocks;
            let got = loop {
                match self.pool.alloc(try_blocks) {
                    Some(b) => break Some((b, try_blocks)),
                    None if try_blocks > 1 => try_blocks = try_blocks.div_ceil(2),
                    None => break None,
                }
            };
            let Some((b, n)) = got else {
                return Err(FsError::NoSpace);
            };
            let bytes = n * BLOCK;
            // Merge with physical tail when contiguous.
            if let Some(last) = extents.last_mut() {
                if last.0 + last.1 == b * BLOCK {
                    last.1 += bytes;
                } else {
                    extents.push((b * BLOCK, bytes));
                }
            } else {
                extents.push((b * BLOCK, bytes));
            }
            *allocated += bytes;
            blocks -= n;
            if *allocated >= want {
                break;
            }
        }
        Ok(())
    }

    fn map_off(extents: &[(u64, u64)], off: u64) -> Option<(u64, u64)> {
        let mut logical = 0;
        for &(start, len) in extents {
            if off < logical + len {
                return Some((start + (off - logical), len - (off - logical)));
            }
            logical += len;
        }
        None
    }

    fn write_node(&self, node: &mut KNode, off: u64, data: &[u8]) -> FsResult<usize> {
        let end = off + data.len() as u64;
        self.grow(node, end)?;
        let KKind::File { extents, size, .. } = &mut node.kind else {
            return Err(FsError::IsDir);
        };
        // Zero-fill a hole if writing past the current end.
        if off > *size {
            let mut pos = *size;
            let zeros = [0u8; 4096];
            while pos < off {
                let (addr, avail) = Self::map_off(extents, pos).ok_or(FsError::NoSpace)?;
                let n = (off - pos).min(avail).min(4096);
                self.region.write_from(PPtr::new(addr), &zeros[..n as usize]);
                pos += n;
            }
        }
        let mut done = 0usize;
        while done < data.len() {
            let (addr, avail) =
                Self::map_off(extents, off + done as u64).ok_or(FsError::NoSpace)?;
            let n = (data.len() - done).min(avail as usize);
            self.region.write_from(PPtr::new(addr), &data[done..done + n]);
            self.region.persist(PPtr::new(addr), n);
            done += n;
        }
        if end > *size {
            *size = end;
        }
        node.mtime = self.now();
        Ok(data.len())
    }

    fn read_node(&self, node: &KNode, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let KKind::File { extents, size, .. } = &node.kind else {
            return Err(FsError::IsDir);
        };
        if off >= *size {
            return Ok(0);
        }
        let want = buf.len().min((*size - off) as usize);
        let mut done = 0usize;
        while done < want {
            let Some((addr, avail)) = Self::map_off(extents, off + done as u64) else {
                break;
            };
            let n = (want - done).min(avail as usize);
            self.region.read_into(PPtr::new(addr), &mut buf[done..done + n]);
            done += n;
        }
        Ok(done)
    }

    fn create_in(
        &self,
        _ctx: &ProcCtx,
        dir_ino: u64,
        name: &str,
        node: KNode,
        excl_err: FsError,
    ) -> FsResult<u64> {
        path::validate_name(name)?;
        let dir_lock = self.dir_locks.get(dir_ino);
        let _dg = dir_lock.lock(); // i_rwsem exclusive: serializes the dir
        let dirn = self.node(dir_ino)?;
        {
            let d = dirn.read();
            let KKind::Dir(index) = &d.kind else {
                return Err(FsError::NotDir);
            };
            if index.get(name).is_some() {
                return Err(excl_err);
            }
        }
        let ino = self.alloc_node(node);
        {
            let mut d = dirn.write();
            let KKind::Dir(index) = &mut d.kind else {
                return Err(FsError::NotDir);
            };
            index.insert(name.to_owned(), ino);
            d.mtime = self.now();
        }
        self.dcache.insert(dir_ino, name, ino);
        self.journal.meta_op(dir_ino);
        Ok(ino)
    }

    fn charge_meta(&self) {
        self.syscall.charge();
        self.syscall.charge_cycles(self.profile.meta_path_cycles);
    }

    fn with_open(&self, ctx: &ProcCtx, fd: Fd) -> FsResult<KOpen> {
        self.opens.with(ctx.pid, fd, |o| *o)
    }
}

impl FileSystem for KernelFs {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn open(&self, ctx: &ProcCtx, p: &str, flags: OpenFlags, mode: FileMode) -> FsResult<Fd> {
        self.charge_meta();
        self.timers.time(TimerCategory::Fs, || {
            let ino = match self.resolve(ctx, p, true) {
                Ok(ino) => {
                    if flags.excl && flags.create {
                        return Err(FsError::Exists);
                    }
                    let node = self.node(ino)?;
                    {
                        let n = node.read();
                        if matches!(n.kind, KKind::Dir(_)) && flags.write {
                            return Err(FsError::IsDir);
                        }
                        let mut want = 0;
                        if flags.read {
                            want |= access::R;
                        }
                        if flags.write {
                            want |= access::W;
                        }
                        if want != 0 && !ctx.creds.may(want, n.perm, n.uid, n.gid) {
                            return Err(FsError::Access);
                        }
                    }
                    if flags.truncate && flags.write {
                        let mut n = node.write();
                        if let KKind::File { size, .. } = &mut n.kind {
                            *size = 0;
                        }
                        self.journal.meta_op(ino);
                    }
                    ino
                }
                Err(FsError::NotFound) if flags.create => {
                    let (dir, name) = self.resolve_parent(ctx, p)?;
                    let now = self.now();
                    self.create_in(
                        ctx,
                        dir,
                        name,
                        KNode {
                            kind: KKind::File { extents: Vec::new(), size: 0, allocated: 0 },
                            perm: mode.perm,
                            uid: ctx.creds.uid,
                            gid: ctx.creds.gid,
                            nlink: 1,
                            atime: now,
                            mtime: now,
                            ctime: now,
                        },
                        FsError::Exists,
                    )
                    .or_else(|e| {
                        if e == FsError::Exists && !flags.excl {
                            self.resolve(ctx, p, true)
                        } else {
                            Err(e)
                        }
                    })?
                }
                Err(e) => return Err(e),
            };
            let pos = if flags.append { self.node(ino)?.read().size() } else { 0 };
            Ok(self.opens.insert(ctx.pid, KOpen { ino, pos, flags }))
        })
    }

    fn close(&self, ctx: &ProcCtx, fd: Fd) -> FsResult<()> {
        self.syscall.charge();
        self.opens.remove(ctx.pid, fd).map(|_| ())
    }

    fn read(&self, ctx: &ProcCtx, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        let open = self.with_open(ctx, fd)?;
        let n = self.pread(ctx, fd, buf, open.pos)?;
        self.opens.with_mut(ctx.pid, fd, |o| o.pos += n as u64)?;
        Ok(n)
    }

    fn write(&self, ctx: &ProcCtx, fd: Fd, data: &[u8]) -> FsResult<usize> {
        let open = self.with_open(ctx, fd)?;
        let off = if open.flags.append { self.node(open.ino)?.read().size() } else { open.pos };
        let n = self.pwrite(ctx, fd, data, off)?;
        self.opens.with_mut(ctx.pid, fd, |o| o.pos = off + n as u64)?;
        Ok(n)
    }

    fn pread(&self, ctx: &ProcCtx, fd: Fd, buf: &mut [u8], off: u64) -> FsResult<usize> {
        if !self.profile.userspace_data {
            self.syscall.charge();
        }
        self.syscall.charge_cycles(self.profile.data_path_cycles);
        self.timers.time(TimerCategory::Fs, || {
            let open = self.with_open(ctx, fd)?;
            if !open.flags.read {
                return Err(FsError::BadFd);
            }
            let sem = self.rwsem(open.ino);
            let _r = sem.read(); // the shared-file reader bottleneck
            let node = self.node(open.ino)?;
            let n = node.read();
            self.timers.time(TimerCategory::Copy, || self.read_node(&n, off, buf))
        })
    }

    fn pwrite(&self, ctx: &ProcCtx, fd: Fd, data: &[u8], off: u64) -> FsResult<usize> {
        let open = self.with_open(ctx, fd)?;
        if !open.flags.write {
            return Err(FsError::BadFd);
        }
        // SplitFS: staged appends stay in user space (no syscall). Writes
        // that need a metadata update still journal through EXT4.
        let mut needs_journal = true;
        if self.profile.userspace_data {
            let node = self.node(open.ino)?;
            let n = node.read();
            if let KKind::File { allocated, .. } = &n.kind {
                if off + data.len() as u64 <= *allocated {
                    needs_journal = false; // fits staging: pure user space
                }
            }
        } else {
            self.syscall.charge();
        }
        self.syscall.charge_cycles(self.profile.data_path_cycles);
        self.timers.time(TimerCategory::Fs, || {
            let sem = self.rwsem(open.ino);
            let _w = sem.write();
            let node = self.node(open.ino)?;
            let mut n = node.write();
            let out = self.timers.time(TimerCategory::Copy, || self.write_node(&mut n, off, data))?;
            drop(n);
            if needs_journal {
                self.journal.meta_op(open.ino);
            }
            Ok(out)
        })
    }

    fn lseek(&self, ctx: &ProcCtx, fd: Fd, pos: SeekFrom) -> FsResult<u64> {
        self.syscall.charge();
        let open = self.with_open(ctx, fd)?;
        let size = self.node(open.ino)?.read().size();
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
    }

    fn fsync(&self, ctx: &ProcCtx, fd: Fd) -> FsResult<()> {
        self.syscall.charge();
        let _ = self.with_open(ctx, fd)?;
        self.region.fence();
        Ok(())
    }

    fn fstat(&self, ctx: &ProcCtx, fd: Fd) -> FsResult<Stat> {
        self.syscall.charge();
        let open = self.with_open(ctx, fd)?;
        self.stat_of(open.ino)
    }

    fn ftruncate(&self, ctx: &ProcCtx, fd: Fd, len: u64) -> FsResult<()> {
        self.charge_meta();
        let open = self.with_open(ctx, fd)?;
        if !open.flags.write {
            return Err(FsError::BadFd);
        }
        let node = self.node(open.ino)?;
        {
            let mut n = node.write();
            let want = len;
            self.grow(&mut n, want)?;
            let KKind::File { size, .. } = &mut n.kind else {
                return Err(FsError::IsDir);
            };
            *size = len;
        }
        self.journal.meta_op(open.ino);
        Ok(())
    }

    fn fallocate(&self, ctx: &ProcCtx, fd: Fd, off: u64, len: u64) -> FsResult<()> {
        self.charge_meta();
        let open = self.with_open(ctx, fd)?;
        if !open.flags.write {
            return Err(FsError::BadFd);
        }
        let node = self.node(open.ino)?;
        {
            let mut n = node.write();
            self.grow(&mut n, off + len)?;
            let KKind::File { size, .. } = &mut n.kind else {
                return Err(FsError::IsDir);
            };
            if off + len > *size {
                *size = off + len;
            }
        }
        self.journal.meta_op(open.ino);
        Ok(())
    }

    fn unlink(&self, ctx: &ProcCtx, p: &str) -> FsResult<()> {
        self.charge_meta();
        self.timers.time(TimerCategory::Fs, || {
            let (dir, name) = self.resolve_parent(ctx, p)?;
            let dir_lock = self.dir_locks.get(dir);
            let _dg = dir_lock.lock();
            let dirn = self.node(dir)?;
            let ino = {
                let d = dirn.read();
                let KKind::Dir(index) = &d.kind else {
                    return Err(FsError::NotDir);
                };
                index.get(name).ok_or(FsError::NotFound)?
            };
            let node = self.node(ino)?;
            if matches!(node.read().kind, KKind::Dir(_)) {
                return Err(FsError::IsDir);
            }
            {
                let mut d = dirn.write();
                let KKind::Dir(index) = &mut d.kind else {
                    return Err(FsError::NotDir);
                };
                index.remove(name);
            }
            // analyze:allow(persist-order): DRAM dentry cache of a simulated kernel FS; `.write()` above is an RwLock guard, not a pmem store.
            self.dcache.invalidate(dir, name);
            self.journal.meta_op(dir);
            let gone = {
                let mut n = node.write();
                n.nlink -= 1;
                n.nlink == 0
            };
            if gone {
                self.drop_node(ino);
            }
            Ok(())
        })
    }

    fn mkdir(&self, ctx: &ProcCtx, p: &str, mode: FileMode) -> FsResult<()> {
        self.charge_meta();
        self.timers.time(TimerCategory::Fs, || {
            let (dir, name) = self.resolve_parent(ctx, p)?;
            let now = self.now();
            self.create_in(
                ctx,
                dir,
                name,
                KNode {
                    kind: KKind::Dir(DirIndex::new(self.profile.dir)),
                    perm: mode.perm,
                    uid: ctx.creds.uid,
                    gid: ctx.creds.gid,
                    nlink: 2,
                    atime: now,
                    mtime: now,
                    ctime: now,
                },
                FsError::Exists,
            )
            .map(|_| ())
        })
    }

    fn rmdir(&self, ctx: &ProcCtx, p: &str) -> FsResult<()> {
        self.charge_meta();
        let (dir, name) = self.resolve_parent(ctx, p)?;
        let dir_lock = self.dir_locks.get(dir);
        let _dg = dir_lock.lock();
        let dirn = self.node(dir)?;
        let ino = {
            let d = dirn.read();
            let KKind::Dir(index) = &d.kind else {
                return Err(FsError::NotDir);
            };
            index.get(name).ok_or(FsError::NotFound)?
        };
        let node = self.node(ino)?;
        {
            let n = node.read();
            match &n.kind {
                KKind::Dir(index) if index.len() == 0 => {}
                KKind::Dir(_) => return Err(FsError::NotEmpty),
                _ => return Err(FsError::NotDir),
            }
        }
        {
            let mut d = dirn.write();
            let KKind::Dir(index) = &mut d.kind else {
                return Err(FsError::NotDir);
            };
            index.remove(name);
        }
        // analyze:allow(persist-order): DRAM dentry cache of a simulated kernel FS; `.write()` above is an RwLock guard, not a pmem store.
        self.dcache.invalidate(dir, name);
        self.journal.meta_op(dir);
        self.drop_node(ino);
        Ok(())
    }

    fn rename(&self, ctx: &ProcCtx, old: &str, new: &str) -> FsResult<()> {
        self.charge_meta();
        self.timers.time(TimerCategory::Fs, || {
            let (odir, oname) = self.resolve_parent(ctx, old)?;
            let (ndir, nname) = self.resolve_parent(ctx, new)?;
            path::validate_name(nname)?;
            // Lock both directories in ino order (the kernel's rename lock
            // ordering).
            let (l1, l2) = if odir <= ndir { (odir, ndir) } else { (ndir, odir) };
            let g1 = self.dir_locks.get(l1);
            let _dg1 = g1.lock();
            let _g2holder = if l1 != l2 { Some(self.dir_locks.get(l2)) } else { None };
            let _dg2 = _g2holder.as_ref().map(|g| g.lock());

            let odirn = self.node(odir)?;
            let ino = {
                let d = odirn.read();
                let KKind::Dir(index) = &d.kind else {
                    return Err(FsError::NotDir);
                };
                index.get(oname).ok_or(FsError::NotFound)?
            };
            let moving_dir = matches!(self.node(ino)?.read().kind, KKind::Dir(_));
            if moving_dir {
                let oc = path::components(old)?;
                let nc = path::components(new)?;
                if path::is_descendant(&oc, &nc) {
                    return Err(FsError::Invalid);
                }
            }
            let ndirn = self.node(ndir)?;
            // Target handling.
            let target = {
                let d = ndirn.read();
                let KKind::Dir(index) = &d.kind else {
                    return Err(FsError::NotDir);
                };
                index.get(nname)
            };
            if let Some(t) = target {
                if t == ino {
                    return Ok(());
                }
                let tnode = self.node(t)?;
                let tn = tnode.read();
                match (&tn.kind, moving_dir) {
                    (KKind::Dir(idx), true) if idx.len() == 0 => {}
                    (KKind::Dir(_), true) => return Err(FsError::NotEmpty),
                    (KKind::Dir(_), false) => return Err(FsError::IsDir),
                    (_, true) => return Err(FsError::NotDir),
                    _ => {}
                }
                drop(tn);
                {
                    let mut d = ndirn.write();
                    if let KKind::Dir(index) = &mut d.kind {
                        index.remove(nname);
                    }
                }
                let gone = {
                    let mut n = tnode.write();
                    n.nlink = n.nlink.saturating_sub(1);
                    n.nlink == 0 || moving_dir
                };
                if gone {
                    self.drop_node(t);
                }
            }
            {
                let mut d = odirn.write();
                if let KKind::Dir(index) = &mut d.kind {
                    index.remove(oname);
                }
            }
            {
                let mut d = ndirn.write();
                if let KKind::Dir(index) = &mut d.kind {
                    index.insert(nname.to_owned(), ino);
                }
            }
            // analyze:allow(persist-order): DRAM dentry cache of a simulated kernel FS; `.write()` above is an RwLock guard, not a pmem store.
            self.dcache.invalidate(odir, oname);
            self.dcache.insert(ndir, nname, ino);
            self.journal.meta_op(odir);
            if ndir != odir {
                self.journal.meta_op(ndir);
            }
            Ok(())
        })
    }

    fn stat(&self, ctx: &ProcCtx, p: &str) -> FsResult<Stat> {
        self.charge_meta();
        self.timers.time(TimerCategory::Fs, || {
            let ino = self.resolve(ctx, p, true)?;
            self.stat_of(ino)
        })
    }

    fn readdir(&self, ctx: &ProcCtx, p: &str) -> FsResult<Vec<DirEntry>> {
        self.charge_meta();
        let ino = self.resolve(ctx, p, true)?;
        let node = self.node(ino)?;
        let n = node.read();
        let KKind::Dir(index) = &n.kind else {
            return Err(FsError::NotDir);
        };
        if !ctx.creds.may(access::R, n.perm, n.uid, n.gid) {
            return Err(FsError::Access);
        }
        let mut out: Vec<DirEntry> = index
            .entries()
            .into_iter()
            .filter_map(|(name, eid)| {
                let ftype = self.node(eid).ok()?.read().ftype();
                Some(DirEntry { name, ftype, ino: eid })
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn symlink(&self, ctx: &ProcCtx, target: &str, linkpath: &str) -> FsResult<()> {
        self.charge_meta();
        let (dir, name) = self.resolve_parent(ctx, linkpath)?;
        let now = self.now();
        self.create_in(
            ctx,
            dir,
            name,
            KNode {
                kind: KKind::Symlink(target.to_owned()),
                perm: 0o777,
                uid: ctx.creds.uid,
                gid: ctx.creds.gid,
                nlink: 1,
                atime: now,
                mtime: now,
                ctime: now,
            },
            FsError::Exists,
        )
        .map(|_| ())
    }

    fn readlink(&self, ctx: &ProcCtx, p: &str) -> FsResult<String> {
        self.charge_meta();
        let ino = self.resolve(ctx, p, false)?;
        let node = self.node(ino)?;
        let n = node.read();
        match &n.kind {
            KKind::Symlink(t) => Ok(t.clone()),
            _ => Err(FsError::Invalid),
        }
    }

    fn link(&self, ctx: &ProcCtx, existing: &str, new: &str) -> FsResult<()> {
        self.charge_meta();
        let ino = self.resolve(ctx, existing, false)?;
        let node = self.node(ino)?;
        if matches!(node.read().kind, KKind::Dir(_)) {
            return Err(FsError::IsDir);
        }
        let (dir, name) = self.resolve_parent(ctx, new)?;
        path::validate_name(name)?;
        let dir_lock = self.dir_locks.get(dir);
        let _dg = dir_lock.lock();
        let dirn = self.node(dir)?;
        {
            let d = dirn.read();
            let KKind::Dir(index) = &d.kind else {
                return Err(FsError::NotDir);
            };
            if index.get(name).is_some() {
                return Err(FsError::Exists);
            }
        }
        node.write().nlink += 1;
        {
            let mut d = dirn.write();
            if let KKind::Dir(index) = &mut d.kind {
                index.insert(name.to_owned(), ino);
            }
        }
        self.dcache.insert(dir, name, ino);
        self.journal.meta_op(dir);
        Ok(())
    }

    fn chmod(&self, ctx: &ProcCtx, p: &str, perm: u16) -> FsResult<()> {
        self.charge_meta();
        let ino = self.resolve(ctx, p, true)?;
        let node = self.node(ino)?;
        let mut n = node.write();
        if ctx.creds.uid != 0 && ctx.creds.uid != n.uid {
            return Err(FsError::Access);
        }
        n.perm = perm & 0o777;
        drop(n);
        self.journal.meta_op(ino);
        Ok(())
    }

    fn statfs(&self, _ctx: &ProcCtx) -> FsResult<FsStats> {
        self.syscall.charge();
        let free_blocks: u64 = match self.pool.kind {
            crate::profile::AllocKind::Serial => {
                self.pool.serial.lock().iter().map(|&(_, n)| n).sum()
            }
            crate::profile::AllocKind::PerCpu => self
                .pool
                .shards
                .iter()
                .map(|s| s.lock().iter().map(|&(_, n)| n).sum::<u64>())
                .sum(),
        };
        Ok(FsStats {
            total_bytes: self.region.len() as u64,
            free_bytes: free_blocks * BLOCK,
            block_size: BLOCK as u32,
        })
    }

    fn set_times(&self, ctx: &ProcCtx, p: &str, atime: u64, mtime: u64) -> FsResult<()> {
        self.charge_meta();
        let ino = self.resolve(ctx, p, true)?;
        let node = self.node(ino)?;
        let mut n = node.write();
        if ctx.creds.uid != 0 && ctx.creds.uid != n.uid {
            return Err(FsError::Access);
        }
        n.atime = atime;
        n.mtime = mtime;
        drop(n);
        self.journal.meta_op(ino);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::FsProfile;

    fn fs(profile: FsProfile) -> (KernelFs, ProcCtx) {
        (KernelFs::new(Arc::new(PmemRegion::new(32 << 20)), profile), ProcCtx::root(1))
    }

    #[test]
    fn lifecycle_all_profiles() {
        for p in [FsProfile::nova(), FsProfile::pmfs(), FsProfile::ext4dax(), FsProfile::splitfs()] {
            let (fs, ctx) = fs(p);
            fs.mkdir(&ctx, "/dir", FileMode::dir(0o755)).unwrap();
            fs.write_file(&ctx, "/dir/a", b"alpha").unwrap();
            fs.write_file(&ctx, "/dir/b", b"beta").unwrap();
            assert_eq!(fs.read_to_vec(&ctx, "/dir/a").unwrap(), b"alpha", "{}", fs.name());
            fs.rename(&ctx, "/dir/a", "/dir/c").unwrap();
            assert_eq!(fs.read_to_vec(&ctx, "/dir/c").unwrap(), b"alpha");
            fs.unlink(&ctx, "/dir/b").unwrap();
            fs.unlink(&ctx, "/dir/c").unwrap();
            fs.rmdir(&ctx, "/dir").unwrap();
            assert_eq!(fs.readdir(&ctx, "/").unwrap().len(), 0);
        }
    }

    #[test]
    fn appends_and_seeks() {
        let (fs, ctx) = fs(FsProfile::splitfs());
        let fd = fs.open(&ctx, "/log", OpenFlags::APPEND, FileMode::default()).unwrap();
        for _ in 0..10 {
            fs.write(&ctx, fd, &[9u8; 4096]).unwrap();
        }
        assert_eq!(fs.fstat(&ctx, fd).unwrap().size, 40960);
        fs.close(&ctx, fd).unwrap();
    }

    #[test]
    fn syscall_counting_differs_for_splitfs_data_path() {
        let (nova, ctx) = fs(FsProfile::nova());
        let (split, _) = fs(FsProfile::splitfs());
        for f in [&nova, &split] {
            let fd = f.open(&ctx, "/f", OpenFlags::APPEND, FileMode::default()).unwrap();
            let before = f.syscalls();
            for _ in 0..50 {
                f.write(&ctx, fd, &[1u8; 128]).unwrap();
            }
            let delta = f.syscalls() - before;
            if f.name() == "nova" {
                assert_eq!(delta, 50, "kernel fs: one syscall per write");
            } else {
                assert_eq!(delta, 0, "splitfs: staged appends bypass the kernel");
            }
            f.close(&ctx, fd).unwrap();
        }
    }

    #[test]
    fn hard_links_and_symlinks() {
        let (fs, ctx) = fs(FsProfile::ext4dax());
        fs.write_file(&ctx, "/orig", b"x").unwrap();
        fs.link(&ctx, "/orig", "/alias").unwrap();
        assert_eq!(fs.stat(&ctx, "/orig").unwrap().nlink, 2);
        fs.unlink(&ctx, "/orig").unwrap();
        assert_eq!(fs.read_to_vec(&ctx, "/alias").unwrap(), b"x");
        fs.symlink(&ctx, "/alias", "/ln").unwrap();
        assert_eq!(fs.read_to_vec(&ctx, "/ln").unwrap(), b"x");
        assert_eq!(fs.readlink(&ctx, "/ln").unwrap(), "/alias");
    }

    #[test]
    fn permissions_respected() {
        let (fs, root) = fs(FsProfile::nova());
        fs.mkdir(&root, "/priv", FileMode::dir(0o700)).unwrap();
        fs.write_file(&root, "/priv/s", b"secret").unwrap();
        let user = ProcCtx::new(7, simurgh_fsapi::Credentials::user(500, 500));
        assert_eq!(fs.stat(&user, "/priv/s").unwrap_err(), FsError::Access);
    }

    #[test]
    fn concurrent_private_dir_creates() {
        let fs = Arc::new(KernelFs::new(
            Arc::new(PmemRegion::new(64 << 20)),
            FsProfile::nova(),
        ));
        let root = ProcCtx::root(0);
        for t in 0..4 {
            fs.mkdir(&root, &format!("/t{t}"), FileMode::dir(0o777)).unwrap();
        }
        crossbeam::thread::scope(|s| {
            for t in 0..4u32 {
                let fs = &fs;
                s.spawn(move |_| {
                    let ctx = ProcCtx::root(t + 1);
                    for i in 0..50 {
                        let fd =
                            fs.create(&ctx, &format!("/t{t}/f{i}"), FileMode::default()).unwrap();
                        fs.close(&ctx, fd).unwrap();
                    }
                });
            }
        })
        .unwrap();
        for t in 0..4 {
            assert_eq!(fs.readdir(&root, &format!("/t{t}")).unwrap().len(), 50);
        }
    }

    #[test]
    fn pmfs_linear_dir_is_order_preserving_scan() {
        let (fs, ctx) = fs(FsProfile::pmfs());
        for i in 0..100 {
            fs.write_file(&ctx, &format!("/f{i:03}"), b"").unwrap();
        }
        assert_eq!(fs.readdir(&ctx, "/").unwrap().len(), 100);
        // Unlink from the front repeatedly (worst case for linear dirents).
        for i in 0..100 {
            fs.unlink(&ctx, &format!("/f{i:03}")).unwrap();
        }
        assert_eq!(fs.readdir(&ctx, "/").unwrap().len(), 0);
    }

    #[test]
    fn truncate_open_flag_and_sparse() {
        let (fs, ctx) = fs(FsProfile::nova());
        fs.write_file(&ctx, "/t", b"0123456789").unwrap();
        let rw_create = OpenFlags { read: true, ..OpenFlags::CREATE };
        let fd = fs.open(&ctx, "/t", rw_create, FileMode::default()).unwrap();
        assert_eq!(fs.fstat(&ctx, fd).unwrap().size, 0);
        fs.pwrite(&ctx, fd, b"z", 5000).unwrap();
        assert_eq!(fs.fstat(&ctx, fd).unwrap().size, 5001);
        let mut buf = vec![0xau8; 5001];
        assert_eq!(fs.pread(&ctx, fd, &mut buf, 0).unwrap(), 5001);
        assert!(buf[..5000].iter().all(|&b| b == 0));
        assert_eq!(buf[5000], b'z');
        fs.close(&ctx, fd).unwrap();
    }
}
