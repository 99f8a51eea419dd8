//! The emulated NVMM region and its access primitives.
//!
//! A [`PmemRegion`] owns one contiguous, page-aligned allocation that stands
//! in for a DAX-mapped persistent-memory device. All loads and stores issued
//! by the file systems go through this type so that
//!
//! * persistence ordering (`store → clwb → sfence`) is observable by the
//!   crash tracker,
//! * per-page access control can be enforced (protected functions, §3.2),
//! * traffic statistics can be attributed (Table 1 / Fig. 10 breakdowns).

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use crate::prot::{AccessFault, AccessPolicy};
use crate::stats::PmemStats;
use crate::tracker::{FaultPlan, TrackMode, Tracker};
use crate::{PPtr, CACHE_LINE, PAGE_SIZE};

/// Errors surfaced by fallible region operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmemError {
    /// Access outside the region bounds.
    OutOfBounds { off: u64, len: usize, region: usize },
    /// Page-protection violation reported by the [`AccessPolicy`].
    Fault(AccessFault),
    /// The region image passed to [`RegionBuilder::from_image`] has an
    /// invalid size (must be a whole number of pages).
    BadImage { len: usize },
    /// An existing region file's length does not match the requested region
    /// size. Opening it anyway would either silently truncate the media or
    /// map pages past EOF (SIGBUS on access), so it is a hard typed error.
    SizeMismatch { file_len: usize, requested: usize },
    /// A region file could not be opened, sized or mapped. Carries the path
    /// and a rendered cause (`io::Error` is neither `Clone` nor `PartialEq`,
    /// so the cause is stringified).
    BadFile { path: String, reason: String },
}

impl std::fmt::Display for PmemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmemError::OutOfBounds { off, len, region } => {
                write!(f, "pmem access [{off:#x}, +{len}) outside region of {region} bytes")
            }
            PmemError::Fault(fault) => write!(f, "pmem protection fault: {fault}"),
            PmemError::BadImage { len } => {
                write!(f, "pmem image length {len} is not a whole number of pages")
            }
            PmemError::SizeMismatch { file_len, requested } => {
                write!(
                    f,
                    "region file is {file_len} bytes but {requested} were requested \
                     (refusing to truncate or extend an existing region)"
                )
            }
            PmemError::BadFile { path, reason } => {
                write!(f, "region file {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for PmemError {}

// ---------------------------------------------------------------------------
// mmap FFI (file-backed regions)
// ---------------------------------------------------------------------------

/// Minimal `mmap`/`munmap` bindings. The workspace deliberately has no libc
/// crate dependency; std already links libc, so declaring the two symbols we
/// need is enough. Constants are the Linux values (the only supported host).
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const MAP_SHARED: i32 = 0x01;

    extern "C" {
        /// libc `mmap`. On 64-bit Linux `off_t` is `i64`.
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        /// libc `munmap`.
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// `mmap`'s error return.
    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// What owns the bytes behind [`PmemRegion::base`].
enum Backing {
    /// Process-private heap allocation (the original emulation mode).
    Heap { layout: Layout },
    /// `MAP_SHARED` mapping of a region file: every process that maps the
    /// same file sees the same bytes, DAX-style. The file handle is kept
    /// only to document ownership; the mapping outlives any close.
    File { _file: std::fs::File, path: PathBuf },
}

/// Values that can be stored to and loaded from persistent memory by plain
/// byte copy.
///
/// Structs get their impl from [`media_struct!`](crate::media_struct), which
/// pins their layout at compile time. A hand-written impl does not compile:
/// only that macro and the primitive impls below supply `LAYOUT_PINNED`.
///
/// # Safety
///
/// Implementors must be valid for any bit pattern and contain no padding.
pub unsafe trait Pod: Copy + 'static {
    /// The implementor's compile-time layout checks; evaluating it fails
    /// the build when the layout drifted.
    #[doc(hidden)]
    const LAYOUT_PINNED: ();
}

/// `Pod` for plain integers, which have no layout to pin.
macro_rules! integer_pod {
    ($($t:ty),+) => {$(
        // SAFETY: plain integers are valid for every bit pattern and contain
        // no padding.
        unsafe impl Pod for $t {
            const LAYOUT_PINNED: () = ();
        }
    )+};
}
integer_pod!(u8, u16, u32, u64, i32, i64);

// SAFETY: byte arrays are valid for every bit pattern and contain no
// padding.
unsafe impl<const N: usize> Pod for [u8; N] {
    const LAYOUT_PINNED: () = ();
}

/// Declares an on-media struct and pins its layout at compile time.
///
/// The header states the struct's size and alignment, and every field its
/// byte offset (`@offset`). The macro emits the struct with `#[repr(C)]`
/// and its [`Pod`] impl, whose checks fail the build unless rustc laid the
/// struct out exactly as written: size, alignment, every offset, every
/// field type `Pod`, and field sizes that sum to the size (no padding).
/// The invocation is therefore the layout's only record.
///
/// ```
/// simurgh_pmem::media_struct! {
///     /// A 16-byte run descriptor.
///     #[derive(Debug, Clone, Copy)]
///     pub struct Run (size 16, align 8) {
///         /// First byte of the run.
///         @0 pub start: u64,
///         @8 pub len: u64,
///     }
/// }
/// ```
#[macro_export]
macro_rules! media_struct {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident (size $size:literal, align $align:literal) {
            $( $(#[$fattr:meta])* @ $off:literal $fvis:vis $field:ident : $ty:ty ),+ $(,)?
        }
    ) => {
        $(#[$attr])*
        #[repr(C)]
        $vis struct $name {
            $( $(#[$fattr])* $fvis $field: $ty, )+
        }

        // SAFETY: `LAYOUT_PINNED` proves at compile time that every field is
        // `Pod` and that the fields cover all `size` bytes, so the struct has
        // no padding and is valid for any bit pattern.
        unsafe impl $crate::Pod for $name {
            const LAYOUT_PINNED: () = {
                const fn field_is_pod<T: $crate::Pod>() {}
                $( field_is_pod::<$ty>(); )+
                assert!(::core::mem::size_of::<$name>() == $size, "size drifted");
                assert!(::core::mem::align_of::<$name>() == $align, "alignment drifted");
                $( assert!(
                    ::core::mem::offset_of!($name, $field) == $off,
                    concat!("offset of `", stringify!($field), "` drifted")
                ); )+
                assert!(0 $(+ ::core::mem::size_of::<$ty>())+ == $size, "padding between fields");
            };
        }
        // An associated const is evaluated only when used; this use runs the
        // checks in every build.
        const _: () = <$name as $crate::Pod>::LAYOUT_PINNED;
    };
}

/// Builder for [`PmemRegion`].
pub struct RegionBuilder {
    pages: usize,
    mode: TrackMode,
    policy: Option<Arc<dyn AccessPolicy>>,
    image: Option<Vec<u8>>,
    file: Option<PathBuf>,
    /// True for [`open_file`](Self::open_file): the region length is taken
    /// from the existing file rather than from `pages`.
    size_from_file: bool,
}

impl RegionBuilder {
    /// Starts a builder for a region of `bytes` (rounded up to whole pages).
    pub fn new(bytes: usize) -> Self {
        let pages = bytes.div_ceil(PAGE_SIZE).max(1);
        RegionBuilder {
            pages,
            mode: TrackMode::Raw,
            policy: None,
            image: None,
            file: None,
            size_from_file: false,
        }
    }

    /// Starts a builder that maps an **existing** region file, taking the
    /// region length from the file itself. `build` fails with a typed error
    /// if the file is missing, empty or not a whole number of pages.
    pub fn open_file(path: impl Into<PathBuf>) -> Self {
        let mut b = RegionBuilder::new(PAGE_SIZE);
        b.file = Some(path.into());
        b.size_from_file = true;
        b
    }

    /// Selects raw (fast) or tracked (crash-simulating) mode.
    pub fn mode(mut self, mode: TrackMode) -> Self {
        self.mode = mode;
        self
    }

    /// Installs a page access policy (protected-function enforcement).
    pub fn policy(mut self, policy: Arc<dyn AccessPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Initializes the region contents from a previously captured image
    /// (e.g. the media image surviving a simulated crash).
    pub fn from_image(mut self, image: Vec<u8>) -> Self {
        self.pages = image.len() / PAGE_SIZE;
        self.image = Some(image);
        self
    }

    /// Backs the region with a `MAP_SHARED` mapping of `path` instead of a
    /// private heap allocation (DAX-style: other processes mapping the same
    /// file share the bytes).
    ///
    /// * With [`new`](Self::new): the file is created at the requested size
    ///   if missing; an existing *smaller* file is grown to the requested
    ///   size (existing contents preserved — this is how an aged image is
    ///   adopted at a larger capacity; the filesystem layer is responsible
    ///   for re-recording its geometry). Shrinking is never performed:
    ///   an existing file *larger* than the request is
    ///   [`PmemError::SizeMismatch`].
    /// * With [`from_image`](Self::from_image): materializes the image at
    ///   `path`; the file must be new or empty (same mismatch rule).
    pub fn file(mut self, path: impl Into<PathBuf>) -> Self {
        self.file = Some(path.into());
        self
    }

    /// Builds the region.
    pub fn build(self) -> Result<PmemRegion, PmemError> {
        if let Some(img) = &self.image {
            if img.len() % PAGE_SIZE != 0 || img.is_empty() {
                return Err(PmemError::BadImage { len: img.len() });
            }
        }
        let (base, len, backing) = match &self.file {
            None => {
                let len = self.pages * PAGE_SIZE;
                let layout = Layout::from_size_align(len, PAGE_SIZE).expect("valid layout");
                // SAFETY: layout has non-zero size.
                let base = unsafe { alloc_zeroed(layout) };
                assert!(!base.is_null(), "pmem allocation of {len} bytes failed");
                (base, len, Backing::Heap { layout })
            }
            Some(path) => {
                let (base, len, backing) = Self::map_file(
                    path,
                    self.size_from_file,
                    self.pages * PAGE_SIZE,
                    self.image.is_some(),
                )?;
                (base, len, backing)
            }
        };
        if let Some(img) = &self.image {
            // SAFETY: base is valid for len bytes and img.len() == len
            // (heap: len derives from the image; file: map_file verified it).
            unsafe { std::ptr::copy_nonoverlapping(img.as_ptr(), base, len) };
        }
        let tracker = match self.mode {
            TrackMode::Raw => None,
            TrackMode::Tracked => {
                let initial = match self.image {
                    Some(img) => img,
                    // File backing may carry pre-existing contents: the
                    // tracker's media image starts from what is mapped.
                    None if matches!(backing, Backing::File { .. }) => {
                        let mut v = vec![0u8; len];
                        // SAFETY: base is valid for len bytes; v is len bytes.
                        unsafe { std::ptr::copy_nonoverlapping(base, v.as_mut_ptr(), len) };
                        v
                    }
                    None => vec![0u8; len],
                };
                Some(Tracker::new(initial))
            }
        };
        Ok(PmemRegion {
            base,
            len,
            backing,
            tracker,
            policy: self.policy,
            stats: PmemStats::default(),
            fence_hook: OnceLock::new(),
            id: REGION_IDS.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Opens/creates and maps a region file, enforcing the size rules.
    fn map_file(
        path: &Path,
        size_from_file: bool,
        requested: usize,
        has_image: bool,
    ) -> Result<(*mut u8, usize, Backing), PmemError> {
        let bad = |reason: String| PmemError::BadFile {
            path: path.display().to_string(),
            reason,
        };
        let mut opts = std::fs::OpenOptions::new();
        opts.read(true).write(true);
        if !size_from_file {
            opts.create(true);
        }
        let file = opts.open(path).map_err(|e| bad(format!("open failed: {e}")))?;
        let file_len = file.metadata().map_err(|e| bad(format!("stat failed: {e}")))?.len()
            as usize;
        let len = if size_from_file {
            if file_len == 0 || !file_len.is_multiple_of(PAGE_SIZE) {
                return Err(bad(format!(
                    "length {file_len} is not a whole, non-zero number of pages"
                )));
            }
            file_len
        } else {
            // An existing file is never *shrunk*: with an image that would
            // silently truncate media, without one it would tear pages out
            // from under a peer that already mapped them. Growing is safe —
            // peers keep their old-length mappings and the filesystem layer
            // adopts the new geometry on its next exclusive mount.
            if file_len > requested {
                return Err(PmemError::SizeMismatch { file_len, requested });
            }
            let _ = has_image; // same rule either way; kept for clarity
            if file_len != requested {
                file.set_len(requested as u64)
                    .map_err(|e| bad(format!("set_len({requested}) failed: {e}")))?;
            }
            requested
        };
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is open read-write, len is a non-zero page multiple no
        // larger than the file, offset 0. A MAP_SHARED mapping of a regular
        // file is valid for len bytes until munmap.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if base == sys::map_failed() || base.is_null() {
            return Err(bad(format!("mmap of {len} bytes failed")));
        }
        Ok((base as *mut u8, len, Backing::File { _file: file, path: path.to_owned() }))
    }
}

/// One emulated NVMM device.
///
/// The region is `Sync`: concurrent access is coordinated by the file-system
/// protocols built on top (atomic flags, busy-wait locks), exactly as on real
/// shared persistent memory.
pub struct PmemRegion {
    base: *mut u8,
    len: usize,
    backing: Backing,
    tracker: Option<Tracker>,
    policy: Option<Arc<dyn AccessPolicy>>,
    stats: PmemStats,
    /// Observer invoked on the fencing thread after every
    /// [`fence`](Self::fence) — the hook by which the file system's trace
    /// ring records sfence boundaries without `pmem` depending on upper
    /// layers. Set once per region (a `simulate_crash` image is a *new*
    /// region: re-install at mount).
    fence_hook: OnceLock<Box<dyn Fn() + Send + Sync>>,
    /// Process-unique instance id keying this region's entries in the
    /// thread-local [`FenceScope`] registry (a `simulate_crash` image is a
    /// *new* region and gets a fresh id, so stale scope entries from a
    /// pre-crash region can never absorb post-remount fences).
    id: u64,
}

/// Source of [`PmemRegion::id`] values. Starts at 1 so 0 can never key a
/// live registry entry.
static REGION_IDS: AtomicU64 = AtomicU64::new(1);

/// One thread's view of an active group-commit scope on one region.
struct TlScope {
    region_id: u64,
    /// Nesting depth: inner `fence_scope()` calls on the same region reuse
    /// the entry; only the outermost drop closes the group.
    depth: u32,
    /// Whether a fence was requested (and deferred) since the last real
    /// fence on this thread. The closing fence is skipped when false.
    pending: bool,
}

thread_local! {
    /// Active group-commit scopes on this thread. Tiny (0–2 entries), so a
    /// linear scan beats any map.
    static ACTIVE_SCOPES: RefCell<Vec<TlScope>> = const { RefCell::new(Vec::new()) };
}

/// RAII group-commit scope returned by [`PmemRegion::fence_scope`].
///
/// While the scope is alive **on the creating thread**, every
/// [`fence`](PmemRegion::fence) (and the fence half of
/// [`persist`](PmemRegion::persist)) on this region is deferred: `clwb`s
/// still stage their lines, but the `sfence` is issued once, when the scope
/// drops — the paper's `store → clwb → … → single sfence` group-commit
/// pattern. Ordering-critical persists inside the scope either call
/// [`commit`](Self::commit) or go through the always-eager
/// [`fence_now`](PmemRegion::fence_now)/[`persist_now`](PmemRegion::persist_now)
/// primitives, which fence immediately *and* mark the group clean (one
/// `sfence` retires every previously staged line, so the scope need not
/// fence again unless more deferred work follows).
///
/// Crash-soundness: in the deterministic tracker model, all lines staged
/// between two fences become durable atomically. Coalescing N fences into
/// one therefore only *removes* intermediate crash states — every state
/// reachable with a scope active is also reachable in the eager schedule
/// (cut before the group or after it). Commit points keep their own
/// boundary via the `_now` primitives, so recovery-relevant orderings are
/// never coalesced across.
pub struct FenceScope<'r> {
    region: &'r PmemRegion,
    /// Scopes are registered in thread-local state: keep the guard on the
    /// thread that opened it.
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl FenceScope<'_> {
    /// Issues the group's fence *now* (an explicit intra-scope commit
    /// point). Deferred flushes staged so far become durable; the scope is
    /// marked clean and will only fence at drop if further deferred fences
    /// accumulate. May be called any number of times.
    pub fn commit(&self) {
        self.region.fence_now();
    }
}

impl Drop for FenceScope<'_> {
    fn drop(&mut self) {
        let fence_needed = ACTIVE_SCOPES.with(|s| {
            let mut v = s.borrow_mut();
            let i = v
                .iter()
                .position(|e| e.region_id == self.region.id)
                .expect("FenceScope dropped on a thread that never opened it");
            if v[i].depth > 1 {
                v[i].depth -= 1;
                false
            } else {
                let pending = v[i].pending;
                v.remove(i);
                pending
            }
        });
        if fence_needed {
            self.region.fence_now();
        }
    }
}

// SAFETY: the raw allocation is only accessed through the methods below;
// racing plain stores are possible if callers misuse the API, but the public
// surface mirrors shared persistent memory, where the same caution applies.
// Synchronisation is the responsibility of the lock/flag protocols above.
unsafe impl Send for PmemRegion {}
unsafe impl Sync for PmemRegion {}

impl Drop for PmemRegion {
    fn drop(&mut self) {
        match &self.backing {
            Backing::Heap { layout } => {
                // SAFETY: base was allocated with this layout in
                // RegionBuilder::build.
                unsafe { dealloc(self.base, *layout) };
            }
            Backing::File { .. } => {
                // SAFETY: base/len are the mapping created in map_file and
                // no references into it outlive the region (the accessors
                // all borrow self).
                let rc = unsafe { sys::munmap(self.base as *mut _, self.len) };
                debug_assert_eq!(rc, 0, "munmap failed");
            }
        }
    }
}

impl PmemRegion {
    /// Convenience: a raw-mode region of `bytes` bytes.
    pub fn new(bytes: usize) -> Self {
        RegionBuilder::new(bytes).build().expect("raw region build cannot fail")
    }

    /// Convenience: a crash-tracked region of `bytes` bytes.
    pub fn new_tracked(bytes: usize) -> Self {
        RegionBuilder::new(bytes).mode(TrackMode::Tracked).build().expect("tracked region")
    }

    /// Region length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the region has zero length (never the case in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Traffic statistics for this region.
    #[inline]
    pub fn stats(&self) -> &PmemStats {
        &self.stats
    }

    /// Whether this region runs with the crash tracker enabled.
    #[inline]
    pub fn is_tracked(&self) -> bool {
        self.tracker.is_some()
    }

    /// Whether this region is a `MAP_SHARED` mapping of a region file.
    #[inline]
    pub fn is_file_backed(&self) -> bool {
        matches!(self.backing, Backing::File { .. })
    }

    /// The backing file's path, for file-backed regions.
    pub fn file_path(&self) -> Option<&Path> {
        match &self.backing {
            Backing::File { path, .. } => Some(path),
            Backing::Heap { .. } => None,
        }
    }

    #[inline]
    fn bounds(&self, p: PPtr, len: usize) {
        let end = p.off() as usize + len;
        assert!(
            (p.off() as usize) < self.len && end <= self.len,
            "pmem access [{:#x}, +{}) outside region of {} bytes",
            p.off(),
            len,
            self.len
        );
    }

    #[inline]
    fn guard(&self, p: PPtr, len: usize, write: bool) {
        self.bounds(p, len);
        if let Some(policy) = &self.policy {
            let first = p.page();
            let last = (p.off() as usize + len - 1) / PAGE_SIZE;
            for page in first..=last {
                if let Err(fault) = policy.check_access(page, write) {
                    panic!("pmem protection fault: {fault}");
                }
            }
        }
    }

    /// Checks whether an access would be allowed without performing it.
    /// Used by security tests and by recovery code validating pointers from
    /// a possibly corrupted image.
    pub fn check_access(&self, p: PPtr, len: usize, write: bool) -> Result<(), PmemError> {
        let end = p.off() as usize + len;
        if p.off() as usize >= self.len || end > self.len || len == 0 {
            return Err(PmemError::OutOfBounds { off: p.off(), len, region: self.len });
        }
        if let Some(policy) = &self.policy {
            let first = p.page();
            let last = (end - 1) / PAGE_SIZE;
            for page in first..=last {
                policy.check_access(page, write).map_err(PmemError::Fault)?;
            }
        }
        Ok(())
    }

    /// Whether a range lies within the region (no policy check).
    pub fn in_bounds(&self, p: PPtr, len: usize) -> bool {
        let end = p.off().checked_add(len as u64);
        matches!(end, Some(e) if (e as usize) <= self.len)
    }

    // ----- plain loads & stores -------------------------------------------

    /// Loads a POD value.
    #[inline]
    pub fn read<T: Pod>(&self, p: PPtr) -> T {
        self.guard(p, size_of::<T>(), false);
        self.stats.bytes_read.add(size_of::<T>() as u64);
        // SAFETY: bounds checked; T is Pod so any bit pattern is valid.
        unsafe { std::ptr::read_unaligned(self.base.add(p.off() as usize) as *const T) }
    }

    /// Stores a POD value (write-back cached; durable only after
    /// [`flush`](Self::flush) + [`fence`](Self::fence)).
    #[inline]
    pub fn write<T: Pod>(&self, p: PPtr, val: T) {
        self.guard(p, size_of::<T>(), true);
        self.stats.bytes_written.add(size_of::<T>() as u64);
        // SAFETY: bounds checked.
        unsafe { std::ptr::write_unaligned(self.base.add(p.off() as usize) as *mut T, val) };
        if let Some(t) = &self.tracker {
            t.mark_dirty(p.off() as usize, size_of::<T>());
        }
    }

    /// Copies bytes out of the region into `buf`.
    #[inline]
    pub fn read_into(&self, p: PPtr, buf: &mut [u8]) {
        self.guard(p, buf.len(), false);
        self.stats.bytes_read.add(buf.len() as u64);
        // SAFETY: bounds checked; regions never overlap a caller's buffer.
        unsafe {
            std::ptr::copy_nonoverlapping(self.base.add(p.off() as usize), buf.as_mut_ptr(), buf.len())
        };
    }

    /// Copies `buf` into the region with regular (cached) stores.
    #[inline]
    pub fn write_from(&self, p: PPtr, buf: &[u8]) {
        self.guard(p, buf.len(), true);
        self.stats.bytes_written.add(buf.len() as u64);
        // SAFETY: bounds checked.
        unsafe {
            std::ptr::copy_nonoverlapping(buf.as_ptr(), self.base.add(p.off() as usize), buf.len())
        };
        if let Some(t) = &self.tracker {
            t.mark_dirty(p.off() as usize, buf.len());
        }
    }

    /// Copies `buf` into the region with emulated **non-temporal** stores:
    /// the data bypasses the cache and becomes durable at the next
    /// [`fence`](Self::fence), with no explicit `clwb` required. Simurgh's
    /// data path uses this (paper §4.3 "Data operations").
    #[inline]
    pub fn nt_write_from(&self, p: PPtr, buf: &[u8]) {
        self.guard(p, buf.len(), true);
        self.stats.bytes_nt_written.add(buf.len() as u64);
        // SAFETY: bounds checked.
        unsafe {
            std::ptr::copy_nonoverlapping(buf.as_ptr(), self.base.add(p.off() as usize), buf.len())
        };
        if let Some(t) = &self.tracker {
            // Non-temporal stores go straight to the write-pending queue.
            t.stage(self.base, self.len, p.off() as usize, buf.len());
        }
    }

    /// Zeroes a byte range with regular stores.
    pub fn zero(&self, p: PPtr, len: usize) {
        self.guard(p, len, true);
        self.stats.bytes_written.add(len as u64);
        // SAFETY: bounds checked.
        unsafe { std::ptr::write_bytes(self.base.add(p.off() as usize), 0, len) };
        if let Some(t) = &self.tracker {
            t.mark_dirty(p.off() as usize, len);
        }
    }

    // ----- persistence primitives -----------------------------------------

    /// Emulated `clwb`: initiates write-back of every cache line overlapping
    /// the range. The lines become durable at the next [`fence`](Self::fence).
    #[inline]
    pub fn flush(&self, p: PPtr, len: usize) {
        self.bounds(p, len.max(1));
        let lines = len.div_ceil(CACHE_LINE).max(1) as u64;
        self.stats.flushed_lines.add(lines);
        if let Some(t) = &self.tracker {
            t.stage(self.base, self.len, p.off() as usize, len);
        }
    }

    /// Emulated `sfence`: all previously initiated write-backs (and
    /// non-temporal stores) become durable on the media image.
    ///
    /// The fence counts (the [`stats`](Self::stats) counter and the
    /// tracker's `FaultPlan` boundary counter) are **per region instance**
    /// — i.e. per process, never in the shared mapping. Two mounts of the
    /// same region file therefore keep independent fault-plan accounting: a
    /// fence issued through one mapping is invisible to the other's counters,
    /// exactly like per-CPU sfence retirement on real hardware. Only the
    /// tracker's count is a running total that orders fences across threads;
    /// the statistic is per thread (see [`crate::stats`]).
    /// With a [`FenceScope`] active on the calling thread, the `sfence` is
    /// *deferred* to the scope (counted in `fences_elided`, invisible to
    /// fault plans and the fence hook — no persistence boundary is crossed
    /// until the group commits). Use [`fence_now`](Self::fence_now) at
    /// ordering-critical commit points.
    #[inline]
    pub fn fence(&self) {
        if self.defer_to_scope() {
            self.stats.fences_elided.add(1);
            return;
        }
        self.fence_now();
    }

    /// Emulated `sfence`, issued unconditionally — bypasses any active
    /// [`FenceScope`]. One `sfence` retires *every* previously staged line,
    /// so this also marks the thread's active scope (if any) clean: the
    /// scope will not issue a redundant closing fence for work this call
    /// already made durable.
    #[inline]
    pub fn fence_now(&self) {
        self.stats.fences.add(1);
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        if let Some(t) = &self.tracker {
            t.fence();
        }
        if let Some(hook) = self.fence_hook.get() {
            hook();
        }
        ACTIVE_SCOPES.with(|s| {
            if let Some(e) = s.borrow_mut().iter_mut().find(|e| e.region_id == self.id) {
                e.pending = false;
            }
        });
    }

    /// True if a [`FenceScope`] on this region is active on this thread (the
    /// deferred fence is recorded as pending).
    #[inline]
    fn defer_to_scope(&self) -> bool {
        ACTIVE_SCOPES.with(|s| {
            let mut v = s.borrow_mut();
            match v.iter_mut().find(|e| e.region_id == self.id) {
                Some(e) => {
                    e.pending = true;
                    true
                }
                None => false,
            }
        })
    }

    /// Opens a group-commit scope on this region for the calling thread:
    /// until the returned guard drops, [`fence`](Self::fence) requests are
    /// coalesced into (at most) one `sfence` at scope close. Nests — inner
    /// scopes are free, only the outermost drop fences.
    pub fn fence_scope(&self) -> FenceScope<'_> {
        ACTIVE_SCOPES.with(|s| {
            let mut v = s.borrow_mut();
            match v.iter_mut().find(|e| e.region_id == self.id) {
                Some(e) => e.depth += 1,
                None => v.push(TlScope { region_id: self.id, depth: 1, pending: false }),
            }
        });
        FenceScope { region: self, _not_send: std::marker::PhantomData }
    }

    /// Installs the fence observer (at most once per region; later calls
    /// are ignored). Called on the fencing thread after each
    /// [`fence`](Self::fence) that is not deferred to a scope.
    pub fn set_fence_hook(&self, hook: Box<dyn Fn() + Send + Sync>) {
        let _ = self.fence_hook.set(hook);
    }

    /// Convenience `clwb + sfence` over one range. Scope-aware: the fence
    /// half defers to an active [`FenceScope`].
    #[inline]
    pub fn persist(&self, p: PPtr, len: usize) {
        self.flush(p, len);
        self.fence();
    }

    /// Convenience `clwb + sfence` that always fences immediately — the
    /// commit-point flavour of [`persist`](Self::persist), immune to
    /// [`FenceScope`] coalescing.
    #[inline]
    pub fn persist_now(&self, p: PPtr, len: usize) {
        self.flush(p, len);
        self.fence_now();
    }

    // ----- atomics ----------------------------------------------------------

    /// An atomic view of 8 bytes at `p` (must be 8-byte aligned).
    ///
    /// Atomic stores through this handle are *cached* like plain stores: they
    /// must still be flushed and fenced to become durable. Use
    /// [`persist`](Self::persist) on the same address at protocol persist
    /// points.
    #[inline]
    pub fn atomic_u64(&self, p: PPtr) -> &AtomicU64 {
        self.guard(p, 8, true);
        assert!(p.is_aligned(8), "atomic_u64 at unaligned offset {:#x}", p.off());
        // SAFETY: bounds + alignment checked; AtomicU64 has the same layout as u64.
        unsafe { &*(self.base.add(p.off() as usize) as *const AtomicU64) }
    }

    /// An atomic view of 4 bytes at `p` (must be 4-byte aligned).
    #[inline]
    pub fn atomic_u32(&self, p: PPtr) -> &AtomicU32 {
        self.guard(p, 4, true);
        assert!(p.is_aligned(4), "atomic_u32 at unaligned offset {:#x}", p.off());
        // SAFETY: bounds + alignment checked.
        unsafe { &*(self.base.add(p.off() as usize) as *const AtomicU32) }
    }

    /// An atomic view of one byte at `p`.
    #[inline]
    pub fn atomic_u8(&self, p: PPtr) -> &AtomicU8 {
        self.guard(p, 1, true);
        // SAFETY: bounds checked.
        unsafe { &*(self.base.add(p.off() as usize) as *const AtomicU8) }
    }

    /// Notifies the crash tracker that an atomic store happened at `p`
    /// (atomics bypass the plain-store hooks). No-op in raw mode.
    #[inline]
    pub fn note_atomic(&self, p: PPtr, len: usize) {
        if let Some(t) = &self.tracker {
            t.mark_dirty(p.off() as usize, len);
        }
    }

    // ----- crash simulation -------------------------------------------------

    /// Installs a [`FaultPlan`] on the crash tracker, resetting the
    /// persistence-boundary counter (fences issued before arming are not
    /// counted against the plan). Panics in raw mode.
    pub fn arm_faults(&self, plan: FaultPlan) {
        self.tracker.as_ref().expect("arm_faults requires TrackMode::Tracked").arm(plan);
    }

    /// Persistence boundaries (`sfence` commits) crossed since the last
    /// [`arm_faults`](Self::arm_faults) call. Panics in raw mode.
    pub fn fence_count(&self) -> u64 {
        self.tracker.as_ref().expect("fence_count requires TrackMode::Tracked").fence_count()
    }

    /// Whether the armed fault plan's power cut has fired: once true, the
    /// media image is frozen and nothing else becomes durable. Panics in
    /// raw mode.
    pub fn powercut_tripped(&self) -> bool {
        self.tracker
            .as_ref()
            .expect("powercut_tripped requires TrackMode::Tracked")
            .powercut_tripped()
    }

    /// Returns a copy of the **media image**: the bytes that would survive a
    /// power failure right now. Panics in raw mode.
    pub fn media_image(&self) -> Vec<u8> {
        self.tracker
            .as_ref()
            .expect("media_image requires TrackMode::Tracked")
            .media_image()
    }

    /// Simulates a power failure and remount: returns a fresh tracked region
    /// whose contents are exactly the durable media image. The current
    /// (volatile) contents of `self` are discarded, like CPU caches on a
    /// power cut.
    pub fn simulate_crash(&self) -> PmemRegion {
        let image = self.media_image();
        RegionBuilder::new(image.len())
            .mode(TrackMode::Tracked)
            .from_image(image)
            .build()
            .expect("crash image is page-aligned")
    }

    /// Lines written since the last fence that persisted them — i.e. data
    /// that would be lost on a crash right now. Diagnostic for persistence
    /// lint tests. Panics in raw mode.
    pub fn unpersisted_lines(&self) -> usize {
        self.tracker
            .as_ref()
            .expect("unpersisted_lines requires TrackMode::Tracked")
            .dirty_line_count()
    }

    /// Touches every page of the allocation so first-touch page faults are
    /// taken now rather than inside a timed benchmark phase. No effect on
    /// contents, statistics or tracking.
    pub fn prewarm(&self) {
        let mut page = 0;
        while page < self.len {
            // SAFETY: in-bounds; rewriting the current value is benign.
            unsafe {
                let p = self.base.add(page);
                std::ptr::write_volatile(p, std::ptr::read_volatile(p));
            }
            page += PAGE_SIZE;
        }
    }

    /// Full volatile image (what the running system currently sees).
    pub fn volatile_image(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.len];
        self.read_into(PPtr::NULL, &mut v[..]);
        v
    }
}

impl std::fmt::Debug for PmemRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemRegion")
            .field("len", &self.len)
            .field("tracked", &self.is_tracked())
            .field("policy", &self.policy.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn read_write_roundtrip() {
        let r = PmemRegion::new(8192);
        r.write(PPtr::new(100), 0xdead_beef_u32);
        assert_eq!(r.read::<u32>(PPtr::new(100)), 0xdead_beef);
        r.write(PPtr::new(4096), [1u8, 2, 3, 4]);
        assert_eq!(r.read::<[u8; 4]>(PPtr::new(4096)), [1, 2, 3, 4]);
    }

    #[test]
    fn bulk_copy_roundtrip() {
        let r = PmemRegion::new(8192);
        let data: Vec<u8> = (0..=255).collect();
        r.write_from(PPtr::new(500), &data);
        let mut out = vec![0u8; 256];
        r.read_into(PPtr::new(500), &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn zero_range() {
        let r = PmemRegion::new(4096);
        r.write_from(PPtr::new(0), &[0xff; 128]);
        r.zero(PPtr::new(32), 64);
        let mut out = vec![0u8; 128];
        r.read_into(PPtr::new(0), &mut out);
        assert!(out[..32].iter().all(|&b| b == 0xff));
        assert!(out[32..96].iter().all(|&b| b == 0));
        assert!(out[96..].iter().all(|&b| b == 0xff));
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn out_of_bounds_read_panics() {
        let r = PmemRegion::new(4096);
        let _ = r.read::<u64>(PPtr::new(4090));
    }

    #[test]
    fn atomics_are_shared() {
        let r = PmemRegion::new(4096);
        let a = r.atomic_u64(PPtr::new(64));
        a.store(7, Ordering::SeqCst);
        assert_eq!(r.read::<u64>(PPtr::new(64)), 7);
        assert_eq!(r.atomic_u64(PPtr::new(64)).load(Ordering::SeqCst), 7);
        let res = a.compare_exchange(7, 9, Ordering::SeqCst, Ordering::SeqCst);
        assert!(res.is_ok());
        assert_eq!(r.read::<u64>(PPtr::new(64)), 9);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_atomic_panics() {
        let r = PmemRegion::new(4096);
        let _ = r.atomic_u64(PPtr::new(3));
    }

    #[test]
    fn unflushed_stores_do_not_survive_crash() {
        let r = PmemRegion::new_tracked(4096);
        r.write(PPtr::new(0), 0x11111111_u32);
        // No flush, no fence: lost on crash.
        let crashed = r.simulate_crash();
        assert_eq!(crashed.read::<u32>(PPtr::new(0)), 0);
    }

    #[test]
    fn flushed_but_unfenced_stores_do_not_survive_crash() {
        let r = PmemRegion::new_tracked(4096);
        r.write(PPtr::new(0), 0x22222222_u32);
        r.flush(PPtr::new(0), 4);
        let crashed = r.simulate_crash();
        assert_eq!(crashed.read::<u32>(PPtr::new(0)), 0);
    }

    #[test]
    fn persisted_stores_survive_crash() {
        let r = PmemRegion::new_tracked(4096);
        r.write(PPtr::new(0), 0x33333333_u32);
        r.persist(PPtr::new(0), 4);
        let crashed = r.simulate_crash();
        assert_eq!(crashed.read::<u32>(PPtr::new(0)), 0x33333333);
    }

    #[test]
    fn nt_stores_survive_after_fence_only() {
        let r = PmemRegion::new_tracked(4096);
        r.nt_write_from(PPtr::new(128), &[0xab; 64]);
        // nt stores skip clwb but still need the fence.
        let crashed_before_fence = r.simulate_crash();
        assert_eq!(crashed_before_fence.read::<u8>(PPtr::new(128)), 0);
        r.fence();
        let crashed = r.simulate_crash();
        assert_eq!(crashed.read::<u8>(PPtr::new(128)), 0xab);
        assert_eq!(crashed.read::<u8>(PPtr::new(191)), 0xab);
    }

    #[test]
    fn flush_snapshots_at_clwb_time() {
        let r = PmemRegion::new_tracked(4096);
        r.write(PPtr::new(0), 0xaaaa_u16);
        r.flush(PPtr::new(0), 2);
        // Overwrite after the clwb but before the fence: the clwb'd value
        // is what lands on media (conservative deterministic model).
        r.write(PPtr::new(0), 0xbbbb_u16);
        r.fence();
        let crashed = r.simulate_crash();
        assert_eq!(crashed.read::<u16>(PPtr::new(0)), 0xaaaa);
    }

    #[test]
    fn crash_image_remount_preserves_tracking() {
        let r = PmemRegion::new_tracked(8192);
        r.write(PPtr::new(10), 42u8);
        r.persist(PPtr::new(10), 1);
        let c1 = r.simulate_crash();
        assert_eq!(c1.read::<u8>(PPtr::new(10)), 42);
        // The remounted region keeps tracking: new unflushed writes are lost again.
        c1.write(PPtr::new(20), 7u8);
        let c2 = c1.simulate_crash();
        assert_eq!(c2.read::<u8>(PPtr::new(10)), 42);
        assert_eq!(c2.read::<u8>(PPtr::new(20)), 0);
    }

    #[test]
    fn unpersisted_line_diagnostics() {
        let r = PmemRegion::new_tracked(4096);
        assert_eq!(r.unpersisted_lines(), 0);
        r.write(PPtr::new(0), 1u8);
        r.write(PPtr::new(200), 1u8);
        assert_eq!(r.unpersisted_lines(), 2);
        r.persist(PPtr::new(0), 1);
        assert_eq!(r.unpersisted_lines(), 1);
        r.persist(PPtr::new(200), 1);
        assert_eq!(r.unpersisted_lines(), 0);
    }

    #[test]
    fn fault_plan_cuts_power_at_boundary() {
        // A three-fence protocol: each fence persists one counter value.
        let run = |r: &PmemRegion| {
            for v in 1u64..=3 {
                r.write(PPtr::new(0), v);
                r.persist(PPtr::new(0), 8);
            }
        };
        // Recording run counts the boundaries.
        let r = PmemRegion::new_tracked(4096);
        r.arm_faults(FaultPlan::record());
        run(&r);
        assert_eq!(r.fence_count(), 3);
        assert!(!r.powercut_tripped());
        // Replays: cutting after boundary i leaves exactly the i-th value.
        for cut in 0..=3u64 {
            let r = PmemRegion::new_tracked(4096);
            r.arm_faults(FaultPlan::cut_after(cut));
            run(&r);
            assert_eq!(r.powercut_tripped(), cut < 3);
            let crashed = r.simulate_crash();
            assert_eq!(crashed.read::<u64>(PPtr::new(0)), cut, "cut at boundary {cut}");
        }
    }

    #[test]
    fn scope_coalesces_fences_into_one() {
        let r = PmemRegion::new_tracked(4096);
        {
            let _scope = r.fence_scope();
            for i in 0u64..3 {
                r.write(PPtr::new(i * 64), 0xa0 + i);
                r.persist(PPtr::new(i * 64), 8);
            }
            // All three fences deferred: nothing on media yet.
            let crashed = r.simulate_crash();
            assert_eq!(crashed.read::<u64>(PPtr::new(0)), 0);
            let s = r.stats().snapshot();
            assert_eq!(s.fences, 0);
            assert_eq!(s.fences_elided, 3);
        }
        // Scope close issued the single group fence.
        let s = r.stats().snapshot();
        assert_eq!(s.fences, 1);
        let crashed = r.simulate_crash();
        for i in 0u64..3 {
            assert_eq!(crashed.read::<u64>(PPtr::new(i * 64)), 0xa0 + i);
        }
    }

    #[test]
    fn empty_scope_issues_no_fence() {
        let r = PmemRegion::new(4096);
        drop(r.fence_scope());
        assert_eq!(r.stats().snapshot().fences, 0);
    }

    #[test]
    fn fence_now_inside_scope_is_eager_and_clears_pending() {
        let r = PmemRegion::new_tracked(4096);
        {
            let _scope = r.fence_scope();
            r.write(PPtr::new(0), 7u64);
            r.persist(PPtr::new(0), 8); // deferred
            r.persist_now(PPtr::new(0), 8); // real boundary; retires the above too
            let crashed = r.simulate_crash();
            assert_eq!(crashed.read::<u64>(PPtr::new(0)), 7, "persist_now is durable in-scope");
            assert_eq!(r.stats().snapshot().fences, 1);
        }
        // The eager fence covered everything staged: no redundant close fence.
        assert_eq!(r.stats().snapshot().fences, 1);
    }

    #[test]
    fn commit_is_an_intra_scope_boundary() {
        // Boundary accounting (FaultPlan) must see commit() and the closing
        // fence, and none of the deferred ones.
        let r = PmemRegion::new_tracked(4096);
        r.arm_faults(FaultPlan::record());
        {
            let scope = r.fence_scope();
            r.write(PPtr::new(0), 1u64);
            r.persist(PPtr::new(0), 8); // deferred
            scope.commit(); // boundary 1
            r.write(PPtr::new(64), 2u64);
            r.persist(PPtr::new(64), 8); // deferred
        } // boundary 2
        assert_eq!(r.fence_count(), 2);
    }

    #[test]
    fn scopes_nest_and_only_outermost_fences() {
        let r = PmemRegion::new(4096);
        {
            let _outer = r.fence_scope();
            {
                let _inner = r.fence_scope();
                r.write(PPtr::new(0), 1u64);
                r.persist(PPtr::new(0), 8);
            }
            // Inner drop must not fence.
            assert_eq!(r.stats().snapshot().fences, 0);
            r.persist(PPtr::new(8), 8);
        }
        assert_eq!(r.stats().snapshot().fences, 1);
        assert_eq!(r.stats().snapshot().fences_elided, 2);
    }

    #[test]
    fn scope_is_per_thread_and_per_region() {
        let r = std::sync::Arc::new(PmemRegion::new(4096));
        let other = PmemRegion::new(4096);
        let _scope = r.fence_scope();
        // Another thread fencing the same region is unaffected by our scope.
        crossbeam::thread::scope(|s| {
            let r = &r;
            s.spawn(move |_| r.fence());
        })
        .unwrap();
        assert_eq!(r.stats().snapshot().fences, 1, "peer thread fence is real");
        // Another region on this thread is unaffected too.
        other.fence();
        assert_eq!(other.stats().snapshot().fences, 1);
        assert_eq!(other.stats().snapshot().fences_elided, 0);
    }

    #[test]
    fn stats_accumulate() {
        let r = PmemRegion::new(4096);
        r.write_from(PPtr::new(0), &[0u8; 100]);
        let mut buf = [0u8; 50];
        r.read_into(PPtr::new(0), &mut buf);
        r.nt_write_from(PPtr::new(512), &[1u8; 64]);
        r.persist(PPtr::new(0), 100);
        let s = r.stats().snapshot();
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_read, 50);
        assert_eq!(s.bytes_nt_written, 64);
        assert_eq!(s.fences, 1);
        assert!(s.flushed_lines >= 2);
    }

    #[test]
    fn check_access_reports_oob() {
        let r = PmemRegion::new(4096);
        assert!(r.check_access(PPtr::new(0), 4096, false).is_ok());
        assert!(matches!(
            r.check_access(PPtr::new(4000), 200, false),
            Err(PmemError::OutOfBounds { .. })
        ));
    }

    /// A unique temp path per test (no external tempfile dependency).
    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "simurgh-region-{}-{}-{}.pmem",
            tag,
            std::process::id(),
            n
        ))
    }

    struct TempFile(std::path::PathBuf);
    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn file_backing_roundtrip_and_persistence_across_mappings() {
        let path = TempFile(temp_path("rt"));
        {
            let r = RegionBuilder::new(8192).file(&path.0).build().unwrap();
            assert!(r.is_file_backed());
            assert_eq!(r.file_path(), Some(path.0.as_path()));
            r.write(PPtr::new(100), 0xfeed_face_u32);
            r.atomic_u64(PPtr::new(4096)).store(77, Ordering::SeqCst);
            r.persist(PPtr::new(100), 4);
        } // unmapped
        let r2 = RegionBuilder::open_file(&path.0).build().unwrap();
        assert_eq!(r2.len(), 8192);
        assert_eq!(r2.read::<u32>(PPtr::new(100)), 0xfeed_face);
        assert_eq!(r2.atomic_u64(PPtr::new(4096)).load(Ordering::SeqCst), 77);
    }

    #[test]
    fn two_mappings_of_one_file_share_bytes() {
        // Two PmemRegion instances on the same file model two processes:
        // stores through one mapping are visible through the other.
        let path = TempFile(temp_path("share"));
        let a = RegionBuilder::new(4096).file(&path.0).build().unwrap();
        let b = RegionBuilder::new(4096).file(&path.0).build().unwrap();
        a.atomic_u64(PPtr::new(64)).store(42, Ordering::SeqCst);
        assert_eq!(b.atomic_u64(PPtr::new(64)).load(Ordering::SeqCst), 42);
        b.write(PPtr::new(200), 7u8);
        assert_eq!(a.read::<u8>(PPtr::new(200)), 7);
    }

    #[test]
    fn mismatched_length_is_typed_error() {
        let path = TempFile(temp_path("mismatch"));
        drop(RegionBuilder::new(8192).file(&path.0).build().unwrap());
        // Reopen at a different size: must be rejected, not resized.
        let err = RegionBuilder::new(4096).file(&path.0).build().unwrap_err();
        assert_eq!(err, PmemError::SizeMismatch { file_len: 8192, requested: 4096 });
        // ... and an image of the wrong size must not truncate the file.
        let err =
            RegionBuilder::new(0).from_image(vec![0u8; 4096]).file(&path.0).build().unwrap_err();
        assert_eq!(err, PmemError::SizeMismatch { file_len: 8192, requested: 4096 });
        assert_eq!(std::fs::metadata(&path.0).unwrap().len(), 8192, "file untouched");
    }

    #[test]
    fn adopting_a_smaller_file_grows_it_in_place() {
        // Aged-image adoption: reopening an existing region file at a larger
        // size grows the file, preserves the old bytes, and zero-fills the
        // new tail. Shrinking (covered above) stays a typed error.
        let path = TempFile(temp_path("grow"));
        {
            let r = RegionBuilder::new(8192).file(&path.0).build().unwrap();
            r.write(PPtr::new(64), 0xabad_cafe_u32);
            r.persist(PPtr::new(64), 4);
        }
        let r = RegionBuilder::new(4 * 8192).file(&path.0).build().unwrap();
        assert_eq!(r.len(), 4 * 8192);
        assert_eq!(std::fs::metadata(&path.0).unwrap().len(), 4 * 8192);
        assert_eq!(r.read::<u32>(PPtr::new(64)), 0xabad_cafe, "old bytes kept");
        assert_eq!(r.read::<u64>(PPtr::new(3 * 8192)), 0, "new tail zeroed");
    }

    #[test]
    fn open_file_rejects_missing_empty_and_ragged_files() {
        let missing = temp_path("missing");
        assert!(matches!(
            RegionBuilder::open_file(&missing).build(),
            Err(PmemError::BadFile { .. })
        ));
        let path = TempFile(temp_path("ragged"));
        std::fs::write(&path.0, vec![0u8; 100]).unwrap(); // not a page multiple
        assert!(matches!(
            RegionBuilder::open_file(&path.0).build(),
            Err(PmemError::BadFile { .. })
        ));
        std::fs::write(&path.0, b"").unwrap();
        assert!(matches!(
            RegionBuilder::open_file(&path.0).build(),
            Err(PmemError::BadFile { .. })
        ));
    }

    #[test]
    fn from_image_materializes_file() {
        let path = TempFile(temp_path("img"));
        let mut img = vec![0u8; 8192];
        img[4100] = 0xcd;
        drop(RegionBuilder::new(0).from_image(img).file(&path.0).build().unwrap());
        let r = RegionBuilder::open_file(&path.0).build().unwrap();
        assert_eq!(r.read::<u8>(PPtr::new(4100)), 0xcd);
    }

    #[test]
    fn fence_accounting_is_per_mapping() {
        // Satellite: FaultPlan boundary counting lives in the region
        // *instance* (per process), not in the shared mapping. A second
        // mount fencing away must not advance — let alone trip — the first
        // mount's armed plan.
        let path = TempFile(temp_path("fence"));
        let a = RegionBuilder::new(4096)
            .file(&path.0)
            .mode(TrackMode::Tracked)
            .build()
            .unwrap();
        let b = RegionBuilder::new(4096)
            .file(&path.0)
            .mode(TrackMode::Tracked)
            .build()
            .unwrap();
        a.arm_faults(FaultPlan::cut_after(2));
        b.arm_faults(FaultPlan::record());
        for _ in 0..5 {
            b.fence();
        }
        assert_eq!(a.fence_count(), 0, "peer fences leaked into our plan");
        assert!(!a.powercut_tripped(), "peer fences tripped our powercut");
        assert_eq!(b.fence_count(), 5);
        assert_eq!(a.stats().snapshot().fences, 0, "stats are per mapping too");
        a.fence();
        a.fence();
        a.fence();
        assert_eq!(a.fence_count(), 3);
        assert!(a.powercut_tripped(), "own fences still drive own plan");
    }

    #[test]
    fn tracked_file_region_keeps_crash_semantics() {
        // The crash tracker composes with file backing: unflushed stores
        // still vanish from the media image (per-process media model).
        let path = TempFile(temp_path("tracked"));
        let r = RegionBuilder::new(4096)
            .file(&path.0)
            .mode(TrackMode::Tracked)
            .build()
            .unwrap();
        r.write(PPtr::new(0), 0x11u8);
        assert_eq!(r.media_image()[0], 0, "unfenced store not on media");
        r.persist(PPtr::new(0), 1);
        assert_eq!(r.media_image()[0], 0x11);
    }

    #[test]
    fn concurrent_atomic_increments() {
        let r = std::sync::Arc::new(PmemRegion::new(4096));
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                let r = &r;
                s.spawn(move |_| {
                    for _ in 0..1000 {
                        r.atomic_u64(PPtr::new(0)).fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(r.read::<u64>(PPtr::new(0)), 4000);
    }
}
