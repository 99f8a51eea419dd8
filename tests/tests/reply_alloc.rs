//! Heap allocations of the daemon's reply path. A counting global
//! allocator tallies the allocations each thread makes; after a warm-up,
//! serving `pread` and `pwrite` requests through `serve_into` into one
//! reused buffer must allocate no more often than the bare trait calls
//! the requests stand for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simurgh_fsapi::wire::{self, Request};
use simurgh_fsapi::{FileMode, FileSystem, OpenFlags, ProcCtx};
use simurgh_served::dispatch::{dispatch, serve_into, ConnFds};
use simurgh_tests::simurgh;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to the system allocator unchanged; the
// count is a plain thread-local cell, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const OPS: u64 = 1000;
const BLOCK: usize = 4096;
const BLOCKS: u64 = 64;

#[test]
fn reply_path_allocates_no_more_than_the_trait_calls() {
    let fs = simurgh(64 << 20);
    let ctx = ProcCtx::root(3);
    let mut fds = ConnFds::new();
    let flags = OpenFlags { create: true, ..OpenFlags::RDWR };
    let fd = fs.open(&ctx, "/f", flags, FileMode::file(0o644)).unwrap();
    let block = vec![7u8; BLOCK];
    let off = |i: u64| (i % BLOCKS) * BLOCK as u64;
    let pread = |i: u64| Request::Pread { fd, len: BLOCK as u32, off: off(i) };
    let pwrite = |i: u64| Request::Pwrite { fd, data: block.clone(), off: off(i) };
    let mut out = Vec::new();
    let mut buf = vec![0u8; BLOCK];
    // Warm-up: lay the file out, fill per-thread state and size `out`.
    for i in 0..BLOCKS {
        fs.pwrite(&ctx, fd, &block, off(i)).unwrap();
    }
    for i in 0..2 * BLOCKS {
        out.clear();
        serve_into(&fs, &ctx, pwrite(i), &mut fds, &mut out);
        serve_into(&fs, &ctx, pread(i), &mut fds, &mut out);
        fs.pread(&ctx, fd, &mut buf, off(i)).unwrap();
    }

    let bare_pread = allocs_in(|| {
        for i in 0..OPS {
            assert_eq!(fs.pread(&ctx, fd, &mut buf, off(i)).unwrap(), BLOCK);
        }
    });
    let bare_pwrite = allocs_in(|| {
        for i in 0..OPS {
            fs.pwrite(&ctx, fd, &block, off(i)).unwrap();
        }
    });
    // The requests are built outside the counted windows: decoding owns
    // them, and the daemon decodes before it replies.
    let reqs: Vec<Request> = (0..OPS).map(pread).collect();
    let reply_pread = allocs_in(|| {
        for req in reqs {
            out.clear();
            serve_into(&fs, &ctx, req, &mut fds, &mut out);
            assert_eq!(out.len(), 4 + 1 + 4 + BLOCK, "a full 4 KiB Data frame");
        }
    });
    let reqs: Vec<Request> = (0..OPS).map(pwrite).collect();
    let reply_pwrite = allocs_in(|| {
        for req in reqs {
            out.clear();
            serve_into(&fs, &ctx, req, &mut fds, &mut out);
        }
    });
    // The counter sees allocations: the owned path allocates per reply.
    let reqs: Vec<Request> = (0..OPS).map(pread).collect();
    let owned_pread = allocs_in(|| {
        for req in reqs {
            let framed = wire::frame(&dispatch(&fs, &ctx, req, &mut fds).encode());
            std::hint::black_box(framed);
        }
    });
    println!(
        "allocations per {OPS} ops: bare pread {bare_pread}, bare pwrite {bare_pwrite}, \
         in-place pread reply {reply_pread}, pwrite reply {reply_pwrite}, \
         owned pread reply {owned_pread}"
    );
    assert!(owned_pread >= OPS, "the counting allocator counts ({owned_pread})");
    assert!(reply_pread <= bare_pread, "pread replies: {reply_pread} vs {bare_pread} bare");
    assert!(reply_pwrite <= bare_pwrite, "pwrite replies: {reply_pwrite} vs {bare_pwrite} bare");
    fs.close(&ctx, fd).unwrap();
}
