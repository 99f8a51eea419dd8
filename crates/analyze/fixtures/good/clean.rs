//! GOOD fixture: every rule satisfied.

#[repr(C)]
#[derive(Clone, Copy)]
struct GoodHeader {
    tag: u64,
    len: u64,
}

// SAFETY: repr(C), integer fields only, no padding invariants.
unsafe impl Pod for GoodHeader {}

fn publish_fenced(r: &PmemRegion, blk: DirBlock, line: usize) {
    r.write(blk.line_ptr(line), 0x1234_5678_u64);
    r.persist(blk.line_ptr(line), 8);
    blk.release_busy(r, line);
}

fn paired_lock(env: &DirEnv, blk: DirBlock, line: usize) -> FsResult<()> {
    if !blk.try_busy(env.region, line) {
        return Err(FsError::Busy);
    }
    let got = blk.line(env.region, line);
    blk.release_busy(env.region, line);
    drop(got);
    Ok(())
}

fn documented_unsafe(p: *const u64) -> u64 {
    // SAFETY: caller guarantees `p` points into the mapped region.
    unsafe { p.read_unaligned() }
}

fn read_at(env: &FileEnv, ino: Inode, buf: &mut [u8], off: u64) -> usize {
    // One O(extents) locate before the loop is fine; only per-iteration
    // re-walks inside the loop body are flagged.
    let total = for_each_extent(env.region, ino, |_, _| {});
    let mut done = 0;
    for run in stream_extents(env, ino, off) {
        done += copy_run(run, &mut buf[done..]);
    }
    done.min(total as usize)
}
