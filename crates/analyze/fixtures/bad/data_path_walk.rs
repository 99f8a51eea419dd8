//! BAD fixture: re-walking the extent map on the data hot path.
//! Not compiled — scanned by `simurgh-analyze --path crates/analyze/fixtures/bad`.

fn read_at(env: &FileEnv, ino: Inode, buf: &mut [u8], mut off: u64) -> usize {
    let mut done = 0;
    while done < buf.len() {
        // O(extents) locate repeated for every chunk: quadratic in extents.
        let (p, run) = run_at(off, for_each_extent(env.region, ino, |s, e| note(s, e)));
        done += copy_run(p, run, &mut buf[done..]);
        off += run;
    }
    done
}

fn ensure_allocated(env: &FileEnv, ino: Inode, end: u64) {
    // The walk returns the allocated bytes: re-walked every iteration.
    while for_each_extent(env.region, ino, |_, _| {}) < end {
        grow_by_one_block(env, ino);
    }
}
