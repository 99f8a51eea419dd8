//! Tier-1 crash-matrix smoke: the exhaustive power-cut + ENOSPC matrix of
//! §4.3, run at full resolution for the namespace-critical ops (create,
//! both renames, both hard-link cells, the chain-block unlink) and with
//! head+tail boundary sampling for the rest. The
//! full uncapped sweep lives in `crashlab matrix` (see EXPERIMENTS.md).

use simurgh_crashlab::testing::matrix::{self, RecoveredState};

/// Boundary sample size for the capped ops: enough to cover the early
/// roll-back region and the late roll-forward region of every protocol.
const CAP: u64 = 6;

fn run(name: &str, cap: Option<u64>) -> matrix::OpMatrix {
    let ops: Vec<_> = matrix::scripted_ops()
        .into_iter()
        .chain(matrix::hard_link_ops())
        .chain([matrix::chain_block_op()])
        .collect();
    let spec = ops.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("unknown op {name}"));
    matrix::run_op_matrix(spec, cap)
}

fn assert_clean(m: &matrix::OpMatrix) {
    assert!(m.is_clean(), "{}: unrecoverable states:\n{:#?}", m.op, m.failures);
    assert!(m.boundaries > 1, "{}: multi-fence protocol expected, saw {}", m.op, m.boundaries);
    let cp = m.commit_point.unwrap_or_else(|| panic!("{}: no commit point", m.op));
    for c in &m.cases {
        let want = if c.boundary < cp { RecoveredState::PreOp } else { RecoveredState::PostOp };
        assert_eq!(c.state, want, "{}: non-monotone at boundary {}", m.op, c.boundary);
    }
    // The setup's parked allocator caches are drained before the cut, so
    // a cut before the op's first fence leaves nothing to reclaim.
    let first = m.cases.iter().find(|c| c.boundary == 0).expect("boundary 0 is always replayed");
    assert_eq!(first.reclaimed, 0, "{}: boundary 0 reclaimed {} objects", m.op, first.reclaimed);
    assert_eq!(
        m.enospc.len() as u64,
        m.allocs,
        "{}: every allocation must have an ENOSPC replay",
        m.op
    );
}

#[test]
fn create_full_matrix() {
    let m = run("create", None);
    assert_clean(&m);
    assert!(!m.capped);
    assert_eq!(m.cases.len() as u64, m.boundaries + 1, "every boundary enumerated");
    assert!(m.allocs >= 2, "create allocates a file entry and an inode");
}

#[test]
fn rename_samedir_full_matrix() {
    let m = run("rename-samedir", None);
    assert_clean(&m);
    assert!(!m.capped);
    assert_eq!(m.cases.len() as u64, m.boundaries + 1);
}

#[test]
fn rename_crossdir_full_matrix() {
    let m = run("rename-crossdir", None);
    assert_clean(&m);
    assert!(!m.capped);
    assert_eq!(m.cases.len() as u64, m.boundaries + 1);
}

/// `link` raises `nlink` before it inserts the new entry: a cut between
/// the two must not leave the count one too high.
#[test]
fn link_full_matrix() {
    let m = run("link", None);
    assert_clean(&m);
    assert!(!m.capped);
    assert_eq!(m.cases.len() as u64, m.boundaries + 1);
}

/// `unlink` of one of two names retires the entry before it drops `nlink`:
/// a cut between the two must not leave the count one too high.
#[test]
fn unlink_hardlinked_full_matrix() {
    let m = run("unlink-hardlinked", None);
    assert_clean(&m);
    assert!(!m.capped);
    assert_eq!(m.cases.len() as u64, m.boundaries + 1);
}

/// An `unlink` that empties a middle chain block: the block stays linked
/// while mounted, so every recovery mount after the unlink must splice it
/// out and free it without disturbing the two names around it.
#[test]
fn unlink_midblock_full_matrix() {
    let m = run("unlink-midblock", None);
    assert_clean(&m);
    assert!(!m.capped);
    assert_eq!(m.cases.len() as u64, m.boundaries + 1);
    // Boundary 0 reclaims nothing (see assert_clean); every rolled-forward
    // state frees the emptied block.
    let anchor = m.cases[0].reclaimed;
    for c in m.cases.iter().filter(|c| c.state == RecoveredState::PostOp) {
        assert!(c.reclaimed > anchor, "boundary {}: the emptied block was not dropped", c.boundary);
    }
}

#[test]
fn remaining_ops_capped_matrix() {
    for name in ["unlink", "append", "truncate-shrink", "symlink"] {
        let m = run(name, Some(CAP));
        assert_clean(&m);
        // Anchors survive sampling: boundary 0 rolls back, the final
        // complete-run boundary rolls forward.
        assert_eq!(m.cases.first().unwrap().boundary, 0);
        assert_eq!(m.cases.first().unwrap().state, RecoveredState::PreOp);
        assert_eq!(m.cases.last().unwrap().boundary, m.boundaries);
        assert_eq!(m.cases.last().unwrap().state, RecoveredState::PostOp);
    }
}

#[test]
fn failing_cell_ships_a_parseable_flight_recorder_dump() {
    // A spec that deterministically fails its sanity check must come back
    // with the flight-recorder dump attached, and the dump must survive the
    // JSON rendering: present under "trace", balanced, and with every line
    // following the `t<tid> #<seq> <kind> ...` shape.
    let m = matrix::run_op_matrix(&matrix::failing_spec_for_tests(), Some(2));
    assert!(!m.is_clean(), "the no-op spec is supposed to fail");
    assert!(!m.trace.is_empty(), "failure report lacks the flight recorder");
    for line in &m.trace {
        assert!(line.starts_with('t'), "unexpected event shape: {line}");
        assert!(line.contains('#'), "unexpected event shape: {line}");
    }
    let j = matrix::to_json(std::slice::from_ref(&m));
    assert!(j.contains("\"trace\":[\""), "dump missing from --json report");
    let depth = j.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "dump broke the JSON nesting");
    // The dump must not smuggle in raw quotes or control characters that
    // would terminate the JSON strings early.
    for line in &m.trace {
        assert!(!line.contains('"') && !line.contains('\\') && !line.contains('\n'));
    }
}

#[test]
fn json_report_carries_the_totals() {
    let m = run("create", Some(4));
    let j = matrix::to_json(std::slice::from_ref(&m));
    assert!(j.contains("\"unrecoverable\":0"));
    assert!(j.contains(&format!("\"boundaries\":{}", m.boundaries)));
    assert!(j.contains(&format!("\"allocs\":{}", m.allocs)));
    assert!(j.contains("\"op\":\"create\""));
    // Hand-rolled JSON stays parseable: balanced braces and brackets.
    let depth = j.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0);
}
