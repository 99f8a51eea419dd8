//! Tier-1 gate: the static checker runs over the real workspace sources and
//! must come back clean, and the known-bad fixtures must keep every rule
//! alive. Media layouts are pinned at compile time by
//! `simurgh_pmem::media_struct!`, not here.

use std::path::{Path, PathBuf};

use simurgh_analyze::{scan_dirs, scan_workspace, undeclared_rule_names, Rule};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ has a parent").to_owned()
}

#[test]
fn workspace_is_clean() {
    let report = scan_workspace(&workspace_root()).expect("scan workspace");
    assert!(report.files_scanned > 40, "scan saw only {} files", report.files_scanned);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(rendered.is_empty(), "static analysis violations:\n{}", rendered.join("\n"));
}

#[test]
fn every_rule_table_name_is_a_declared_fn() {
    // The rules match calls by name: a name whose function was deleted or
    // renamed leaves its rule unable to fire, with no finding to show it.
    let missing = undeclared_rule_names(&workspace_root()).expect("scan workspace");
    assert!(
        missing.is_empty(),
        "rule tables name functions the workspace does not declare:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_unsafe_site_is_documented() {
    let report = scan_workspace(&workspace_root()).expect("scan workspace");
    assert!(!report.unsafe_sites.is_empty(), "the pmem layer definitely has unsafe code");
    let undocumented: Vec<String> = report
        .unsafe_sites
        .iter()
        .filter(|s| !s.documented)
        .map(|s| format!("{}:{} {}", s.file, s.line, s.kind))
        .collect();
    assert!(undocumented.is_empty(), "unsafe without SAFETY:\n{}", undocumented.join("\n"));
    assert!(
        report.unsafe_sites.iter().any(|s| s.file.contains("crates/crashlab/")),
        "the scan must cover the crash harness (its kill -9 FFI is unsafe)"
    );
}

#[test]
fn fig7_metadata_assertions_stay_strict() {
    // The old open item tolerated a 15% deficit on the Fig. 7 metadata
    // panels (`simurgh > other * 0.85`). With the O(1) metadata path the
    // paper's strict dominance holds, and this guard keeps it that way:
    // reintroducing any fractional scale factor into the comparison fails
    // tier-1 even if the weakened assertion itself still passes.
    let smoke = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/experiments_smoke.rs");
    let src = std::fs::read_to_string(&smoke).expect("read experiments_smoke.rs");
    let hits = simurgh_analyze::tolerance_findings(&src, "fig7_simurgh_wins_metadata_benchmarks");
    assert!(
        hits.is_empty(),
        "tolerance factor back in the Fig. 7 metadata assertions:\n{}",
        hits.iter().map(|(l, s)| format!("  line {l}: {s}")).collect::<Vec<_>>().join("\n")
    );
    // And the strict comparison itself must still be present (the guard is
    // meaningless if the assertion is deleted rather than weakened).
    assert!(
        src.contains("simurgh > other,"),
        "fig7 smoke test no longer asserts strict dominance"
    );
}

#[test]
fn fig7_data_assertions_stay_strict() {
    // The data-path twin of the guard above: once the extent cursor cache
    // and append fast path made the Fig. 7 data panels (append, shared and
    // private read) strictly dominant, any `* 0.85`-style deficit allowance
    // sneaking back into the comparison fails tier-1 even if the weakened
    // assertion itself still passes.
    let smoke = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/experiments_smoke.rs");
    let src = std::fs::read_to_string(&smoke).expect("read experiments_smoke.rs");
    let hits = simurgh_analyze::tolerance_findings(&src, "fig7_simurgh_wins_data_benchmarks");
    assert!(
        hits.is_empty(),
        "tolerance factor back in the Fig. 7 data assertions:\n{}",
        hits.iter().map(|(l, s)| format!("  line {l}: {s}")).collect::<Vec<_>>().join("\n")
    );
    // The comparison must still be present (the guard is meaningless if the
    // assertion is deleted rather than weakened).
    assert!(
        src.contains("simurgh >= other,"),
        "fig7 data smoke test no longer asserts dominance"
    );
}

// ---------------------------------------------------------------------------
// The rules themselves must stay alive
// ---------------------------------------------------------------------------

#[test]
fn every_rule_fires_on_bad_fixtures() {
    let bad = workspace_root().join("crates/analyze/fixtures/bad");
    let report = scan_dirs(&[bad]).expect("scan bad fixtures");
    for rule in Rule::ALL {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "rule {} did not fire on the bad fixtures: {:#?}",
            rule.id(),
            report.findings
        );
    }
}

#[test]
fn good_fixture_is_clean() {
    let good = workspace_root().join("crates/analyze/fixtures/good");
    let report = scan_dirs(&[good]).expect("scan good fixture");
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(rendered.is_empty(), "good fixture flagged:\n{}", rendered.join("\n"));
    assert!(report.unsafe_sites.iter().all(|s| s.documented));
}
