//! Static checker for Simurgh's NVMM invariants.
//!
//! The Fig. 5 protocols and the §4 persistence rules only hold if every
//! function in the tree follows a handful of mechanical conventions:
//! stores are fenced before publication points, busy flags and rename
//! journals are released on every exit path, and `unsafe` is justified.
//! Those conventions are invisible to `rustc`, so this crate enforces them
//! with a hand-rolled line/token scanner (no `syn`, no dependencies — it
//! must build in offline containers) over the workspace sources. What
//! `rustc` can check, it does instead: `#![deny(missing_docs)]` on the
//! `fsapi` contract crate, exhaustive errno matches on `FsError`, and the
//! compile-time layout pins `simurgh_pmem::media_struct!` emits for every
//! on-media struct.
//!
//! Eight rule families:
//!
//! * **persist-order** — in a function that issues raw region stores
//!   (`write`, `write_from`, `nt_write_from`, `zero`) and later releases a
//!   busy flag, clears the rename log or invalidates an object
//!   (`release_busy`, `clear_log`, `invalidate`), a `persist`/`fence` (or
//!   `persist_now`/`fence_now`/scope-`commit`) call must sit between the
//!   last store and the release (§4.3: "metadata updates occur after the
//!   data has been persisted").
//! * **fence-scope** — a group-commit `fence_scope()` elides `persist`/
//!   `fence` calls until the scope closes, so a commit-point publish
//!   (`set_line`, `write_log`, `clear_dirty`, `invalidate`) reached with
//!   stores staged and no intervening `scope.commit()` would let the
//!   publish become durable before the preparation it vouches for; the
//!   scope must commit first.
//! * **lock-discipline** — a raw `try_busy` acquire or an armed rename log
//!   (`write_log`) must be matched by a release (`release_busy`,
//!   `clear_log`) on every exit path; `?`/`return` while held is flagged.
//!   Returning an RAII `*Guard` value is the sanctioned hand-off.
//! * **unsafe-audit** — every `unsafe` block/fn/impl/trait must be
//!   preceded by a `// SAFETY:` (or `/// # Safety`) comment; the full
//!   inventory is reported either way.
//! * **data-path-walk** — the data hot path (`read_at`, `write_at`,
//!   `ensure_allocated`) must stay O(1) in the extent count: calling the
//!   O(extents) persistent-map walk (`for_each_extent`) from inside a loop
//!   body of one of those functions reintroduces the per-chunk re-walk the
//!   extent cursor removed.
//! * **obs-coverage** — the observability layer only catches what it can
//!   see: every counter battery declared in `core` — a `counters!`
//!   invocation or a hand-written struct of `AtomicU64`s — must be wired
//!   into the `ObsRegistry` (mentioned in the file declaring it). An
//!   unregistered battery is invisible to `paper obs`. That every op is
//!   timed is checked at runtime, by a test that issues each wire op.
//! * **shared-region** — a shared-file mount rebuilds every volatile cache
//!   per process, trusting only media: any struct in `core` holding a
//!   cache-shaped container (`HashMap`/`FastMap`/`UnsafeCell`/`SegQueue`)
//!   must be listed, with its rebuild story, in the `REBUILDABLE_CACHES`
//!   registry next to the shared mount protocol. An unlisted cache is DRAM
//!   state no peer process can rebuild or invalidate — exactly the thing a
//!   `kill -9` of one mount turns into silent divergence.
//! * **relocation-order** — online compaction swaps a file's extent map
//!   under the single-slot relocation journal, and the §"Relocation
//!   ordering invariant" (crates/core/src/compact.rs) only holds in one
//!   order: bytes persisted before the journal arms, the map-swap stores
//!   (`set_extent`/`set_ext_next`) inside a fence scope, and an eager
//!   `commit()` sealing the swap before the journal clears or any old
//!   extent is `free`d. A `free(` between the new-map stores and the
//!   `commit()` hands blocks back while the durable truth still points at
//!   them — a crash there double-allocates file data.
//!
//! False positives are suppressed in place with a justified
//! `// analyze:allow(<rule-id>)` marker on the flagged line or in the
//! comment block directly above it; see DESIGN.md "Enforced invariants".
//!
//! The rules match calls by function name, so a rule keyed on a function
//! that was deleted or renamed silently stops firing.
//! [`undeclared_rule_names`] lists every name in the rule tables that no
//! `fn` in the scanned sources declares; tier-1 requires it to be empty.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The eight rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    PersistOrder,
    FenceScope,
    LockDiscipline,
    UnsafeAudit,
    DataPathWalk,
    ObsCoverage,
    SharedRegion,
    RelocationOrder,
}

impl Rule {
    /// Stable identifier used in reports and `analyze:allow(...)` markers.
    pub fn id(self) -> &'static str {
        match self {
            Rule::PersistOrder => "persist-order",
            Rule::FenceScope => "fence-scope",
            Rule::LockDiscipline => "lock-discipline",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::DataPathWalk => "data-path-walk",
            Rule::ObsCoverage => "obs-coverage",
            Rule::SharedRegion => "shared-region",
            Rule::RelocationOrder => "relocation-order",
        }
    }

    pub const ALL: [Rule; 8] = [
        Rule::PersistOrder,
        Rule::FenceScope,
        Rule::LockDiscipline,
        Rule::UnsafeAudit,
        Rule::DataPathWalk,
        Rule::ObsCoverage,
        Rule::SharedRegion,
        Rule::RelocationOrder,
    ];
}

/// One violation. `line` is 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.id(), self.message)
    }
}

/// One `unsafe` site (documented or not) for the audit inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub file: String,
    pub line: usize,
    pub kind: String,
    pub documented: bool,
}

/// Scan output: violations plus the informational inventories.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub unsafe_sites: Vec<UnsafeSite>,
    pub files_scanned: usize,
}

// ---------------------------------------------------------------------------
// Source model: stripped lines
// ---------------------------------------------------------------------------

struct Line {
    /// Original text (comments intact) — used for SAFETY/allow markers.
    raw: String,
    /// Comments and string/char-literal bodies blanked to spaces.
    code: String,
    /// Inside a `#[cfg(test)]` item: protocol half-states are deliberate
    /// there, so every rule skips these lines.
    skip: bool,
}

struct SourceFile {
    label: String,
    lines: Vec<Line>,
}

/// Blanks comments and literal bodies while preserving line structure, so
/// token matching never fires inside a string or comment.
fn strip(src: &str) -> (Vec<String>, Vec<String>) {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut st = St::Code;
    let mut code = String::with_capacity(src.len());
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    code.push(' ');
                }
                '/' if next == Some('*') => {
                    st = St::Block(1);
                    code.push(' ');
                }
                '"' => {
                    // Raw-string prefix? (r"", r#""#, br#""#)
                    let mut j = i;
                    let mut hashes = 0u32;
                    while j > 0 && bytes[j - 1] == '#' {
                        hashes += 1;
                        j -= 1;
                    }
                    let is_raw = j > 0 && (bytes[j - 1] == 'r');
                    st = if is_raw { St::RawStr(hashes) } else { St::Str };
                    code.push('"');
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                        && bytes.get(i + 2).copied() != Some('\'');
                    if is_lifetime {
                        code.push('\'');
                    } else {
                        st = St::Char;
                        code.push('\'');
                    }
                }
                _ => code.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    code.push('\n');
                } else {
                    code.push(' ');
                }
            }
            St::Block(d) => {
                if c == '*' && next == Some('/') {
                    st = if d == 1 { St::Code } else { St::Block(d - 1) };
                    code.push_str("  ");
                    i += 2;
                    continue;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(d + 1);
                    code.push_str("  ");
                    i += 2;
                    continue;
                } else if c == '\n' {
                    code.push('\n');
                } else {
                    code.push(' ');
                }
            }
            St::Str => match c {
                '\\' => {
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Code;
                    code.push('"');
                }
                '\n' => code.push('\n'),
                _ => code.push(' '),
            },
            St::RawStr(h) => {
                if c == '"' {
                    let mut k = 0u32;
                    while k < h && bytes.get(i + 1 + k as usize).copied() == Some('#') {
                        k += 1;
                    }
                    if k == h {
                        st = St::Code;
                        code.push('"');
                        for _ in 0..h {
                            code.push(' ');
                        }
                        i += 1 + h as usize;
                        continue;
                    }
                }
                code.push(if c == '\n' { '\n' } else { ' ' });
            }
            St::Char => match c {
                '\\' => {
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                '\'' => {
                    st = St::Code;
                    code.push('\'');
                }
                _ => code.push(' '),
            },
        }
        i += 1;
    }
    let raw_lines: Vec<String> = src.lines().map(str::to_owned).collect();
    let mut code_lines: Vec<String> = code.lines().map(str::to_owned).collect();
    code_lines.resize(raw_lines.len(), String::new());
    (raw_lines, code_lines)
}

/// Marks every line belonging to a `#[cfg(test)]` item as skipped.
fn mark_cfg_test(lines: &mut [Line]) {
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut started = false;
        let mut j = i;
        while j < lines.len() {
            let mut done = false;
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => {
                        depth -= 1;
                        if started && depth <= 0 {
                            done = true;
                        }
                    }
                    ';' if !started => done = true, // attribute on a braceless item
                    _ => {}
                }
            }
            lines[j].skip = true;
            if done {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
}

fn load(label: &str, src: &str) -> SourceFile {
    let (raw, code) = strip(src);
    let mut lines: Vec<Line> = raw
        .into_iter()
        .zip(code)
        .map(|(raw, code)| Line { raw, code, skip: false })
        .collect();
    mark_cfg_test(&mut lines);
    SourceFile { label: label.to_owned(), lines }
}

// ---------------------------------------------------------------------------
// Token matching
// ---------------------------------------------------------------------------

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `code` invokes `name` as a qualified call: `.name(`, `::name(`
/// or the turbofish forms. Definitions (`fn name(`) do not match.
fn has_call(code: &str, name: &str) -> bool {
    for (pos, _) in code.match_indices(name) {
        let before = code[..pos].chars().next_back();
        if !matches!(before, Some('.') | Some(':')) {
            continue;
        }
        let after = &code[pos + name.len()..];
        if after.starts_with('(') || after.starts_with("::<") {
            return true;
        }
    }
    false
}

/// Whether `code` invokes `name` in any form — bare (`name(`), method
/// (`.name(`) or path-qualified (`::name(`), plus the turbofish variants.
/// Definitions (`fn name(`) do not match.
fn has_invocation(code: &str, name: &str) -> bool {
    for (pos, _) in code.match_indices(name) {
        if code[..pos].chars().next_back().is_some_and(is_ident) {
            continue; // suffix of a longer identifier
        }
        let head = code[..pos].trim_end();
        if head.ends_with("fn")
            && !head[..head.len() - 2].chars().next_back().is_some_and(is_ident)
        {
            continue; // `fn name(` is a definition
        }
        let after = &code[pos + name.len()..];
        if after.starts_with('(') || after.starts_with("::<") {
            return true;
        }
    }
    false
}

/// Whether the line contains bare keyword `word`.
fn has_word(code: &str, word: &str) -> bool {
    for (pos, _) in code.match_indices(word) {
        let before_ok = code[..pos].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok = code[pos + word.len()..].chars().next().is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// The `?` operator (excluding `?Sized` bounds).
fn has_try_op(code: &str) -> bool {
    for (pos, _) in code.match_indices('?') {
        if !code[pos + 1..].starts_with("Sized") {
            return true;
        }
    }
    false
}

/// An `analyze:allow(<id>)` marker on the line itself or anywhere in the
/// contiguous comment/attribute block directly above it.
fn allowed(file: &SourceFile, line_idx: usize, rule: Rule) -> bool {
    let marker = format!("analyze:allow({})", rule.id());
    if file.lines[line_idx].raw.contains(&marker) {
        return true;
    }
    let mut k = line_idx;
    while k > 0 {
        k -= 1;
        let t = file.lines[k].raw.trim();
        if !(t.starts_with("//") || t.starts_with("#[") || t.starts_with("#![")) {
            break;
        }
        if t.contains(&marker) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Function extraction
// ---------------------------------------------------------------------------

/// `(start, end)` inclusive 0-based line ranges of every `fn` body
/// (signature line included). Nested functions yield nested ranges.
fn function_ranges(file: &SourceFile) -> Vec<(usize, usize)> {
    struct OpenFn {
        start: usize,
        body_depth: Option<i64>,
    }
    let mut ranges = Vec::new();
    let mut open: Vec<OpenFn> = Vec::new();
    let mut depth = 0i64;
    for (ln, line) in file.lines.iter().enumerate() {
        if line.skip {
            continue;
        }
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c == 'f'
                && chars.get(i + 1) == Some(&'n')
                && (i == 0 || !is_ident(chars[i - 1]))
                && chars.get(i + 2).is_none_or(|&n| !is_ident(n))
            {
                open.push(OpenFn { start: ln, body_depth: None });
                i += 2;
                continue;
            }
            match c {
                '{' => {
                    depth += 1;
                    if let Some(f) = open.last_mut() {
                        if f.body_depth.is_none() {
                            f.body_depth = Some(depth);
                        }
                    }
                }
                '}' => {
                    if let Some(f) = open.last() {
                        if f.body_depth == Some(depth) {
                            ranges.push((f.start, ln));
                            open.pop();
                        }
                    }
                    depth -= 1;
                }
                ';' => {
                    if let Some(f) = open.last() {
                        if f.body_depth.is_none() {
                            open.pop(); // trait-method declaration, no body
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    ranges
}

// ---------------------------------------------------------------------------
// Rule 1: persistence ordering
// ---------------------------------------------------------------------------

const STORE_CALLS: [&str; 4] = ["write", "write_from", "nt_write_from", "zero"];
const FENCE_CALLS: [&str; 5] = ["persist", "fence", "persist_now", "fence_now", "commit"];
const RELEASE_CALLS: [&str; 3] = ["release_busy", "clear_log", "invalidate"];

fn rule_persist_order(file: &SourceFile, report: &mut Report) {
    for &(start, end) in &function_ranges(file) {
        let mut pending: Option<usize> = None;
        for ln in start..=end {
            let line = &file.lines[ln];
            if line.skip {
                continue;
            }
            if STORE_CALLS.iter().any(|s| has_call(&line.code, s)) {
                pending = Some(ln);
            }
            if FENCE_CALLS.iter().any(|s| has_call(&line.code, s)) {
                pending = None;
            }
            if RELEASE_CALLS.iter().any(|s| has_call(&line.code, s)) {
                if let Some(store_ln) = pending {
                    if !allowed(file, ln, Rule::PersistOrder) {
                        report.findings.push(Finding {
                            rule: Rule::PersistOrder,
                            file: file.label.clone(),
                            line: ln + 1,
                            message: format!(
                                "release without a fence after the store on line {}",
                                store_ln + 1
                            ),
                        });
                    }
                    pending = None; // one finding per unfenced store
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 1b: fence scopes
// ---------------------------------------------------------------------------

/// Publish helpers that make protocol state reachable (each fences its own
/// store eagerly): a crash right after one must observe every preparation
/// persist as durable, so inside a group-commit scope — where `persist`/
/// `fence` are elided — they must be preceded by a `scope.commit()`.
const COMMIT_POINT_CALLS: [&str; 4] = ["set_line", "write_log", "clear_dirty", "invalidate"];
/// Calls that make the scope's staged stores durable immediately.
const EAGER_FENCE_CALLS: [&str; 3] = ["commit", "persist_now", "fence_now"];

fn rule_fence_scope(file: &SourceFile, report: &mut Report) {
    for &(start, end) in &function_ranges(file) {
        let mut open = false;
        // Line of the newest store/persist staged (elided) since the last
        // eager fence, while a scope is open.
        let mut staged: Option<usize> = None;
        for ln in start..=end {
            let line = &file.lines[ln];
            if line.skip {
                continue;
            }
            if has_invocation(&line.code, "fence_scope") {
                // Opening a scope declares intent to stage: the allocator
                // claims inside helper calls stage without a visible token.
                open = true;
                staged = Some(ln);
                continue;
            }
            if !open {
                continue;
            }
            if has_invocation(&line.code, "drop") {
                // Dropping the scope performs the deferred fence.
                open = false;
                staged = None;
                continue;
            }
            if EAGER_FENCE_CALLS.iter().any(|s| has_call(&line.code, s)) {
                staged = None;
                continue;
            }
            if COMMIT_POINT_CALLS.iter().any(|s| has_call(&line.code, s)) {
                if let Some(st) = staged {
                    if !allowed(file, ln, Rule::FenceScope) {
                        report.findings.push(Finding {
                            rule: Rule::FenceScope,
                            file: file.label.clone(),
                            line: ln + 1,
                            message: format!(
                                "commit-point publish inside a fence scope with stores \
                                 staged since line {} and no intervening scope.commit()",
                                st + 1
                            ),
                        });
                    }
                }
                staged = None; // the publish helper fenced eagerly itself
                continue;
            }
            if STORE_CALLS.iter().any(|s| has_call(&line.code, s))
                || has_call(&line.code, "persist")
                || has_call(&line.code, "fence")
            {
                staged = Some(ln);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 1c: relocation ordering
// ---------------------------------------------------------------------------

/// The map-swap stores of the relocation protocol: rewriting the inline
/// extent slots and the overflow-chain head.
const MAP_SWAP_CALLS: [&str; 2] = ["set_extent", "set_ext_next"];

/// A line arming the *relocation journal* specifically — the `journal`
/// qualifier keeps the pmem fault tracker's unrelated `arm` out.
fn arms_reloc_journal(code: &str) -> bool {
    code.contains("journal") && has_invocation(code, "arm")
}

fn rule_relocation_order(file: &SourceFile, report: &mut Report) {
    for &(start, end) in &function_ranges(file) {
        // Only relocation bodies: functions that arm the journal.
        if !(start..=end)
            .any(|ln| !file.lines[ln].skip && arms_reloc_journal(&file.lines[ln].code))
        {
            continue;
        }
        // Newest raw store (the data copy) not yet covered by a fence.
        let mut pending_store: Option<usize> = None;
        let mut armed = false;
        let mut in_scope = false;
        // First map-swap store since arming, not yet sealed by `commit()`.
        let mut swap: Option<usize> = None;
        for ln in start..=end {
            let line = &file.lines[ln];
            if line.skip {
                continue;
            }
            let code = &line.code;
            if has_invocation(code, "fence_scope") {
                in_scope = true;
            }
            if !armed {
                if STORE_CALLS.iter().any(|s| has_call(code, s)) {
                    pending_store = Some(ln);
                }
                if FENCE_CALLS.iter().any(|s| has_call(code, s)) {
                    pending_store = None;
                }
                if arms_reloc_journal(code) {
                    if let Some(st) = pending_store {
                        if !allowed(file, ln, Rule::RelocationOrder) {
                            report.findings.push(Finding {
                                rule: Rule::RelocationOrder,
                                file: file.label.clone(),
                                line: ln + 1,
                                message: format!(
                                    "journal armed with the copied bytes from line {} \
                                     not yet persisted",
                                    st + 1
                                ),
                            });
                        }
                    }
                    armed = true;
                }
                continue;
            }
            if MAP_SWAP_CALLS.iter().any(|s| has_call(code, s)) && swap.is_none() {
                swap = Some(ln);
                if !in_scope && !allowed(file, ln, Rule::RelocationOrder) {
                    report.findings.push(Finding {
                        rule: Rule::RelocationOrder,
                        file: file.label.clone(),
                        line: ln + 1,
                        message: "relocation map swap outside a fence scope".to_owned(),
                    });
                }
            }
            if has_call(code, "commit") {
                swap = None; // the new map is durable; clear/free may follow
                continue;
            }
            if swap.is_some()
                && (has_invocation(code, "free") || has_invocation(code, "clear"))
            {
                if !allowed(file, ln, Rule::RelocationOrder) {
                    report.findings.push(Finding {
                        rule: Rule::RelocationOrder,
                        file: file.label.clone(),
                        line: ln + 1,
                        message: format!(
                            "old extents released before the map swap from line {} \
                             was sealed by commit()",
                            swap.unwrap_or(0) + 1
                        ),
                    });
                }
                swap = None; // one finding per unsealed swap
            }
        }
        if let Some(sw) = swap {
            if !allowed(file, sw, Rule::RelocationOrder) {
                report.findings.push(Finding {
                    rule: Rule::RelocationOrder,
                    file: file.label.clone(),
                    line: sw + 1,
                    message: "relocation map swap is never sealed by an eager commit()"
                        .to_owned(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: lock discipline
// ---------------------------------------------------------------------------

const ACQUIRE_CALLS: [&str; 2] = ["try_busy", "write_log"];
const LOCK_RELEASES: [&str; 2] = ["release_busy", "clear_log"];

fn rule_lock_discipline(file: &SourceFile, report: &mut Report) {
    for &(start, end) in &function_ranges(file) {
        let mut open = 0usize;
        let mut acquire_ln = 0usize;
        for ln in start..=end {
            let line = &file.lines[ln];
            if line.skip {
                continue;
            }
            if ACQUIRE_CALLS.iter().any(|s| has_call(&line.code, s)) {
                open += 1;
                acquire_ln = ln;
            }
            if LOCK_RELEASES.iter().any(|s| has_call(&line.code, s)) {
                open = 0;
            }
            // The acquire line itself is exempt: `if !try_busy { return ... }`
            // is the canonical not-acquired bail-out, not a leak.
            if open > 0 && ln != acquire_ln {
                let escapes = if has_word(&line.code, "return") {
                    // Returning an RAII guard hands the release to the
                    // caller; returning Err(..Busy) is the multi-line form
                    // of the failed-acquire bail-out.
                    let after = line.code.split("return").nth(1).unwrap_or("");
                    !(after.contains("Guard") || after.contains("Busy"))
                } else {
                    has_try_op(&line.code)
                };
                if escapes && !allowed(file, ln, Rule::LockDiscipline) {
                    report.findings.push(Finding {
                        rule: Rule::LockDiscipline,
                        file: file.label.clone(),
                        line: ln + 1,
                        message: format!(
                            "early exit while holding the acquire from line {} \
                             (busy flag / rename log not released)",
                            acquire_ln + 1
                        ),
                    });
                    open = 0; // one finding per leaked acquire
                }
            }
        }
        if open > 0 && !allowed(file, acquire_ln, Rule::LockDiscipline) {
            report.findings.push(Finding {
                rule: Rule::LockDiscipline,
                file: file.label.clone(),
                line: acquire_ln + 1,
                message: "acquire is never released on the fall-through path".to_owned(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: unsafe audit
// ---------------------------------------------------------------------------

fn unsafe_kind(code: &str) -> Option<&'static str> {
    if !has_word(code, "unsafe") {
        return None;
    }
    if code.contains("unsafe impl") {
        Some("unsafe impl")
    } else if code.contains("unsafe fn") {
        Some("unsafe fn")
    } else if code.contains("unsafe trait") {
        Some("unsafe trait")
    } else {
        Some("unsafe block")
    }
}

fn safety_documented(file: &SourceFile, ln: usize, kind: &str) -> bool {
    let mentions = |s: &str| s.contains("SAFETY") || s.contains("# Safety");
    if mentions(&file.lines[ln].raw) {
        return true;
    }
    let mut k = ln;
    while k > 0 {
        k -= 1;
        let t = file.lines[k].raw.trim();
        if t.starts_with("//") {
            if mentions(t) {
                return true;
            }
        } else if t.starts_with("#[") || t.starts_with("#![") {
            // attributes sit between the comment and the item
        } else if kind == "unsafe impl" && t.starts_with("unsafe impl") {
            // one SAFETY comment may cover an adjacent group of one-line impls
            if mentions(t) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

fn rule_unsafe_audit(file: &SourceFile, report: &mut Report) {
    for ln in 0..file.lines.len() {
        let line = &file.lines[ln];
        if line.skip {
            continue;
        }
        let Some(kind) = unsafe_kind(&line.code) else {
            continue;
        };
        let documented = safety_documented(file, ln, kind);
        report.unsafe_sites.push(UnsafeSite {
            file: file.label.clone(),
            line: ln + 1,
            kind: kind.to_owned(),
            documented,
        });
        if !documented && !allowed(file, ln, Rule::UnsafeAudit) {
            report.findings.push(Finding {
                rule: Rule::UnsafeAudit,
                file: file.label.clone(),
                line: ln + 1,
                message: format!("{kind} without a preceding `// SAFETY:` comment"),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: data-path walk guard
// ---------------------------------------------------------------------------

/// Functions forming the per-op data hot path: one extent locate per call.
const DATA_HOT_FNS: [&str; 3] = ["read_at", "write_at", "ensure_allocated"];
/// The O(extents) helpers those functions must not call per loop iteration.
const DATA_WALK_CALLS: [&str; 1] = ["for_each_extent"];

/// Name of the function declared on this line, if any (`fn name(` shapes).
fn declared_fn_name(code: &str) -> Option<String> {
    for (pos, _) in code.match_indices("fn") {
        let before_ok = code[..pos].chars().next_back().is_none_or(|c| !is_ident(c));
        let after = &code[pos + 2..];
        if !before_ok || !after.starts_with(' ') {
            continue;
        }
        let name: String = after.trim_start().chars().take_while(|&c| is_ident(c)).collect();
        if !name.is_empty() {
            return Some(name);
        }
    }
    None
}

fn rule_data_path_walk(file: &SourceFile, report: &mut Report) {
    for &(start, end) in &function_ranges(file) {
        let Some(name) = declared_fn_name(&file.lines[start].code) else {
            continue;
        };
        if !DATA_HOT_FNS.contains(&name.as_str()) {
            continue;
        }
        // Track which brace depths open loop bodies. A `for`/`while`/`loop`
        // keyword arms the next `{`; popping back below an armed depth ends
        // that loop. Line granularity: a walk call on the loop-head line
        // itself (re-evaluated every iteration) counts as inside.
        let mut depth = 0i64;
        let mut loop_depths: Vec<i64> = Vec::new();
        let mut pending_loop = false;
        for ln in start..=end {
            let line = &file.lines[ln];
            if line.skip {
                continue;
            }
            let code = &line.code;
            let opens_loop =
                ["for", "while", "loop"].iter().any(|k| has_word(code, k));
            let hot = !loop_depths.is_empty() || opens_loop;
            if hot {
                for call in DATA_WALK_CALLS {
                    if has_invocation(code, call) && !allowed(file, ln, Rule::DataPathWalk) {
                        report.findings.push(Finding {
                            rule: Rule::DataPathWalk,
                            file: file.label.clone(),
                            line: ln + 1,
                            message: format!(
                                "O(extents) `{call}` inside a loop body of `{name}` — \
                                 locate once via the extent cursor and stream instead"
                            ),
                        });
                    }
                }
            }
            if opens_loop {
                pending_loop = true;
            }
            for ch in code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        if pending_loop {
                            loop_depths.push(depth);
                            pending_loop = false;
                        }
                    }
                    '}' => {
                        if loop_depths.last() == Some(&depth) {
                            loop_depths.pop();
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: observability coverage
// ---------------------------------------------------------------------------

/// `(declaration line, name)` of every counter battery: a struct declared
/// in the `counters!` form (`struct Battery / Snapshot {`), or a hand-written
/// struct whose body declares at least two `AtomicU64`s (a lone atomic is a
/// clock or a lock word, not a stats surface).
fn counter_structs(file: &SourceFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (ln, line) in file.lines.iter().enumerate() {
        if line.skip || !has_word(&line.code, "struct") {
            continue;
        }
        let Some(rest) = line.code.split("struct").nth(1) else {
            continue;
        };
        let name: String = rest.trim_start().chars().take_while(|&c| is_ident(c)).collect();
        if name.is_empty() {
            continue;
        }
        // `counters!` declares the battery's atomics itself: the header's
        // `/ Snapshot` is the whole tell.
        if rest.trim_start()[name.len()..].trim_start().starts_with('/') {
            out.push((ln, name));
            continue;
        }
        let mut depth = 0i64;
        let mut entered = false;
        let mut atomics = 0usize;
        'body: for body_line in &file.lines[ln..] {
            atomics += body_line.code.matches("AtomicU64").count();
            for c in body_line.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth -= 1;
                        if entered && depth <= 0 {
                            break 'body;
                        }
                    }
                    ';' if !entered => break 'body, // unit/tuple struct
                    _ => {}
                }
            }
        }
        if atomics >= 2 {
            out.push((ln, name));
        }
    }
    out
}

fn rule_obs_coverage(files: &[SourceFile], report: &mut Report) {
    // Every counter battery declared in core must be wired into the
    // registry — its name must appear in the file declaring `struct
    // ObsRegistry` (via its snapshot type or a field). With no registry in
    // scope every battery is by definition unregistered. Op timing is
    // checked at runtime instead: `tests/tests/obs_timing.rs` issues every
    // wire op and asserts that exactly its histogram moved.
    let registry = files
        .iter()
        .find(|f| f.lines.iter().any(|l| !l.skip && l.code.contains("struct ObsRegistry")));
    for file in files {
        if !(file.label.contains("core/src") || file.label.contains("fixtures")) {
            continue;
        }
        for (ln, name) in counter_structs(file) {
            let registered = registry
                .is_some_and(|reg| reg.lines.iter().any(|l| l.code.contains(name.as_str())));
            if !registered && !allowed(file, ln, Rule::ObsCoverage) {
                report.findings.push(Finding {
                    rule: Rule::ObsCoverage,
                    file: file.label.clone(),
                    line: ln + 1,
                    message: format!(
                        "counter struct `{name}` is not registered in the ObsRegistry \
                         — its counters never reach `paper obs`"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: shared-region
// ---------------------------------------------------------------------------

/// Structs whose body holds a cache-shaped container — the things a second
/// process mounting the same region file cannot see into: `HashMap`/
/// `FastMap` (name or state indexes), `UnsafeCell` (lock-protected free
/// lists), `SegQueue` (free stacks). Returns `(0-based line, name)` pairs.
fn cache_structs(file: &SourceFile) -> Vec<(usize, String)> {
    const CACHE_TOKENS: [&str; 4] = ["HashMap<", "FastMap<", "UnsafeCell<", "SegQueue<"];
    let mut out = Vec::new();
    for (ln, line) in file.lines.iter().enumerate() {
        if line.skip || !has_word(&line.code, "struct") {
            continue;
        }
        let Some(rest) = file.lines[ln].code.split("struct").nth(1) else {
            continue;
        };
        let name: String = rest.trim_start().chars().take_while(|&c| is_ident(c)).collect();
        if name.is_empty() {
            continue;
        }
        let mut depth = 0i64;
        let mut entered = false;
        let mut cached = false;
        'body: for body_line in &file.lines[ln..] {
            if CACHE_TOKENS.iter().any(|t| body_line.code.contains(t)) {
                cached = true;
            }
            for c in body_line.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth -= 1;
                        if entered && depth <= 0 {
                            break 'body;
                        }
                    }
                    ';' if !entered => break 'body, // unit/tuple struct
                    _ => {}
                }
            }
        }
        if cached {
            out.push((ln, name));
        }
    }
    out
}

/// shared-region: every volatile cache struct in `core` must be in the
/// `REBUILDABLE_CACHES` registry (the audited list, with rebuild stories,
/// next to the shared mount protocol). A cache-shaped struct missing from
/// the registry is per-process DRAM a peer mount can neither rebuild nor
/// invalidate.
fn rule_shared_region(files: &[SourceFile], report: &mut Report) {
    // The registry entries are string literals (blanked in `code`), so the
    // membership check reads `raw`.
    let registry = files
        .iter()
        .find(|f| f.lines.iter().any(|l| !l.skip && l.code.contains("REBUILDABLE_CACHES")));
    for file in files {
        if !(file.label.contains("core/src") || file.label.contains("fixtures")) {
            continue;
        }
        for (ln, name) in cache_structs(file) {
            let listed = registry.is_some_and(|reg| {
                reg.lines.iter().any(|l| l.raw.contains(&format!("\"{name}\"")))
            });
            if !listed && !allowed(file, ln, Rule::SharedRegion) {
                report.findings.push(Finding {
                    rule: Rule::SharedRegion,
                    file: file.label.clone(),
                    line: ln + 1,
                    message: format!(
                        "volatile cache struct `{name}` is not in the REBUILDABLE_CACHES \
                         registry — a peer mount of the same region file cannot rebuild \
                         or invalidate it"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tolerance-factor guard (comparative benchmark assertions)
// ---------------------------------------------------------------------------

/// Whether a line multiplies something by a fractional numeric literal
/// (`other * 0.85`, `0.9 * baseline`) — the shape of a tolerance factor
/// softening a comparative assertion.
fn has_fractional_scale(code: &str) -> bool {
    let b: Vec<char> = code.chars().collect();
    let is_num = |c: char| c.is_ascii_digit() || c == '.' || c == '_';
    for (i, &c) in b.iter().enumerate() {
        if c != '*' {
            continue;
        }
        // `**` or `*/` never appear in stripped numeric code; a deref `*x`
        // is filtered below because idents aren't numeric.
        let mut j = i + 1;
        while j < b.len() && b[j] == ' ' {
            j += 1;
        }
        let start = j;
        while j < b.len() && is_num(b[j]) {
            j += 1;
        }
        if j > start && b[start..j].contains(&'.') {
            return true;
        }
        let mut k = i;
        while k > 0 && b[k - 1] == ' ' {
            k -= 1;
        }
        let end = k;
        while k > 0 && is_num(b[k - 1]) {
            k -= 1;
        }
        if end > k && b[k..end].contains(&'.') {
            return true;
        }
    }
    false
}

/// Scans the body of `fn fn_name` in `src` for tolerance factors and
/// returns the offending `(1-based line, text)` pairs. Used by the tier-1
/// guard that keeps `experiments_smoke.rs` asserting *strict* dominance on
/// the Fig. 7 metadata panels: once the O(1) metadata path made the strict
/// comparison hold, reintroducing a `* 0.85`-style deficit allowance is a
/// regression this catches at test time. Comments and string literals are
/// ignored; returns an empty list if the function is not found.
pub fn tolerance_findings(src: &str, fn_name: &str) -> Vec<(usize, String)> {
    let file = load("src", src);
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_fn = false;
    let mut entered = false;
    for (idx, line) in file.lines.iter().enumerate() {
        if !in_fn {
            let code = &line.code;
            if let Some(pos) = code.find(fn_name) {
                let is_def = code[..pos].trim_end().ends_with("fn")
                    && code[pos + fn_name.len()..].starts_with('(');
                if is_def {
                    in_fn = true;
                    entered = false;
                    depth = 0;
                }
            }
        }
        if in_fn {
            if has_fractional_scale(&line.code) {
                out.push((idx + 1, line.raw.trim().to_owned()));
            }
            for ch in line.code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if entered && depth <= 0 {
                break;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule vocabulary
// ---------------------------------------------------------------------------

/// Every function-name table the rules match calls against.
const RULE_TABLES: [(&str, &[&str]); 10] = [
    ("STORE_CALLS", &STORE_CALLS),
    ("FENCE_CALLS", &FENCE_CALLS),
    ("RELEASE_CALLS", &RELEASE_CALLS),
    ("COMMIT_POINT_CALLS", &COMMIT_POINT_CALLS),
    ("EAGER_FENCE_CALLS", &EAGER_FENCE_CALLS),
    ("MAP_SWAP_CALLS", &MAP_SWAP_CALLS),
    ("ACQUIRE_CALLS", &ACQUIRE_CALLS),
    ("LOCK_RELEASES", &LOCK_RELEASES),
    ("DATA_HOT_FNS", &DATA_HOT_FNS),
    ("DATA_WALK_CALLS", &DATA_WALK_CALLS),
];

/// Names in the rule tables that no `fn` outside `#[cfg(test)]` code in
/// `sources` declares, as `TABLE: name`.
fn undeclared_in(sources: &[(String, String)]) -> Vec<String> {
    let mut declared = std::collections::HashSet::new();
    for (label, src) in sources {
        let file = load(label, src);
        let live = file.lines.iter().filter(|l| !l.skip);
        declared.extend(live.filter_map(|l| declared_fn_name(&l.code)));
    }
    RULE_TABLES
        .iter()
        .flat_map(|(table, names)| {
            names.iter().filter(|n| !declared.contains(**n)).map(move |n| format!("{table}: {n}"))
        })
        .collect()
}

/// Names in the rule tables that no `fn` in the workspace rooted at `root`
/// declares (the sources [`scan_workspace`] reads, test code excluded), as
/// `TABLE: name`. A rule keyed on such a name can never fire.
pub fn undeclared_rule_names(root: &Path) -> io::Result<Vec<String>> {
    Ok(undeclared_in(&read_sources(&workspace_roots(root)?)?))
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Scans in-memory `(label, source)` pairs.
pub fn scan_files(sources: &[(&str, &str)]) -> Report {
    let files: Vec<SourceFile> = sources.iter().map(|(l, s)| load(l, s)).collect();
    let mut report = Report { files_scanned: files.len(), ..Report::default() };
    for file in &files {
        rule_persist_order(file, &mut report);
        rule_fence_scope(file, &mut report);
        rule_relocation_order(file, &mut report);
        rule_lock_discipline(file, &mut report);
        rule_unsafe_audit(file, &mut report);
        rule_data_path_walk(file, &mut report);
    }
    rule_obs_coverage(&files, &mut report);
    rule_shared_region(&files, &mut report);
    report.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.findings.dedup();
    report
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let with_path = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", dir.display()));
    for entry in fs::read_dir(dir).map_err(with_path)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `(path, source)` of every `.rs` file under the given roots, sorted.
fn read_sources(roots: &[PathBuf]) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    for root in roots {
        collect_rs(root, &mut paths)?;
    }
    paths.sort();
    paths.iter().map(|p| Ok((p.display().to_string(), fs::read_to_string(p)?))).collect()
}

/// Scans every `.rs` file under the given roots.
pub fn scan_dirs(roots: &[PathBuf]) -> io::Result<Report> {
    let sources = read_sources(roots)?;
    let borrowed: Vec<(&str, &str)> =
        sources.iter().map(|(l, s)| (l.as_str(), s.as_str())).collect();
    Ok(scan_files(&borrowed))
}

/// Every crate's `src/` tree of the workspace rooted at `root` (vendored
/// third-party stand-ins under `vendor/` and the integration `tests/`
/// crate are intentionally out of scope).
fn workspace_roots(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            roots.push(src);
        }
    }
    roots.sort();
    Ok(roots)
}

/// Scans the Simurgh workspace rooted at `root` (see [`workspace_roots`]).
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    scan_dirs(&workspace_roots(root)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_of(src: &str, rule: Rule) -> Vec<Finding> {
        let report = scan_files(&[("fixture.rs", src)]);
        report.findings.into_iter().filter(|f| f.rule == rule).collect()
    }

    // ----- tolerance guard -------------------------------------------------

    #[test]
    fn tolerance_factor_detected_in_target_fn_only() {
        let src = "
            fn fig7_strict() {
                assert!(simurgh > other);
            }
            fn fig7_soft() {
                // a comment mentioning 0.85 * other is fine
                assert!(simurgh > other * 0.85, \"within 15% of {}\", other);
            }
            fn elsewhere() {
                let x = y * 0.5;
            }
        ";
        assert!(tolerance_findings(src, "fig7_strict").is_empty());
        let hits = tolerance_findings(src, "fig7_soft");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].1.contains("0.85"));
        // Unknown function: nothing to report.
        assert!(tolerance_findings(src, "no_such_fn").is_empty());
    }

    #[test]
    fn tolerance_factor_shapes() {
        assert!(has_fractional_scale("simurgh > other * 0.85"));
        assert!(has_fractional_scale("simurgh > 0.9*other"));
        assert!(has_fractional_scale("a >= b * 1.15"));
        assert!(!has_fractional_scale("simurgh > other"));
        assert!(!has_fractional_scale("x * 2"));
        assert!(!has_fractional_scale("let p = *ptr;"));
        assert!(!has_fractional_scale("n * factor"));
    }

    // ----- persist-order ---------------------------------------------------

    #[test]
    fn persist_order_good_fenced_release() {
        let src = "
            fn publish(r: &R, b: B) {
                r.write(p, 7u64);
                r.persist(p, 8);
                b.release_busy(r, 3);
            }
        ";
        assert!(findings_of(src, Rule::PersistOrder).is_empty());
    }

    #[test]
    fn persist_order_bad_store_then_release() {
        let src = "
            fn publish(r: &R, b: B) {
                r.write(p, 7u64);
                b.release_busy(r, 3);
            }
        ";
        let f = findings_of(src, Rule::PersistOrder);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn persist_order_bad_nt_store_then_clear_log() {
        let src = "
            fn finish(r: &R, d: D) {
                r.nt_write_from(p, &buf);
                d.clear_log(r);
            }
        ";
        assert_eq!(findings_of(src, Rule::PersistOrder).len(), 1);
    }

    #[test]
    fn persist_order_bad_zero_then_invalidate() {
        let src = "
            fn wipe(r: &R) {
                r.zero(p, 64);
                obj::invalidate(r, q);
            }
        ";
        assert_eq!(findings_of(src, Rule::PersistOrder).len(), 1);
    }

    #[test]
    fn persist_order_respects_allow_marker() {
        let src = "
            fn publish(r: &R, b: B) {
                r.write(p, 7u64);
                // analyze:allow(persist-order): volatile scratch line
                b.release_busy(r, 3);
            }
        ";
        assert!(findings_of(src, Rule::PersistOrder).is_empty());
    }

    #[test]
    fn persist_order_ignores_unrelated_writes() {
        // `write_log(` must not be read as a raw `write(` store.
        let src = "
            fn log(r: &R, d: D) {
                d.write_log(r, &entry);
                d.clear_log(r);
            }
        ";
        assert!(findings_of(src, Rule::PersistOrder).is_empty());
    }

    // ----- fence-scope -----------------------------------------------------

    #[test]
    fn fence_scope_publish_without_commit_flagged() {
        let src = "
            fn publish(r: &R, b: B) {
                let scope = r.fence_scope();
                r.write(p, 7u64);
                r.persist(p, 8);
                b.set_line(r, 0, p);
            }
        ";
        let f = findings_of(src, Rule::FenceScope);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("scope.commit()"), "{}", f[0].message);
    }

    #[test]
    fn fence_scope_commit_before_publish_is_clean() {
        let src = "
            fn publish(r: &R, b: B) {
                let scope = r.fence_scope();
                r.write(p, 7u64);
                r.persist(p, 8);
                scope.commit();
                b.set_line(r, 0, p);
            }
        ";
        assert!(findings_of(src, Rule::FenceScope).is_empty());
    }

    #[test]
    fn fence_scope_publish_outside_any_scope_is_clean() {
        let src = "
            fn publish(r: &R, b: B) {
                r.write(p, 7u64);
                r.persist(p, 8);
                b.set_line(r, 0, p);
            }
        ";
        assert!(findings_of(src, Rule::FenceScope).is_empty());
    }

    #[test]
    fn fence_scope_rearms_on_stores_after_commit() {
        let src = "
            fn publish(r: &R, b: B) {
                let scope = r.fence_scope();
                r.write(p, 7u64);
                scope.commit();
                b.set_line(r, 0, p);
                r.write(q, 9u64);
                b.set_line(r, 1, q);
            }
        ";
        let f = findings_of(src, Rule::FenceScope);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn fence_scope_drop_closes_the_scope() {
        let src = "
            fn publish(r: &R, b: B) {
                let scope = r.fence_scope();
                r.write(p, 7u64);
                drop(scope);
                b.set_line(r, 0, p);
            }
        ";
        assert!(findings_of(src, Rule::FenceScope).is_empty());
    }

    #[test]
    fn fence_scope_allow_marker_suppresses() {
        let src = "
            fn publish(r: &R, b: B) {
                let scope = r.fence_scope();
                r.write(p, 7u64);
                // analyze:allow(fence-scope) — publish target is unreachable
                b.set_line(r, 0, p);
            }
        ";
        assert!(findings_of(src, Rule::FenceScope).is_empty());
    }

    // ----- relocation-order ------------------------------------------------

    #[test]
    fn relocation_order_good_full_protocol() {
        // copy → persist → arm → scoped swap → commit → clear → free: clean.
        let src = "
            fn relocate(r: &R, env: &E, ino: Inode) {
                r.nt_write_from(dst, &buf);
                r.persist(dst, total);
                if !journal::arm(r, ino) {
                    env.blocks.free(dst, n);
                    return;
                }
                let scope = r.fence_scope();
                ino.set_extent(r, 0, new_extent);
                ino.set_ext_next(r, PPtr::NULL);
                scope.commit();
                drop(scope);
                journal::clear(r);
                env.blocks.free(old, n);
            }
        ";
        assert!(findings_of(src, Rule::RelocationOrder).is_empty());
    }

    #[test]
    fn relocation_order_bad_free_before_commit() {
        let src = "
            fn relocate(r: &R, env: &E, ino: Inode) {
                r.persist(dst, total);
                journal::arm(r, ino);
                let scope = r.fence_scope();
                ino.set_extent(r, 0, new_extent);
                env.blocks.free(old, n);
                scope.commit();
            }
        ";
        let f = findings_of(src, Rule::RelocationOrder);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("sealed by commit()"));
    }

    #[test]
    fn relocation_order_bad_clear_before_commit() {
        let src = "
            fn relocate(r: &R, ino: Inode) {
                journal::arm(r, ino);
                let scope = r.fence_scope();
                ino.set_extent(r, 0, new_extent);
                journal::clear(r);
                scope.commit();
            }
        ";
        assert_eq!(findings_of(src, Rule::RelocationOrder).len(), 1);
    }

    #[test]
    fn relocation_order_bad_swap_outside_scope_and_never_committed() {
        let src = "
            fn relocate(r: &R, ino: Inode) {
                journal::arm(r, ino);
                ino.set_extent(r, 0, new_extent);
            }
        ";
        let f = findings_of(src, Rule::RelocationOrder);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("outside a fence scope")));
        assert!(f.iter().any(|x| x.message.contains("never sealed")));
    }

    #[test]
    fn relocation_order_bad_armed_with_unpersisted_copy() {
        let src = "
            fn relocate(r: &R, ino: Inode) {
                r.nt_write_from(dst, &buf);
                journal::arm(r, ino);
                let scope = r.fence_scope();
                ino.set_extent(r, 0, new_extent);
                scope.commit();
            }
        ";
        let f = findings_of(src, Rule::RelocationOrder);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not yet persisted"));
    }

    #[test]
    fn relocation_order_ignores_the_fault_tracker_arm() {
        // The pmem fault tracker also has an `arm` — without the journal
        // qualifier the function is not a relocation body.
        let src = "
            fn arm_faults(&self, plan: FaultPlan) {
                self.tracker.arm(plan);
                ino.set_extent(r, 0, e);
            }
        ";
        assert!(findings_of(src, Rule::RelocationOrder).is_empty());
    }

    #[test]
    fn relocation_order_allow_marker_suppresses() {
        let src = "
            fn relocate(r: &R, env: &E, ino: Inode) {
                journal::arm(r, ino);
                let scope = r.fence_scope();
                ino.set_extent(r, 0, new_extent);
                // analyze:allow(relocation-order): staged run, not the old map
                env.blocks.free(dst, n);
                scope.commit();
            }
        ";
        assert!(findings_of(src, Rule::RelocationOrder).is_empty());
    }

    // ----- lock-discipline -------------------------------------------------

    #[test]
    fn lock_discipline_good_paired() {
        let src = "
            fn op(r: &R, b: B) -> FsResult<()> {
                if !b.try_busy(r, 3) { return Err(FsError::Busy); }
                work(r)
                b.release_busy(r, 3);
                Ok(())
            }
        ";
        assert!(findings_of(src, Rule::LockDiscipline).is_empty());
    }

    #[test]
    fn lock_discipline_bad_question_mark_while_held() {
        let src = "
            fn op(r: &R, b: B) -> FsResult<()> {
                b.write_log(r, &entry);
                let x = alloc(r)?;
                b.clear_log(r);
                Ok(())
            }
        ";
        let f = findings_of(src, Rule::LockDiscipline);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn lock_discipline_bad_return_while_held() {
        let src = "
            fn op(r: &R, b: B) -> FsResult<()> {
                if b.try_busy(r, 3) {
                    if bad() { return Err(FsError::NoSpace); }
                    b.release_busy(r, 3);
                }
                Ok(())
            }
        ";
        assert_eq!(findings_of(src, Rule::LockDiscipline).len(), 1);
    }

    #[test]
    fn lock_discipline_bad_never_released() {
        let src = "
            fn op(r: &R, d: D) {
                d.write_log(r, &entry);
                finish(r);
            }
        ";
        let f = findings_of(src, Rule::LockDiscipline);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("never released"));
    }

    #[test]
    fn lock_discipline_guard_return_is_raii_handoff() {
        let src = "
            fn lock(r: &R, b: B) -> LineGuard {
                loop {
                    if b.try_busy(r, 3) {
                        return LineGuard { b, line: 3 };
                    }
                    b.release_busy(r, 3);
                }
            }
        ";
        assert!(findings_of(src, Rule::LockDiscipline).is_empty());
    }

    #[test]
    fn lock_discipline_respects_allow_marker() {
        let src = "
            fn crash_while_held(r: &R, b: B) {
                // analyze:allow(lock-discipline): simulates a crashed holder
                b.try_busy(r, 3);
            }
        ";
        assert!(findings_of(src, Rule::LockDiscipline).is_empty());
    }

    // ----- unsafe-audit ----------------------------------------------------

    #[test]
    fn unsafe_audit_good_documented_block() {
        let src = "
            fn read(p: *const u8) -> u8 {
                // SAFETY: caller guarantees p is live.
                unsafe { *p }
            }
        ";
        assert!(findings_of(src, Rule::UnsafeAudit).is_empty());
        let report = scan_files(&[("fixture.rs", src)]);
        assert_eq!(report.unsafe_sites.len(), 1);
        assert!(report.unsafe_sites[0].documented);
    }

    #[test]
    fn unsafe_audit_bad_undocumented_block() {
        let src = "
            fn read(p: *const u8) -> u8 {
                unsafe { *p }
            }
        ";
        let f = findings_of(src, Rule::UnsafeAudit);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn unsafe_audit_bad_undocumented_impl() {
        let src = "
            struct S;
            unsafe impl Sync for S {}
        ";
        assert_eq!(findings_of(src, Rule::UnsafeAudit).len(), 1);
    }

    #[test]
    fn unsafe_audit_comment_covers_impl_group() {
        let src = "
            // SAFETY: plain integers have no invalid bit patterns.
            unsafe impl Pod for u8 {}
            unsafe impl Pod for u16 {}
            unsafe impl Pod for u32 {}
        ";
        assert!(findings_of(src, Rule::UnsafeAudit).is_empty());
    }

    #[test]
    fn unsafe_audit_ignores_comments_strings_and_tests() {
        let src = "
            fn f() -> &'static str {
                // this mentions unsafe in a comment only
                \"unsafe in a string\"
            }
            #[cfg(test)]
            mod tests {
                fn g(p: *const u8) -> u8 { unsafe { *p } }
            }
        ";
        let report = scan_files(&[("fixture.rs", src)]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.unsafe_sites.is_empty());
    }

    // ----- data-path-walk --------------------------------------------------

    #[test]
    fn data_path_walk_bad_rewalk_in_loop() {
        let src = "
            fn read_at(env: &FileEnv, ino: Inode, buf: &mut [u8], mut off: u64) -> usize {
                let mut done = 0;
                while done < buf.len() {
                    let (p, run) = run_at(off, for_each_extent(env.region, ino, |s, e| note(s, e)));
                    done += copy(p, run);
                    off += run;
                }
                done
            }
        ";
        let f = findings_of(src, Rule::DataPathWalk);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("for_each_extent"));
    }

    #[test]
    fn data_path_walk_bad_qualified_call_and_loop_head() {
        let src = "
            fn write_at(env: &FileEnv, ino: Inode, data: &[u8]) -> usize {
                for chunk in data.chunks(4096) {
                    file::for_each_extent(env, ino, |e| place(chunk, e));
                }
                data.len()
            }
            fn ensure_allocated(env: &FileEnv, ino: Inode, end: u64) {
                while for_each_extent(env.region, ino, |_, _| {}) < end {
                    grow(env, ino);
                }
            }
        ";
        let f = findings_of(src, Rule::DataPathWalk);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("for_each_extent"));
        assert!(f[1].message.contains("for_each_extent"));
    }

    #[test]
    fn data_path_walk_good_outside_loops_and_cold_fns() {
        let src = "
            fn read_at(env: &FileEnv, ino: Inode, buf: &mut [u8], off: u64) -> usize {
                let total = for_each_extent(env.region, ino, |_, _| {});
                let mut done = 0;
                for run in stream(env, ino, off) {
                    done += copy(run);
                }
                done.min(total as usize)
            }
            fn fsck_walk(env: &FileEnv, ino: Inode) {
                loop {
                    for_each_extent(env, ino, |e| check(e));
                    break;
                }
            }
        ";
        assert!(findings_of(src, Rule::DataPathWalk).is_empty());
    }

    #[test]
    fn data_path_walk_respects_allow_marker() {
        let src = "
            fn ensure_allocated(env: &FileEnv, ino: Inode, end: u64) {
                while grow(env, ino) {
                    // analyze:allow(data-path-walk): recovery-only slow path
                    let a = for_each_extent(env.region, ino, |_, _| {});
                    if a >= end { break; }
                }
            }
        ";
        assert!(findings_of(src, Rule::DataPathWalk).is_empty());
    }

    // ----- rule vocabulary -------------------------------------------------

    #[test]
    fn vocabulary_counts_only_non_test_declarations() {
        let src = "
            fn write(r: &R) {}
            const S: &str = \"fn try_busy(\";
            #[cfg(test)]
            mod tests {
                fn clear_log() {}
            }
        ";
        let missing = undeclared_in(&[("fixture.rs".to_owned(), src.to_owned())]);
        assert!(!missing.iter().any(|m| m == "STORE_CALLS: write"), "{missing:?}");
        let names = |m: &str| missing.iter().any(|x| x == m);
        assert!(names("ACQUIRE_CALLS: try_busy"), "a string is no declaration");
        assert!(names("LOCK_RELEASES: clear_log"), "test code is out of scope");
    }

    #[test]
    fn invocation_matcher_skips_definitions() {
        assert!(has_invocation("let a = for_each_extent(r, ino, f);", "for_each_extent"));
        assert!(has_invocation("file::ensure_allocated(env, ino, end)", "ensure_allocated"));
        assert!(has_invocation("self.for_each_extent(|e| ());", "for_each_extent"));
        assert!(!has_invocation("pub fn for_each_extent(r: &PmemRegion) {", "for_each_extent"));
        assert!(!has_invocation("fn ensure_allocated(env: &FileEnv) {", "ensure_allocated"));
        assert!(!has_invocation("let x = shared_for_each_extent(a);", "for_each_extent"));
    }

    // ----- obs-coverage ----------------------------------------------------

    #[test]
    fn obs_coverage_bad_unregistered_counter_struct() {
        let registry = "
            pub struct ObsRegistry { hists: [Histogram; N], pub tally: TallyStats }
            fn absorb(d: &WiredStatsSnapshot) {}
        ";
        let counters = "
            pub struct WiredStats {
                pub hits: AtomicU64,
                pub misses: AtomicU64,
            }
            pub struct ShadowStats {
                pub hits: AtomicU64,
                pub misses: AtomicU64,
            }
            struct Clock {
                now: AtomicU64,
            }
            simurgh_pmem::counters! {
                /// Registered: a field of the registry.
                pub struct TallyStats / TallyStatsSnapshot {
                    ticks,
                }
            }
            simurgh_pmem::counters! {
                /// Nobody registers this one.
                pub struct HiddenStats / HiddenStatsSnapshot {
                    /// No `AtomicU64` is spelled out in this form.
                    drops,
                    retries,
                }
            }
        ";
        let report = scan_files(
            &[("crates/core/src/obs.rs", registry), ("crates/core/src/stats.rs", counters)],
        );
        let f: Vec<&Finding> =
            report.findings.iter().filter(|f| f.rule == Rule::ObsCoverage).collect();
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("`ShadowStats`"), "{}", f[0].message);
        assert!(f[1].message.contains("`HiddenStats`"), "{}", f[1].message);
        // A lone AtomicU64 is a clock/lock word, not a counter battery.
        assert!(!f.iter().any(|f| f.message.contains("`Clock`")));
    }

    #[test]
    fn obs_coverage_no_registry_in_scope_flags_all_batteries() {
        let src = "
            struct OrphanStats {
                a: AtomicU64,
                b: AtomicU64,
            }
        ";
        let report = scan_files(&[("crates/core/src/orphan.rs", src)]);
        assert!(report.findings.iter().any(|f| f.rule == Rule::ObsCoverage));
    }

    #[test]
    fn obs_coverage_allow_marker_exempts_a_battery() {
        let src = "
            simurgh_pmem::counters! {
                // analyze:allow(obs-coverage): scratch tallies of one test
                struct ScratchStats / ScratchStatsSnapshot {
                    a,
                }
            }
        ";
        let report = scan_files(&[("crates/core/src/scratch.rs", src)]);
        assert!(report.findings.iter().all(|f| f.rule != Rule::ObsCoverage));
    }

    // ----- shared-region ---------------------------------------------------

    #[test]
    fn shared_region_bad_unlisted_cache_struct() {
        let src = "
            struct RogueCache {
                names: HashMap<u64, String>,
            }
        ";
        let report = scan_files(&[("crates/core/src/rogue.rs", src)]);
        let hits: Vec<_> =
            report.findings.iter().filter(|f| f.rule == Rule::SharedRegion).collect();
        assert_eq!(hits.len(), 1, "{:?}", report.findings);
        assert!(hits[0].message.contains("RogueCache"));
    }

    #[test]
    fn shared_region_good_listed_cache_struct() {
        let registry = "
            pub const REBUILDABLE_CACHES: &[&str] = &[
                \"GoodCache\",
            ];
        ";
        let src = "
            struct GoodCache {
                free: UnsafeCell<Vec<(u64, u64)>>,
            }
        ";
        let report = scan_files(
            &[("crates/core/src/shared.rs", registry), ("crates/core/src/good.rs", src)],
        );
        assert!(
            report.findings.iter().all(|f| f.rule != Rule::SharedRegion),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn shared_region_ignores_plain_structs_and_locals() {
        let src = "
            struct NotACache {
                count: u64,
            }
            fn helper() {
                let mut owner: HashMap<u64, String> = HashMap::new();
                owner.insert(1, String::new());
            }
        ";
        let report = scan_files(&[("crates/core/src/plain.rs", src)]);
        assert!(report.findings.iter().all(|f| f.rule != Rule::SharedRegion));
    }

    #[test]
    fn shared_region_detects_real_registry_members() {
        // The live shapes from core: SegQueue stacks and sharded FastMaps.
        let src = "
            pub struct MetaAllocator {
                free: [SegQueue<u64>; 3],
            }
            pub struct DirIndex {
                dirs: Vec<RwLock<FastMap<u64, DirState>>>,
            }
        ";
        let file = load("crates/core/src/x.rs", src);
        let names: Vec<String> = cache_structs(&file).into_iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["MetaAllocator".to_owned(), "DirIndex".to_owned()]);
    }

    #[test]
    fn shared_region_respects_allow_marker() {
        let src = "
            // analyze:allow(shared-region): scratch map, never consulted cross-process
            struct ScratchMap {
                names: HashMap<u64, String>,
            }
        ";
        let report = scan_files(&[("crates/core/src/scratch.rs", src)]);
        assert!(report.findings.iter().all(|f| f.rule != Rule::SharedRegion));
    }

    // ----- plumbing --------------------------------------------------------

    #[test]
    fn stripper_blanks_strings_and_nested_comments() {
        let (_, code) = strip("let a = \"x.write(\"; /* outer /* inner */ b.zero( */ c();");
        assert!(!code[0].contains("write("));
        assert!(!code[0].contains("zero("));
        assert!(code[0].contains("c();"));
    }
}
