//! The shape of the unified observability registry, exactly as
//! `paper obs --json` prints it (`experiments::obs_probe(.., true)`): the
//! top-level sections in order, the keys of every counter section in
//! order, and a nonzero latency count for every op the probe's scripted
//! shapes drive. Consumers of the registry (EXPERIMENTS.md's schema, the
//! perf harness) key on these names.

use simurgh_bench::{experiments, Scale};

/// The subset of JSON the registry emits: objects, unsigned integers and
/// booleans.
#[derive(Debug)]
enum Json {
    Num(u64),
    Bool(bool),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn obj(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn get(&self, key: &str) -> &Json {
        let found = self.obj().iter().find(|(k, _)| k == key);
        &found.unwrap_or_else(|| panic!("missing key {key}")).1
    }

    fn num(&self) -> u64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        self.obj().iter().map(|(k, _)| k.as_str()).collect()
    }
}

fn parse(s: &str) -> Json {
    let mut p = Parser { s: s.as_bytes(), i: 0 };
    let v = p.value();
    assert_eq!(p.i, p.s.len(), "trailing bytes after the registry object");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn eat(&mut self, c: u8) {
        assert_eq!(self.s.get(self.i), Some(&c), "at byte {}", self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        match self.s[self.i] {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                while self.s[self.i] != b'}' {
                    if !fields.is_empty() {
                        self.eat(b',');
                    }
                    self.eat(b'"');
                    let start = self.i;
                    while self.s[self.i] != b'"' {
                        self.i += 1;
                    }
                    let key = String::from_utf8(self.s[start..self.i].to_vec()).unwrap();
                    self.eat(b'"');
                    self.eat(b':');
                    fields.push((key, self.value()));
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b't' | b'f' => {
                let word: &[u8] = if self.s[self.i] == b't' { b"true" } else { b"false" };
                assert!(self.s[self.i..].starts_with(word), "at byte {}", self.i);
                self.i += word.len();
                Json::Bool(word == b"true")
            }
            _ => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
                    self.i += 1;
                }
                let digits = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(digits.parse().unwrap_or_else(|_| panic!("bad number at {start}")))
            }
        }
    }
}

#[test]
fn paper_obs_json_has_the_pinned_shape() {
    // The smallest probe: 16 rounds of the scripted shapes plus the
    // in-process gateway burst.
    let scale = Scale { meta_files: 128, ..Scale::quick() };
    let reg = parse(&experiments::obs_probe(&scale, true));

    assert_eq!(
        reg.keys(),
        [
            "latency",
            "dir",
            "data",
            "pmem",
            "timers",
            "alloc_faults",
            "alloc",
            "lock",
            "gateway",
            "frag"
        ]
    );
    let sections: [(&str, &[&str]); 9] = [
        (
            "dir",
            &[
                "lookups",
                "index_hits",
                "index_absent",
                "stale_evicted",
                "chain_walks",
                "chain_probes",
                "hint_hits",
                "hint_stale",
                "slot_probes",
                "extends",
            ],
        ),
        (
            "data",
            &[
                "reads",
                "writes",
                "walk_steps",
                "map_walks",
                "cursor_hits",
                "cursor_rebuilds",
                "appends",
                "tail_extends",
                "alloc_fallbacks",
                "seg_hops",
                "copy_ns",
            ],
        ),
        (
            "pmem",
            &[
                "bytes_read",
                "bytes_written",
                "bytes_nt_written",
                "flushed_lines",
                "fences",
                "fences_elided",
            ],
        ),
        ("timers", &["fs_ns", "copy_ns", "ops"]),
        ("alloc_faults", &["armed", "observed", "injected"]),
        ("alloc", &["pool_trips", "seg_trips"]),
        ("lock", &["acquires", "steals", "spin_rounds"]),
        (
            "gateway",
            &[
                "connections",
                "disconnects",
                "in_flight",
                "ops",
                "batched_ops",
                "flushes",
                "admission_rejections",
                "fds_reaped",
                "idle_timeouts",
                "protocol_errors",
            ],
        ),
        (
            "frag",
            &[
                "free_runs",
                "max_free_run",
                "min_seg_max_run",
                "reserved_idle",
                "frag_pressure",
                "files",
                "extents",
                "passes",
                "relocated_files",
                "relocated_blocks",
                "extents_merged",
                "skipped_busy",
                "skipped_nospace",
                "rollbacks",
            ],
        ),
    ];
    for (section, keys) in sections {
        assert_eq!(reg.get(section).keys(), keys, "keys of `{section}`");
    }

    // Every op the scripted shapes drive (create, append, shrinking
    // truncate, both renames, symlink, unlink, plus the probe's mkdir,
    // readlink, stat and statfs) shows samples, each entry with its four
    // keys; so does the gateway.
    let latency = reg.get("latency");
    for op in [
        "open",
        "close",
        "pwrite",
        "fsync",
        "ftruncate",
        "unlink",
        "mkdir",
        "rename",
        "stat",
        "symlink",
        "readlink",
        "statfs",
    ] {
        let entry = latency.get(op);
        assert_eq!(entry.keys(), ["count", "p50_ns", "p99_ns", "max_ns"], "latency.{op}");
        assert!(entry.get("count").num() > 0, "latency.{op} has no samples");
    }
    assert!(reg.get("gateway").get("ops").num() > 0, "the gateway burst dispatched nothing");
    assert!(matches!(reg.get("alloc_faults").get("armed"), Json::Bool(false)));
}
