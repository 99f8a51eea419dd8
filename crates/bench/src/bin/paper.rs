//! The paper harness: regenerates every table and figure of the Simurgh
//! evaluation and prints them as aligned text tables.
//!
//! ```text
//! cargo run -p simurgh-bench --release --bin paper -- all
//! cargo run -p simurgh-bench --release --bin paper -- fig7a fig7b --threads 1,2,4
//! cargo run -p simurgh-bench --release --bin paper -- recovery --full
//! ```

use simurgh_bench::{experiments, print_series, Scale};

fn print_breakdowns(title: &str, rows: &[(&'static str, simurgh_fsapi::Breakdown)]) {
    println!("\n== {title} ==");
    println!("{:<14}{:>14}{:>14}{:>14}", "workload", "application", "data copy", "file system");
    for (name, b) in rows {
        let (a, c, f) = b.percentages();
        println!("{name:<14}{a:>13.2}%{c:>13.2}%{f:>13.2}%");
    }
}

fn print_grouped(title: &str, unit: &str, rows: &[(&'static str, Vec<(&'static str, f64)>)]) {
    println!("\n== {title} ==");
    if let Some((_, first)) = rows.first() {
        print!("{:<12}", "workload");
        for (fs, _) in first {
            print!("{fs:>14}");
        }
        println!("  [{unit}]");
    }
    for (wl, vals) in rows {
        print!("{wl:<12}");
        for (_, v) in vals {
            print!("{v:>14.2}");
        }
        println!();
    }
}

fn run_experiment(name: &str, scale: &Scale) {
    match name {
        "table1" => {
            let rows = experiments::table1(scale);
            print_breakdowns("Table 1: execution-time breakdown on NOVA", &rows);
        }
        "table2" => {
            println!("\n== Table 2: Filebench workloads (default settings) ==");
            println!(
                "{:<12}{:>10}{:>12}{:>11}{:>10}",
                "workload", "# files", "dir width", "file size", "threads"
            );
            for cfg in experiments::table2() {
                println!(
                    "{:<12}{:>10}{:>12}{:>10}K{:>10}",
                    cfg.name,
                    cfg.nfiles,
                    cfg.dir_width,
                    cfg.file_size / 1024,
                    cfg.threads
                );
            }
        }
        "gem5" => {
            let r = experiments::gem5_cycles(100);
            println!("\n== §3.3: protected-function cycle costs (gem5 model) ==");
            println!("{:<26}{:>10}{:>12}{:>16}", "mechanism", "cycles", "ns @2.5GHz", "simulated ns/op");
            for row in &r.rows {
                println!(
                    "{:<26}{:>10}{:>12.1}{:>16.1}",
                    row.mechanism, row.modelled_cycles, row.modelled_ns, row.simulated_ns
                );
            }
            println!("jmpp+pret execution blocks:");
            for (block, cycles) in &r.jmpp_blocks {
                println!("  {block:<46}{cycles:>6} cycles");
            }
            println!(
                "host syscall vs protected call: {:.1}x more cycles",
                r.syscall_speedup_host()
            );
        }
        "fig6" => print_series("Fig. 6: FxMark DRBL read, original vs adapted", &experiments::fig6(scale)),
        p if p.starts_with("fig7") && p.len() == 5 => {
            let panel = p.chars().last().unwrap();
            let titles = [
                ('a', "create, private dirs (MWCL)"),
                ('b', "create, shared dir (MWCM)"),
                ('c', "unlink, private dirs (MWUL)"),
                ('d', "rename, shared dir (MWRM)"),
                ('e', "resolvepath, private (MRPL)"),
                ('f', "resolvepath, shared (MRPM)"),
                ('g', "append (DWAL)"),
                ('h', "fallocate (DWTL)"),
                ('i', "shared-file read (DRBM)"),
                ('j', "private-file read (DRBL)"),
                ('k', "shared-file overwrite (DWOM)"),
                ('l', "private-file write (DWOL)"),
            ];
            let title = titles.iter().find(|(c, _)| *c == panel).map(|(_, t)| *t).unwrap_or("?");
            print_series(&format!("Fig. 7{panel}: {title}"), &experiments::fig7(panel, scale));
        }
        "fig7" => {
            for panel in 'a'..='l' {
                run_experiment(&format!("fig7{panel}"), scale);
            }
        }
        "fig8" => print_grouped("Fig. 8: Filebench throughput", "kops/s", &experiments::fig8(scale)),
        "fig9" => print_grouped(
            "Fig. 9: YCSB throughput (normalized to SplitFS)",
            "x SplitFS",
            &experiments::fig9(scale),
        ),
        "fig10" => {
            let rows = experiments::fig10(scale);
            print_breakdowns("Fig. 10: YCSB execution-time breakdown for Simurgh", &rows);
        }
        "fig11" => {
            println!("\n== Fig. 11: tar throughput ==");
            println!("{:<12}{:>14}{:>14}", "fs", "pack MiB/s", "unpack MiB/s");
            for (fs, pack, unpack) in experiments::fig11(scale) {
                println!("{fs:<12}{pack:>14.1}{unpack:>14.1}");
            }
        }
        "fig12" => {
            println!("\n== Fig. 12: git throughput ==");
            println!("{:<12}{:>14}{:>14}{:>14}", "fs", "add files/s", "commit f/s", "reset f/s");
            for (fs, add, commit, reset) in experiments::fig12(scale) {
                println!("{fs:<12}{add:>14.0}{commit:>14.0}{reset:>14.0}");
            }
        }
        "recovery" => {
            let out = experiments::recovery(scale);
            println!("\n== §5.5: full-system recovery ==");
            println!("files: {}  directories: {}", out.files, out.directories);
            println!(
                "mark: {:.3}s  repair: {:.3}s  sweep: {:.3}s  total: {:.3}s",
                out.mark_seconds, out.repair_seconds, out.sweep_seconds, out.total_seconds()
            );
            println!("(paper: 672,940 files / 88,780 dirs recovered in 4.1 s)");
        }
        "obs" => {
            // --json is filtered out of the experiment list by main(), so it
            // can only mean "emit the machine-readable registry".
            let json = std::env::args().any(|a| a == "--json");
            if json {
                println!("{}", experiments::obs_probe(scale, true));
            } else {
                println!("\n== Unified observability registry: per-op latency ==");
                print!("{}", experiments::obs_probe(scale, false));
                println!(
                    "(run with --json for the full registry: latency + dir + data + pmem + timers \
                     + alloc_faults + alloc + lock + gateway + frag)"
                );
            }
        }
        "compact" => {
            let json = std::env::args().any(|a| a == "--json");
            if json {
                println!("{}", experiments::compact_run(scale, true));
            } else {
                println!("\n== Aging & compaction: zipfian churn, then online compaction ==");
                print!("{}", experiments::compact_run(scale, false));
            }
        }
        "ablate-alloc" => print_series("Ablation: segmented vs serial block allocator (DWAL)", &experiments::ablate_alloc(scale)),
        "ablate-sec" => print_series("Ablation: security cost per call (MRPL)", &experiments::ablate_security(scale)),
        "ablate-relaxed" => print_series("Ablation: per-file write lock vs relaxed (DWOM)", &experiments::ablate_relaxed(scale)),
        "all" => {
            for e in [
                "gem5", "table1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                "fig12", "recovery", "ablate-alloc", "ablate-sec", "ablate-relaxed",
            ] {
                run_experiment(e, scale);
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'; see --help");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        eprintln!(
            "usage: paper [EXPERIMENT...] [--full] [--threads 1,2,4] [--json]\n\
             experiments: all gem5 table1 table2 fig6 fig7 fig7a..fig7l fig8 fig9 fig10\n\
                          fig11 fig12 recovery obs compact ablate-alloc ablate-sec\n\
                          ablate-relaxed\n\
             --full    run near paper-scale workloads (minutes per figure)\n\
             --threads comma-separated process counts for the sweeps\n\
             --json    with obs/compact: emit the machine-readable object"
        );
        if args.is_empty() {
            std::process::exit(2);
        }
        return;
    }
    let mut scale = if args.iter().any(|a| a == "--full") { Scale::paper() } else { Scale::quick() };
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        let spec = args.get(pos + 1).expect("--threads needs a value");
        scale.threads = spec
            .split(',')
            .map(|s| s.parse().expect("thread counts are integers"))
            .collect();
    }
    let experiments: Vec<&String> =
        args.iter().filter(|a| !a.starts_with("--") && Some(*a) != args.iter().skip_while(|x| *x != "--threads").nth(1)).collect();
    for e in experiments {
        run_experiment(e, &scale);
    }
}
