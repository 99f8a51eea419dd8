//! `simurgh-analyze` — command-line front end for the static checker.
//!
//! Usage:
//!   simurgh-analyze --workspace [--root <dir>]   scan every crate's src/
//!   simurgh-analyze --path <dir> [...]           scan specific directories
//!   simurgh-analyze --ci                         also print the wider CI
//!                                                checklist (clippy command)
//!
//! Exits 0 when the tree is clean, 1 when any rule fires, 2 on usage or
//! I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use simurgh_analyze::{scan_dirs, scan_workspace, Report};

struct Opts {
    workspace: bool,
    root: PathBuf,
    paths: Vec<PathBuf>,
    ci: bool,
}

fn usage() -> ExitCode {
    eprintln!("usage: simurgh-analyze (--workspace [--root <dir>] | --path <dir>...) [--ci]");
    ExitCode::from(2)
}

fn parse_args() -> Result<Opts, ExitCode> {
    let mut opts = Opts {
        workspace: false,
        root: PathBuf::from("."),
        paths: Vec::new(),
        ci: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--root" => opts.root = PathBuf::from(args.next().ok_or_else(usage)?),
            "--path" => opts.paths.push(PathBuf::from(args.next().ok_or_else(usage)?)),
            "--ci" => opts.ci = true,
            _ => return Err(usage()),
        }
    }
    // Exactly one of --workspace / --path must be given.
    if opts.workspace != opts.paths.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

fn print_report(report: &Report, ci: bool) {
    let documented = report.unsafe_sites.iter().filter(|s| s.documented).count();
    println!(
        "scanned {} files: {} unsafe sites ({} documented)",
        report.files_scanned,
        report.unsafe_sites.len(),
        documented,
    );
    for site in &report.unsafe_sites {
        let mark = if site.documented { "ok " } else { "!! " };
        println!("  {mark}{}:{} {}", site.file, site.line, site.kind);
    }
    if report.findings.is_empty() {
        println!("no violations");
    } else {
        println!("{} violation(s):", report.findings.len());
        for f in &report.findings {
            println!("  {f}");
        }
    }
    if ci {
        // The analyzer covers the domain-specific invariants; lint-level
        // hygiene is clippy's job. CI runs both — keep the commands in sync
        // with README.md "Verifying".
        println!();
        println!("CI checklist (run all of):");
        println!("  cargo run -p simurgh-analyze -- --workspace");
        println!("  cargo clippy --workspace --all-targets -- -D warnings");
        println!("  cargo test -q");
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    let result = if opts.workspace {
        scan_workspace(&opts.root)
    } else {
        scan_dirs(&opts.paths)
    };
    match result {
        Ok(report) => {
            print_report(&report, opts.ci);
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("simurgh-analyze: {e}");
            ExitCode::from(2)
        }
    }
}
