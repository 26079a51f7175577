//! The `pfsim-lint` binary.
//!
//! ```text
//! pfsim-lint [--root DIR] [--json PATH] [--list] [--quiet]
//! ```
//!
//! Walks the workspace, runs every lint (token scanners plus the
//! call-graph lint S102), prints `file:line: ID message`
//! diagnostics, and exits nonzero when any non-suppressed finding
//! remains. With `--json PATH` the v2 report — per-finding symbol spans
//! and a per-ID suppression summary — is written, read back and
//! schema-validated (the same discipline as the run manifests).

use std::path::PathBuf;
use std::process::ExitCode;

use pfsim_analysis::json::Json;
use pfsim_lint::{find_root, lints, load_workspace, report, to_json, validate_report};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root needs a directory"),
            },
            "--json" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage("--json needs a path"),
            },
            "--list" => {
                for l in lints::LINTS {
                    println!("{}  {}", l.id, l.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|cwd| find_root(&cwd))) {
        Some(r) => r,
        None => {
            eprintln!("pfsim-lint: no workspace root found (try --root)");
            return ExitCode::from(2);
        }
    };

    let files = match load_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "pfsim-lint: cannot read workspace under {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    let n_files = files.len();
    let findings = pfsim_lint::lint_files(files);
    let active: Vec<_> = findings.iter().filter(|f| !f.suppressed).collect();
    let suppressed = findings.len() - active.len();

    if !quiet {
        for f in &findings {
            if !f.suppressed {
                println!("{}", f.render());
            }
        }
    }

    if let Some(path) = &json_out {
        let json = to_json(&findings, n_files);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("pfsim-lint: cannot create {}: {e}", parent.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = std::fs::write(path, json.render() + "\n") {
            eprintln!("pfsim-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        // Read-back validation: the report on disk must parse and satisfy
        // the v2 schema, or the run fails even with zero findings.
        let reread = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .and_then(|v| validate_report(&v).map(|()| v));
        match reread {
            Ok(_) => {
                if !quiet {
                    println!(
                        "pfsim-lint: report written and schema-validated: {}",
                        path.display()
                    );
                }
            }
            Err(e) => {
                eprintln!("pfsim-lint: report validation failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if !quiet {
        println!(
            "pfsim-lint: {} file(s), {} finding(s) ({} suppressed, {} active), schema v{}",
            n_files,
            findings.len(),
            suppressed,
            active.len(),
            report::SCHEMA,
        );
    }
    if active.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("pfsim-lint: {err}");
    }
    eprintln!("usage: pfsim-lint [--root DIR] [--json PATH] [--list] [--quiet]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
