//! `pfsim-lint`: workspace-wide static invariant checker.
//!
//! The simulator's headline guarantee — bit-identical pclock totals across
//! serial/parallel, packed/materialized, and oracle-on/off runs — is easy
//! to break with one innocuous-looking line: an unsorted `HashMap`
//! iteration, an `Instant::now()`, a metrics name registered twice, a new
//! protocol edge that forgets its oracle hook. CI catches those hours
//! later; this crate rejects them at lint time.
//!
//! The design is a hand-rolled lexer ([`lex`]) plus lightweight token
//! scanners ([`lints`]) — no syn, no regex crate, matching the in-tree
//! FxHasher/SplitMix64/Json precedent. Lints are syntactic and scoped by
//! workspace layout; each has a stable ID, `file:line` diagnostics, and
//! per-site suppressions:
//!
//! ```text
//! // pfsim-lint: allow(K002) -- protocol invariant: reply implies txn
//! ```
//!
//! See `DESIGN.md` §11 for the lint table, rationale and suppression
//! policy, and [`lints::LINTS`] for the machine-readable list.
//!
//! # Examples
//!
//! ```
//! use pfsim_lint::{lint_source, Finding};
//!
//! let findings: Vec<Finding> = lint_source(
//!     "crates/core/src/demo.rs",
//!     "use std::collections::HashMap;\n",
//! );
//! assert_eq!(findings[0].id, "D001");
//! assert_eq!(findings[0].line, 1);
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod lex;
pub mod lints;
pub mod model;
pub mod parse;
pub mod report;
pub mod semantic;
pub mod source;

use std::path::{Path, PathBuf};

pub use report::{to_json, validate_report, Finding};
pub use source::File;

/// Lints a single in-memory source file as if it lived at `path`
/// (workspace-relative). Cross-file lints (M001/S102) see only this file.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    lint_files(vec![File::new(path, src)])
}

/// Lints a set of already-loaded files as one workspace.
pub fn lint_files(files: Vec<File>) -> Vec<Finding> {
    lints::run_all(&files)
}

/// Directories scanned below the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Path prefixes never scanned (fixtures are deliberately bad code).
const SKIP_PREFIXES: &[&str] = &["crates/lint/tests/fixtures", "target"];

/// Loads every workspace source file under `root`.
///
/// The walk order is sorted, so diagnostics and reports are byte-stable
/// run to run.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<File>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        if SKIP_PREFIXES.iter().any(|s| rel.starts_with(s)) {
            continue;
        }
        let src = std::fs::read_to_string(&p)?;
        files.push(File::new(rel, src));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` contains a `[workspace]` section.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
