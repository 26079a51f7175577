//! Parser and symbol-model checks against the *real* workspace sources.
//!
//! The fixture corpus proves the lints bite on synthetic cases; these
//! tests prove the item parser, span bookkeeping, and call graph hold up
//! on the trickiest files we actually ship — the generic-heavy kernel
//! (`system.rs`), the wire codec, and the manifest module.

use std::path::Path;

use pfsim_lint::callgraph::reachable;
use pfsim_lint::model::{FnId, Model};
use pfsim_lint::{lint_files, load_workspace, File};

fn workspace() -> Vec<File> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf();
    let files = load_workspace(&root).unwrap();
    assert!(files.len() > 50, "workspace walk found {}", files.len());
    files
}

fn file_index(files: &[File], path: &str) -> usize {
    files
        .iter()
        .position(|f| f.path == path)
        .unwrap_or_else(|| panic!("{path} not in workspace walk"))
}

/// Every parsed function in every real file has a sane span: the body
/// brackets are a matched `{`/`}` pair, lines are non-decreasing from
/// the declaration, and `enclosing_fn` maps the body's opening line back
/// to a function whose extent contains it.
#[test]
fn real_workspace_spans_are_sane() {
    let files = workspace();
    let model = Model::build(&files);
    let mut fns_seen = 0usize;
    for (fi, f) in model.files.iter().enumerate() {
        for (idx, func) in model.fns[fi].iter().enumerate() {
            fns_seen += 1;
            assert!(!func.name.is_empty(), "{}: unnamed fn", f.path);
            assert!(func.line >= 1);
            let Some((open, close)) = func.body else {
                continue;
            };
            assert!(open < close, "{}: fn {} span inverted", f.path, func.name);
            assert!(close < f.tokens.len(), "{}: fn {}", f.path, func.name);
            assert_eq!(f.t(open), "{", "{}: fn {}", f.path, func.name);
            assert_eq!(f.t(close), "}", "{}: fn {}", f.path, func.name);
            assert!(
                f.tokens[open].line >= func.line,
                "{}: fn {} body before decl",
                f.path,
                func.name
            );
            let id = model
                .enclosing_fn(fi, f.tokens[open].line)
                .unwrap_or_else(|| panic!("{}: fn {} not its own encloser", f.path, func.name));
            // The innermost encloser is this fn or one nested inside it.
            let encl = model.fn_item(id);
            let (_, encl_close) = encl.body.unwrap();
            assert!(
                encl.line >= func.line && encl_close <= close,
                "{}: encloser of {} escapes its extent",
                f.path,
                func.name
            );
            let _ = FnId { file: fi, idx };
        }
    }
    assert!(fns_seen > 500, "only {fns_seen} fns parsed");
}

/// The codec and kernel entry points the semantic lints anchor on all
/// parse with bodies and the right owners.
#[test]
fn anchor_symbols_resolve() {
    let files = workspace();
    let model = Model::build(&files);
    for (path, owner, name) in [
        ("crates/core/src/checkpoint.rs", Some("System"), "snapshot"),
        ("crates/core/src/checkpoint.rs", Some("System"), "restore"),
        ("crates/core/src/system.rs", Some("Fx"), "send"),
        ("crates/core/src/system.rs", Some("Fx"), "check"),
        ("crates/bench/src/spec/wire.rs", Some("WireSpec"), "to_json"),
        (
            "crates/bench/src/spec/wire.rs",
            Some("WireSpec"),
            "from_json",
        ),
        ("crates/bench/src/spec/wire.rs", None, "variant_from_json"),
        ("crates/bench/src/manifest.rs", None, "assemble_manifest"),
        ("crates/bench/src/manifest.rs", None, "validate_doc"),
    ] {
        let fi = file_index(&files, path);
        let hit = model.fns[fi]
            .iter()
            .find(|f| f.name == name && f.owner.as_deref() == owner)
            .unwrap_or_else(|| panic!("{path}: fn {owner:?}::{name} not parsed"));
        assert!(hit.body.is_some(), "{path}: fn {name} has no body span");
    }
}

/// On the real call graph, every CheckSink hook except the suppressed
/// `into_any` downcast helper is reachable from the kernel entry points
/// — the live form of the S102 proof.
#[test]
fn checksink_hooks_reachable_in_real_kernel() {
    let files = workspace();
    let model = Model::build(&files);
    let fi = file_index(&files, "crates/core/src/check.rs");
    let mut roots = Vec::new();
    for (rfi, f) in model.files.iter().enumerate() {
        if f.crate_dir.as_deref() != Some("core") || !f.path.contains("/src/") {
            continue;
        }
        for (idx, func) in model.fns[rfi].iter().enumerate() {
            if ["run", "run_until", "snapshot", "restore"].contains(&func.name.as_str())
                && !f.in_test(func.line)
            {
                roots.push(FnId { file: rfi, idx });
            }
        }
    }
    assert!(!roots.is_empty());
    let reach = reachable(&model, &roots, "core");
    let mut hooks = 0usize;
    for (idx, func) in model.fns[fi].iter().enumerate() {
        if func.owner.as_deref() != Some("CheckSink") || func.name == "into_any" {
            continue;
        }
        hooks += 1;
        assert!(
            reach.contains(&FnId { file: fi, idx }),
            "hook {} unreachable",
            func.name
        );
    }
    assert!(hooks >= 5, "only {hooks} hooks found");
}

/// The whole workspace is lint-clean (suppressions carry reasons; no
/// active findings) — the same gate ci.sh enforces, testable offline.
#[test]
fn real_workspace_is_lint_clean() {
    let findings = lint_files(workspace());
    let active: Vec<_> = findings.iter().filter(|f| !f.suppressed).collect();
    assert!(active.is_empty(), "active findings: {active:?}");
    for f in &findings {
        assert!(f.reason.is_some(), "suppression without reason: {f:?}");
    }
}
