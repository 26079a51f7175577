//! The semantic lint S102, built on the workspace symbol model
//! ([`crate::model`]) and call graph ([`crate::callgraph`]): every
//! `CheckSink` method must be reachable, through the call graph, from the
//! core entry points.

use crate::callgraph::reachable;
use crate::lints::finding;
use crate::model::{FnId, Model};
use crate::report::Finding;

/// File defining the `CheckSink` trait.
const CHECK_TRAIT_FILE: &str = "crates/core/src/check.rs";

/// The oracle hook trait.
const HOOK_TRAIT: &str = "CheckSink";

/// Entry points hooks must be reachable from: the event loop plus the
/// checkpoint fork path.
const HOOK_ROOT_FNS: &[&str] = &["run", "run_until", "snapshot", "restore"];

/// S102: flags every `CheckSink` method the core entry points cannot
/// reach.
pub fn s102_hook_reachability(model: &Model, out: &mut Vec<Finding>) {
    let Some(def_fi) = model.file_index(CHECK_TRAIT_FILE) else {
        return;
    };
    let methods: Vec<FnId> = model.fns[def_fi]
        .iter()
        .enumerate()
        .filter(|(_, func)| func.owner.as_deref() == Some(HOOK_TRAIT))
        .map(|(idx, _)| FnId { file: def_fi, idx })
        .collect();
    if methods.is_empty() {
        return;
    }
    let roots = named_fns_in_crate(model, "core", HOOK_ROOT_FNS);
    if roots.is_empty() {
        // No entry points in scope (fixture mini-workspace or partial
        // checkout): reachability is unanswerable, so stay silent.
        return;
    }
    let reach = reachable(model, &roots, "core");
    let def_file = &model.files[def_fi];
    for m in methods {
        if reach.contains(&m) {
            continue;
        }
        let func = model.fn_item(m);
        out.push(finding(
            def_file,
            "S102",
            func.line,
            format!(
                "CheckSink hook `{}` is not reachable through the call graph from the \
                 core entry points ({}): the consistency oracle never observes this edge",
                func.name,
                HOOK_ROOT_FNS.join("/")
            ),
        ));
    }
}

/// Every non-test fn in `crate_dir`'s src whose name is in `names`, in
/// deterministic file order.
fn named_fns_in_crate(model: &Model, crate_dir: &str, names: &[&str]) -> Vec<FnId> {
    let mut roots = Vec::new();
    for (fi, f) in model.files.iter().enumerate() {
        if f.crate_dir.as_deref() != Some(crate_dir) || !f.path.contains("/src/") {
            continue;
        }
        for (idx, func) in model.fns[fi].iter().enumerate() {
            if names.contains(&func.name.as_str()) && !f.in_test(func.line) {
                roots.push(FnId { file: fi, idx });
            }
        }
    }
    roots
}
