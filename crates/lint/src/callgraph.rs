//! Intra-workspace call-graph extraction and reachability.
//!
//! Call sites are read straight off the token stream of each function
//! body; resolution is *name-based* and deliberately over-approximate
//! (see `DESIGN.md` §16): a method call `recv.m(…)` edges to every
//! workspace method named `m` that takes `self`, a qualified call
//! `T::f(…)` prefers functions owned by `T`, a free call `f(…)` edges
//! to every free function named `f`. Over-approximation is the safe
//! direction for the lint built here: S102 (is a hook *reachable*?)
//! can only gain reachability, never lose a real path.

use std::collections::HashSet;

use crate::lex::Kind;
use crate::model::{FnId, Model};
use crate::source::File;

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(…)`.
    Method,
    /// `Qual::name(…)`.
    Qualified,
    /// `name(…)`.
    Free,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name.
    pub name: String,
    /// Call form.
    pub kind: CallKind,
    /// For method calls: the receiver identifier directly before the
    /// dot (`self.fx.send(…)` → `fx`), when it is a plain identifier.
    pub recv: Option<String>,
    /// For qualified calls: the path segment directly before `::`.
    pub qual: Option<String>,
    /// 1-based line of the callee name.
    pub line: u32,
}

/// Identifiers that look like `name(` but are never calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "in", "match", "return", "loop", "as", "move", "await", "fn",
    "let", "ref", "mut", "box", "unsafe",
];

/// Extracts every call site in the body token range `(open, close)`.
pub fn calls_in_body(f: &File, body: (usize, usize)) -> Vec<CallSite> {
    let (open, close) = body;
    let mut out = Vec::new();
    let end = close.min(f.tokens.len());
    for i in open + 1..end {
        if f.tokens[i].kind != Kind::Ident || !f.is_punct(i + 1, "(") {
            continue;
        }
        let name = f.t(i);
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `fn name(` — a nested item header, not a call.
        if i > 0 && f.is_ident(i - 1, "fn") {
            continue;
        }
        let line = f.tokens[i].line;
        let site = if i > 0 && f.is_punct(i - 1, ".") {
            let recv =
                (i >= 2 && f.tokens[i - 2].kind == Kind::Ident).then(|| f.t(i - 2).to_string());
            CallSite {
                name: name.to_string(),
                kind: CallKind::Method,
                recv,
                qual: None,
                line,
            }
        } else if i > 0 && f.is_punct(i - 1, "::") {
            let qual =
                (i >= 2 && f.tokens[i - 2].kind == Kind::Ident).then(|| f.t(i - 2).to_string());
            CallSite {
                name: name.to_string(),
                kind: CallKind::Qualified,
                recv: None,
                qual,
                line,
            }
        } else {
            CallSite {
                name: name.to_string(),
                kind: CallKind::Free,
                recv: None,
                qual: None,
                line,
            }
        };
        out.push(site);
    }
    out
}

/// Resolves one call site from `caller` to candidate workspace
/// functions, restricted to files of crate `in_crate` and to non-test
/// declarations.
pub fn resolve(model: &Model, caller: FnId, call: &CallSite, in_crate: &str) -> Vec<FnId> {
    let in_scope = |id: &FnId| {
        model.fn_file(*id).crate_dir.as_deref() == Some(in_crate)
            && model.fn_file(*id).path.contains("/src/")
            && !model.is_test_fn(*id)
    };
    let cands: Vec<FnId> = model
        .fns_named(&call.name)
        .iter()
        .copied()
        .filter(in_scope)
        .collect();
    if cands.is_empty() {
        return cands;
    }
    match call.kind {
        CallKind::Method => {
            let methods: Vec<FnId> = cands
                .iter()
                .copied()
                .filter(|id| model.fn_item(*id).has_self)
                .collect();
            // `self.m(…)` with a known owner narrows to that impl when
            // it declares the method (shadowing-aware: an unrelated
            // type's same-named method is not an edge).
            if call.recv.as_deref() == Some("self") {
                if let Some(owner) = &model.fn_item(caller).owner {
                    let own: Vec<FnId> = methods
                        .iter()
                        .copied()
                        .filter(|id| model.fn_item(*id).owner.as_deref() == Some(owner))
                        .collect();
                    if !own.is_empty() {
                        return own;
                    }
                }
            }
            methods
        }
        CallKind::Qualified => {
            let qual = match call.qual.as_deref() {
                Some("Self") => model.fn_item(caller).owner.clone(),
                other => other.map(str::to_string),
            };
            if let Some(q) = qual {
                let owned: Vec<FnId> = cands
                    .iter()
                    .copied()
                    .filter(|id| model.fn_item(*id).owner.as_deref() == Some(q.as_str()))
                    .collect();
                if !owned.is_empty() {
                    return owned;
                }
                // `module::f(…)`: the qualifier is a module path, not a
                // type — fall back to free functions of that name.
                return cands
                    .iter()
                    .copied()
                    .filter(|id| model.fn_item(*id).owner.is_none())
                    .collect();
            }
            cands
        }
        CallKind::Free => cands
            .iter()
            .copied()
            .filter(|id| model.fn_item(*id).owner.is_none())
            .collect(),
    }
}

/// Computes the set of functions reachable from `roots` through
/// intra-`in_crate` edges.
pub fn reachable(model: &Model, roots: &[FnId], in_crate: &str) -> HashSet<FnId> {
    let mut seen: HashSet<FnId> = HashSet::new();
    let mut work: Vec<FnId> = Vec::new();
    for &r in roots {
        if seen.insert(r) {
            work.push(r);
        }
    }
    while let Some(id) = work.pop() {
        let Some(body) = model.fn_item(id).body else {
            continue;
        };
        let f = model.fn_file(id);
        for call in calls_in_body(f, body) {
            for target in resolve(model, id, &call, in_crate) {
                if seen.insert(target) {
                    work.push(target);
                }
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::File;

    fn model_of(files: &[File]) -> Model<'_> {
        Model::build(files)
    }

    fn fn_id(m: &Model, path_frag: &str, name: &str) -> FnId {
        for (fi, f) in m.files.iter().enumerate() {
            if !f.path.contains(path_frag) {
                continue;
            }
            for (idx, func) in m.fns[fi].iter().enumerate() {
                if func.name == name {
                    return FnId { file: fi, idx };
                }
            }
        }
        panic!("no fn {name} in {path_frag}");
    }

    #[test]
    fn method_vs_free_resolution() {
        let files = vec![File::new(
            "crates/core/src/a.rs",
            "struct S;\n\
             impl S { fn go(&self) {} }\n\
             fn go() {}\n\
             fn caller(s: &S) { s.go(); go(); }\n",
        )];
        let m = model_of(&files);
        let caller = fn_id(&m, "a.rs", "caller");
        let f = &m.files[0];
        let calls = calls_in_body(f, m.fn_item(caller).body.unwrap());
        assert_eq!(calls.len(), 2);
        let method = resolve(&m, caller, &calls[0], "core");
        assert_eq!(method.len(), 1);
        assert!(m.fn_item(method[0]).has_self);
        let free = resolve(&m, caller, &calls[1], "core");
        assert_eq!(free.len(), 1);
        assert!(m.fn_item(free[0]).owner.is_none());
    }

    #[test]
    fn self_calls_prefer_own_impl_over_shadowed_names() {
        let files = vec![File::new(
            "crates/core/src/a.rs",
            "struct A;\nstruct B;\n\
             impl A { fn step(&self) {} fn run(&self) { self.step(); } }\n\
             impl B { fn step(&self) {} }\n",
        )];
        let m = model_of(&files);
        let run = fn_id(&m, "a.rs", "run");
        let calls = calls_in_body(&m.files[0], m.fn_item(run).body.unwrap());
        let targets = resolve(&m, run, &calls[0], "core");
        assert_eq!(targets.len(), 1);
        assert_eq!(m.fn_item(targets[0]).owner.as_deref(), Some("A"));
    }

    #[test]
    fn qualified_paths_pick_the_right_impl_and_cross_file() {
        let files = vec![
            File::new(
                "crates/core/src/a.rs",
                "pub struct Q;\nimpl Q { pub fn make() {} }\npub fn make() {}\n",
            ),
            File::new(
                "crates/core/src/b.rs",
                "fn caller() { Q::make(); crate::a::make(); }\n",
            ),
        ];
        let m = model_of(&files);
        let caller = fn_id(&m, "b.rs", "caller");
        let calls = calls_in_body(&m.files[1], m.fn_item(caller).body.unwrap());
        let qualed = resolve(&m, caller, &calls[0], "core");
        assert_eq!(qualed.len(), 1);
        assert_eq!(m.fn_item(qualed[0]).owner.as_deref(), Some("Q"));
        // `crate::a::make()` — module path qualifier falls back to the
        // free fn, not Q::make.
        let modpath = resolve(&m, caller, &calls[1], "core");
        assert_eq!(modpath.len(), 1);
        assert!(m.fn_item(modpath[0]).owner.is_none());
    }

    #[test]
    fn reachability_is_transitive_and_stops_at_crate_boundary() {
        let files = vec![
            File::new(
                "crates/core/src/a.rs",
                "struct Fx;\n\
                 impl Fx { fn send(&self) { raw_send(); } }\n\
                 fn raw_send() {}\n\
                 fn entry(fx: &Fx) { fx.send(); }\n",
            ),
            File::new("crates/bench/src/x.rs", "fn send() {}\n"),
        ];
        let m = model_of(&files);
        let entry = fn_id(&m, "a.rs", "entry");
        let set = reachable(&m, &[entry], "core");
        assert!(set.contains(&fn_id(&m, "a.rs", "send")));
        assert!(set.contains(&fn_id(&m, "a.rs", "raw_send")));
        // The bench crate's fn is outside the core-only graph.
        assert!(!set.contains(&fn_id(&m, "x.rs", "send")));
    }
}
