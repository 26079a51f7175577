//! The semantic lint family (S101, S102, S104), built on the workspace symbol
//! model ([`crate::model`]) and call graph ([`crate::callgraph`]).
//!
//! * **S101** — snapshot field coverage: every struct expression or
//!   pattern in a snapshot module must name every declared field.
//! * **S102** — hook reachability: every `CheckSink` method must be
//!   reachable, through the call graph, from the core entry points.
//! * **S104** — wire/manifest key agreement: string-key sets emitted by
//!   producers must agree with the sets their parsers/validators accept.

use std::collections::BTreeMap;

use crate::callgraph::reachable;
use crate::lex::Kind;
use crate::model::{FnId, Model};
use crate::report::Finding;
use crate::source::File;

/// Runs every semantic lint over the model.
pub fn run(model: &Model, out: &mut Vec<Finding>) {
    s101_snapshot_coverage(model, out);
    s102_hook_reachability(model, out);
    s104_key_agreement(model, out);
}

fn finding(f: &File, id: &'static str, line: u32, message: String) -> Finding {
    Finding {
        id,
        file: f.path.clone(),
        line,
        message,
        suppressed: false,
        reason: None,
        symbol: None,
        symbol_line: None,
    }
}

// ---------------------------------------------------------------------
// S101: snapshot field coverage
// ---------------------------------------------------------------------

/// The modules that copy machine state into/out of checkpoints (K003's
/// scope, upgraded here from "no `..`" to actual field-set diffing).
const SNAPSHOT_FILES: &[&str] = &["crates/core/src/checkpoint.rs"];

/// Identifiers before `Name {` that mean `Name` is not a struct
/// expression/pattern (definitions, headers, type positions).
const NON_STRUCT_USE_PREV: &[&str] = &[
    "impl", "struct", "enum", "union", "trait", "mod", "for", "fn", "dyn", "in", "where", "else",
    "loop",
];

fn s101_snapshot_coverage(model: &Model, out: &mut Vec<Finding>) {
    for (fi, f) in model.files.iter().enumerate() {
        if !SNAPSHOT_FILES.contains(&f.path.as_str()) {
            continue;
        }
        for i in 0..f.tokens.len() {
            if f.tokens[i].kind != Kind::Ident || !f.is_punct(i + 1, "{") {
                continue;
            }
            let line = f.tokens[i].line;
            if f.in_test(line) {
                continue;
            }
            if i > 0 {
                let prev = f.t(i - 1);
                let prev_kind = f.tokens[i - 1].kind;
                if prev_kind == Kind::Ident && NON_STRUCT_USE_PREV.contains(&prev) {
                    continue;
                }
                // `-> Name {` is a return type followed by the fn body.
                if prev_kind == Kind::Punct && prev == "->" {
                    continue;
                }
            }
            let name = f.t(i);
            let def = if name == "Self" {
                let owner = model
                    .enclosing_fn(fi, line)
                    .and_then(|id| model.fn_item(id).owner.clone());
                match owner {
                    Some(o) => model.resolve_struct(&o, fi),
                    None => None,
                }
            } else {
                model.resolve_struct(name, fi)
            };
            let Some(def) = def else { continue };
            let open = i + 1;
            let close = f.matching(open);
            let (used, has_rest) = braced_field_names(f, open, close);
            if has_rest {
                // `..` (rest pattern or struct update) is K003's case;
                // with it present the field list is complete by
                // construction, so there is nothing to diff.
                continue;
            }
            for (field, _) in &def.fields {
                if !used.iter().any(|u| u == field) {
                    out.push(finding(
                        f,
                        "S101",
                        line,
                        format!(
                            "snapshot use of `{name}` does not mention field `{field}`: \
                             every field must be captured in snapshot() and restored in \
                             restore() (field-set diff against the `{}` definition)",
                            def.name
                        ),
                    ));
                }
            }
        }
    }
}

/// Collects field names used at depth 0 of a braced struct
/// expression/pattern, plus whether a `..` escape is present.
fn braced_field_names(f: &File, open: usize, close: usize) -> (Vec<String>, bool) {
    let mut used = Vec::new();
    let mut has_rest = false;
    let mut k = open + 1;
    let end = close.min(f.tokens.len());
    while k < end {
        if f.is_punct(k, "..") {
            has_rest = true;
            k += 1;
            continue;
        }
        if f.is_ident(k, "ref") || f.is_ident(k, "mut") {
            k += 1;
            continue;
        }
        if f.tokens[k].kind == Kind::Ident
            && (f.is_punct(k + 1, ":") || f.is_punct(k + 1, ",") || k + 1 == close)
        {
            used.push(f.t(k).to_string());
            if f.is_punct(k + 1, ":") {
                // Skip the value/pattern to the `,` at depth 0.
                k += 2;
                while k < end {
                    if f.tokens[k].kind == Kind::Punct {
                        match f.t(k) {
                            "(" | "[" | "{" => {
                                k = f.matching(k) + 1;
                                continue;
                            }
                            "," => {
                                k += 1;
                                break;
                            }
                            _ => {}
                        }
                    }
                    k += 1;
                }
            } else {
                k += 2;
            }
            continue;
        }
        k += 1;
    }
    (used, has_rest)
}

// ---------------------------------------------------------------------
// S102: CheckSink hook reachability
// ---------------------------------------------------------------------

/// File defining the `CheckSink` trait (C001's scope).
const CHECK_TRAIT_FILE: &str = "crates/core/src/check.rs";

/// The oracle hook trait.
const HOOK_TRAIT: &str = "CheckSink";

/// Entry points hooks must be reachable from: the event loop plus the
/// checkpoint fork path.
const HOOK_ROOT_FNS: &[&str] = &["run", "run_until", "snapshot", "restore"];

fn s102_hook_reachability(model: &Model, out: &mut Vec<Finding>) {
    let Some(def_fi) = model.file_index(CHECK_TRAIT_FILE) else {
        return;
    };
    let methods: Vec<FnId> = model.items[def_fi]
        .fns
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
        for (idx, func) in model.items[fi].fns.iter().enumerate() {
            if names.contains(&func.name.as_str()) && !f.in_test(func.line) {
                roots.push(FnId { file: fi, idx });
            }
        }
    }
    roots
}

// ---------------------------------------------------------------------
// S104: wire/manifest key agreement
// ---------------------------------------------------------------------

/// How a producer/consumer key pair must relate.
#[derive(Debug, Clone, Copy)]
enum Agreement {
    /// Emitted and accepted key sets must be identical (wire specs:
    /// strict parsing both ways).
    Equal,
    /// Every emitted key must be accepted (manifest: the validator may
    /// not silently drop producer keys).
    EmitMustBeAccepted,
    /// Every accepted key must be emitted (serve client: reading a key
    /// the server never writes is dead or drifted protocol).
    AcceptMustBeEmitted,
}

/// One producer/consumer pairing. Empty fn lists mean "every non-test
/// function in the file".
struct KeyPair {
    label: &'static str,
    emit_file: &'static str,
    emit_fns: &'static [&'static str],
    accept_file: &'static str,
    accept_fns: &'static [&'static str],
    agreement: Agreement,
}

const KEY_PAIRS: &[KeyPair] = &[
    KeyPair {
        label: "wire spec",
        emit_file: "crates/bench/src/spec/wire.rs",
        emit_fns: &["to_json", "variant_json", "scheme_to_json"],
        accept_file: "crates/bench/src/spec/wire.rs",
        accept_fns: &["from_json", "variant_from_json", "scheme_from_json"],
        agreement: Agreement::Equal,
    },
    KeyPair {
        label: "run manifest",
        emit_file: "crates/bench/src/manifest.rs",
        emit_fns: &[
            "assemble_manifest",
            "variant_json",
            "config_json",
            "trace_json",
            "cell_json",
            "aggregates_json",
            "node_json",
            "metrics_json",
        ],
        accept_file: "crates/bench/src/manifest.rs",
        accept_fns: &["validate_doc"],
        agreement: Agreement::EmitMustBeAccepted,
    },
    KeyPair {
        label: "serve api",
        emit_file: "crates/serve/src/server.rs",
        emit_fns: &[],
        accept_file: "crates/serve/src/client.rs",
        accept_fns: &[],
        agreement: Agreement::AcceptMustBeEmitted,
    },
];

/// Which extraction rules apply to a side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Emit,
    Accept,
}

fn s104_key_agreement(model: &Model, out: &mut Vec<Finding>) {
    for pair in KEY_PAIRS {
        let emit = side_keys(model, pair.emit_file, pair.emit_fns, Side::Emit);
        let accept = side_keys(model, pair.accept_file, pair.accept_fns, Side::Accept);
        let (Some(emit), Some(accept)) = (emit, accept) else {
            continue;
        };
        let accept_names = fn_list_label(pair.accept_fns);
        let emit_names = fn_list_label(pair.emit_fns);
        if matches!(
            pair.agreement,
            Agreement::Equal | Agreement::EmitMustBeAccepted
        ) {
            let emit_f = &model.files[model.file_index(pair.emit_file).unwrap()];
            for (key, (sym, line)) in &emit {
                if !accept.contains_key(key) {
                    out.push(finding(
                        emit_f,
                        "S104",
                        *line,
                        format!(
                            "{} key `{key}` is emitted by `{sym}` but never accepted by \
                             {accept_names}: a reader silently drops (or rejects) it",
                            pair.label
                        ),
                    ));
                }
            }
        }
        if matches!(
            pair.agreement,
            Agreement::Equal | Agreement::AcceptMustBeEmitted
        ) {
            let accept_f = &model.files[model.file_index(pair.accept_file).unwrap()];
            for (key, (sym, line)) in &accept {
                if !emit.contains_key(key) {
                    out.push(finding(
                        accept_f,
                        "S104",
                        *line,
                        format!(
                            "{} key `{key}` is accepted by `{sym}` but never emitted by \
                             {emit_names}: dead or drifted protocol surface",
                            pair.label
                        ),
                    ));
                }
            }
        }
    }
}

fn fn_list_label(fns: &[&str]) -> String {
    if fns.is_empty() {
        "the paired file".to_string()
    } else {
        fns.join("/")
    }
}

/// Key → (emitting/accepting symbol path, first line). `None` when the
/// file or every named fn is absent (pair not applicable — fixture
/// mini-workspaces and partial checkouts stay silent).
fn side_keys(
    model: &Model,
    path: &str,
    fns: &[&str],
    side: Side,
) -> Option<BTreeMap<String, (String, u32)>> {
    let fi = model.file_index(path)?;
    let f = &model.files[fi];
    let mut keys = BTreeMap::new();
    let mut any_fn = false;
    for (idx, func) in model.items[fi].fns.iter().enumerate() {
        if !fns.is_empty() && !fns.contains(&func.name.as_str()) {
            continue;
        }
        let id = FnId { file: fi, idx };
        if model.is_test_fn(id) {
            continue;
        }
        let Some(body) = func.body else { continue };
        any_fn = true;
        let path_sym = model.fn_path(id);
        let mut add = |key: String, line: u32| {
            keys.entry(key).or_insert_with(|| (path_sym.clone(), line));
        };
        match side {
            Side::Emit => emitted_keys(f, body, &mut add),
            Side::Accept => accepted_keys(f, body, &mut add),
        }
    }
    any_fn.then_some(keys)
}

/// A string literal that looks like a JSON object key.
fn key_shape(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Unquotes a `Str` token (plain `"…"` only; raw/byte strings are never
/// object keys here).
fn str_value(f: &File, i: usize) -> &str {
    f.t(i).trim_matches('"')
}

/// Emission sites: the first element of a `("key", value)` pair — the
/// `Json::obj` / `members.push(…)` idiom — including the
/// `("key".to_string(), value)` variant.
fn emitted_keys(f: &File, body: (usize, usize), add: &mut dyn FnMut(String, u32)) {
    let (open, close) = body;
    for i in open + 1..close.min(f.tokens.len()) {
        if f.tokens[i].kind != Kind::Str {
            continue;
        }
        let key = str_value(f, i);
        if !key_shape(key) || !f.is_punct(i.wrapping_sub(1), "(") {
            continue;
        }
        let tuple_key = f.is_punct(i + 1, ",");
        let to_string_key = f.is_punct(i + 1, ".")
            && f.is_ident(i + 2, "to_string")
            && f.is_punct(i + 3, "(")
            && f.is_punct(i + 4, ")")
            && f.is_punct(i + 5, ",");
        if tuple_key || to_string_key {
            add(key.to_string(), f.tokens[i].line);
        }
    }
}

/// Acceptance sites: known-key slices passed to `reject_unknown_keys` /
/// `expect_keys` (or iterated by a `for … in […]` header), second
/// arguments of `field(…)` lookups, and `.get("key")` reads.
fn accepted_keys(f: &File, body: (usize, usize), add: &mut dyn FnMut(String, u32)) {
    let (open, close) = body;
    let end = close.min(f.tokens.len());
    for i in open + 1..end {
        match f.tokens[i].kind {
            Kind::Str => {
                let key = str_value(f, i);
                if !key_shape(key) {
                    continue;
                }
                let in_slice = (f.is_punct(i.wrapping_sub(1), "[")
                    || f.is_punct(i.wrapping_sub(1), ","))
                    && (f.is_punct(i + 1, ",") || f.is_punct(i + 1, "]"))
                    && slice_is_key_list(f, i);
                let in_get = i >= 3
                    && f.is_punct(i - 1, "(")
                    && f.is_ident(i - 2, "get")
                    && f.is_punct(i - 3, ".")
                    && f.is_punct(i + 1, ")");
                if in_slice || in_get {
                    add(key.to_string(), f.tokens[i].line);
                }
            }
            Kind::Ident if f.t(i) == "field" && f.is_punct(i + 1, "(") => {
                // Every key-shaped literal at the call's own argument
                // depth (nested `field(…)` calls report their own).
                let call_close = f.matching(i + 1);
                let mut k = i + 2;
                while k < call_close.min(end) {
                    if f.tokens[k].kind == Kind::Punct && matches!(f.t(k), "(" | "[" | "{") {
                        k = f.matching(k) + 1;
                        continue;
                    }
                    if f.tokens[k].kind == Kind::Str {
                        let key = str_value(f, k);
                        if key_shape(key) {
                            add(key.to_string(), f.tokens[k].line);
                        }
                    }
                    k += 1;
                }
            }
            _ => {}
        }
    }
}

/// Whether the slice literal containing the `Str` at `i` is a known-key
/// list: an argument of `reject_unknown_keys`/`expect_keys`, or the
/// subject of a `for … in […]` header. Bare string slices elsewhere
/// (scheme-kind tables, test vectors) are not acceptance sites.
fn slice_is_key_list(f: &File, i: usize) -> bool {
    // Walk left over sibling elements to the opening `[`.
    let mut j = i;
    while j > 0 && (f.tokens[j - 1].kind == Kind::Str || f.is_punct(j - 1, ",")) {
        j -= 1;
    }
    if j == 0 || !f.is_punct(j - 1, "[") {
        return false;
    }
    let mut p = j - 1; // the `[`
    if p > 0 && f.is_punct(p - 1, "&") {
        p -= 1;
    }
    if p > 0 && f.is_ident(p - 1, "in") {
        return true;
    }
    // Look a few tokens back for the accepting callee.
    let lo = p.saturating_sub(6);
    (lo..p).any(|k| f.is_ident(k, "reject_unknown_keys") || f.is_ident(k, "expect_keys"))
}
