//! The lint passes.
//!
//! Every lint is syntactic, deterministic, and scoped by the workspace
//! layout (see `DESIGN.md` §11 for each lint's rationale and the
//! suppression policy). File-local passes run per file; `M001` and `S102`
//! are workspace passes that need every file at once.

use crate::lex::Kind;
use crate::model::Model;
use crate::report::Finding;
use crate::semantic;
use crate::source::File;

/// Descriptor for one lint: stable ID plus one-line summary (for
/// `pfsim-lint --list` and the JSON report's ID validation).
pub struct Lint {
    /// Stable ID, e.g. `"D001"`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every lint this tool knows, in ID order.
pub const LINTS: &[Lint] = &[
    Lint {
        id: "D001",
        summary: "no std HashMap/HashSet in sim crates (FxHashMap or sorted structures only)",
    },
    Lint {
        id: "D002",
        summary: "no wall-clock or OS randomness (Instant/SystemTime/thread_rng/...) in sim crates",
    },
    Lint {
        id: "D003",
        summary: "hash-map iteration feeding observable output must be sorted or reduced order-insensitively",
    },
    Lint {
        id: "K001",
        summary: "simulation-clock fields are written only inside the event kernel (core/src/system.rs)",
    },
    Lint {
        id: "K002",
        summary: "no panic!/unwrap/expect on the event hot path outside debug_assert guards",
    },
    Lint {
        id: "K003",
        summary: "snapshot modules destructure exhaustively: no `..` rest patterns, `..base` updates or Default::default()",
    },
    Lint {
        id: "M001",
        summary: "each metrics name literal is registered exactly once, with one kind",
    },
    Lint {
        id: "S000",
        summary: "malformed pfsim-lint suppression comment (missing or unregistered ids, or no ` -- reason`)",
    },
    Lint {
        id: "S102",
        summary: "every CheckSink hook must be call-graph reachable from the core entry points",
    },
    Lint {
        id: "T001",
        summary: "threads and sync primitives only in approved concurrency modules (bench/parallel, bench/lib, serve/src)",
    },
    Lint {
        id: "U001",
        summary: "every `unsafe` must carry a `// SAFETY:` comment on the same or previous line",
    },
];

/// Whether `id` is a known lint ID.
pub fn known_id(id: &str) -> bool {
    LINTS.iter().any(|l| l.id == id)
}

/// Crates whose code runs inside (or feeds) the simulation: determinism
/// lints apply to their non-test code.
const SIM_CRATES: &[&str] = &[
    "sim-engine",
    "mem",
    "cache",
    "coherence",
    "network",
    "prefetch",
    "workloads",
    "core",
    "check",
    "analysis",
];

/// Identifiers D002 bans inside sim crates.
const WALLCLOCK_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "thread_rng",
    "OsRng",
    "ThreadRng",
    "from_entropy",
    "getrandom",
];

/// Hash-container type names D001/D003 track.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Iterator-producing methods on hash containers.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Depth-0 chain members that make a hash iteration deterministic: either
/// an explicit sort / deterministic-snapshot helper, or an
/// order-insensitive reduction.
const ORDER_SAFE: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted_entries",
    "sorted_keys",
    "sorted_values",
    "len",
    "count",
    "sum",
    "product",
    "min",
    "max",
    "all",
    "any",
    "is_empty",
    "contains",
    "contains_key",
    "get",
];

/// Files forming the event hot path: code here runs once per simulated
/// event, so a stray panic is both a robustness and a review problem.
fn is_hot_path(f: &File) -> bool {
    match f.crate_dir.as_deref() {
        Some("core") => {
            matches!(
                file_name(&f.path),
                "system.rs" | "node.rs" | "sync.rs" | "msg.rs"
            ) && f.path.contains("/src/")
        }
        Some("sim-engine") => {
            matches!(file_name(&f.path), "queue.rs" | "server.rs" | "time.rs")
                && f.path.contains("/src/")
        }
        Some("cache" | "coherence" | "network" | "prefetch") => f.path.contains("/src/"),
        _ => false,
    }
}

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn is_sim_crate(f: &File) -> bool {
    f.crate_dir
        .as_deref()
        .is_some_and(|c| SIM_CRATES.contains(&c))
        && f.path.contains("/src/")
}

/// Runs every lint over the workspace and returns raw (unsuppressed)
/// findings sorted by `(file, line, id)`.
pub fn run_all(files: &[File]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        file_lints(f, &mut out);
    }
    m001_metric_names(files, &mut out);
    let model = Model::build(files);
    semantic::s102_hook_reachability(&model, &mut out);
    annotate_symbols(&model, &mut out);
    apply_suppressions(files, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.id).cmp(&(&b.file, b.line, b.id)));
    out
}

/// Attaches the enclosing function's symbol path and declaration line
/// to every finding the symbol model can place (report schema v2).
fn annotate_symbols(model: &Model, findings: &mut [Finding]) {
    for fin in findings.iter_mut() {
        let Some(fi) = model.file_index(&fin.file) else {
            continue;
        };
        if let Some(id) = model.enclosing_fn(fi, fin.line) {
            fin.symbol = Some(model.fn_path(id));
            fin.symbol_line = Some(model.fn_item(id).line);
        }
    }
}

/// All file-local passes.
fn file_lints(f: &File, out: &mut Vec<Finding>) {
    s000_malformed_suppressions(f, out);
    u001_safety_comments(f, out);
    k001_clock_writes(f, out);
    t001_thread_primitives(f, out);
    if is_sim_crate(f) {
        d001_std_hash(f, out);
        d002_wallclock(f, out);
        d003_hash_iteration(f, out);
    }
    if is_hot_path(f) {
        k002_hot_panics(f, out);
    }
    k003_exhaustive_snapshots(f, out);
}

pub(crate) fn finding(f: &File, id: &'static str, line: u32, message: String) -> Finding {
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
// S000 / U001 (apply everywhere, test code included)
// ---------------------------------------------------------------------

fn s000_malformed_suppressions(f: &File, out: &mut Vec<Finding>) {
    for &line in &f.malformed_suppressions {
        out.push(finding(
            f,
            "S000",
            line,
            "malformed suppression: expected `pfsim-lint: allow(<ID>, ...) -- <reason>` \
             naming registered lint IDs"
                .to_string(),
        ));
    }
}

fn u001_safety_comments(f: &File, out: &mut Vec<Finding>) {
    for (i, tok) in f.tokens.iter().enumerate() {
        if tok.kind != Kind::Ident || f.t(i) != "unsafe" {
            continue;
        }
        let line = tok.line;
        let documented = f.comments.iter().any(|c| {
            (c.line == line || c.line + 1 == line) && f.src[c.lo..c.hi].contains("SAFETY:")
        });
        if !documented {
            out.push(finding(
                f,
                "U001",
                line,
                "`unsafe` without a `// SAFETY:` comment on the same or previous line".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// K001: simulation-clock writes outside the event kernel
// ---------------------------------------------------------------------

/// The fields that together hold simulated time ("pclock" state): the
/// kernel cursor plus the per-node processor clocks.
const CLOCK_FIELDS: &[&str] = &["last_time", "cpu_time", "issue_time"];

/// The event kernel: the only file where simulated time may advance. Its
/// loop folds event times into `last_time`; everything else only reads
/// the clocks.
const KERNEL_FILE: &str = "crates/core/src/system.rs";

fn k001_clock_writes(f: &File, out: &mut Vec<Finding>) {
    if f.path == KERNEL_FILE {
        return;
    }
    for i in 1..f.tokens.len() {
        if f.tokens[i].kind != Kind::Ident || !CLOCK_FIELDS.contains(&f.t(i)) {
            continue;
        }
        if !f.is_punct(i - 1, ".") {
            continue;
        }
        if f.in_test(f.tokens[i].line) {
            continue;
        }
        let assigns = f.tokens.get(i + 1).is_some_and(|t| t.kind == Kind::Punct)
            && matches!(f.t(i + 1), "=" | "+=" | "-=");
        if assigns {
            out.push(finding(
                f,
                "K001",
                f.tokens[i].line,
                format!(
                    "simulation-clock field `{}` written outside the event kernel \
                     ({KERNEL_FILE})",
                    f.t(i)
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// T001: thread/sync primitives outside approved concurrency modules
// ---------------------------------------------------------------------

/// The only non-test modules allowed to spawn threads or hold sync
/// primitives: the grid-level fan-out harness and the trace cache it
/// shares. Everything else must stay single-threaded so determinism
/// arguments stay local to these files.
const CONCURRENCY_MODULES: &[&str] = &["crates/bench/src/parallel.rs", "crates/bench/src/lib.rs"];

/// Directory prefixes whose non-test sources are concurrent by design.
/// The experiment service is a worker pool wrapped around the (still
/// single-threaded) simulator, so every module under it may hold sync
/// primitives; the trailing slash keeps lookalike paths (`crates/served/`)
/// outside the allowance.
const CONCURRENCY_DIRS: &[&str] = &["crates/serve/src/"];

/// Sync primitive type names banned outside [`CONCURRENCY_MODULES`].
/// `Arc` is deliberately absent: immutable sharing is harmless and
/// widespread (packed traces, spec tables).
const SYNC_PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar", "OnceLock", "mpsc"];

/// `std::thread` functions banned outside [`CONCURRENCY_MODULES`] (only
/// flagged as the `thread::name` path form, to spare unrelated local
/// idents like a variable named `scope`).
const THREAD_CALLS: &[&str] = &["spawn", "scope", "yield_now", "park", "sleep"];

fn t001_thread_primitives(f: &File, out: &mut Vec<Finding>) {
    if CONCURRENCY_MODULES.contains(&f.path.as_str())
        || CONCURRENCY_DIRS.iter().any(|d| f.path.starts_with(d))
    {
        return;
    }
    for (i, tok) in f.tokens.iter().enumerate() {
        if tok.kind != Kind::Ident || f.in_test(tok.line) {
            continue;
        }
        let text = f.t(i);
        let banned = SYNC_PRIMITIVES.contains(&text)
            || text.starts_with("Atomic")
            || (THREAD_CALLS.contains(&text)
                && i >= 2
                && f.is_punct(i - 1, "::")
                && f.t(i - 2) == "thread");
        if banned {
            out.push(finding(
                f,
                "T001",
                tok.line,
                format!(
                    "`{text}` outside an approved concurrency module: threads and \
                     sync primitives live only in {} and under {}",
                    CONCURRENCY_MODULES.join(", "),
                    CONCURRENCY_DIRS.join(", ")
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// K002: panics on the event hot path
// ---------------------------------------------------------------------

fn k002_hot_panics(f: &File, out: &mut Vec<Finding>) {
    let masked = debug_assert_mask(f);
    for (i, &m) in masked.iter().enumerate() {
        if m || f.tokens[i].kind != Kind::Ident {
            continue;
        }
        let line = f.tokens[i].line;
        if f.in_test(line) {
            continue;
        }
        let text = f.t(i);
        let hit = match text {
            "unwrap" | "expect" => i > 0 && f.is_punct(i - 1, ".") && f.is_punct(i + 1, "("),
            "panic" => f.is_punct(i + 1, "!"),
            _ => false,
        };
        if hit {
            out.push(finding(
                f,
                "K002",
                line,
                format!(
                    "`{text}` on the event hot path: handle the case, guard with \
                     debug_assert, or suppress with a written invariant"
                ),
            ));
        }
    }
}

/// Marks tokens inside `debug_assert*!(...)` calls, which may panic by
/// design (debug builds only).
fn debug_assert_mask(f: &File) -> Vec<bool> {
    let mut mask = vec![false; f.tokens.len()];
    let mut i = 0usize;
    while i < f.tokens.len() {
        if f.tokens[i].kind == Kind::Ident
            && f.t(i).starts_with("debug_assert")
            && f.is_punct(i + 1, "!")
            && f.is_punct(i + 2, "(")
        {
            let close = f.matching(i + 2);
            for m in mask
                .iter_mut()
                .take(close.min(f.tokens.len() - 1) + 1)
                .skip(i)
            {
                *m = true;
            }
            i = close + 1;
        } else {
            i += 1;
        }
    }
    mask
}

// ---------------------------------------------------------------------
// K003: non-exhaustive state capture in snapshot modules
// ---------------------------------------------------------------------

/// The modules that copy machine state into/out of checkpoints. Their
/// whole correctness argument is "the compiler errors when a field is
/// added but not captured", so both escape hatches — `..` rest patterns
/// and `Default::default()` — are banned outright: each one lets a new
/// field silently miss the snapshot and break restore bit-identity.
const SNAPSHOT_MODULES: &[&str] = &["crates/core/src/checkpoint.rs"];

fn k003_exhaustive_snapshots(f: &File, out: &mut Vec<Finding>) {
    if !SNAPSHOT_MODULES.contains(&f.path.as_str()) {
        return;
    }
    for (i, tok) in f.tokens.iter().enumerate() {
        if f.in_test(tok.line) {
            continue;
        }
        // A rest pattern is `..` directly before the closing delimiter
        // (a range expression always has an operand or `=` there); a
        // struct update is `..base` directly after `{` or `,`.
        let dots = tok.kind == Kind::Punct && f.t(i) == "..";
        if dots && (f.is_punct(i + 1, "}") || f.is_punct(i + 1, ")")) {
            out.push(finding(
                f,
                "K003",
                tok.line,
                "`..` rest pattern in a snapshot module: destructure every field so a \
                 newly added one cannot silently escape the checkpoint"
                    .to_string(),
            ));
        } else if dots && i > 0 && (f.is_punct(i - 1, "{") || f.is_punct(i - 1, ",")) {
            out.push(finding(
                f,
                "K003",
                tok.line,
                "`..base` struct update in a snapshot module: spell out every field so \
                 a newly added one cannot silently skip the explicit capture"
                    .to_string(),
            ));
        }
        let default_call = tok.kind == Kind::Ident
            && f.t(i) == "Default"
            && f.is_punct(i + 1, "::")
            && f.is_ident(i + 2, "default");
        if default_call {
            out.push(finding(
                f,
                "K003",
                tok.line,
                "`Default::default()` in a snapshot module: copy the live value \
                 explicitly so restored state cannot silently reset"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// D001 / D002: banned names in sim crates
// ---------------------------------------------------------------------

fn d001_std_hash(f: &File, out: &mut Vec<Finding>) {
    for (i, tok) in f.tokens.iter().enumerate() {
        if tok.kind != Kind::Ident || f.in_test(tok.line) {
            continue;
        }
        let text = f.t(i);
        if text == "HashMap" || text == "HashSet" {
            out.push(finding(
                f,
                "D001",
                tok.line,
                format!(
                    "`{text}` in a sim crate: use pfsim_mem::Fx{text} (deterministic \
                     iteration order) or a sorted structure"
                ),
            ));
        }
    }
}

fn d002_wallclock(f: &File, out: &mut Vec<Finding>) {
    for (i, tok) in f.tokens.iter().enumerate() {
        if tok.kind != Kind::Ident || f.in_test(tok.line) {
            continue;
        }
        let text = f.t(i);
        if WALLCLOCK_IDENTS.contains(&text) {
            out.push(finding(
                f,
                "D002",
                tok.line,
                format!(
                    "`{text}` in a sim crate: simulation results must not depend on \
                     wall-clock time or OS randomness (use Cycle / SplitMix64)"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// D003: unsorted hash-map iteration
// ---------------------------------------------------------------------

fn d003_hash_iteration(f: &File, out: &mut Vec<Finding>) {
    let names = hash_typed_names(f);
    if names.is_empty() {
        return;
    }
    let mut i = 0usize;
    while i < f.tokens.len() {
        if f.tokens[i].kind != Kind::Ident || !names.iter().any(|n| n == f.t(i)) {
            i += 1;
            continue;
        }
        let line = f.tokens[i].line;
        if f.in_test(line) {
            i += 1;
            continue;
        }
        // An iteration is `<name>.iter()`-style, or the name as the direct
        // subject of a `for … in [&[mut]] <name> {` header.
        let method_iter = f.is_punct(i + 1, ".")
            && f.tokens
                .get(i + 2)
                .is_some_and(|t| t.kind == Kind::Ident && ITER_METHODS.contains(&f.t(i + 2)));
        let direct_for = f.is_punct(i + 1, "{") && {
            let mut j = i;
            while j > 0 && (f.is_punct(j - 1, "&") || f.is_ident(j - 1, "mut")) {
                j -= 1;
            }
            f.is_ident(j.wrapping_sub(1), "in")
        };
        if !(method_iter || direct_for) {
            i += 1;
            continue;
        }
        if statement_is_order_safe(f, i) {
            i += 1;
            continue;
        }
        out.push(finding(
            f,
            "D003",
            line,
            format!(
                "iteration over hash container `{}` without a sort or order-insensitive \
                 reduction: hash order must never feed an observable output",
                f.t(i)
            ),
        ));
        i += 1;
    }
}

/// Collects identifiers declared (let/param/field) with an outermost
/// hash-container type in this file, plus `let x = FxHashMap::…` inits.
fn hash_typed_names(f: &File) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..f.tokens.len() {
        if f.tokens[i].kind != Kind::Ident || !HASH_TYPES.contains(&f.t(i)) {
            continue;
        }
        // `name : [& [mut]] HashType` — declaration with annotation.
        let mut j = i;
        while j > 0
            && (f.is_punct(j - 1, "&")
                || f.is_ident(j - 1, "mut")
                || f.tokens[j - 1].kind == Kind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && f.is_punct(j - 1, ":") && f.tokens[j - 2].kind == Kind::Ident {
            push_unique(&mut names, f.t(j - 2));
            continue;
        }
        // `let [mut] name = HashType ::` — inferred-type init.
        if i >= 2 && f.is_punct(i - 1, "=") && f.tokens[i - 2].kind == Kind::Ident {
            let name_at = i - 2;
            let lead = name_at.checked_sub(1).map(|k| f.t(k));
            if matches!(lead, Some("let") | Some("mut")) {
                push_unique(&mut names, f.t(name_at));
            }
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, n: &str) {
    if !names.iter().any(|x| x == n) {
        names.push(n.to_string());
    }
}

/// Decides whether the statement containing the iteration at token `i`
/// is order-safe: its depth-0 chain contains a sort / snapshot helper or
/// an order-insensitive reduction, or it collects into a binding that is
/// sorted within the next few statements.
fn statement_is_order_safe(f: &File, i: usize) -> bool {
    let start = statement_start(f, i);
    // Walk forward from the statement start to its end (`;` or a `{` at
    // depth 0 — a for-loop body or match arm), collecting depth-0 idents.
    let mut depth = 0i32;
    let mut j = start;
    let mut chain: Vec<&str> = Vec::new();
    let mut end = f.tokens.len();
    while j < f.tokens.len() {
        let t = f.t(j);
        match f.tokens[j].kind {
            Kind::Punct => match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    end = j;
                    break;
                }
                "{" => depth += 1,
                "}" => depth -= 1,
                ";" if depth <= 0 => {
                    end = j;
                    break;
                }
                _ => {}
            },
            Kind::Ident if depth == 0 => chain.push(t),
            _ => {}
        }
        j += 1;
    }
    if chain.iter().any(|t| ORDER_SAFE.contains(t)) {
        return true;
    }
    // `let <name> = … .collect();` followed shortly by `<name>.sort…`.
    if chain.first() == Some(&"let") && chain.contains(&"collect") {
        let name_at = if f.is_ident(start + 1, "mut") {
            start + 2
        } else {
            start + 1
        };
        if f.tokens.get(name_at).is_some_and(|t| t.kind == Kind::Ident) {
            let name = f.t(name_at);
            let horizon = (end + 60).min(f.tokens.len().saturating_sub(2));
            for k in end..horizon {
                if f.is_ident(k, name)
                    && f.is_punct(k + 1, ".")
                    && f.tokens
                        .get(k + 2)
                        .is_some_and(|t| t.kind == Kind::Ident && f.t(k + 2).starts_with("sort"))
                {
                    return true;
                }
            }
        }
    }
    false
}

/// Finds the first token of the statement containing token `i`: walks
/// backward to the nearest `;`, `{` or `}` that is not nested deeper than
/// the statement itself (an unmatched `(` on the way back means token `i`
/// sits inside a call argument — the statement still starts further
/// left).
fn statement_start(f: &File, i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j > 0 {
        let k = j - 1;
        if f.tokens[k].kind == Kind::Punct {
            match f.t(k) {
                ")" | "]" => depth += 1,
                "(" | "[" => depth -= 1,
                ";" | "{" | "}" if depth <= 0 => return j,
                _ => {}
            }
        }
        j = k;
    }
    0
}

// ---------------------------------------------------------------------
// M001: metrics name registration
// ---------------------------------------------------------------------

/// Receiver names that identify a live `Registry` (as opposed to a
/// `MetricsSnapshot` lookup, which reads by the same method names).
const REGISTRY_RECEIVERS: &[&str] = &["reg", "registry"];

fn m001_metric_names(files: &[File], out: &mut Vec<Finding>) {
    // name -> (kind, file index, line)
    let mut seen: Vec<(String, &'static str, usize, u32)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for i in 2..f.tokens.len() {
            let reg_call = f.tokens[i].kind == Kind::Ident
                && matches!(f.t(i), "counter" | "histogram" | "record" | "record_max")
                && f.is_punct(i - 1, ".")
                && f.tokens[i - 2].kind == Kind::Ident
                && REGISTRY_RECEIVERS.contains(&f.t(i - 2))
                && f.is_punct(i + 1, "(")
                && f.tokens.get(i + 2).is_some_and(|t| t.kind == Kind::Str);
            if !reg_call || f.in_test(f.tokens[i].line) {
                continue;
            }
            let lit = f.t(i + 2);
            let name = lit.trim_matches('"').to_string();
            let kind: &'static str = if f.t(i) == "histogram" {
                "histogram"
            } else {
                "counter"
            };
            let line = f.tokens[i].line;
            if let Some((_, prev_kind, pfi, pline)) = seen.iter().find(|(n, ..)| *n == name) {
                let msg = if *prev_kind == kind {
                    format!(
                        "metric `{name}` registered more than once (first at {}:{pline}): \
                         register once and pass the id handle around",
                        files[*pfi].path
                    )
                } else {
                    format!(
                        "metric `{name}` registered as both {prev_kind} and {kind} \
                         (first at {}:{pline})",
                        files[*pfi].path
                    )
                };
                out.push(finding(f, "M001", line, msg));
            } else {
                seen.push((name, kind, fi, line));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

/// Marks findings covered by a same-line or line-above suppression.
/// `S000` is never suppressible (a broken suppression cannot excuse
/// itself).
fn apply_suppressions(files: &[File], findings: &mut [Finding]) {
    for fin in findings.iter_mut() {
        if fin.id == "S000" {
            continue;
        }
        let Some(f) = files.iter().find(|f| f.path == fin.file) else {
            continue;
        };
        let hit = f.suppressions.iter().find(|s| {
            (s.line == fin.line || s.line + 1 == fin.line) && s.ids.iter().any(|id| id == fin.id)
        });
        if let Some(s) = hit {
            fin.suppressed = true;
            fin.reason = Some(s.reason.clone());
        }
    }
}
