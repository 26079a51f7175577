//! A lightweight item-level Rust parser on top of the lexer.
//!
//! The semantic lint S102 needs to know *which functions exist* — free
//! and associated functions with their body extents — not what every
//! expression means. So this parser recognizes item structure only and
//! treats function bodies as opaque token ranges for the call-graph layer
//! ([`crate::callgraph`]) to scan.
//!
//! Soundness posture (see `DESIGN.md` §16):
//!
//! * **Under-approximation:** items nested inside function bodies
//!   (closures, local `fn`s, items expanded from macro invocations) are
//!   invisible; macro bodies are skipped as balanced token groups.
//! * **Over-approximation:** `#[cfg]`-gated items are always parsed, so
//!   the model may contain symbols a given build excludes.
//!
//! Both directions are deliberate: S102 only ever asks which *names*
//! are reachable, where a missing nested item can at worst cause a false
//! negative in a place token lints already cover.

use crate::lex::Kind;
use crate::source::File;

/// One `fn` item: free function, associated function, or trait method
/// (declaration or default body).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` self-type or `trait` name, `None` for free
    /// functions.
    pub owner: Option<String>,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token-index range `(open_brace, close_brace)` of the body;
    /// `None` for bodiless declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_self: bool,
}

/// Parses the functions of `f`, in source order.
pub fn parse_fns(f: &File) -> Vec<FnItem> {
    let mut out = Vec::new();
    parse_region(f, 0, f.tokens.len(), None, &mut out);
    out
}

/// How a signature scan ended: at a body brace, at a `;`, or never.
enum SigEnd {
    Body(usize),
    Semi(usize),
    None,
}

/// Parses items in the token range `[start, end)` with the given owner
/// (the enclosing `impl` type or `trait` name).
fn parse_region(f: &File, start: usize, end: usize, owner: Option<&str>, out: &mut Vec<FnItem>) {
    let mut i = start;
    while i < end {
        // Attributes (`#[…]` / `#![…]`) are skipped as token groups.
        if f.is_punct(i, "#") {
            let mut j = i + 1;
            if f.is_punct(j, "!") {
                j += 1;
            }
            if f.is_punct(j, "[") {
                i = f.matching(j) + 1;
                continue;
            }
        }
        if f.tokens[i].kind != Kind::Ident {
            i += 1;
            continue;
        }
        match f.t(i) {
            "fn" => i = parse_fn(f, i, end, owner, out),
            "struct" | "enum" | "union" => i = skip_type_item(f, i, end),
            "trait" => i = parse_trait(f, i, end, out),
            "impl" => i = parse_impl(f, i, end, out),
            "mod" => i = parse_mod(f, i, end, out),
            "macro_rules" => i = skip_macro_def(f, i, end),
            "use" | "static" | "type" => i = skip_to_semi(f, i + 1, end),
            "const" => {
                // `const fn` is a modifier; `const NAME: T = …;` is an item.
                if f.is_ident(i + 1, "fn") {
                    i += 1;
                } else {
                    i = skip_to_semi(f, i + 1, end);
                }
            }
            "extern" => {
                // `extern crate x;`, `extern "C" { … }`, or an
                // `extern "C" fn` modifier.
                let mut j = i + 1;
                if f.tokens.get(j).is_some_and(|t| t.kind == Kind::Str) {
                    j += 1;
                }
                if f.is_ident(j, "fn") {
                    i = j;
                } else if f.is_punct(j, "{") {
                    i = f.matching(j) + 1;
                } else {
                    i = skip_to_semi(f, j, end);
                }
            }
            _ => i += 1,
        }
    }
}

/// Parses `fn name …` at token `i` (the `fn` keyword); returns the index
/// just past the item.
fn parse_fn(f: &File, i: usize, end: usize, owner: Option<&str>, out: &mut Vec<FnItem>) -> usize {
    let Some(name_tok) = f.tokens.get(i + 1) else {
        return i + 1;
    };
    if name_tok.kind != Kind::Ident {
        return i + 1;
    }
    let name = f.t(i + 1).to_string();
    let line = name_tok.line;
    let has_self = param_list_has_self(f, i + 2, end);
    match scan_signature(f, i + 2, end) {
        SigEnd::Body(open) => {
            let close = f.matching(open);
            out.push(FnItem {
                name,
                owner: owner.map(str::to_string),
                line,
                body: Some((open, close)),
                has_self,
            });
            close + 1
        }
        SigEnd::Semi(semi) => {
            out.push(FnItem {
                name,
                owner: owner.map(str::to_string),
                line,
                body: None,
                has_self,
            });
            semi + 1
        }
        SigEnd::None => end,
    }
}

/// Whether the first parenthesized group at angle-depth 0 after `from`
/// (the parameter list) starts with a `self` receiver.
fn param_list_has_self(f: &File, from: usize, end: usize) -> bool {
    let mut angle = 0i32;
    let mut j = from;
    while j < end {
        match (f.tokens[j].kind, f.t(j)) {
            (Kind::Punct, "<") => angle += 1,
            (Kind::Punct, ">") => angle = (angle - 1).max(0),
            (Kind::Punct, ">>") => angle = (angle - 2).max(0),
            (Kind::Punct, "(") if angle == 0 => {
                let close = f.matching(j);
                // Only the receiver position counts: scan up to the
                // first argument separator at depth 0.
                let mut depth = 0i32;
                for k in j + 1..close.min(end) {
                    if f.tokens[k].kind == Kind::Punct {
                        match f.t(k) {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            "," if depth == 0 => break,
                            _ => {}
                        }
                    }
                    if f.is_ident(k, "self") {
                        let fine = f.is_punct(k - 1, "(")
                            || f.is_punct(k - 1, "&")
                            || f.is_ident(k - 1, "mut")
                            || f.tokens[k - 1].kind == Kind::Lifetime;
                        if fine {
                            return true;
                        }
                    }
                }
                return false;
            }
            (Kind::Punct, "{" | ";") if angle == 0 => return false,
            _ => {}
        }
        j += 1;
    }
    false
}

/// Scans a signature tail (generics, params, return type, where clause)
/// for the body `{` or declaration `;` at depth 0.
fn scan_signature(f: &File, from: usize, end: usize) -> SigEnd {
    let mut angle = 0i32;
    let mut j = from;
    while j < end {
        match (f.tokens[j].kind, f.t(j)) {
            (Kind::Punct, "<") => angle += 1,
            (Kind::Punct, ">") => angle = (angle - 1).max(0),
            (Kind::Punct, ">>") => angle = (angle - 2).max(0),
            (Kind::Punct, "(" | "[") => {
                j = f.matching(j);
            }
            (Kind::Punct, "{") if angle == 0 => return SigEnd::Body(j),
            (Kind::Punct, "{") => {
                // Const-generic expression braces inside generics.
                j = f.matching(j);
            }
            (Kind::Punct, ";") if angle == 0 => return SigEnd::Semi(j),
            _ => {}
        }
        j += 1;
    }
    SigEnd::None
}

/// Skips a `struct`/`enum`/`union` item (name, generics, body or `;`).
fn skip_type_item(f: &File, i: usize, end: usize) -> usize {
    match scan_signature(f, i + 1, end) {
        SigEnd::Body(open) => f.matching(open) + 1,
        SigEnd::Semi(semi) => semi + 1,
        SigEnd::None => end,
    }
}

/// Parses `trait Name … { … }`, recursing into the body with the trait
/// as owner so method declarations become [`FnItem`]s.
fn parse_trait(f: &File, i: usize, end: usize, out: &mut Vec<FnItem>) -> usize {
    let Some(name_tok) = f.tokens.get(i + 1) else {
        return i + 1;
    };
    if name_tok.kind != Kind::Ident {
        return i + 1;
    }
    let name = f.t(i + 1).to_string();
    match scan_signature(f, i + 2, end) {
        SigEnd::Body(open) => {
            let close = f.matching(open);
            parse_region(f, open + 1, close.min(end), Some(&name), out);
            close + 1
        }
        SigEnd::Semi(semi) => semi + 1,
        SigEnd::None => end,
    }
}

/// Parses `impl … { … }`: determines the self-type name (the last path
/// segment after `for`, or of the sole type) and recurses with it as
/// owner.
fn parse_impl(f: &File, i: usize, end: usize, out: &mut Vec<FnItem>) -> usize {
    let mut j = i + 1;
    // Leading generic parameters.
    if f.is_punct(j, "<") {
        let mut angle = 0i32;
        while j < end {
            match (f.tokens[j].kind, f.t(j)) {
                (Kind::Punct, "<") => angle += 1,
                (Kind::Punct, ">") => angle -= 1,
                (Kind::Punct, ">>") => angle -= 2,
                (Kind::Punct, "(" | "[" | "{") => j = f.matching(j),
                _ => {}
            }
            j += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    // Walk the type path: the owner is the last plain identifier seen
    // before the body (reset at `for`, so `impl Trait for Type` names
    // `Type`); generic argument groups are skipped.
    let mut owner: Option<String> = None;
    let mut angle = 0i32;
    while j < end {
        match (f.tokens[j].kind, f.t(j)) {
            (Kind::Punct, "<") => angle += 1,
            (Kind::Punct, ">") => angle = (angle - 1).max(0),
            (Kind::Punct, ">>") => angle = (angle - 2).max(0),
            (Kind::Punct, "(" | "[") => j = f.matching(j),
            (Kind::Punct, "{") if angle == 0 => break,
            (Kind::Punct, "{") => j = f.matching(j),
            (Kind::Ident, "for") if angle == 0 => owner = None,
            (Kind::Ident, "where") if angle == 0 => {
                match scan_signature(f, j + 1, end) {
                    SigEnd::Body(open) => j = open,
                    _ => return end,
                }
                break;
            }
            (Kind::Ident, "dyn" | "mut" | "const") => {}
            (Kind::Ident, _) if angle == 0 => owner = Some(f.t(j).to_string()),
            _ => {}
        }
        j += 1;
        if f.is_punct(j, "{") && angle == 0 {
            break;
        }
    }
    if !f.is_punct(j, "{") {
        return end;
    }
    let close = f.matching(j);
    parse_region(f, j + 1, close.min(end), owner.as_deref(), out);
    close + 1
}

/// Parses `mod name { … }` (recursing, owner reset) or skips `mod name;`.
fn parse_mod(f: &File, i: usize, end: usize, out: &mut Vec<FnItem>) -> usize {
    let mut j = i + 1;
    while j < end && !f.is_punct(j, "{") && !f.is_punct(j, ";") {
        j += 1;
    }
    if f.is_punct(j, "{") {
        let close = f.matching(j);
        parse_region(f, j + 1, close.min(end), None, out);
        close + 1
    } else {
        j + 1
    }
}

/// Skips `macro_rules! name { … }` as one balanced group.
fn skip_macro_def(f: &File, i: usize, end: usize) -> usize {
    let mut j = i + 1;
    while j < end {
        if f.is_punct(j, "{") || f.is_punct(j, "(") || f.is_punct(j, "[") {
            return f.matching(j) + 1;
        }
        j += 1;
    }
    end
}

/// Skips to just past the next `;` at delimiter depth 0 (groups are
/// stepped over whole, so `use x::{a, b};` works).
fn skip_to_semi(f: &File, from: usize, end: usize) -> usize {
    let mut j = from;
    while j < end {
        if f.tokens[j].kind == Kind::Punct {
            match f.t(j) {
                "(" | "[" | "{" => {
                    j = f.matching(j) + 1;
                    continue;
                }
                ";" => return j + 1,
                _ => {}
            }
        }
        j += 1;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Vec<FnItem> {
        parse_fns(&File::new("crates/core/src/x.rs", src))
    }

    #[test]
    fn free_and_assoc_fns() {
        let it = items(
            "fn free(a: u32) -> u32 { a }\n\
             struct S { x: u32, y: Vec<(u8, u8)> }\n\
             impl S {\n    fn method(&self) -> u32 { self.x }\n    fn assoc() -> S { todo!() }\n}\n",
        );
        let names: Vec<_> = it
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str(), f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                (None, "free", false),
                (Some("S"), "method", true),
                (Some("S"), "assoc", false),
            ]
        );
    }

    #[test]
    fn trait_impl_owner_is_self_type() {
        let it = items(
            "trait T { fn decl(&self); fn with_default(&self) {} }\n\
             impl T for Wrapper<'_> { fn decl(&self) {} }\n",
        );
        assert_eq!(it[0].owner.as_deref(), Some("T"));
        assert!(it[0].body.is_none());
        assert_eq!(it[1].owner.as_deref(), Some("T"));
        assert!(it[1].body.is_some());
        assert_eq!(it[2].owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn nested_generics_and_where_clauses() {
        let it = items(
            "fn tricky<W: Workload<Item = Vec<Vec<u8>>>>(w: W) -> Option<Box<dyn Fn() -> u8>>\n\
             where W: Clone { None }\n\
             struct G<K, V> { map: FxHashMap<K, Vec<V>>, n: usize }\n",
        );
        assert_eq!(it[0].name, "tricky");
        assert!(it[0].body.is_some());
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn bodies_are_opaque_and_macros_skipped() {
        let it = items(
            "macro_rules! m { ($x:expr) => { fn not_an_item() {} }; }\n\
             fn outer() { fn inner() {} let c = |x: u32| x; }\n",
        );
        let names: Vec<_> = it.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer"]);
    }

    #[test]
    fn type_items_are_skipped_and_mods_entered() {
        let it = items(
            "struct Unit;\npub struct Pair(u32, u32);\n\
             mod inner { struct Deep { d: u8 } pub fn in_mod() {} }\n\
             enum E { A { f: fn() } }\nfn after() {}\n",
        );
        let names: Vec<_> = it
            .iter()
            .map(|f| (f.owner.as_deref(), f.name.as_str()))
            .collect();
        assert_eq!(names, vec![(None, "in_mod"), (None, "after")]);
    }
}
