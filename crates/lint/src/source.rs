//! Per-file lint context: path classification, `#[cfg(test)]` regions,
//! and suppression comments.

use crate::lex::{lex, Kind, Span};
use crate::lints::known_id;

/// The suppression comment grammar, per site:
///
/// ```text
/// // pfsim-lint: allow(D001) -- this is the FxHashMap definition itself
/// // pfsim-lint: allow(K002, D003) -- reason covering both
/// ```
///
/// A suppression applies to findings on its own line or the line directly
/// below it (comment-above style). The ` -- reason` part is mandatory and
/// every ID must be a registered lint; a `pfsim-lint:` comment that fails
/// to parse is itself reported (S000) and suppresses nothing.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line the comment sits on.
    pub line: u32,
    /// Lint IDs it allows.
    pub ids: Vec<String>,
    /// The written reason.
    pub reason: String,
}

/// One source file, lexed and classified.
#[derive(Debug)]
pub struct File {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// `Some("core")` for `crates/core/...`; `None` for the root crate.
    pub crate_dir: Option<String>,
    /// True for integration tests, examples and benches: files whose whole
    /// content is host/test code.
    pub is_test_file: bool,
    /// The source text.
    pub src: String,
    /// Code tokens (comments and whitespace stripped).
    pub tokens: Vec<Span>,
    /// Comments, in source order.
    pub comments: Vec<Span>,
    /// Line ranges (inclusive) of `#[cfg(test)] mod` bodies.
    pub test_ranges: Vec<(u32, u32)>,
    /// Parsed suppression comments.
    pub suppressions: Vec<Suppression>,
    /// `pfsim-lint:` comments that did not parse (line numbers).
    pub malformed_suppressions: Vec<u32>,
}

impl File {
    /// Lexes and classifies `src` under the workspace-relative `path`.
    pub fn new(path: impl Into<String>, src: impl Into<String>) -> File {
        let path = path.into();
        let src = src.into();
        let lexed = lex(&src);
        let crate_dir = path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_string);
        let in_crate_src = path.contains("/src/");
        let is_test_file =
            !in_crate_src || path.starts_with("tests/") || path.starts_with("examples/");
        let mut f = File {
            path,
            crate_dir,
            is_test_file,
            src,
            tokens: lexed.tokens,
            comments: lexed.comments,
            test_ranges: Vec::new(),
            suppressions: Vec::new(),
            malformed_suppressions: Vec::new(),
        };
        f.test_ranges = f.find_test_ranges();
        f.parse_suppressions();
        f
    }

    /// Text of token `i`.
    pub fn t(&self, i: usize) -> &str {
        let s = &self.tokens[i];
        &self.src[s.lo..s.hi]
    }

    /// Whether token `i` is an identifier with exactly this text.
    pub fn is_ident(&self, i: usize, text: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|s| s.kind == Kind::Ident && &self.src[s.lo..s.hi] == text)
    }

    /// Whether token `i` is punctuation with exactly this text.
    pub fn is_punct(&self, i: usize, text: &str) -> bool {
        self.tokens
            .get(i)
            .is_some_and(|s| s.kind == Kind::Punct && &self.src[s.lo..s.hi] == text)
    }

    /// Whether `line` is inside test code (test file or `#[cfg(test)]`
    /// region).
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_ranges
                .iter()
                .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Index of the matching close brace/paren/bracket for the opener at
    /// token `open` (returns `tokens.len()` when unbalanced).
    pub fn matching(&self, open: usize) -> usize {
        let mut depth = 0i32;
        for i in open..self.tokens.len() {
            if self.tokens[i].kind == Kind::Punct {
                match self.t(i) {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => {
                        depth -= 1;
                        if depth == 0 {
                            return i;
                        }
                    }
                    _ => {}
                }
            }
        }
        self.tokens.len()
    }

    /// Finds `#[cfg(test)] mod` body line ranges by token scanning.
    fn find_test_ranges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let n = self.tokens.len();
        let mut i = 0usize;
        while i + 6 < n {
            // `# [ cfg ( test ) ]`
            let is_cfg_test = self.is_punct(i, "#")
                && self.is_punct(i + 1, "[")
                && self.is_ident(i + 2, "cfg")
                && self.is_punct(i + 3, "(")
                && self.is_ident(i + 4, "test")
                && self.is_punct(i + 5, ")")
                && self.is_punct(i + 6, "]");
            if !is_cfg_test {
                i += 1;
                continue;
            }
            // Skip any further attributes, then expect `mod name {` or an
            // item (e.g. `#[cfg(test)] use …`); only mod bodies make a
            // region, anything else just guards one item (rare; ignored).
            let mut j = i + 7;
            while self.is_punct(j, "#") && self.is_punct(j + 1, "[") {
                j = self.matching(j + 1) + 1;
            }
            if self.is_ident(j, "mod") {
                // `mod name {`
                let mut k = j + 1;
                while k < n && !self.is_punct(k, "{") && !self.is_punct(k, ";") {
                    k += 1;
                }
                if k < n && self.is_punct(k, "{") {
                    let close = self.matching(k);
                    let end_line = if close < n {
                        self.tokens[close].line
                    } else {
                        u32::MAX
                    };
                    out.push((self.tokens[i].line, end_line));
                    i = close.min(n - 1) + 1;
                    continue;
                }
            }
            i = j;
        }
        out
    }

    /// Parses `// pfsim-lint: allow(ID, …) -- reason` comments.
    fn parse_suppressions(&mut self) {
        let mut supps = Vec::new();
        let mut malformed = Vec::new();
        for c in &self.comments {
            let text = &self.src[c.lo..c.hi];
            let body = text
                .trim_start_matches('/')
                .trim_start_matches('*')
                .trim_start_matches('!')
                .trim();
            let Some(rest) = body.strip_prefix("pfsim-lint:") else {
                continue;
            };
            match parse_allow(rest.trim()) {
                Some((ids, reason)) => supps.push(Suppression {
                    line: c.line,
                    ids,
                    reason,
                }),
                None => malformed.push(c.line),
            }
        }
        self.suppressions = supps;
        self.malformed_suppressions = malformed;
    }
}

/// Parses `allow(ID, …) -- reason`; `None` on any grammar violation
/// (missing ids, an id not in [`crate::lints::LINTS`], empty reason,
/// unknown directive), so a suppression cannot outlive its lint.
fn parse_allow(s: &str) -> Option<(Vec<String>, String)> {
    let rest = s.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let ids: Vec<String> = rest[..close]
        .split(',')
        .map(|id| id.trim().to_string())
        .collect();
    if ids.is_empty() || ids.iter().any(|id| !known_id(id)) {
        return None;
    }
    let tail = rest[close + 1..].trim_start();
    let reason = tail.strip_prefix("--")?.trim();
    if reason.is_empty() {
        return None;
    }
    Some((ids, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_paths() {
        let f = File::new("crates/core/src/system.rs", "fn a() {}");
        assert_eq!(f.crate_dir.as_deref(), Some("core"));
        assert!(!f.is_test_file);
        let t = File::new("crates/core/tests/system.rs", "fn a() {}");
        assert!(t.is_test_file);
        let e = File::new("examples/quickstart.rs", "fn main() {}");
        assert!(e.is_test_file);
    }

    #[test]
    fn finds_cfg_test_regions() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn more() {}\n";
        let f = File::new("crates/core/src/x.rs", src);
        assert_eq!(f.test_ranges, vec![(2, 5)]);
        assert!(!f.in_test(1));
        assert!(f.in_test(4));
        assert!(!f.in_test(6));
    }

    #[test]
    fn parses_suppressions() {
        let src = "\
let a = 1; // pfsim-lint: allow(D001) -- the definition site itself
// pfsim-lint: allow(K002, D003) -- two ids, one reason
let b = 2;
// pfsim-lint: allow(D001)
// pfsim-lint: allow(D1)  -- bad id
// pfsim-lint: allow(D999) -- well-shaped but unregistered id
";
        let f = File::new("crates/core/src/x.rs", src);
        assert_eq!(f.suppressions.len(), 2);
        assert_eq!(f.suppressions[0].line, 1);
        assert_eq!(f.suppressions[0].ids, vec!["D001"]);
        assert_eq!(f.suppressions[1].ids, vec!["K002", "D003"]);
        assert_eq!(f.suppressions[1].reason, "two ids, one reason");
        assert_eq!(f.malformed_suppressions, vec![4, 5, 6]);
    }
}
