//! Fixture corpus: every `bad/` fixture must produce exactly its declared
//! findings (IDs and line numbers), and every `good/` fixture must be
//! clean. Expectations are encoded in the fixtures themselves:
//!
//! ```text
//! //@ path: crates/cache/src/fix.rs     (synthetic workspace path)
//! //@ expect: D001 5                    (one line per expected finding)
//! ```
//!
//! Files named `case__part.rs` are linted together as one mini-workspace
//! (used by S102, which needs a trait definition file plus a caller).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pfsim_lint::{lint_files, File};

struct Fixture {
    /// Synthetic workspace-relative path declared by the `//@ path` header.
    path: String,
    src: String,
    /// Expected `(lint id, line)` findings in this file.
    expect: Vec<(String, u32)>,
}

fn fixture_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
}

fn parse(path: &Path) -> Fixture {
    let src = std::fs::read_to_string(path).unwrap();
    let mut synth = None;
    let mut expect = Vec::new();
    for line in src.lines() {
        if let Some(rest) = line.strip_prefix("//@ path:") {
            synth = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("//@ expect:") {
            let mut it = rest.split_whitespace();
            let id = it.next().expect("expect header needs an id").to_string();
            let line = it
                .next()
                .expect("expect header needs a line")
                .parse()
                .unwrap();
            expect.push((id, line));
        }
    }
    Fixture {
        path: synth.unwrap_or_else(|| panic!("{} missing //@ path header", path.display())),
        src,
        expect,
    }
}

/// Groups fixture files into cases: `name__part.rs` files share the case
/// `name`; everything else is a singleton case.
fn cases(kind: &str) -> BTreeMap<String, Vec<Fixture>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(fixture_dir(kind))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    let mut out: BTreeMap<String, Vec<Fixture>> = BTreeMap::new();
    for p in paths {
        let stem = p.file_stem().unwrap().to_string_lossy().into_owned();
        let case = stem.split("__").next().unwrap().to_string();
        out.entry(case).or_default().push(parse(&p));
    }
    out
}

/// Active (non-suppressed) findings for one case, as `(file, id, line)`.
fn active(fixtures: &[Fixture]) -> Vec<(String, String, u32)> {
    let files = fixtures
        .iter()
        .map(|fx| File::new(fx.path.clone(), fx.src.clone()))
        .collect();
    lint_files(files)
        .into_iter()
        .filter(|f| !f.suppressed)
        .map(|f| (f.file, f.id.to_string(), f.line))
        .collect()
}

#[test]
fn bad_fixtures_are_caught_exactly() {
    for (case, fixtures) in cases("bad") {
        let mut want: Vec<(String, String, u32)> = fixtures
            .iter()
            .flat_map(|fx| {
                fx.expect
                    .iter()
                    .map(|(id, line)| (fx.path.clone(), id.clone(), *line))
            })
            .collect();
        assert!(!want.is_empty(), "bad case `{case}` declares no findings");
        want.sort();
        let mut got = active(&fixtures);
        got.sort();
        assert_eq!(got, want, "case `{case}`");
    }
}

#[test]
fn good_fixtures_are_clean() {
    for (case, fixtures) in cases("good") {
        for fx in &fixtures {
            assert!(
                fx.expect.is_empty(),
                "good case `{case}` must not declare findings"
            );
        }
        let got = active(&fixtures);
        assert!(got.is_empty(), "good case `{case}` not clean: {got:?}");
    }
}

#[test]
fn every_lint_has_a_bad_and_a_good_fixture() {
    for kind in ["bad", "good"] {
        let cs = cases(kind);
        for lint in pfsim_lint::lints::LINTS {
            let want = lint.id.to_ascii_lowercase();
            assert!(
                cs.contains_key(&want),
                "lint {} has no `{kind}/` fixture case `{want}`",
                lint.id
            );
        }
    }
}
