//! `BENCHMARK.json` against its format's limits and against the
//! benchmark's own tables: tools that run the benchmark read the file, the
//! binary reads the tables, and the two must name the same workloads and
//! metrics.

use std::collections::HashSet;
use std::path::Path;

use pfsim_analysis::Json;
use pfsim_benchmark::grid::{grid, GRIDS};
use pfsim_benchmark::metrics::{END_TO_END, PER_LAYER};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

fn benchmark_json() -> (String, Json) {
    let text = std::fs::read_to_string(Path::new(ROOT).join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    (text, doc)
}

fn keys(j: &Json) -> Vec<&str> {
    let mut k: Vec<&str> = j
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    k.sort_unstable();
    k
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_array).expect(key)
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).expect(key)
}

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn top_level_shape_and_limits() {
    let (text, doc) = benchmark_json();
    assert!(text.len() <= 64 * 1024);
    assert_eq!(
        keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&run_seconds));

    let paths: Vec<&str> = array(&doc, "paths")
        .iter()
        .map(|p| p.as_str().expect("a path string"))
        .collect();
    assert!((1..=16).contains(&paths.len()));
    assert!(
        paths.contains(&"benchmark"),
        "the benchmark crate is a path"
    );
    for p in &paths {
        assert!(p.len() <= 200 && !p.starts_with('/') && !p.split('/').any(|s| s == ".."));
        assert!(p
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)));
        assert!(Path::new(ROOT).join(p).is_dir(), "{p} is a directory");
    }

    let command = array(&doc, "command");
    assert!((1..=32).contains(&command.len()));
    for arg in command {
        let arg = arg.as_str().expect("command strings");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        if arg.contains('/') {
            assert!(
                paths.iter().any(|p| arg.starts_with(&format!("{p}/"))),
                "{arg} names a file outside the benchmark's paths"
            );
        }
    }
}

#[test]
fn workloads_match_the_grids() {
    let (_, doc) = benchmark_json();
    let workloads = array(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    let names: Vec<&str> = workloads.iter().map(|w| str_of(w, "name")).collect();
    let grids: Vec<&str> = GRIDS.iter().map(|g| g.name).collect();
    assert_eq!(names, grids);
    assert!(names.iter().all(|n| is_name(n)));
}

/// Every workload carries its anchors: the repository's pinned totals,
/// one nonzero anchor per cell, 84 cells in all.
#[test]
fn every_workload_carries_its_anchors() {
    let total = |name: &str| grid(name).expect(name).total_anchor();
    assert_eq!(total("fig6-default"), 14_059_066);
    assert_eq!(total("fig6-large"), 151_368_054);
    assert_eq!(total("families-8x8"), 3_363_151);
    assert_eq!(total("fig6-finite16k"), 17_725_835);
    let baseline: Vec<u64> = grid("families-8x8")
        .expect("families")
        .anchors
        .iter()
        .map(|(_, row)| row[0])
        .collect();
    assert_eq!(
        baseline,
        [146_176, 33_708, 643_002],
        "the bigmesh.rs anchors"
    );

    let mut cells = 0;
    for g in &GRIDS {
        let apps: HashSet<_> = g.apps().collect();
        assert_eq!(apps.len(), g.anchors.len(), "{}: one row per app", g.name);
        for (app, row) in g.anchors {
            assert!(
                row.iter().all(|&a| a > 0),
                "{}: {app} has an unpinned cell",
                g.name
            );
            cells += row.len();
        }
    }
    assert_eq!(cells, 84);
}

#[test]
fn end_to_end_metrics_match_the_table() {
    let (_, doc) = benchmark_json();
    let metrics = array(&doc, "end_to_end");
    assert!((1..=16).contains(&metrics.len()));
    assert_eq!(metrics.len(), END_TO_END.len());
    for (m, want) in metrics.iter().zip(&END_TO_END) {
        assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert_eq!(str_of(m, "name"), want.name);
        assert_eq!(str_of(m, "unit"), want.unit);
        let better = if want.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(str_of(m, "better"), better, "{}", want.name);
        assert_eq!(bound, want.bound, "{}", want.name);
        assert!(bound > 0.0 && bound <= 0.25, "{}", want.name);
        assert!(is_name(want.name) && is_unit(want.unit));
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is reported");
    assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn per_layer_metrics_match_the_table_and_name_their_targets() {
    let (_, doc) = benchmark_json();
    let metrics = array(&doc, "per_layer");
    assert!((1..=128).contains(&metrics.len()));
    assert_eq!(metrics.len(), PER_LAYER.len());
    for (m, want) in metrics.iter().zip(&PER_LAYER) {
        assert_eq!(keys(m), ["better", "name", "unit"]);
        assert_eq!(str_of(m, "name"), want.name);
        assert_eq!(str_of(m, "unit"), want.unit);
        let better = if want.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(str_of(m, "better"), better, "{}", want.name);
        assert!(is_name(want.name) && is_unit(want.unit));
    }

    let all: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|l| l.name))
        .collect();
    assert_eq!(
        all.iter().collect::<HashSet<_>>().len(),
        all.len(),
        "names are unique"
    );

    for l in &PER_LAYER {
        for (metric, workload) in l.moves {
            assert!(END_TO_END.iter().any(|m| m.name == *metric), "{}", l.name);
            assert!(grid(workload).is_some(), "{}", l.name);
        }
        let untargeted = ["check.oracle_ns_per_op", "trace.overhead_pct"];
        assert_eq!(
            l.moves.is_empty(),
            untargeted.contains(&l.name),
            "{} must name the metric and workload it should move",
            l.name
        );
    }
}
