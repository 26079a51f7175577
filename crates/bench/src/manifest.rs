//! JSON run manifests: the structured record every experiment binary
//! emits under `results/`.
//!
//! A manifest captures what was run (grid, configurations, trace
//! shapes, git revision), what it cost (per-phase and per-cell
//! wall-clock) and what came out (per-node statistics, network and
//! directory aggregates, the observability snapshot when instrumentation
//! was on). [`validate_manifest`] re-parses a manifest and cross-checks
//! its internal invariants — `perfsmoke --spec --check` and every
//! `pfsim-benchmark` pass run it against the manifest just emitted.

use std::path::Path;

use pfsim::{
    ConsistencyModel, DirStats, HistogramSnapshot, MetricsSnapshot, NetStats, NodeStats,
    RecordMisses, SimResult, SystemConfig,
};
use pfsim_analysis::Json;

use crate::spec::{CellResult, ExperimentRun, TraceInfo, Variant};

/// Schema version stamped into (and required from) every manifest.
pub const MANIFEST_SCHEMA_VERSION: i64 = 2;

/// Builds the manifest document for a completed run.
pub(crate) fn manifest_json(run: &ExperimentRun, analyze_seconds: f64) -> Json {
    assemble_manifest(
        &run.name,
        &run.size.to_string(),
        (run.gen_seconds, run.sim_seconds, analyze_seconds),
        run.total_pclocks(),
        run.apps.iter().map(|a| a.name().to_string()).collect(),
        run.variants.iter().map(variant_json).collect(),
        run.traces.iter().map(trace_json).collect(),
        run.cells.iter().map(cell_json).collect(),
    )
}

/// Declares one manifest record once: `fn $render` builds its JSON
/// object with the members in declaration order, and `$KEYS` lists the
/// same keys for `validate_doc`'s unknown-key checks, so the validator
/// accepts exactly what the producers emit by construction.
macro_rules! record {
    (
        $(#[$attr:meta])*
        $vis:vis fn $render:ident $params:tt, $KEYS:ident {
            $($key:literal: $value:expr,)*
        }
    ) => {
        $(#[$attr])*
        $vis fn $render $params -> Json {
            Json::obj(vec![$(($key, $value)),*])
        }

        const $KEYS: &[&str] = &[$($key),*];
    };
}

record! {
    /// Assembles a manifest document from pre-rendered parts.
    ///
    /// This is the one place the manifest's top-level layout is defined:
    /// [`ExperimentRun::write_manifest`](crate::ExperimentRun::write_manifest)
    /// feeds it a freshly-simulated run, and `pfsim-serve` feeds it a mix of
    /// cached and fresh cell documents — both produce the same byte layout.
    #[expect(
        clippy::too_many_arguments,
        reason = "one parameter per top-level manifest member, in document order"
    )]
    pub fn assemble_manifest(
        name: &str,
        size: &str,
        phases: (f64, f64, f64),
        total_pclocks: u64,
        apps: Vec<String>,
        variants: Vec<Json>,
        traces: Vec<Json>,
        cells: Vec<Json>,
    ), MANIFEST_KEYS {
        "schema_version": Json::Int(MANIFEST_SCHEMA_VERSION),
        "name": Json::str(name),
        "size": Json::str(size),
        "git": Json::str(git_describe()),
        "unix_time": Json::uint(unix_time()),
        "phases": phases_json(phases),
        "total_pclocks": Json::uint(total_pclocks),
        "apps": Json::Array(apps.into_iter().map(Json::Str).collect()),
        "variants": Json::Array(variants),
        "traces": Json::Array(traces),
        "cells": Json::Array(cells),
    }
}

record! {
    fn phases_json((gen_seconds, sim_seconds, analyze_seconds): (f64, f64, f64)), PHASE_KEYS {
        "gen_seconds": Json::Float(gen_seconds),
        "sim_seconds": Json::Float(sim_seconds),
        "analyze_seconds": Json::Float(analyze_seconds),
    }
}

record! {
    /// The manifest encoding of one grid column (label, scheme, config).
    pub fn variant_json(v: &Variant), VARIANT_KEYS {
        "label": Json::str(&v.label),
        "scheme": Json::str(v.cfg.scheme.to_string()),
        "size": v.size.map_or(Json::Null, |s| Json::str(s.to_string())),
        "config": config_json(&v.cfg),
    }
}

record! {
    fn config_json(cfg: &SystemConfig), CONFIG_KEYS {
        "nodes": Json::uint(cfg.nodes as u64),
        "block_bytes": Json::uint(cfg.geometry.block_bytes()),
        "flc_bytes": Json::uint(cfg.flc_bytes),
        "flwb_entries": Json::uint(cfg.flwb_entries as u64),
        "slwb_entries": Json::uint(cfg.slwb_entries as u64),
        "slc": Json::str(cfg.slc.describe()),
        "consistency": Json::str(match cfg.consistency {
            ConsistencyModel::Release => "release",
            ConsistencyModel::Sequential => "sequential",
        }),
        "record_misses": match cfg.record_misses {
            RecordMisses::None => Json::str("none"),
            RecordMisses::Cpu(cpu) => Json::str(format!("cpu:{cpu}")),
            RecordMisses::All => Json::str("all"),
        },
        "instrument": Json::Bool(cfg.instrument),
    }
}

record! {
    /// The manifest encoding of one generated trace's shape.
    pub fn trace_json(t: &TraceInfo), TRACE_KEYS {
        "app": Json::str(t.app.name()),
        "size": Json::str(t.size.to_string()),
        "cpus": Json::uint(t.cpus as u64),
        "ops": Json::uint(t.ops),
        "packed_bytes": Json::uint(t.packed_bytes),
        "bytes_per_op": Json::Float(t.bytes_per_op),
    }
}

record! {
    /// The manifest encoding of one simulated cell (the unit `pfsim-serve`
    /// caches).
    pub fn cell_json(c: &CellResult), CELL_KEYS {
        "app": Json::str(c.app.name()),
        "variant": Json::uint(c.variant as u64),
        "size": Json::str(c.size.to_string()),
        "wall_seconds": Json::Float(c.wall_seconds),
        "exec_cycles": Json::uint(c.result.exec_cycles),
        "aggregates": aggregates_json(&c.result),
        "net": net_json(&c.result.net),
        "dir": dir_json(&c.result.dir),
        "nodes": Json::Array(c.result.nodes.iter().map(node_json).collect()),
        "metrics": c.result.metrics.as_ref().map_or(Json::Null, metrics_json),
    }
}

record! {
    fn aggregates_json(r: &SimResult), AGGREGATE_KEYS {
        "read_misses": Json::uint(r.read_misses()),
        "read_stall": Json::uint(r.read_stall()),
        "prefetches_issued": Json::uint(r.total(|n| n.prefetches_issued)),
        "prefetches_useful": Json::uint(r.total(|n| n.prefetches_useful)),
        "prefetch_efficiency": Json::Float(r.prefetch_efficiency()),
    }
}

// The counter records destructure their struct exhaustively, so a counter
// added without a manifest key is a compile error (E0027).
record! {
    fn net_json(
        &NetStats {
            messages,
            flits,
            flit_hops,
            queuing_cycles,
        }: &NetStats,
    ), NET_KEYS {
        "messages": Json::uint(messages),
        "flits": Json::uint(flits),
        "flit_hops": Json::uint(flit_hops),
        "queuing_cycles": Json::uint(queuing_cycles),
    }
}

record! {
    fn dir_json(
        &DirStats {
            memory_supplied,
            owner_supplied,
            invalidations,
            writebacks,
            stale_writebacks,
        }: &DirStats,
    ), DIR_KEYS {
        "memory_supplied": Json::uint(memory_supplied),
        "owner_supplied": Json::uint(owner_supplied),
        "invalidations": Json::uint(invalidations),
        "writebacks": Json::uint(writebacks),
        "stale_writebacks": Json::uint(stale_writebacks),
    }
}

record! {
    fn node_json(
        &NodeStats {
            reads,
            writes,
            flc_read_hits,
            slc_read_hits,
            tagged_hits,
            read_misses,
            delayed_hits,
            read_stall,
            sync_stall,
            write_stall,
            barrier_stall,
            flwb_stall,
            prefetches_issued,
            prefetches_useful,
            pf_dropped_present,
            pf_dropped_inflight,
            pf_dropped_full,
            cold_misses,
            coherence_misses,
            replacement_misses,
            invals_received,
            writebacks,
            spurious_slc_wakeups,
            parked_slc_wakeups,
        }: &NodeStats,
    ), NODE_KEYS {
        "reads": Json::uint(reads),
        "writes": Json::uint(writes),
        "flc_read_hits": Json::uint(flc_read_hits),
        "slc_read_hits": Json::uint(slc_read_hits),
        "tagged_hits": Json::uint(tagged_hits),
        "read_misses": Json::uint(read_misses),
        "delayed_hits": Json::uint(delayed_hits),
        "read_stall": Json::uint(read_stall),
        "sync_stall": Json::uint(sync_stall),
        "write_stall": Json::uint(write_stall),
        "barrier_stall": Json::uint(barrier_stall),
        "flwb_stall": Json::uint(flwb_stall),
        "prefetches_issued": Json::uint(prefetches_issued),
        "prefetches_useful": Json::uint(prefetches_useful),
        "pf_dropped_present": Json::uint(pf_dropped_present),
        "pf_dropped_inflight": Json::uint(pf_dropped_inflight),
        "pf_dropped_full": Json::uint(pf_dropped_full),
        "cold_misses": Json::uint(cold_misses),
        "coherence_misses": Json::uint(coherence_misses),
        "replacement_misses": Json::uint(replacement_misses),
        "invals_received": Json::uint(invals_received),
        "writebacks": Json::uint(writebacks),
        "spurious_slc_wakeups": Json::uint(spurious_slc_wakeups),
        "parked_slc_wakeups": Json::uint(parked_slc_wakeups),
    }
}

record! {
    /// The JSON encoding of a metrics registry snapshot (used in manifest
    /// cells and by `pfsim-serve`'s `/status` endpoint). Counter and
    /// histogram names are dynamic keys; each histogram is a record.
    pub fn metrics_json(m: &MetricsSnapshot), METRICS_KEYS {
        "counters": Json::Object(
            m.counters.iter().map(|(name, v)| (name.clone(), Json::uint(*v))).collect(),
        ),
        "histograms": Json::Object(
            m.histograms.iter().map(|(name, h)| (name.clone(), histogram_json(h))).collect(),
        ),
    }
}

record! {
    fn histogram_json(h: &HistogramSnapshot), HISTOGRAM_KEYS {
        "count": Json::uint(h.count),
        "sum": Json::uint(h.sum),
        "max": Json::uint(h.max),
        "buckets": Json::Array(h.buckets.iter().map(|&b| Json::uint(b)).collect()),
    }
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_time() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// A validated run manifest, read back into its typed shape.
///
/// Reading is symmetric with writing: every field `manifest_json`
/// emits that downstream consumers care about comes back as a typed
/// accessor, so the server cache, `perfsmoke --check`, `pfsim-client`
/// and `pfsim-benchmark` all share one walk of the document instead of
/// each re-deriving field paths by hand.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The experiment name.
    pub name: String,
    /// Problem-size name (the [`crate::Size`] display form; kept as text
    /// because old manifests are free to name sizes this build dropped).
    pub size: String,
    /// The `git describe` stamp of the producing build.
    pub git: String,
    /// Sum of simulated execution time over all cells, in pclocks.
    pub total_pclocks: u64,
    /// Per-phase wall-clock: generation, simulation, analysis seconds.
    pub phase_seconds: (f64, f64, f64),
    /// Declared application names, in grid order.
    pub apps: Vec<String>,
    /// Declared grid columns, in grid order.
    pub variants: Vec<ManifestVariant>,
    /// Per-cell records, in emission order.
    pub cells: Vec<ManifestCell>,
}

/// One declared grid column of a parsed manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestVariant {
    /// The column label.
    pub label: String,
    /// The scheme's display form (e.g. `"Seq(d=1)"`).
    pub scheme: String,
}

/// One simulated cell of a parsed manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestCell {
    /// The application name (always one of the declared apps).
    pub app: String,
    /// Index into the declared variants (always in range).
    pub variant: usize,
    /// Simulated execution time of this cell, in pclocks.
    pub exec_cycles: u64,
}

impl Manifest {
    /// Parses and validates manifest text (see [`validate_manifest`] for
    /// the checked invariants). This is the entry point for callers
    /// holding bytes rather than a file — `pfsim-client` validates the
    /// manifest a server streamed back without touching disk.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = Json::parse(text)?;
        Manifest::from_json(&doc)
    }

    /// Validates an already-parsed manifest document.
    pub fn from_json(doc: &Json) -> Result<Manifest, String> {
        validate_doc(doc)
    }

    /// The cell for `(app, variant)`, if the grid simulated it.
    pub fn cell(&self, app: &str, variant: usize) -> Option<&ManifestCell> {
        self.cells
            .iter()
            .find(|c| c.app == app && c.variant == variant)
    }
}

/// Parses and validates the manifest at `path`.
///
/// Checks the schema version, the presence and types of every required
/// field, and the internal invariants: the cell grid is consistent with
/// the declared apps and variants, per-cell node statistics are present
/// and sum to the recorded aggregates, and `total_pclocks` equals the
/// sum of cell execution times. Returns the typed [`Manifest`].
pub fn validate_manifest(path: &Path) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn validate_doc(doc: &Json) -> Result<Manifest, String> {
    let version = field(doc, "schema_version")?
        .as_i64()
        .ok_or("schema_version is not an integer")?;
    if version != MANIFEST_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} (expected {MANIFEST_SCHEMA_VERSION})"
        ));
    }
    // Each record's accepted keys come from its `record!` declaration, so
    // a manifest with a drifted key fails here by name.
    reject_unknown_keys(doc, "manifest", MANIFEST_KEYS)?;
    let name = field(doc, "name")?
        .as_str()
        .ok_or("name is not a string")?
        .to_string();
    let git = field(doc, "git")?
        .as_str()
        .ok_or("git is not a string")?
        .to_string();
    let size = field(doc, "size")?
        .as_str()
        .ok_or("size is not a string")?
        .to_string();
    let phases = field(doc, "phases")?;
    reject_unknown_keys(phases, "phases", PHASE_KEYS)?;
    let phase = |key: &str| {
        field(phases, key)?
            .as_f64()
            .ok_or_else(|| format!("phases.{key} is not a number"))
    };
    let phase_seconds = (
        phase("gen_seconds")?,
        phase("sim_seconds")?,
        phase("analyze_seconds")?,
    );
    let total_pclocks = field(doc, "total_pclocks")?
        .as_u64()
        .ok_or("total_pclocks is not a u64")?;

    let apps: Vec<String> = field(doc, "apps")?
        .as_array()
        .ok_or("apps is not an array")?
        .iter()
        .map(|a| {
            a.as_str()
                .map(str::to_string)
                .ok_or("apps entry is not a string")
        })
        .collect::<Result<_, _>>()?;
    let variant_docs = field(doc, "variants")?
        .as_array()
        .ok_or("variants is not an array")?;
    let mut variants = Vec::with_capacity(variant_docs.len());
    for (i, v) in variant_docs.iter().enumerate() {
        reject_unknown_keys(v, "variant", VARIANT_KEYS)?;
        let string = |key: &str| {
            Ok::<String, String>(
                field(v, key)?
                    .as_str()
                    .ok_or_else(|| format!("variants[{i}].{key} is not a string"))?
                    .to_string(),
            )
        };
        let (label, scheme) = (string("label")?, string("scheme")?);
        let config = field(v, "config")?;
        config
            .as_object()
            .ok_or_else(|| format!("variants[{i}].config is not an object"))?;
        reject_unknown_keys(config, "config", CONFIG_KEYS)?;
        variants.push(ManifestVariant { label, scheme });
    }
    for (i, t) in field(doc, "traces")?
        .as_array()
        .ok_or("traces is not an array")?
        .iter()
        .enumerate()
    {
        reject_unknown_keys(t, "trace", TRACE_KEYS)?;
        for key in ["ops", "packed_bytes"] {
            field(t, key)?
                .as_u64()
                .ok_or_else(|| format!("traces[{i}].{key} is not a u64"))?;
        }
    }

    let cell_docs = field(doc, "cells")?
        .as_array()
        .ok_or("cells is not an array")?;
    let mut cells = Vec::with_capacity(cell_docs.len());
    let mut cycle_sum: u64 = 0;
    for (i, cell) in cell_docs.iter().enumerate() {
        reject_unknown_keys(cell, "cell", CELL_KEYS)?;
        if let Some(net) = cell.get("net") {
            reject_unknown_keys(net, "net", NET_KEYS)?;
        }
        if let Some(dir) = cell.get("dir") {
            reject_unknown_keys(dir, "dir", DIR_KEYS)?;
        }
        let app = field(cell, "app")?
            .as_str()
            .ok_or_else(|| format!("cells[{i}].app is not a string"))?;
        if !apps.iter().any(|a| a == app) {
            return Err(format!("cells[{i}].app '{app}' not in declared apps"));
        }
        let variant = field(cell, "variant")?
            .as_u64()
            .ok_or_else(|| format!("cells[{i}].variant is not a u64"))?;
        if variant as usize >= variants.len() {
            return Err(format!(
                "cells[{i}].variant {variant} out of range ({} variants)",
                variants.len()
            ));
        }
        let exec = field(cell, "exec_cycles")?
            .as_u64()
            .ok_or_else(|| format!("cells[{i}].exec_cycles is not a u64"))?;
        cycle_sum += exec;
        cells.push(ManifestCell {
            app: app.to_string(),
            variant: variant as usize,
            exec_cycles: exec,
        });
        let nodes = field(cell, "nodes")?
            .as_array()
            .ok_or_else(|| format!("cells[{i}].nodes is not an array"))?;
        if nodes.is_empty() {
            return Err(format!("cells[{i}].nodes is empty"));
        }
        for n in nodes {
            reject_unknown_keys(n, "node", NODE_KEYS)?;
        }
        let node_misses: Option<u64> = nodes
            .iter()
            .map(|n| field(n, "read_misses").ok()?.as_u64())
            .sum();
        let aggregates = field(cell, "aggregates")?;
        reject_unknown_keys(aggregates, "aggregates", AGGREGATE_KEYS)?;
        let aggregate_misses = field(aggregates, "read_misses")?
            .as_u64()
            .ok_or_else(|| format!("cells[{i}].aggregates.read_misses is not a u64"))?;
        if node_misses != Some(aggregate_misses) {
            return Err(format!(
                "cells[{i}]: node read_misses {node_misses:?} != aggregate {aggregate_misses}"
            ));
        }
        // `metrics` must be present — an object when instrumented, null
        // otherwise.
        let metrics = field(cell, "metrics")?;
        if !matches!(metrics, Json::Null | Json::Object(_)) {
            return Err(format!("cells[{i}].metrics is neither null nor an object"));
        }
        if matches!(metrics, Json::Object(_)) {
            reject_unknown_keys(metrics, "metrics", METRICS_KEYS)?;
            if let Some(hists) = metrics.get("histograms").and_then(Json::as_object) {
                for (_, h) in hists {
                    reject_unknown_keys(h, "histogram", HISTOGRAM_KEYS)?;
                }
            }
        }
    }
    if cycle_sum != total_pclocks {
        return Err(format!(
            "total_pclocks {total_pclocks} != sum of cell exec_cycles {cycle_sum}"
        ));
    }

    Ok(Manifest {
        name,
        size,
        git,
        total_pclocks,
        phase_seconds,
        apps,
        variants,
        cells,
    })
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// Errors on any key of the object `v` outside its record's declared
/// `allowed` keys. Missing keys are fine (optionality is each caller's
/// business). Non-objects pass — type errors are reported by the typed
/// accessors with better context.
fn reject_unknown_keys(v: &Json, ctx: &str, allowed: &[&str]) -> Result<(), String> {
    let Some(members) = v.as_object() else {
        return Ok(());
    };
    for (k, _) in members {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("{ctx}: unknown key '{k}'"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_describe_never_panics() {
        assert!(!git_describe().is_empty());
    }

    #[test]
    fn validate_rejects_missing_file_and_garbage() {
        assert!(validate_manifest(Path::new("/nonexistent/m.json")).is_err());
        let dir = std::env::temp_dir().join("pfsim-manifest-garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{\"schema_version\": 99}").unwrap();
        let err = validate_manifest(&path).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    /// The smallest manifest `validate_manifest` accepts: one app, one
    /// variant, one trace, two cells. Every failure-mode test below is a
    /// single mutation of this string.
    fn minimal_manifest() -> String {
        r#"{
            "schema_version": 2,
            "name": "unit",
            "git": "deadbeef",
            "size": "default",
            "phases": {"gen_seconds": 0.1, "sim_seconds": 0.2, "analyze_seconds": 0.0},
            "total_pclocks": 300,
            "apps": ["mp3d"],
            "variants": [{"label": "base", "scheme": "None", "config": {}}],
            "traces": [{"ops": 10, "packed_bytes": 80}],
            "cells": [
                {"app": "mp3d", "variant": 0, "exec_cycles": 100,
                 "nodes": [{"read_misses": 3}, {"read_misses": 4}],
                 "aggregates": {"read_misses": 7}, "metrics": null},
                {"app": "mp3d", "variant": 0, "exec_cycles": 200,
                 "nodes": [{"read_misses": 0}],
                 "aggregates": {"read_misses": 0},
                 "metrics": {"counters": {}, "histograms": {}}}
            ]
        }"#
        .to_string()
    }

    /// Writes `text` to a fresh temp file and validates it.
    fn check(case: &str, text: &str) -> Result<Manifest, String> {
        let dir = std::env::temp_dir().join("pfsim-manifest-cases");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{case}.json"));
        std::fs::write(&path, text).unwrap();
        validate_manifest(&path)
    }

    #[test]
    fn minimal_manifest_validates_into_typed_form() {
        let m = check("minimal", &minimal_manifest()).unwrap();
        assert_eq!(m.name, "unit");
        assert_eq!(m.size, "default");
        assert_eq!(m.git, "deadbeef");
        assert_eq!(m.total_pclocks, 300);
        assert_eq!(m.phase_seconds, (0.1, 0.2, 0.0));
        assert_eq!(m.apps, ["mp3d"]);
        assert_eq!(
            m.variants,
            [ManifestVariant {
                label: "base".to_string(),
                scheme: "None".to_string(),
            }]
        );
        assert_eq!(m.cells.len(), 2);
        assert_eq!(m.cells[0].exec_cycles, 100);
        assert_eq!(m.cell("mp3d", 0), Some(&m.cells[0]));
        assert_eq!(m.cell("water", 0), None);
        // Bytes-in-hand parsing (what `pfsim-client` does with a streamed
        // manifest) agrees with the file path.
        assert_eq!(Manifest::parse(&minimal_manifest()).unwrap(), m);
    }

    /// Schema 2 dropped `threads`: a version-1 manifest is refused by
    /// version, and a version-2 manifest carrying the field by name.
    #[test]
    fn validate_rejects_threads_field() {
        let text = minimal_manifest().replace(
            "\"size\": \"default\",",
            "\"size\": \"default\", \"threads\": 1,",
        );
        let err = check("threads", &text).unwrap_err();
        assert!(err.ends_with("manifest: unknown key 'threads'"), "{err}");
        let text = text.replace("\"schema_version\": 2", "\"schema_version\": 1");
        let err = check("v1", &text).unwrap_err();
        assert!(err.ends_with("schema_version 1 (expected 2)"), "{err}");
    }

    /// A phase timing gone missing is reported by name.
    #[test]
    fn validate_rejects_missing_phase() {
        let text = minimal_manifest().replace("\"sim_seconds\": 0.2, ", "");
        let err = check("missing-phase", &text).unwrap_err();
        assert!(err.contains("sim_seconds"), "{err}");
        // The whole phases object missing is also named.
        let full = minimal_manifest();
        let start = full.find("\"phases\"").unwrap();
        let end = full[start..].find("},").unwrap() + start + 2;
        let text = format!("{}{}", &full[..start], &full[end..]);
        let err = check("missing-phases", &text).unwrap_err();
        assert!(err.contains("phases"), "{err}");
    }

    /// A corrupt observability snapshot (wrong JSON type) is rejected;
    /// only `null` (metrics off) or an object (a snapshot) pass.
    #[test]
    fn validate_rejects_corrupt_snapshot() {
        let text = minimal_manifest().replace("\"metrics\": null", "\"metrics\": \"corrupt\"");
        let err = check("corrupt-snapshot", &text).unwrap_err();
        assert!(err.contains("metrics"), "{err}");
        let text = minimal_manifest().replace(
            "\"metrics\": {\"counters\": {}, \"histograms\": {}}",
            "\"metrics\": 17",
        );
        let err = check("numeric-snapshot", &text).unwrap_err();
        assert!(err.contains("metrics"), "{err}");
    }

    /// A key no producer emits is rejected at every nesting level the
    /// validator guards.
    #[test]
    fn validate_rejects_unknown_keys() {
        for (case, from, to) in [
            (
                "top",
                "\"name\": \"unit\"",
                "\"name\": \"unit\", \"bogus\": 1",
            ),
            ("cell", "\"variant\": 0, ", "\"variant\": 0, \"bogus\": 1, "),
            (
                "node",
                "{\"read_misses\": 3}",
                "{\"read_misses\": 3, \"bogus\": 1}",
            ),
            (
                "metrics",
                "{\"counters\": {}, \"histograms\": {}}",
                "{\"counters\": {}, \"histograms\": {}, \"bogus\": {}}",
            ),
        ] {
            let text = minimal_manifest().replacen(from, to, 1);
            assert_ne!(text, minimal_manifest(), "case {case}: replace missed");
            let err = check(&format!("unknown-{case}"), &text).unwrap_err();
            assert!(err.contains("unknown key 'bogus'"), "case {case}: {err}");
        }
    }

    /// Per-node statistics must sum to the recorded aggregate.
    #[test]
    fn validate_rejects_node_sum_mismatch() {
        let text = minimal_manifest().replace("{\"read_misses\": 7}", "{\"read_misses\": 8}");
        let err = check("node-sum", &text).unwrap_err();
        assert!(err.contains("read_misses"), "{err}");
    }

    /// A cell referencing a variant index past the declared list fails.
    #[test]
    fn validate_rejects_variant_out_of_range() {
        let text = minimal_manifest().replacen("\"variant\": 0", "\"variant\": 1", 1);
        let err = check("variant-range", &text).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    /// A cell naming an undeclared app fails.
    #[test]
    fn validate_rejects_undeclared_app() {
        let text = minimal_manifest().replacen("{\"app\": \"mp3d\"", "{\"app\": \"water\"", 1);
        let err = check("undeclared-app", &text).unwrap_err();
        assert!(err.contains("water"), "{err}");
    }

    /// `total_pclocks` must equal the sum of cell execution times.
    #[test]
    fn validate_rejects_pclock_sum_mismatch() {
        let text = minimal_manifest().replace("\"total_pclocks\": 300", "\"total_pclocks\": 299");
        let err = check("pclock-sum", &text).unwrap_err();
        assert!(err.contains("total_pclocks"), "{err}");
    }

    /// A cell with an empty node array fails (the grid always simulates
    /// at least one node).
    #[test]
    fn validate_rejects_empty_nodes() {
        let text = minimal_manifest().replace("\"nodes\": [{\"read_misses\": 0}]", "\"nodes\": []");
        let err = check("empty-nodes", &text).unwrap_err();
        assert!(err.contains("nodes"), "{err}");
    }
}
