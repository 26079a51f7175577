//! The versioned wire format for [`ExperimentSpec`]s.
//!
//! PR 3's spec API is a Rust builder; anything that wants to *transport*
//! a spec — `pfsim-serve` accepting submissions, `pfsim-client` sending
//! them, `perfsmoke --spec` replaying one from disk — needs a typed,
//! validated JSON encoding instead of ad-hoc field plumbing. This module
//! is that encoding: schema v3 (v1 being the informal implied-by-code
//! form the run manifests grew out of), with an explicit
//! `wire_version` field, structured scheme objects instead of display
//! strings, strict validation (unknown fields are errors, so typos fail
//! loudly instead of silently running the wrong experiment), and exact
//! round-tripping through [`pfsim_analysis::Json`].
//!
//! # Examples
//!
//! ```
//! use pfsim_bench::spec::wire::WireSpec;
//! use pfsim_bench::Size;
//! use pfsim_prefetch::Scheme;
//! use pfsim_workloads::App;
//!
//! let spec = WireSpec::baseline_grid(
//!     "demo",
//!     Size::Default,
//!     &[App::Mp3d],
//!     &[Scheme::Sequential { degree: 1 }],
//! );
//! let text = spec.to_json().render();
//! assert_eq!(WireSpec::parse(&text).unwrap(), spec);
//! ```

use pfsim::{ConsistencyModel, SystemConfig};
use pfsim_analysis::Json;
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

use crate::{ExperimentSpec, Size};

/// The wire schema version this module reads and writes.
pub const WIRE_SCHEMA_VERSION: i64 = 3;

/// One configuration column of a wire spec: a scheme plus the studied
/// machine knobs, resolved against [`SystemConfig::paper_baseline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireVariant {
    /// Column label (used in progress events and the manifest).
    pub label: String,
    /// The prefetching scheme.
    pub scheme: Scheme,
    /// Finite SLC capacity in KB (`None` = the paper's infinite SLC).
    pub slc_kb: Option<u64>,
    /// Set-associative ways for a finite SLC (`None` = direct-mapped).
    pub slc_ways: Option<usize>,
    /// Coherence block size override in bytes.
    pub block_bytes: Option<u64>,
    /// Mesh dimensions override as `(width, height)` (`None` = the
    /// paper's 4×4 machine).
    pub mesh: Option<(u16, u16)>,
    /// Memory consistency model (release consistency by default).
    pub consistency: ConsistencyModel,
}

impl WireVariant {
    /// A variant running `scheme` on the otherwise-unmodified baseline.
    pub fn of_scheme(scheme: Scheme) -> Self {
        WireVariant {
            label: scheme.to_string(),
            scheme,
            slc_kb: None,
            slc_ways: None,
            block_bytes: None,
            mesh: None,
            consistency: ConsistencyModel::Release,
        }
    }

    /// The fully-resolved machine configuration of this variant.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper_baseline().with_scheme(self.scheme);
        if let Some(kb) = self.slc_kb {
            cfg = match self.slc_ways {
                Some(ways) => cfg.with_set_assoc_slc(kb * 1024, ways),
                None => cfg.with_finite_slc(kb * 1024),
            };
        }
        if let Some(bytes) = self.block_bytes {
            cfg = cfg.with_block_bytes(bytes);
        }
        if let Some((w, h)) = self.mesh {
            cfg = cfg.with_mesh_dims(w, h);
        }
        cfg.with_consistency(self.consistency)
    }
}

/// A transportable [`ExperimentSpec`]: everything a server (or a later
/// replay) needs to reproduce the grid bit-for-bit, and nothing
/// host-local (no output directories, no progress knobs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpec {
    /// Experiment name; becomes the manifest name, so it must be a safe
    /// file-name fragment (validated).
    pub name: String,
    /// Problem size of every cell.
    pub size: Size,
    /// Grid rows.
    pub apps: Vec<App>,
    /// Grid columns.
    pub variants: Vec<WireVariant>,
    /// Warmup boundary in pclocks (0 = none).
    pub warmup: u64,
    /// Whether cells run with the observability registry on.
    pub instrument: bool,
    /// Per-job wall-clock timeout in seconds (`None` = the server's
    /// default policy).
    pub timeout_secs: Option<u64>,
}

impl WireSpec {
    /// The standard Figure-6-style grid: baseline plus one column per
    /// scheme, every knob at its default.
    pub fn baseline_grid(
        name: impl Into<String>,
        size: Size,
        apps: &[App],
        schemes: &[Scheme],
    ) -> Self {
        let mut variants = vec![WireVariant {
            label: "baseline".to_string(),
            ..WireVariant::of_scheme(Scheme::None)
        }];
        variants.extend(schemes.iter().map(|&s| WireVariant::of_scheme(s)));
        WireSpec {
            name: name.into(),
            size,
            apps: apps.to_vec(),
            variants,
            warmup: 0,
            instrument: false,
            timeout_secs: None,
        }
    }

    /// Serializes to the schema-v3 JSON document.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("wire_version", Json::Int(WIRE_SCHEMA_VERSION)),
            ("name", Json::str(&self.name)),
            ("size", Json::str(self.size.to_string())),
            (
                "apps",
                Json::Array(self.apps.iter().map(|a| Json::str(a.name())).collect()),
            ),
            (
                "variants",
                Json::Array(self.variants.iter().map(variant_json).collect()),
            ),
            ("warmup", Json::uint(self.warmup)),
            ("instrument", Json::Bool(self.instrument)),
        ];
        if let Some(t) = self.timeout_secs {
            members.push(("timeout_secs", Json::uint(t)));
        }
        Json::obj(members)
    }

    /// Parses and validates a schema-v3 wire document.
    pub fn parse(text: &str) -> Result<WireSpec, String> {
        let doc = Json::parse(text)?;
        WireSpec::from_json(&doc)
    }

    /// Validates and decodes an already-parsed wire document.
    pub fn from_json(doc: &Json) -> Result<WireSpec, String> {
        let obj = doc.as_object().ok_or("wire spec is not an object")?;
        // The version comes first, so a document from another schema
        // gets a version error rather than a complaint about its keys.
        let version = field(doc, "wire_version")?
            .as_i64()
            .ok_or("wire_version is not an integer")?;
        if version != WIRE_SCHEMA_VERSION {
            return Err(format!(
                "wire_version {version} (this build speaks {WIRE_SCHEMA_VERSION})"
            ));
        }
        reject_unknown_keys(
            obj,
            &[
                "wire_version",
                "name",
                "size",
                "apps",
                "variants",
                "warmup",
                "instrument",
                "timeout_secs",
            ],
            "spec",
        )?;
        let name = field(doc, "name")?
            .as_str()
            .ok_or("name is not a string")?
            .to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        {
            return Err(format!(
                "name '{name}' is not a safe manifest name ([A-Za-z0-9._-]+)"
            ));
        }
        let size = Size::parse(field(doc, "size")?.as_str().ok_or("size is not a string")?)?;
        let apps = field(doc, "apps")?
            .as_array()
            .ok_or("apps is not an array")?
            .iter()
            .map(|a| {
                let name = a.as_str().ok_or("apps entry is not a string")?;
                app_by_name(name).ok_or(format!("unknown app '{name}'"))
            })
            .collect::<Result<Vec<App>, String>>()?;
        if apps.is_empty() {
            return Err("apps is empty".to_string());
        }
        let variants = field(doc, "variants")?
            .as_array()
            .ok_or("variants is not an array")?
            .iter()
            .enumerate()
            .map(|(i, v)| variant_from_json(v).map_err(|e| format!("variants[{i}]: {e}")))
            .collect::<Result<Vec<WireVariant>, String>>()?;
        if variants.is_empty() {
            return Err("variants is empty".to_string());
        }
        let warmup = match doc.get("warmup") {
            Some(v) => v.as_u64().ok_or("warmup is not a u64")?,
            None => 0,
        };
        let instrument = match doc.get("instrument") {
            Some(v) => v.as_bool().ok_or("instrument is not a bool")?,
            None => false,
        };
        let timeout_secs = match doc.get("timeout_secs") {
            Some(v) => {
                let t = v.as_u64().ok_or("timeout_secs is not a u64")?;
                if t == 0 {
                    return Err("timeout_secs 0 is meaningless (omit for no timeout)".to_string());
                }
                Some(t)
            }
            None => None,
        };
        Ok(WireSpec {
            name,
            size,
            apps,
            variants,
            warmup,
            instrument,
            timeout_secs,
        })
    }

    /// The fully-resolved configuration of grid column `var_idx`
    /// (spec-level instrumentation applied) — the configuration half of
    /// a result-cache key.
    pub fn cell_config(&self, var_idx: usize) -> SystemConfig {
        self.variants[var_idx]
            .config()
            .with_instrumentation(self.instrument)
    }

    /// Lowers the wire form into a runnable [`ExperimentSpec`]
    /// (host-local knobs at their defaults; callers layer
    /// [`quiet`](ExperimentSpec::quiet)/[`serial`](ExperimentSpec::serial)
    /// on top).
    pub fn to_experiment_spec(&self) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(self.name.clone())
            .size(self.size)
            .apps(self.apps.iter().copied())
            .instrument(self.instrument)
            .warmup(self.warmup);
        for v in &self.variants {
            spec = spec.variant(v.label.clone(), v.config());
        }
        spec
    }
}

/// Looks an application up by its table name (the paper's six plus the
/// modern families).
pub fn app_by_name(name: &str) -> Option<App> {
    App::EVERY.into_iter().find(|a| a.name() == name)
}

fn variant_json(v: &WireVariant) -> Json {
    let mut config = Vec::new();
    if let Some(kb) = v.slc_kb {
        config.push(("slc_kb".to_string(), Json::uint(kb)));
    }
    if let Some(ways) = v.slc_ways {
        config.push(("slc_ways".to_string(), Json::uint(ways as u64)));
    }
    if let Some(bytes) = v.block_bytes {
        config.push(("block_bytes".to_string(), Json::uint(bytes)));
    }
    if let Some((w, h)) = v.mesh {
        config.push(("mesh".to_string(), Json::str(format!("{w}x{h}"))));
    }
    if v.consistency == ConsistencyModel::Sequential {
        config.push(("consistency".to_string(), Json::str("sequential")));
    }
    Json::obj(vec![
        ("label", Json::str(&v.label)),
        ("scheme", scheme_to_json(v.scheme)),
        ("config", Json::Object(config)),
    ])
}

fn variant_from_json(v: &Json) -> Result<WireVariant, String> {
    let obj = v.as_object().ok_or("not an object")?;
    reject_unknown_keys(obj, &["label", "scheme", "config"], "variant")?;
    let label = field(v, "label")?
        .as_str()
        .ok_or("label is not a string")?
        .to_string();
    if label.is_empty() {
        return Err("label is empty".to_string());
    }
    let scheme = scheme_from_json(field(v, "scheme")?)?;
    let config = field(v, "config")?;
    let cfg_obj = config.as_object().ok_or("config is not an object")?;
    reject_unknown_keys(
        cfg_obj,
        &["slc_kb", "slc_ways", "block_bytes", "mesh", "consistency"],
        "config",
    )?;
    let slc_kb = match config.get("slc_kb") {
        Some(v) => Some(v.as_u64().ok_or("slc_kb is not a u64")?),
        None => None,
    };
    let slc_ways = match config.get("slc_ways") {
        Some(v) => {
            if slc_kb.is_none() {
                return Err("slc_ways without slc_kb".to_string());
            }
            Some(v.as_u64().ok_or("slc_ways is not a u64")? as usize)
        }
        None => None,
    };
    let block_bytes = match config.get("block_bytes") {
        Some(v) => {
            let b = v.as_u64().ok_or("block_bytes is not a u64")?;
            if !b.is_power_of_two() || !(32..=4096).contains(&b) {
                return Err(format!(
                    "block_bytes {b} is not a power of two in 32..=4096"
                ));
            }
            Some(b)
        }
        None => None,
    };
    let mesh = match config.get("mesh") {
        Some(v) => Some(parse_mesh(v.as_str().ok_or("mesh is not a string")?)?),
        None => None,
    };
    let consistency = match config.get("consistency") {
        None => ConsistencyModel::Release,
        Some(v) => match v.as_str() {
            Some("release") => ConsistencyModel::Release,
            Some("sequential") => ConsistencyModel::Sequential,
            _ => return Err("consistency is neither \"release\" nor \"sequential\"".to_string()),
        },
    };
    Ok(WireVariant {
        label,
        scheme,
        slc_kb,
        slc_ways,
        block_bytes,
        mesh,
        consistency,
    })
}

/// Parses a `"WxH"` mesh spelling, enforcing the directory's sharer
/// limit the same way [`SystemConfig::with_mesh_dims`] does — a bad mesh
/// fails validation instead of panicking mid-run.
fn parse_mesh(text: &str) -> Result<(u16, u16), String> {
    let (w, h) = text
        .split_once('x')
        .ok_or_else(|| format!("mesh '{text}' is not WxH"))?;
    let parse = |s: &str| {
        s.parse::<u16>()
            .ok()
            .filter(|&d| d > 0)
            .ok_or_else(|| format!("mesh '{text}' has a bad dimension '{s}'"))
    };
    let (w, h) = (parse(w)?, parse(h)?);
    let max = pfsim::MAX_SHARERS as u32;
    if u32::from(w) * u32::from(h) > max {
        return Err(format!("mesh '{text}' exceeds {max} nodes"));
    }
    Ok((w, h))
}

/// Encodes a scheme as a structured object (`{"kind": ..., ...}`), not
/// its display string — wire documents are parsed, never scraped.
pub fn scheme_to_json(scheme: Scheme) -> Json {
    match scheme {
        Scheme::None => Json::obj(vec![("kind", Json::str("none"))]),
        Scheme::Sequential { degree } => Json::obj(vec![
            ("kind", Json::str("sequential")),
            ("degree", Json::uint(degree as u64)),
        ]),
        Scheme::IDetection { degree } => Json::obj(vec![
            ("kind", Json::str("i-detection")),
            ("degree", Json::uint(degree as u64)),
        ]),
        Scheme::SimpleStride { degree } => Json::obj(vec![
            ("kind", Json::str("simple-stride")),
            ("degree", Json::uint(degree as u64)),
        ]),
        Scheme::DDetection { degree } => Json::obj(vec![
            ("kind", Json::str("d-detection")),
            ("degree", Json::uint(degree as u64)),
        ]),
        Scheme::DDetectionAdaptive { degree, max_depth } => Json::obj(vec![
            ("kind", Json::str("d-detection-adaptive")),
            ("degree", Json::uint(degree as u64)),
            ("max_depth", Json::uint(max_depth as u64)),
        ]),
        Scheme::AdaptiveSequential {
            initial_degree,
            max_degree,
        } => Json::obj(vec![
            ("kind", Json::str("adaptive-sequential")),
            ("initial_degree", Json::uint(initial_degree as u64)),
            ("max_degree", Json::uint(max_degree as u64)),
        ]),
    }
}

/// Decodes a structured scheme object.
pub fn scheme_from_json(v: &Json) -> Result<Scheme, String> {
    let obj = v.as_object().ok_or("scheme is not an object")?;
    let kind = field(v, "kind")?
        .as_str()
        .ok_or("scheme.kind is not a string")?;
    let degree_field = |name: &str| -> Result<u32, String> {
        let d = field(v, name)?
            .as_u64()
            .ok_or_else(|| format!("scheme.{name} is not a u64"))?;
        if d == 0 || d > 64 {
            return Err(format!("scheme.{name} {d} out of range 1..=64"));
        }
        Ok(d as u32)
    };
    let expect_keys = |keys: &[&str]| reject_unknown_keys(obj, keys, "scheme");
    match kind {
        "none" => {
            expect_keys(&["kind"])?;
            Ok(Scheme::None)
        }
        "sequential" => {
            expect_keys(&["kind", "degree"])?;
            Ok(Scheme::Sequential {
                degree: degree_field("degree")?,
            })
        }
        "i-detection" => {
            expect_keys(&["kind", "degree"])?;
            Ok(Scheme::IDetection {
                degree: degree_field("degree")?,
            })
        }
        "simple-stride" => {
            expect_keys(&["kind", "degree"])?;
            Ok(Scheme::SimpleStride {
                degree: degree_field("degree")?,
            })
        }
        "d-detection" => {
            expect_keys(&["kind", "degree"])?;
            Ok(Scheme::DDetection {
                degree: degree_field("degree")?,
            })
        }
        "d-detection-adaptive" => {
            expect_keys(&["kind", "degree", "max_depth"])?;
            Ok(Scheme::DDetectionAdaptive {
                degree: degree_field("degree")?,
                max_depth: degree_field("max_depth")?,
            })
        }
        "adaptive-sequential" => {
            expect_keys(&["kind", "initial_degree", "max_degree"])?;
            Ok(Scheme::AdaptiveSequential {
                initial_degree: degree_field("initial_degree")?,
                max_degree: degree_field("max_degree")?,
            })
        }
        other => Err(format!("unknown scheme kind '{other}'")),
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// Strict-validation helper: any key outside `known` is an error naming
/// both the key and the object it sits in.
fn reject_unknown_keys(obj: &[(String, Json)], known: &[&str], what: &str) -> Result<(), String> {
    for (k, _) in obj {
        if !known.contains(&k.as_str()) {
            return Err(format!("unknown {what} field '{k}'"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> WireSpec {
        WireSpec::baseline_grid(
            "unit",
            Size::Default,
            &[App::Mp3d, App::Water],
            &[
                Scheme::Sequential { degree: 2 },
                Scheme::DDetectionAdaptive {
                    degree: 1,
                    max_depth: 8,
                },
            ],
        )
    }

    #[test]
    fn wire_round_trips_exactly() {
        let mut spec = grid();
        spec.variants[1].slc_kb = Some(16);
        spec.variants[1].consistency = ConsistencyModel::Sequential;
        spec.variants[2].slc_kb = Some(64);
        spec.variants[2].slc_ways = Some(4);
        spec.variants[2].block_bytes = Some(64);
        spec.variants[2].mesh = Some((8, 8));
        spec.instrument = true;
        spec.timeout_secs = Some(120);
        let text = spec.to_json().render();
        assert_eq!(WireSpec::parse(&text).unwrap(), spec);
    }

    /// The modern families are submittable by name, and a mesh override
    /// resolves into a scaled machine configuration.
    #[test]
    fn modern_apps_and_meshes_round_trip() {
        let mut spec = WireSpec::baseline_grid(
            "modern",
            Size::Default,
            &[App::Chase, App::Mstride, App::Server],
            &[Scheme::DDetection { degree: 1 }],
        );
        spec.variants[1].mesh = Some((16, 16));
        let text = spec.to_json().render();
        let parsed = WireSpec::parse(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.cell_config(0).nodes, 16);
        assert_eq!(parsed.cell_config(1).nodes, 256);
        for app in App::EVERY {
            assert_eq!(app_by_name(app.name()), Some(app), "{app}");
        }
    }

    /// Mesh spellings outside `WxH` with both dimensions nonzero and the
    /// product within the directory's sharer limit are rejected with the
    /// offending text, not a mid-run panic.
    #[test]
    fn mesh_validation_rejects_bad_spellings() {
        for bad in ["huge", "8", "8x", "x8", "0x4", "4x0", "32x32", "8x8x8"] {
            let err = parse_mesh(bad).unwrap_err();
            assert!(err.contains(bad), "{bad}: {err}");
        }
        assert_eq!(parse_mesh("4x4"), Ok((4, 4)));
        assert_eq!(parse_mesh("16x16"), Ok((16, 16)));
        assert_eq!(parse_mesh("2x128"), Ok((2, 128)));
        // A malformed mesh inside a full document is a validation error.
        let ok = grid().to_json().render();
        let bad = ok.replacen("\"config\": {}", "\"config\": {\"mesh\": \"32x32\"}", 1);
        assert!(WireSpec::parse(&bad).unwrap_err().contains("32x32"));
    }

    #[test]
    fn every_scheme_round_trips() {
        for scheme in [
            Scheme::None,
            Scheme::Sequential { degree: 4 },
            Scheme::IDetection { degree: 1 },
            Scheme::SimpleStride { degree: 2 },
            Scheme::DDetection { degree: 3 },
            Scheme::DDetectionAdaptive {
                degree: 1,
                max_depth: 16,
            },
            Scheme::AdaptiveSequential {
                initial_degree: 1,
                max_degree: 8,
            },
        ] {
            let json = scheme_to_json(scheme);
            assert_eq!(scheme_from_json(&json), Ok(scheme), "{scheme}");
        }
    }

    #[test]
    fn lowering_matches_builder_spec() {
        let spec = grid().to_experiment_spec();
        let run_shape = spec.clone();
        assert_eq!(run_shape.apps, [App::Mp3d, App::Water]);
        assert_eq!(run_shape.variants.len(), 3);
        assert_eq!(run_shape.variants[0].label, "baseline");
        assert_eq!(run_shape.variants[1].label, "Seq(d=2)");
        assert_eq!(
            run_shape.variants[1].cfg.scheme,
            Scheme::Sequential { degree: 2 }
        );
    }

    #[test]
    fn cell_config_applies_instrumentation() {
        let mut spec = grid();
        spec.instrument = true;
        assert!(spec.cell_config(0).instrument);
        spec.instrument = false;
        assert!(!spec.cell_config(0).instrument);
    }

    /// Every rejection path names the offending field, and unknown
    /// fields anywhere in the document are errors.
    #[test]
    fn validation_rejects_malformed_documents() {
        let ok = grid().to_json().render();
        assert!(WireSpec::parse(&ok).is_ok());
        for (what, mutate) in [
            ("wire_version", "\"wire_version\": 1"),
            ("unknown size", "\"size\": \"huge\""),
            ("unknown app", "\"apps\": [\"Quake\"]"),
            ("empty apps", "\"apps\": []"),
            ("bad name", "\"name\": \"../etc\""),
            ("empty name", "\"name\": \"\""),
        ] {
            let bad = match what {
                "wire_version" => ok.replace("\"wire_version\": 3", mutate),
                "unknown size" => ok.replace("\"size\": \"default\"", mutate),
                "unknown app" | "empty apps" => {
                    ok.replace("\"apps\": [\"MP3D\", \"Water\"]", mutate)
                }
                _ => ok.replace("\"name\": \"unit\"", mutate),
            };
            assert_ne!(bad, ok, "{what}: mutation did not apply");
            assert!(WireSpec::parse(&bad).is_err(), "{what}");
        }
        // Unknown top-level / config / scheme fields are rejected.
        let bad = ok.replace(
            "\"instrument\": false",
            "\"instrument\": false, \"turbo\": 1",
        );
        assert!(WireSpec::parse(&bad).unwrap_err().contains("turbo"));
        let bad = ok.replace("\"config\": {}", "\"config\": {\"flux\": 9}");
        assert!(WireSpec::parse(&bad).unwrap_err().contains("flux"));
        let bad = ok.replace("{\"kind\": \"none\"}", "{\"kind\": \"warp\"}");
        assert!(WireSpec::parse(&bad).unwrap_err().contains("warp"));
        let bad = ok.replace(
            "{\"kind\": \"sequential\", \"degree\": 2}",
            "{\"kind\": \"sequential\", \"degree\": 0}",
        );
        assert!(WireSpec::parse(&bad).unwrap_err().contains("degree"));
        // Degenerate combinations.
        let bad = ok.replace(
            "\"instrument\": false",
            "\"timeout_secs\": 0, \"instrument\": false",
        );
        assert!(WireSpec::parse(&bad).unwrap_err().contains("timeout_secs"));
    }

    /// Schema v3 dropped `threads`: a v2 document is refused by version,
    /// and a v3 document still carrying the field is refused by name.
    #[test]
    fn v2_documents_and_threads_field_are_rejected() {
        let ok = grid().to_json().render();
        let v2 = ok
            .replace("\"wire_version\": 3", "\"wire_version\": 2")
            .replace(
                "\"instrument\": false",
                "\"threads\": 1, \"instrument\": false",
            );
        assert_ne!(v2, ok);
        assert_eq!(
            WireSpec::parse(&v2).unwrap_err(),
            "wire_version 2 (this build speaks 3)"
        );
        let threads = ok.replace(
            "\"instrument\": false",
            "\"threads\": 1, \"instrument\": false",
        );
        assert_ne!(threads, ok);
        assert_eq!(
            WireSpec::parse(&threads).unwrap_err(),
            "unknown spec field 'threads'"
        );
    }

    #[test]
    fn variant_configs_resolve_knobs() {
        let text = r#"{
            "wire_version": 3, "name": "cfg", "size": "default",
            "apps": ["LU"],
            "variants": [{"label": "small-slc",
                          "scheme": {"kind": "sequential", "degree": 1},
                          "config": {"slc_kb": 16, "block_bytes": 64,
                                     "consistency": "sequential"}}],
            "warmup": 0, "instrument": false
        }"#;
        let spec = WireSpec::parse(text).unwrap();
        let cfg = spec.cell_config(0);
        assert_eq!(cfg.scheme, Scheme::Sequential { degree: 1 });
        assert_eq!(cfg.slc, pfsim_cache::SlcConfig::direct_mapped(16 * 1024));
        assert_eq!(cfg.geometry.block_bytes(), 64);
        assert_eq!(cfg.consistency, ConsistencyModel::Sequential);
    }
}
