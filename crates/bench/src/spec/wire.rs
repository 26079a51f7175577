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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
        encode(SPEC, self)
    }

    /// Parses and validates a schema-v3 wire document.
    pub fn parse(text: &str) -> Result<WireSpec, String> {
        let doc = Json::parse(text)?;
        WireSpec::from_json(&doc)
    }

    /// Validates and decodes an already-parsed wire document.
    pub fn from_json(doc: &Json) -> Result<WireSpec, String> {
        let obj = doc.as_object().ok_or("wire spec is not an object")?;
        let mut spec = WireSpec::default();
        // The version comes first, so a document from another schema
        // gets a version error rather than a complaint about its keys.
        VERSION.decode(obj, &mut spec)?;
        decode(obj, SPEC, "spec", &mut spec)?;
        Ok(spec)
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

/// One member of a wire record, declared once: its key, whether a
/// document must carry it (an absent optional member keeps the blank
/// record's default), how it renders (`None` omits it), and how it
/// decodes into the record under construction. A record is a table of
/// these, so render order, strict decoding and the accepted-key set all
/// derive from one declaration.
struct Field<T> {
    key: &'static str,
    required: bool,
    emit: fn(&T) -> Option<Json>,
    accept: fn(&mut T, &str, &Json) -> Result<(), String>,
}

/// Renders `record` through its field table.
fn encode<T>(fields: &[Field<T>], record: &T) -> Json {
    Json::Object(
        fields
            .iter()
            .filter_map(|f| Some((f.key.to_string(), (f.emit)(record)?)))
            .collect(),
    )
}

impl<T> Field<T> {
    /// Decodes this member of `obj` into `record`.
    fn decode(&self, obj: &[(String, Json)], record: &mut T) -> Result<(), String> {
        match obj.iter().find(|(k, _)| k == self.key) {
            Some((_, v)) => (self.accept)(record, self.key, v),
            None if self.required => Err(format!("missing field '{}'", self.key)),
            None => Ok(()),
        }
    }
}

/// Decodes the record `obj` into `record` in table order, after
/// rejecting any key the table does not declare (`what` names the record
/// in that error).
fn decode<T>(
    obj: &[(String, Json)],
    fields: &[Field<T>],
    what: &str,
    record: &mut T,
) -> Result<(), String> {
    reject_unknown_keys(obj, what, |k| fields.iter().any(|f| f.key == k))?;
    fields.iter().try_for_each(|f| f.decode(obj, record))
}

fn string<'a>(key: &str, v: &'a Json) -> Result<&'a str, String> {
    v.as_str().ok_or_else(|| format!("{key} is not a string"))
}

fn uint(key: &str, v: &Json) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("{key} is not a u64"))
}

fn array<'a>(key: &str, v: &'a Json) -> Result<&'a [Json], String> {
    v.as_array().ok_or_else(|| format!("{key} is not an array"))
}

/// The schema-identifying member, decoded before anything else.
const VERSION: Field<WireSpec> = Field {
    key: "wire_version",
    required: true,
    emit: |_| Some(Json::Int(WIRE_SCHEMA_VERSION)),
    accept: |_, key, v| {
        let version = v
            .as_i64()
            .ok_or_else(|| format!("{key} is not an integer"))?;
        if version != WIRE_SCHEMA_VERSION {
            return Err(format!(
                "{key} {version} (this build speaks {WIRE_SCHEMA_VERSION})"
            ));
        }
        Ok(())
    },
};

/// The top-level spec record.
const SPEC: &[Field<WireSpec>] = &[
    VERSION,
    Field {
        key: "name",
        required: true,
        emit: |s| Some(Json::str(&s.name)),
        accept: |s, key, v| {
            let name = string(key, v)?;
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            {
                return Err(format!(
                    "{key} '{name}' is not a safe manifest name ([A-Za-z0-9._-]+)"
                ));
            }
            s.name = name.to_string();
            Ok(())
        },
    },
    Field {
        key: "size",
        required: true,
        emit: |s| Some(Json::str(s.size.to_string())),
        accept: |s, key, v| {
            s.size = Size::parse(string(key, v)?)?;
            Ok(())
        },
    },
    Field {
        key: "apps",
        required: true,
        emit: |s| {
            Some(Json::Array(
                s.apps.iter().map(|a| Json::str(a.name())).collect(),
            ))
        },
        accept: |s, key, v| {
            s.apps = array(key, v)?
                .iter()
                .map(|a| {
                    let name = a.as_str().ok_or("apps entry is not a string")?;
                    app_by_name(name).ok_or(format!("unknown app '{name}'"))
                })
                .collect::<Result<_, String>>()?;
            if s.apps.is_empty() {
                return Err(format!("{key} is empty"));
            }
            Ok(())
        },
    },
    Field {
        key: "variants",
        required: true,
        emit: |s| {
            Some(Json::Array(
                s.variants.iter().map(|v| encode(VARIANT, v)).collect(),
            ))
        },
        accept: |s, key, v| {
            s.variants = array(key, v)?
                .iter()
                .enumerate()
                .map(|(i, v)| variant_from_json(v).map_err(|e| format!("{key}[{i}]: {e}")))
                .collect::<Result<_, String>>()?;
            if s.variants.is_empty() {
                return Err(format!("{key} is empty"));
            }
            Ok(())
        },
    },
    Field {
        key: "warmup",
        required: false,
        emit: |s| Some(Json::uint(s.warmup)),
        accept: |s, key, v| {
            s.warmup = uint(key, v)?;
            Ok(())
        },
    },
    Field {
        key: "instrument",
        required: false,
        emit: |s| Some(Json::Bool(s.instrument)),
        accept: |s, key, v| {
            s.instrument = v.as_bool().ok_or_else(|| format!("{key} is not a bool"))?;
            Ok(())
        },
    },
    Field {
        key: "timeout_secs",
        required: false,
        emit: |s| s.timeout_secs.map(Json::uint),
        accept: |s, key, v| match uint(key, v)? {
            0 => Err(format!("{key} 0 is meaningless (omit for no timeout)")),
            t => {
                s.timeout_secs = Some(t);
                Ok(())
            }
        },
    },
];

/// One grid column: label, scheme and the machine knobs in `config`.
const VARIANT: &[Field<WireVariant>] = &[
    Field {
        key: "label",
        required: true,
        emit: |v| Some(Json::str(&v.label)),
        accept: |v, key, j| {
            let label = string(key, j)?;
            if label.is_empty() {
                return Err(format!("{key} is empty"));
            }
            v.label = label.to_string();
            Ok(())
        },
    },
    Field {
        key: "scheme",
        required: true,
        emit: |v| Some(scheme_to_json(v.scheme)),
        accept: |v, _, j| {
            v.scheme = scheme_from_json(j)?;
            Ok(())
        },
    },
    Field {
        key: "config",
        required: true,
        emit: |v| Some(encode(CONFIG, v)),
        accept: |v, key, j| {
            let obj = j
                .as_object()
                .ok_or_else(|| format!("{key} is not an object"))?;
            decode(obj, CONFIG, key, v)?;
            check_slc(v)
        },
    },
];

/// A variant's machine knobs, each omitted at its baseline default.
const CONFIG: &[Field<WireVariant>] = &[
    Field {
        key: "slc_kb",
        required: false,
        emit: |v| v.slc_kb.map(Json::uint),
        accept: |v, key, j| {
            v.slc_kb = Some(uint(key, j)?);
            Ok(())
        },
    },
    Field {
        key: "slc_ways",
        required: false,
        emit: |v| v.slc_ways.map(|ways| Json::uint(ways as u64)),
        accept: |v, key, j| {
            if v.slc_kb.is_none() {
                return Err(format!("{key} without slc_kb"));
            }
            v.slc_ways = Some(uint(key, j)? as usize);
            Ok(())
        },
    },
    Field {
        key: "block_bytes",
        required: false,
        emit: |v| v.block_bytes.map(Json::uint),
        accept: |v, key, j| {
            let b = uint(key, j)?;
            if !b.is_power_of_two() || !(32..=4096).contains(&b) {
                return Err(format!("{key} {b} is not a power of two in 32..=4096"));
            }
            v.block_bytes = Some(b);
            Ok(())
        },
    },
    Field {
        key: "mesh",
        required: false,
        emit: |v| v.mesh.map(|(w, h)| Json::str(format!("{w}x{h}"))),
        accept: |v, key, j| {
            v.mesh = Some(parse_mesh(string(key, j)?)?);
            Ok(())
        },
    },
    Field {
        key: "consistency",
        required: false,
        emit: |v| (v.consistency == ConsistencyModel::Sequential).then(|| Json::str("sequential")),
        accept: |v, key, j| {
            v.consistency = match j.as_str() {
                Some("release") => ConsistencyModel::Release,
                Some("sequential") => ConsistencyModel::Sequential,
                _ => return Err(format!("{key} is neither \"release\" nor \"sequential\"")),
            };
            Ok(())
        },
    },
];

fn variant_from_json(v: &Json) -> Result<WireVariant, String> {
    let obj = v.as_object().ok_or("not an object")?;
    let mut variant = WireVariant::of_scheme(Scheme::None);
    decode(obj, VARIANT, "variant", &mut variant)?;
    Ok(variant)
}

/// The largest finite SLC a wire spec may ask for, in KB: 64 times the
/// paper's 16 KB. The cache allocates its whole tag array up front, and
/// an allocation that fails aborts the process (a whole `pfsim-serve`
/// daemon), so the size is bounded before anything is built.
const MAX_SLC_KB: u64 = 1024;

/// Rejects an SLC geometry the cache cannot build, with the cache's own
/// rule — a bad spec fails validation instead of panicking mid-run — and
/// an SLC larger than [`MAX_SLC_KB`].
fn check_slc(v: &WireVariant) -> Result<(), String> {
    let Some(kb) = v.slc_kb else {
        return Ok(());
    };
    if kb > MAX_SLC_KB {
        return Err(format!("slc_kb {kb} exceeds the {MAX_SLC_KB} KB bound"));
    }
    let cfg = v.config();
    match cfg.slc.sets(cfg.geometry.block_bytes()) {
        Ok(_) => Ok(()),
        Err(e) => Err(format!("slc_kb {kb}: {e}")),
    }
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

/// Declares each scheme's wire kind and parameters once and derives
/// both directions from it: [`scheme_to_json`]'s exhaustive `match` (a
/// new [`Scheme`] variant without a wire kind fails to compile) and the
/// strict [`scheme_from_json`].
macro_rules! scheme_kinds {
    ($($kind:literal => $variant:ident { $($param:ident),* },)*) => {
        /// Encodes a scheme as a structured object (`{"kind": ..., ...}`),
        /// not its display string — wire documents are parsed, never
        /// scraped.
        pub fn scheme_to_json(scheme: Scheme) -> Json {
            match scheme {
                $(Scheme::$variant { $($param),* } => Json::obj(vec![
                    (KIND, Json::str($kind)),
                    $((stringify!($param), Json::uint(u64::from($param))),)*
                ]),)*
            }
        }

        /// Decodes a structured scheme object.
        pub fn scheme_from_json(v: &Json) -> Result<Scheme, String> {
            let obj = v.as_object().ok_or("scheme is not an object")?;
            let kind = v
                .get(KIND)
                .ok_or_else(|| format!("missing field '{KIND}'"))?
                .as_str()
                .ok_or_else(|| format!("scheme.{KIND} is not a string"))?;
            match kind {
                $($kind => {
                    reject_unknown_keys(obj, "scheme", |k| {
                        k == KIND $(|| k == stringify!($param))*
                    })?;
                    Ok(Scheme::$variant { $($param: degree(v, stringify!($param))?),* })
                })*
                other => Err(format!("unknown scheme kind '{other}'")),
            }
        }
    };
}

/// The member naming a scheme object's kind.
const KIND: &str = "kind";

scheme_kinds! {
    "none" => None {},
    "sequential" => Sequential { degree },
    "i-detection" => IDetection { degree },
    "simple-stride" => SimpleStride { degree },
    "d-detection" => DDetection { degree },
    "d-detection-adaptive" => DDetectionAdaptive { degree, max_depth },
    "adaptive-sequential" => AdaptiveSequential { initial_degree, max_degree },
}

/// A scheme's degree-like parameter `name`, in 1..=64.
fn degree(v: &Json, name: &str) -> Result<u32, String> {
    let d = v
        .get(name)
        .ok_or_else(|| format!("missing field '{name}'"))?
        .as_u64()
        .ok_or_else(|| format!("scheme.{name} is not a u64"))?;
    if d == 0 || d > 64 {
        return Err(format!("scheme.{name} {d} out of range 1..=64"));
    }
    Ok(d as u32)
}

/// Strict-validation helper: any key of `obj` that `known` refuses is an
/// error naming both the key and the record `what` it sits in.
fn reject_unknown_keys(
    obj: &[(String, Json)],
    what: &str,
    known: impl Fn(&str) -> bool,
) -> Result<(), String> {
    match obj.iter().find(|(k, _)| !known(k)) {
        Some((k, _)) => Err(format!("unknown {what} field '{k}'")),
        None => Ok(()),
    }
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

    /// The render of a spec with every optional member set and all seven
    /// scheme kinds, byte for byte. It is pfsim-serve's manifest-cache
    /// key, so any change to it orphans every cached manifest.
    const GOLDEN: &str = r#"{
  "wire_version": 3,
  "name": "golden",
  "size": "large",
  "apps": ["MP3D", "CHASE"],
  "variants": [
    {
      "label": "baseline",
      "scheme": {"kind": "none"},
      "config": {}
    },
    {
      "label": "Seq(d=2)",
      "scheme": {"kind": "sequential", "degree": 2},
      "config": {"slc_kb": 64, "slc_ways": 4, "block_bytes": 64, "mesh": "8x8", "consistency": "sequential"}
    },
    {
      "label": "I-det(d=1)",
      "scheme": {"kind": "i-detection", "degree": 1},
      "config": {}
    },
    {
      "label": "Simple(d=3)",
      "scheme": {"kind": "simple-stride", "degree": 3},
      "config": {}
    },
    {
      "label": "D-det(d=4)",
      "scheme": {"kind": "d-detection", "degree": 4},
      "config": {}
    },
    {
      "label": "D-det-adapt(d=1,max=16)",
      "scheme": {"kind": "d-detection-adaptive", "degree": 1, "max_depth": 16},
      "config": {}
    },
    {
      "label": "Adapt-Seq(max=8)",
      "scheme": {"kind": "adaptive-sequential", "initial_degree": 1, "max_degree": 8},
      "config": {}
    }
  ],
  "warmup": 30000,
  "instrument": true,
  "timeout_secs": 120
}
"#;

    #[test]
    fn full_spec_render_is_pinned() {
        let mut spec = WireSpec::baseline_grid(
            "golden",
            Size::Large,
            &[App::Mp3d, App::Chase],
            &[
                Scheme::Sequential { degree: 2 },
                Scheme::IDetection { degree: 1 },
                Scheme::SimpleStride { degree: 3 },
                Scheme::DDetection { degree: 4 },
                Scheme::DDetectionAdaptive {
                    degree: 1,
                    max_depth: 16,
                },
                Scheme::AdaptiveSequential {
                    initial_degree: 1,
                    max_degree: 8,
                },
            ],
        );
        let v = &mut spec.variants[1];
        v.slc_kb = Some(64);
        v.slc_ways = Some(4);
        v.block_bytes = Some(64);
        v.mesh = Some((8, 8));
        v.consistency = ConsistencyModel::Sequential;
        spec.warmup = 30_000;
        spec.instrument = true;
        spec.timeout_secs = Some(120);
        assert_eq!(spec.to_json().render(), GOLDEN);
        assert_eq!(WireSpec::parse(GOLDEN).unwrap(), spec);
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
        // SLC geometries the cache cannot build fail validation instead of
        // panicking in the worker that would simulate them.
        for config in [
            "{\"slc_kb\": 3}",
            "{\"slc_kb\": 16, \"slc_ways\": 0}",
            "{\"slc_kb\": 16, \"slc_ways\": 3}",
            "{\"slc_kb\": 1, \"block_bytes\": 4096}",
            "{\"slc_kb\": 18014398509481984}",
        ] {
            let bad = ok.replacen("\"config\": {}", &format!("\"config\": {config}"), 1);
            assert_ne!(bad, ok, "{config}: mutation did not apply");
            let err = WireSpec::parse(&bad).unwrap_err();
            assert!(err.starts_with("variants[0]: slc_kb"), "{config}: {err}");
        }
    }

    /// `slc_kb` is bounded before the cache allocates its tag array: an
    /// oversized SLC is a validation error naming the bound, not an
    /// aborted process, and the bound itself is a buildable SLC.
    #[test]
    fn slc_kb_is_bounded() {
        let with_slc = |kb: u64| {
            let mut spec = grid();
            spec.variants[0].slc_kb = Some(kb);
            WireSpec::parse(&spec.to_json().render())
        };
        assert!(with_slc(MAX_SLC_KB).is_ok());
        for kb in [2 * MAX_SLC_KB, 4_194_304] {
            assert_eq!(
                with_slc(kb).unwrap_err(),
                format!("variants[0]: slc_kb {kb} exceeds the 1024 KB bound")
            );
        }
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
