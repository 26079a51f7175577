//! The manifest-hash result cache.
//!
//! Every simulated cell and every assembled manifest is stored under
//! `<results>/cache/<kind>/<hash>.json`, keyed by a *key material*
//! string that spells out everything the result depends on: the fully
//! resolved configuration (`Debug` form — the same fingerprint idiom the
//! warmup checkpoint store uses), the application, the problem size, the
//! warmup prefix, and the producing build's `git describe`. The file
//! stores the material and an FNV-1a sum of the value's rendering
//! alongside the value, and a lookup verifies both: a hash collision or a
//! value changed on disk degrades to a cache miss, never a wrong result.
//!
//! Worker threads each hold a reference; the cache itself takes no locks
//! — a lost race on `put` rewrites the same bytes, and `get` either sees
//! a complete file or misses (writes go through a rename).

use std::path::{Path, PathBuf};

use pfsim_analysis::Json;

/// An on-disk content-addressed store under a results directory.
#[derive(Debug, Clone)]
pub struct Cache {
    root: PathBuf,
}

impl Cache {
    /// A cache rooted at `<results_dir>/cache`.
    pub fn new(results_dir: &Path) -> Cache {
        Cache {
            root: results_dir.join("cache"),
        }
    }

    fn entry_path(&self, kind: &str, material: &str) -> PathBuf {
        self.root
            .join(kind)
            .join(format!("{:016x}.json", fnv1a(material)))
    }

    /// Looks `material` up in `kind`, returning the stored value only if
    /// the stored key material matches exactly and the value still has
    /// the sum it was stored with (an entry without one is a miss too).
    pub fn get(&self, kind: &str, material: &str) -> Option<Json> {
        let text = std::fs::read_to_string(self.entry_path(kind, material)).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.get("key")?.as_str()? != material {
            return None; // hash collision: treat as a miss
        }
        let value = doc.get("value")?;
        if doc.get("sum")?.as_str()? != value_sum(value) {
            return None; // corrupted on disk: treat as a miss
        }
        Some(value.clone())
    }

    /// Stores `value` under `material` in `kind` (best-effort: cache
    /// write failures cost re-simulation, not correctness).
    pub fn put(&self, kind: &str, material: &str, value: Json) {
        let path = self.entry_path(kind, material);
        if let Some(dir) = path.parent() {
            if std::fs::create_dir_all(dir).is_err() {
                return;
            }
        }
        let doc = Json::obj(vec![
            ("key", Json::str(material)),
            ("sum", Json::str(value_sum(&value))),
            ("value", value),
        ]);
        // Write-then-rename so concurrent readers never see a torn file.
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, doc.render()).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

/// The checksum an entry stores for `value`: the FNV-1a hash of its
/// rendering, in hex. Rendering is canonical and a parse of it renders
/// back byte for byte, so the sum survives the round trip through disk.
fn value_sum(value: &Json) -> String {
    format!("{:016x}", fnv1a(&value.render()))
}

/// 64-bit FNV-1a: tiny, dependency-free, and stable across runs. Names
/// cache files (collisions are caught by the stored key) and sums their
/// values.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_bench::manifest::{cell_json, trace_json};
    use pfsim_bench::spec::wire::WireVariant;
    use pfsim_bench::{ExperimentSpec, Runner};
    use pfsim_prefetch::Scheme;
    use pfsim_workloads::App;

    fn temp_cache(name: &str) -> Cache {
        let dir = std::env::temp_dir().join(format!("pfsim-serve-cache-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::new(&dir)
    }

    #[test]
    fn round_trips_and_misses() {
        let c = temp_cache("roundtrip");
        assert!(c.get("cells", "k1").is_none());
        c.put("cells", "k1", Json::uint(7));
        assert_eq!(c.get("cells", "k1").unwrap().as_u64(), Some(7));
        assert!(c.get("cells", "k2").is_none());
        assert!(c.get("manifests", "k1").is_none(), "kinds are disjoint");
    }

    /// A file whose stored key disagrees with the looked-up material (a
    /// forced "hash collision") reads as a miss, never as a wrong value.
    #[test]
    fn mismatched_key_material_is_a_miss() {
        let c = temp_cache("collision");
        c.put("cells", "honest", Json::uint(1));
        let path = c.entry_path("cells", "honest");
        let forged = Json::obj(vec![
            ("key", Json::str("something else")),
            ("sum", Json::str(value_sum(&Json::uint(2)))),
            ("value", Json::uint(2)),
        ]);
        std::fs::write(&path, forged.render()).unwrap();
        assert!(c.get("cells", "honest").is_none());
    }

    /// A real cell entry as `run_job` stores it: the document and trace
    /// record of one simulated MP3D baseline cell.
    fn real_cell_value() -> Json {
        let dir =
            std::env::temp_dir().join(format!("pfsim-serve-cache-cell-{}", std::process::id()));
        let spec = ExperimentSpec::new("cache-cell")
            .apps([App::Mp3d])
            .variant("baseline", WireVariant::of_scheme(Scheme::None).config())
            .serial()
            .quiet();
        let run = Runner::with_out_dir(&dir).execute(spec);
        let _ = std::fs::remove_dir_all(&dir);
        Json::obj(vec![
            ("cell", cell_json(&run.cells[0])),
            ("trace", trace_json(&run.traces[0])),
        ])
    }

    /// The offset of the first fractional digit of the first float in
    /// `text`.
    fn first_float_digit(text: &str) -> usize {
        let b = text.as_bytes();
        (1..b.len() - 1)
            .find(|&i| b[i] == b'.' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit())
            .expect("the document holds a float")
            + 1
    }

    /// One changed digit in a stored cell entry, whether in `exec_cycles`,
    /// in a float or anywhere else in a sample across the file, is a miss
    /// (or, where the digit was past a float's precision, the identical
    /// value), never a replayed wrong result. So is an entry stored
    /// without a sum.
    #[test]
    fn a_one_digit_corruption_is_a_miss() {
        let c = temp_cache("corrupt");
        let value = real_cell_value();
        c.put("cells", "cell", value.clone());
        assert_eq!(c.get("cells", "cell").as_ref(), Some(&value));
        let path = c.entry_path("cells", "cell");
        let text = std::fs::read_to_string(&path).unwrap();
        let cycles_at = text.find("\"exec_cycles\": ").unwrap() + "\"exec_cycles\": ".len();
        let float_at = first_float_digit(&text);
        let sample = text
            .bytes()
            .enumerate()
            .filter(|&(_, b)| b.is_ascii_digit())
            .map(|(at, _)| at)
            .step_by(37);
        for at in [cycles_at, float_at].into_iter().chain(sample) {
            let mut bytes = text.clone().into_bytes();
            bytes[at] = if bytes[at] == b'9' {
                b'0'
            } else {
                bytes[at] + 1
            };
            std::fs::write(&path, &bytes).unwrap();
            match c.get("cells", "cell") {
                None => {}
                Some(got) => {
                    assert!(at != cycles_at && at != float_at, "digit at {at} replayed");
                    assert_eq!(got, value, "digit at {at} replayed a changed value");
                }
            }
        }
        let unsummed = Json::obj(vec![("key", Json::str("cell")), ("value", value)]);
        std::fs::write(&path, unsummed.render()).unwrap();
        assert!(c.get("cells", "cell").is_none());
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so cache files stay addressable across builds.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
