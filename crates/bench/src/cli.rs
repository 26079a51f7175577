//! The one command-line parser every pfsim binary shares.
//!
//! Before this module each binary hand-rolled its own flag scan
//! (`Size::from_args` here, positional `args().position(..)` there),
//! which meant three slightly different spellings of the same error.
//! Now there is a single typed [`Args`] struct, a single flag table
//! (`FLAGS`) defining each flag's syntax exactly once, and each binary
//! merely declares *which* flags it accepts. Unknown flags are rejected
//! with the same message everywhere; a known flag passed to a binary
//! that does not accept it names the binary.
//!
//! # Examples
//!
//! ```
//! use pfsim_bench::cli::{Args, SIZE_FLAGS};
//! use pfsim_bench::Size;
//!
//! let args = Args::parse_from("figure6", SIZE_FLAGS, ["--paper".to_string()]).unwrap();
//! assert_eq!(args.size, Size::Paper);
//! assert!(Args::parse_from("figure6", SIZE_FLAGS, ["--check".to_string()]).is_err());
//! ```

use crate::Size;

/// How a flag takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueForm {
    /// A bare switch (`--check`).
    None,
    /// Value in the next argument (`--workers 4`).
    Next,
    /// Value after `=` in the same argument (`--size=paper`).
    Eq,
}

/// One entry of the shared flag table.
struct FlagDef {
    name: &'static str,
    value: ValueForm,
    help: &'static str,
}

/// Every flag any pfsim binary understands, defined exactly once.
const FLAGS: &[FlagDef] = &[
    FlagDef {
        name: "--paper",
        value: ValueForm::None,
        help: "run the paper's input sizes",
    },
    FlagDef {
        name: "--large",
        value: ValueForm::None,
        help: "run the enlarged (Table 4) input sizes",
    },
    FlagDef {
        name: "--size",
        value: ValueForm::Eq,
        help: "--size=<default|paper|large>: select the problem size",
    },
    FlagDef {
        name: "--check",
        value: ValueForm::None,
        help: "fail unless the manifest validates and matches the run's total",
    },
    FlagDef {
        name: "--spec",
        value: ValueForm::Next,
        help: "run the wire-format ExperimentSpec (JSON) at this path",
    },
    FlagDef {
        name: "--port",
        value: ValueForm::Next,
        help: "TCP port (0 = ephemeral)",
    },
    FlagDef {
        name: "--port-file",
        value: ValueForm::Next,
        help: "write the bound port number to this file once listening",
    },
    FlagDef {
        name: "--host",
        value: ValueForm::Next,
        help: "server host to connect to (default 127.0.0.1)",
    },
    FlagDef {
        name: "--workers",
        value: ValueForm::Next,
        help: "simulation worker threads of the server pool",
    },
    FlagDef {
        name: "--queue-depth",
        value: ValueForm::Next,
        help: "bounded job-queue capacity (submissions past it get 429)",
    },
    FlagDef {
        name: "--timeout-secs",
        value: ValueForm::Next,
        help: "default per-job wall-clock timeout, in seconds (0 = none)",
    },
    FlagDef {
        name: "--results-dir",
        value: ValueForm::Next,
        help: "manifest/cache directory (default: results)",
    },
    FlagDef {
        name: "--out",
        value: ValueForm::Next,
        help: "write the returned manifest to this path",
    },
];

/// Marker in an `accepts` list allowing bare (non-flag) arguments,
/// collected into [`Args::positional`].
pub const POSITIONAL: &str = "@positional";

/// The flag set of the twelve table/figure/ablation binaries: problem
/// size only.
pub const SIZE_FLAGS: &[&str] = &["--paper", "--large", "--size"];

/// The `perfsmoke` flag set.
pub const PERFSMOKE_FLAGS: &[&str] = &["--check", "--spec"];

/// The `pfsim-serve` flag set.
pub const SERVE_FLAGS: &[&str] = &[
    "--port",
    "--port-file",
    "--workers",
    "--queue-depth",
    "--timeout-secs",
    "--results-dir",
];

/// The `pfsim-client` flag set (plus positional `command [operand]`).
pub const CLIENT_FLAGS: &[&str] = &["--host", "--port", "--out", POSITIONAL];

/// Parsed command line, typed. Every binary receives the same struct;
/// fields for flags the binary does not accept keep their defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Problem size (`--paper` / `--large` / `--size=`).
    pub size: Size,
    /// `--check`.
    pub check: bool,
    /// Wire-spec path (`--spec`).
    pub spec: Option<String>,
    /// `--port` (None means the binary's default).
    pub port: Option<u16>,
    /// `--port-file`.
    pub port_file: Option<String>,
    /// `--host` (default `127.0.0.1`).
    pub host: String,
    /// `--workers` (default 2).
    pub workers: usize,
    /// `--queue-depth` (default 8).
    pub queue_depth: usize,
    /// `--timeout-secs` (None means no default timeout).
    pub timeout_secs: Option<u64>,
    /// `--results-dir`.
    pub results_dir: Option<String>,
    /// `--out`.
    pub out: Option<String>,
    /// Bare arguments, in order (only when the binary accepts
    /// [`POSITIONAL`]).
    pub positional: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            size: Size::Default,
            check: false,
            spec: None,
            port: None,
            port_file: None,
            host: "127.0.0.1".to_string(),
            workers: 2,
            queue_depth: 8,
            timeout_secs: None,
            results_dir: None,
            out: None,
            positional: Vec::new(),
        }
    }
}

impl Args {
    /// Parses the process command line for `bin`, which accepts exactly
    /// the flags in `accepts`. On any error, prints the message and the
    /// usage block and exits with status 2.
    pub fn parse(bin: &'static str, accepts: &'static [&'static str]) -> Args {
        match Args::parse_from(bin, accepts, std::env::args().skip(1)) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}");
                eprint!("{}", usage(bin, accepts));
                std::process::exit(2);
            }
        }
    }

    /// Pure form of [`Args::parse`] for testing: parses an argument list
    /// (without the program name).
    pub fn parse_from(
        bin: &str,
        accepts: &[&str],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut args = Args::default();
        let mut size: Option<Size> = None;
        let mut it = argv.into_iter();
        while let Some(raw) = it.next() {
            if !raw.starts_with("--") {
                if accepts.contains(&POSITIONAL) {
                    args.positional.push(raw);
                    continue;
                }
                return Err(format!("unrecognized argument '{raw}'"));
            }
            let (name, inline) = match raw.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (raw.clone(), None),
            };
            let Some(def) = FLAGS.iter().find(|d| d.name == name) else {
                return Err(format!("unrecognized argument '{raw}'"));
            };
            if !accepts.contains(&def.name) {
                return Err(format!("'{name}' is not a flag of {bin}"));
            }
            let value = match (def.value, inline) {
                (ValueForm::None, None) => None,
                (ValueForm::Eq, Some(v)) => Some(v),
                (ValueForm::Next, None) => {
                    Some(it.next().ok_or_else(|| format!("{name} expects a value"))?)
                }
                // Wrong syntax for this flag (`--check=yes`, bare
                // `--size`): reject the token as written.
                _ => return Err(format!("unrecognized argument '{raw}'")),
            };
            apply(&mut args, &mut size, def.name, value)?;
        }
        args.size = size.unwrap_or_default();
        Ok(args)
    }
}

/// Applies one parsed flag to the in-progress `Args`.
fn apply(
    args: &mut Args,
    size: &mut Option<Size>,
    name: &str,
    value: Option<String>,
) -> Result<(), String> {
    let uint = |v: &Option<String>| -> Result<u64, String> {
        let v = v.as_deref().expect("value-taking flag parsed above");
        v.parse()
            .map_err(|_| format!("{name} expects a number, got '{v}'"))
    };
    match name {
        "--paper" => set_size(size, Size::Paper)?,
        "--large" => set_size(size, Size::Large)?,
        "--size" => {
            let picked = match value.as_deref() {
                Some("default") => Size::Default,
                Some("paper") => Size::Paper,
                Some("large") => Size::Large,
                Some(other) => return Err(format!("unknown size '{other}'")),
                None => unreachable!("--size is ValueForm::Eq"),
            };
            set_size(size, picked)?;
        }
        "--check" => args.check = true,
        "--spec" => args.spec = value,
        "--port" => {
            let v = uint(&value)?;
            args.port = Some(
                u16::try_from(v).map_err(|_| format!("--port expects a port number, got {v}"))?,
            );
        }
        "--port-file" => args.port_file = value,
        "--host" => args.host = value.expect("value-taking flag parsed above"),
        "--workers" => args.workers = (uint(&value)? as usize).max(1),
        "--queue-depth" => args.queue_depth = (uint(&value)? as usize).max(1),
        "--timeout-secs" => args.timeout_secs = Some(uint(&value)?),
        "--results-dir" => args.results_dir = value,
        "--out" => args.out = value,
        other => unreachable!("flag {other} in FLAGS but not applied"),
    }
    Ok(())
}

/// Records a size selection, rejecting conflicts across spellings.
fn set_size(chosen: &mut Option<Size>, picked: Size) -> Result<(), String> {
    match *chosen {
        Some(prev) if prev != picked => Err(format!("conflicting sizes: {prev} and {picked}")),
        _ => {
            *chosen = Some(picked);
            Ok(())
        }
    }
}

/// The usage block for `bin`: one line per accepted flag, table order.
pub fn usage(bin: &str, accepts: &[&str]) -> String {
    let mut out = format!("usage: {bin} [flags]");
    if accepts.contains(&POSITIONAL) {
        out.push_str(" [args...]");
    }
    out.push('\n');
    for def in FLAGS {
        if accepts.contains(&def.name) {
            out.push_str(&format!("  {:<16} {}\n", def.name, def.help));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(accepts: &[&str], args: &[&str]) -> Result<Args, String> {
        Args::parse_from("unit", accepts, args.iter().map(|s| s.to_string()))
    }

    fn size_of(args: &[&str]) -> Result<Size, String> {
        parse(SIZE_FLAGS, args).map(|a| a.size)
    }

    #[test]
    fn size_args_parse_every_spelling() {
        assert_eq!(size_of(&[]), Ok(Size::Default));
        assert_eq!(size_of(&["--paper"]), Ok(Size::Paper));
        assert_eq!(size_of(&["--large"]), Ok(Size::Large));
        assert_eq!(size_of(&["--size=default"]), Ok(Size::Default));
        assert_eq!(size_of(&["--size=paper"]), Ok(Size::Paper));
        assert_eq!(size_of(&["--size=large"]), Ok(Size::Large));
        // Repeating the same size is harmless.
        assert_eq!(size_of(&["--paper", "--size=paper"]), Ok(Size::Paper));
    }

    #[test]
    fn size_args_reject_conflicts_and_unknowns() {
        assert!(size_of(&["--paper", "--large"]).is_err());
        assert!(size_of(&["--size=huge"]).is_err());
        assert!(size_of(&["--verbose"]).is_err());
        assert!(size_of(&["paper"]).is_err());
    }

    /// The rejection paths name the offending token, so the usage
    /// message the binaries print is actionable.
    #[test]
    fn size_arg_errors_name_the_offender() {
        let err = size_of(&["--size=huge"]).unwrap_err();
        assert!(err.contains("huge"), "{err}");
        let err = size_of(&["--turbo"]).unwrap_err();
        assert!(err.contains("--turbo"), "{err}");
        let err = size_of(&["--paper", "--size=large"]).unwrap_err();
        assert!(err.contains("paper") && err.contains("large"), "{err}");
    }

    /// Near-miss spellings are rejected, not fuzzy-matched: sizes are
    /// case-sensitive, `--size=` needs a value, and flag-like prefixes
    /// of valid flags don't parse.
    #[test]
    fn size_args_reject_near_misses() {
        assert!(size_of(&["--size="]).is_err());
        assert!(size_of(&["--size"]).is_err());
        assert!(size_of(&["--size=Paper"]).is_err());
        assert!(size_of(&["--size=LARGE"]).is_err());
        assert!(size_of(&["--Paper"]).is_err());
        assert!(size_of(&["--paper=yes"]).is_err());
        assert!(size_of(&["--siz=paper"]).is_err());
        assert!(size_of(&[""]).is_err());
        // Conflicts are caught across spellings, in either order.
        assert!(size_of(&["--size=large", "--paper"]).is_err());
        assert!(size_of(&["--size=default", "--size=paper"]).is_err());
        // An error anywhere poisons the whole parse even if a valid flag
        // follows.
        assert!(size_of(&["--bogus", "--paper"]).is_err());
        assert!(size_of(&["--paper", "--bogus"]).is_err());
    }

    /// A flag outside the binary's accepted set is rejected with a
    /// message naming the binary, even though the flag itself is known.
    #[test]
    fn flags_outside_the_accepted_set_name_the_binary() {
        let err = parse(SIZE_FLAGS, &["--spec", "x"]).unwrap_err();
        assert!(err.contains("--spec") && err.contains("unit"), "{err}");
        // The same token parses fine for a binary that accepts it.
        let args = parse(PERFSMOKE_FLAGS, &["--spec", "x"]).unwrap();
        assert_eq!(args.spec.as_deref(), Some("x"));
    }

    #[test]
    fn perfsmoke_flags_parse_typed() {
        let args = parse(PERFSMOKE_FLAGS, &["--spec", "grid.json", "--check"]).unwrap();
        assert_eq!(args.spec.as_deref(), Some("grid.json"));
        assert!(args.check);
        // perfsmoke runs only specs: size and ledger flags are rejected.
        for gone in [&["--large"][..], &["--label", "ci"]] {
            assert!(parse(PERFSMOKE_FLAGS, gone).is_err(), "{gone:?}");
        }
    }

    #[test]
    fn numeric_flags_reject_garbage_and_missing_values() {
        let err = parse(SERVE_FLAGS, &["--workers", "many"]).unwrap_err();
        assert!(err.contains("--workers") && err.contains("many"), "{err}");
        let err = parse(PERFSMOKE_FLAGS, &["--spec"]).unwrap_err();
        assert!(err.contains("expects a value"), "{err}");
        let err = parse(SERVE_FLAGS, &["--port", "70000"]).unwrap_err();
        assert!(err.contains("--port"), "{err}");
    }

    /// The event kernel is serial, so neither perfsmoke nor pfsim-serve
    /// knows `--threads`: it fails like any other unknown flag.
    #[test]
    fn threads_flag_is_unknown() {
        for accepts in [PERFSMOKE_FLAGS, SERVE_FLAGS] {
            let err = parse(accepts, &["--threads", "2"]).unwrap_err();
            assert_eq!(err, "unrecognized argument '--threads'");
        }
    }

    #[test]
    fn serve_flags_parse_typed() {
        let args = parse(
            SERVE_FLAGS,
            &[
                "--port",
                "0",
                "--workers",
                "3",
                "--queue-depth",
                "5",
                "--timeout-secs",
                "30",
                "--results-dir",
                "/tmp/r",
            ],
        )
        .unwrap();
        assert_eq!(args.port, Some(0));
        assert_eq!(args.workers, 3);
        assert_eq!(args.queue_depth, 5);
        assert_eq!(args.timeout_secs, Some(30));
        assert_eq!(args.results_dir.as_deref(), Some("/tmp/r"));
        // Positional arguments are rejected unless the binary opts in.
        assert!(parse(SERVE_FLAGS, &["submit"]).is_err());
    }

    #[test]
    fn client_flags_collect_positionals_in_order() {
        let args = parse(
            CLIENT_FLAGS,
            &["submit", "--port", "9", "spec.json", "--out", "m.json"],
        )
        .unwrap();
        assert_eq!(args.positional, ["submit", "spec.json"]);
        assert_eq!(args.port, Some(9));
        assert_eq!(args.out.as_deref(), Some("m.json"));
        assert_eq!(args.host, "127.0.0.1");
    }

    #[test]
    fn usage_lists_only_accepted_flags() {
        let u = usage("figure6", SIZE_FLAGS);
        assert!(u.contains("--paper") && u.contains("--size"), "{u}");
        assert!(!u.contains("--spec"), "{u}");
        let u = usage("pfsim-client", CLIENT_FLAGS);
        assert!(u.contains("[args...]"), "{u}");
    }
}
