//! Runs a wire-format experiment spec offline: the twin of
//! `pfsim-client submit`, through the same parse and validation layer as
//! `pfsim-serve`, but simulated cell-serially in this process.
//!
//! Usage:
//! `cargo run -p pfsim-bench --bin perfsmoke --release -- --spec PATH [--check]`
//!
//! * `--spec PATH` runs the schema-v3 JSON spec at `PATH` (the document
//!   `pfsim-client submit` sends) and writes its manifest.
//! * `--check` exits 1 unless the manifest just written validates and
//!   records the total this run simulated.
//!
//! Simulator throughput is measured by `pfsim-benchmark` (`benchmark/`).

use pfsim_bench::cli::{usage, Args, PERFSMOKE_FLAGS};
use pfsim_bench::spec::wire::WireSpec;
use pfsim_bench::validate_manifest;

fn fail(message: String) -> ! {
    eprintln!("check FAILED: {message}");
    std::process::exit(1);
}

fn main() {
    let args = Args::parse("perfsmoke", PERFSMOKE_FLAGS);
    let Some(path) = args.spec else {
        eprintln!("error: --spec is required");
        eprint!("{}", usage("perfsmoke", PERFSMOKE_FLAGS));
        std::process::exit(2);
    };
    let wire = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| WireSpec::parse(&text))
        .unwrap_or_else(|e| {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        });
    let run = wire.to_experiment_spec().serial().run();
    let pclocks = run.total_pclocks();
    println!(
        "spec {}: {} cells, {pclocks} pclocks in {:.2}s",
        wire.name,
        run.cells.len(),
        run.gen_seconds + run.sim_seconds
    );
    let manifest = run.write_manifest().expect("write run manifest");
    println!("manifest: {}", manifest.display());
    if args.check {
        let parsed = validate_manifest(&manifest)
            .unwrap_or_else(|e| fail(format!("manifest {}: {e}", manifest.display())));
        if parsed.total_pclocks != pclocks {
            fail(format!(
                "manifest records {} pclocks but this run simulated {pclocks}",
                parsed.total_pclocks
            ));
        }
        println!(
            "check OK: manifest validates ({} cells)",
            parsed.cells.len()
        );
    }
}
