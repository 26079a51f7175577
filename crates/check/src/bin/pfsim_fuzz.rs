//! Seeded random-trace fuzzer with the consistency oracle attached.
//!
//! Generates contended multi-CPU traces (the `pfsim_workloads::fuzz`
//! generator), runs them under every prefetching scheme with the oracle
//! installed, and — on a violation — delta-debugs the trace down to a
//! minimal repro printed as a ready-to-paste Rust test.
//!
//! Usage:
//!   pfsim-fuzz [--smoke] [--cases N] [--seed HEX] [--inject FAULT]
//!
//!   --smoke        the CI configuration: 200 cases, fixed seed
//!   --cases N      number of random cases (default 50)
//!   --seed HEX     RNG seed (default 0xf002)
//!   --inject FAULT validate the oracle's teeth by injecting a model
//!                  fault (`drop-fetch` or `skip-inval`); the run then
//!                  MUST find and shrink a violation
//!
//! Exit status: 0 = expectation met (clean, or — with --inject — caught
//! and shrunk), 1 = unexpected outcome.

use pfsim_check::{
    emit_repro, run_with_fault, shrink, total_ops, FaultInjection, FuzzCase, SMOKE_CASES,
    SMOKE_SEED,
};
use pfsim_mem::SplitMix64;

struct Args {
    cases: usize,
    seed: u64,
    fault: FaultInjection,
}

fn parse_args() -> Result<Args, String> {
    let mut cases = 50usize;
    let mut seed = 0xf002u64;
    let mut fault = FaultInjection::None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                cases = SMOKE_CASES;
                seed = SMOKE_SEED;
            }
            "--cases" => {
                let v = it.next().ok_or("--cases needs a value")?;
                cases = v.parse().map_err(|_| format!("bad --cases {v}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                let v = v.trim_start_matches("0x");
                seed = u64::from_str_radix(v, 16).map_err(|_| format!("bad --seed {v}"))?;
            }
            "--inject" => {
                let v = it.next().ok_or("--inject needs a value")?;
                fault = match v.as_str() {
                    "drop-fetch" => FaultInjection::DropFetchData,
                    "skip-inval" => FaultInjection::SkipInvalidate,
                    other => return Err(format!("unknown fault {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args { cases, seed, fault })
}

fn run_case(case: &FuzzCase, ops: &[Vec<(u8, u16)>], fault: FaultInjection) -> (bool, Vec<String>) {
    let report = run_with_fault(case.config(), case.workload(ops), fault);
    (report.ok, report.violations)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pfsim-fuzz: {e}");
            std::process::exit(1);
        }
    };

    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let mut reads = 0u64;
    for i in 0..args.cases {
        let case = FuzzCase::draw(&mut rng, i);
        let report = run_with_fault(case.config(), case.workload(&case.ops), args.fault);
        reads += report.reads_checked;
        if !report.ok {
            eprintln!(
                "case {i} (scheme {:?}, finite_slc {}, {} ops): {} violation(s)",
                case.scheme,
                case.finite_slc,
                total_ops(&case.ops),
                report.violations.len()
            );
            for v in report.violations.iter().take(5) {
                eprintln!("  {v}");
            }
            eprintln!("shrinking...");
            let shrunk = shrink(case.ops.clone(), &mut |m| !run_case(&case, m, args.fault).0);
            eprintln!("shrunk to {} ops; repro:\n", total_ops(&shrunk));
            let fault_expr = match args.fault {
                FaultInjection::None => "FaultInjection::None",
                FaultInjection::DropFetchData => "FaultInjection::DropFetchData",
                FaultInjection::SkipInvalidate => "FaultInjection::SkipInvalidate",
            };
            println!(
                "{}",
                emit_repro(
                    &shrunk,
                    case.blocks,
                    case.locks,
                    &format!("Scheme::{:?}", case.scheme),
                    fault_expr,
                )
            );
            // With an injected fault, catching + shrinking is the goal.
            std::process::exit(if args.fault == FaultInjection::None {
                1
            } else {
                0
            });
        }
    }

    if args.fault != FaultInjection::None {
        eprintln!(
            "pfsim-fuzz: injected fault {:?} was NOT caught in {} cases — the oracle is blind",
            args.fault, args.cases
        );
        std::process::exit(1);
    }
    println!(
        "pfsim-fuzz: {} cases clean ({} reads checked, seed {:#x})",
        args.cases, reads, args.seed
    );
}
