//! The LibSEAL benchmark: five workloads, end-to-end metrics with
//! tracing off, and a per-layer stage trace with tracing on.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload git_keepalive --seed 1 --seconds 30 --trace 0
//! ```
//!
//! See `benchmark/README.md` for every metric and workload.

mod counters;
mod gen;
mod host;
mod load;
mod readback;
mod report;
mod serving;
mod span;
mod stages;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: the timed share of one run.
pub const RUN_SECONDS: f64 = 30.0;

/// Where journals and traces go: inside the checkout the binary was
/// built from, never anywhere else.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
    dir
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: Option<usize>,
}

const USAGE: &str = "usage: libseal-benchmark --workload <name|all> [--seed <u64>] \
[--seconds <s>] [--trace <0|1>] [--smoke] [--sets <k>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        sets: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.seconds = RUN_SECONDS / 20.0;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("seconds in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--sets" => args.sets = Some(value.parse().map_err(|_| bad("a count"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.sets.is_some() && args.workload.is_empty() {
        args.workload = "all".to_string();
    }
    let known = args.workload == "all" || workload::NAMES.contains(&args.workload.as_str());
    if !known {
        return Err(format!(
            "--workload must be `all` or one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.sets, args.workload.as_str()) {
        (Some(sets), which) => report::run_sets(which, sets, args.seed, args.seconds),
        (None, "all") => report::run_all(args.seed, args.seconds),
        (None, name) => {
            let outcome = workload::run(name, args.seed, args.seconds, args.trace);
            report::print_outcome(name, &outcome);
            outcome.correct()
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
