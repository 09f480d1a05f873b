//! Printing results, and the two modes that run every workload in a
//! fresh process each: `--workload all` and the `--sets` noise study.

use std::collections::BTreeMap;
use std::process::Command;

use libseal_httpx::json::Json;

use crate::stats::{median_f64, spread};
use crate::workload::{Outcome, NAMES};

/// Prints every metric by name with its unit, then, as the last line
/// of standard output, the result object the driver reads.
pub fn print_outcome(name: &str, outcome: &Outcome) {
    println!("workload {name}");
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for problem in &outcome.problems {
        println!("  FAILED: {problem}");
    }
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<36} {:>16.6} share ({} failed of {} attempted)",
        "fail_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

/// The parsed result line of a child run.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a fresh process, echoes what it printed, and
/// parses its result line.
fn run_child(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().expect("own path");
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("child process runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let result = Json::parse(stdout.lines().last()?).ok()?;
    let Json::Object(metrics) = result.get("metrics")? else {
        return None;
    };
    Some(ChildResult {
        correct: output.status.success() && result.get("correct")?.as_bool()?,
        metrics: metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn selected(which: &str) -> Vec<&'static str> {
    NAMES
        .into_iter()
        .filter(|n| which == "all" || *n == which)
        .collect()
}

/// Every workload, untraced and then traced, each in its own process.
pub fn run_all(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    for name in NAMES {
        for trace in [false, true] {
            ok &= run_child(name, seed, seconds, trace).is_some_and(|r| r.correct);
        }
    }
    ok
}

/// The noise study: `sets` untraced runs of each selected workload,
/// each set with its own seed and its own invocation order, then min,
/// median, max, interquartile spread and the largest distance between
/// two sets for every metric.
pub fn run_sets(which: &str, sets: usize, seed: u64, seconds: f64) -> bool {
    let names = selected(which);
    let mut ok = true;
    let mut table: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        let mut order = names.clone();
        order.rotate_left(set % names.len());
        if set % 2 == 1 {
            order.reverse();
        }
        for name in order {
            match run_child(name, seed + set as u64, seconds, false) {
                Some(result) => {
                    ok &= result.correct;
                    for (metric, value) in result.metrics {
                        table.entry((name, metric)).or_default().push(value);
                    }
                }
                None => ok = false,
            }
        }
    }
    println!(
        "\nnoise over {sets} sets (seeds {seed}..{})",
        seed + sets as u64 - 1
    );
    println!(
        "{:<26} {:<16} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "workload", "metric", "min", "median", "max", "iqr/med", "range/med"
    );
    for ((name, metric), values) in &table {
        let (min, max) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        let median = median_f64(values);
        let iqr = if values.len() >= 2 {
            spread(values)
        } else {
            0.0
        };
        println!(
            "{name:<26} {metric:<16} {min:>12.4} {median:>12.4} {max:>12.4} {:>8.1}% {:>8.1}%",
            iqr * 100.0,
            (max - min) / median * 100.0
        );
    }
    ok
}
