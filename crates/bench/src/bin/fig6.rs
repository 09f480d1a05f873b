//! Fig. 6: normalized invariant-checking + trimming time as a function
//! of the check interval, for all three services.
//!
//! Paper shape: a U-curve — checking too often pays the fixed pass
//! cost repeatedly; checking too rarely makes each pass expensive
//! because the untrimmed log has grown. Minima at ~25 requests (Git),
//! ~75 (ownCloud) and ~100 (Dropbox).
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin fig6
//! ```

use std::time::{Duration, Instant};

use libseal::log::{LogBacking, NoGuard};
use libseal::{Checker, DropboxModule, GitModule, OwnCloudModule, ServiceModule};
use libseal_bench::*;

const SERVICES: [&str; 3] = ["Git", "ownCloud", "Dropbox"];

fn service(s: usize) -> (Box<dyn ServiceModule>, Box<dyn Pairs>) {
    match s {
        0 => (Box::new(GitModule), Box::<GitPairs>::default()),
        1 => (Box::new(OwnCloudModule), Box::<OwnCloudPairs>::default()),
        _ => (Box::new(DropboxModule), Box::<DropboxPairs>::default()),
    }
}

/// How the checker is driven over the sweep.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Paper's design: a full-scan check and a trim, coupled, every
    /// `interval` requests. Trimming is what keeps checks affordable,
    /// hence the U-curve.
    FullScan,
    /// Delta-maintained views: an incremental check every `interval`
    /// requests, trimming decoupled at a fixed period (every
    /// [`TRIM_EVERY`] requests). With O(rows-touched) checks the trim
    /// period no longer has to track the check period — that is the
    /// point of the re-run.
    Incremental,
}

/// Fixed trim period in [`Mode::Incremental`]: trimming becomes a
/// memory-bound decision (EPC pressure), not a check-cost one.
const TRIM_EVERY: usize = 300;

/// Check + trim time per request, in µs, for one service at one check
/// interval. Fresh pairs AND a fresh log per leg: the generated traffic
/// must be consistent with what this log has seen.
fn run_leg(s: usize, interval: usize, requests: u64, mode: Mode) -> f64 {
    let (ssm, mut pairs) = service(s);
    let ssm = ssm.as_ref();
    let mut log = fresh_log(ssm, LogBacking::Memory, Box::new(NoGuard));
    if mode == Mode::Incremental {
        Checker::install(ssm, &mut log).expect("install views");
    }
    let mut spent = Duration::ZERO;
    let (mut since, mut since_trim) = (0usize, 0usize);
    for _ in 0..requests {
        let (req, rsp) = pairs.next_pair();
        ssm.log_pair(&req, &rsp, &mut log).expect("log");
        since += 1;
        since_trim += 1;
        if since >= interval {
            since = 0;
            let t0 = Instant::now();
            let outcome = match mode {
                Mode::FullScan => Checker::run_checks(ssm, &log).expect("check"),
                Mode::Incremental => Checker::run_checks_incremental(ssm, &mut log).expect("check"),
            };
            assert_eq!(
                outcome.total_violations(),
                0,
                "honest workload must stay clean"
            );
            if mode == Mode::FullScan || since_trim >= TRIM_EVERY {
                since_trim = 0;
                log.trim(ssm.trim_queries()).expect("trim");
            }
            spent += t0.elapsed();
        }
    }
    spent.as_secs_f64() * 1e6 / requests as f64
}

fn main() {
    let intervals = [1usize, 5, 10, 25, 50, 75, 100, 150, 200, 250, 300];
    let requests: u64 = if full_sweep() { 1500 } else { 600 };
    let n = intervals.len();
    // Index = mode major, then service, then interval.
    let r = repeat(2 * SERVICES.len() * n, |i| {
        let mode = [Mode::FullScan, Mode::Incremental][i / (SERVICES.len() * n)];
        run_leg(i / n % SERVICES.len(), intervals[i % n], requests, mode)
    });
    let titles = [
        "Fig 6: normalized invariant checking + trimming time (us per request)".to_string(),
        format!("Fig 6 re-run: incremental checker, trim decoupled (every {TRIM_EVERY} requests)"),
    ];
    for (m, title) in titles.iter().enumerate() {
        let leg = |s: usize, k: usize| (m * SERVICES.len() + s) * n + k;
        let rows: Vec<Vec<String>> = (0..n)
            .map(|k| {
                let cells = (0..SERVICES.len()).map(|s| r.of(leg(s, k), |us| *us).cell(1));
                [vec![intervals[k].to_string()], cells.collect()].concat()
            })
            .collect();
        let headers = [vec!["interval (#requests)"], SERVICES.to_vec()].concat();
        print_table(title, &headers, &rows);
        // The interval with the cheapest median, and where each single
        // repetition put it: a flat arm shows as disagreement.
        println!();
        for (s, name) in SERVICES.iter().enumerate() {
            let cheapest = |cost: &dyn Fn(usize) -> f64| {
                let k = (0..n).min_by(|a, b| cost(*a).total_cmp(&cost(*b)));
                intervals[k.unwrap_or(0)]
            };
            let per_rep: Vec<usize> = (r.reps.iter())
                .map(|rep| cheapest(&|k| rep[leg(s, k)]))
                .collect();
            let median = cheapest(&|k| r.of(leg(s, k), |us| *us).median);
            println!("{name}: cheapest at interval {median} (per repetition: {per_rep:?})");
        }
    }
    println!("\npaper anchors: optimal intervals 25 (Git), 75 (ownCloud), 100 (Dropbox)");
}
