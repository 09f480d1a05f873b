//! Tab. 2: Apache throughput with vs without asynchronous enclave
//! calls, across content sizes.
//!
//! Paper shape: async calls improve throughput by ≥57%, with larger
//! gains (≈2×) for bigger content where more ocalls are saved.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin table2
//! ```

use libseal_bench::*;

fn main() {
    let workers = 8;
    let mut rows = vec![
        vec!["No async. calls".to_string()],
        vec!["With async. calls".to_string()],
        vec!["Improvement (paired)".to_string()],
        vec!["Synchronous transitions per request".to_string()],
    ];
    for size in [0, 1 << 10, 10 << 10, 64 << 10] {
        let r = repeat(2, |i| {
            let runtime = [None, Some(paper_runtime(workers))][i].clone();
            Scenario::paper_calls(App::Static, BenchConfig::Process, workers, runtime)
                .new_connections(size)
                .run()
        });
        let transitions = |p: &Point| p.per_request(p.counts.ecalls + p.counts.ocalls);
        rows[0].push(r.of(0, req_s).cell(0));
        rows[1].push(r.of(1, req_s).cell(0));
        rows[2].push(r.vs(1, 0, req_s).pct_cell());
        let (sync, asynchronous) = (r.of(0, transitions), r.of(1, transitions));
        rows[3].push(format!("{:.1} → {:.1}", sync.median, asynchronous.median));
    }
    print_table(
        "Tab 2: Apache throughput (req/s) with LibSEAL, sync vs async enclave calls",
        &["configuration", "0 Byte", "1 KB", "10 KB", "64 KB"],
        &rows,
    );
    println!("\npaper shape: async >= +57% everywhere, growing with content size");
}
