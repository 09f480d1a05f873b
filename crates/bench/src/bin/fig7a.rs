//! Fig. 7a: Apache maximum throughput vs content size, STLS-native vs
//! LibSEAL (no auditing), non-persistent connections.
//!
//! Paper shape: 23-25% overhead for tiny content (handshake-bound),
//! falling to ~1% at 100 MB where the transfer dominates.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin fig7a
//! ```

use libseal_bench::*;

fn main() {
    let configs = [BenchConfig::Native, BenchConfig::Process];
    let mut sizes: Vec<usize> = vec![0, 1 << 10, 10 << 10, 64 << 10, 512 << 10, 1 << 20];
    if full_sweep() {
        sizes.extend([10 << 20, 100 << 20]);
    }
    let mut rows = Vec::new();
    for size in sizes {
        let r = repeat(configs.len(), |i| {
            Scenario::paper(App::Static, configs[i], 4)
                .new_connections(size)
                .run()
        });
        rows.push(vec![
            human_size(size),
            r.of(0, req_s).cell(0),
            r.of(1, req_s).cell(0),
            r.vs(1, 0, req_s).pct_cell(),
        ]);
    }
    print_table(
        "Fig 7a: Apache throughput vs content size (non-persistent connections)",
        &[
            "content",
            "Apache-LibreSSL (req/s)",
            "Apache-LibSEAL (req/s)",
            "overhead (paired)",
        ],
        &rows,
    );
    println!("\npaper shape: ~23-25% overhead at small sizes, ~1-2% at very large sizes");
}
