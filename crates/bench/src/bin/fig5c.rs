//! Fig. 5c: Dropbox request latency (commit_batch and list) through a
//! Squid proxy, across native / LibSEAL-mem / LibSEAL-disk.
//!
//! Paper anchors: commit_batch median 363 ms native, 370 ms mem,
//! 377 ms disk — marginal increases over a 76 ms WAN floor.
//!
//! The latency shown is the mean of each run: the load generator's
//! quantiles come from buckets 1/16 wide, ±5 ms at this floor, which
//! is more than the whole effect.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin fig5c
//! ```

use libseal_bench::*;

fn main() {
    let configs = [BenchConfig::Native, BenchConfig::Mem, BenchConfig::Disk];
    let messages = [
        ("commit_batch", Stream::DropboxCommit),
        ("list", Stream::DropboxList),
    ];
    // One client on one connection, as the Drago et al. benchmark the
    // paper replays: latency, not throughput, is the figure.
    let r = repeat(configs.len() * messages.len(), |i| {
        Scenario {
            topology: Topology::Squid,
            clients: 1,
            stream: messages[i % 2].1,
            ..Scenario::paper(App::Dropbox, configs[i / 2], 2)
        }
        .run()
    });
    let rows: Vec<Vec<String>> = (0..configs.len() * messages.len())
        .map(|i| {
            let vs_native = match i / 2 {
                0 => "-".to_string(),
                _ => r.vs(i, i % 2, mean_ms).pct_cell(),
            };
            vec![
                configs[i / 2].label().to_string(),
                messages[i % 2].0.to_string(),
                r.of(i, mean_ms).cell(1),
                vs_native,
            ]
        })
        .collect();
    print_table(
        "Fig 5c: Dropbox latency through Squid (76 ms WAN floor)",
        &[
            "config",
            "message",
            "mean latency (ms)",
            "vs native (paired)",
        ],
        &rows,
    );
    println!(
        "\npaper anchors: medians 363/370/377 ms for commit_batch — LibSEAL adds only a \
         few ms over the WAN floor"
    );
}
