//! Fig. 5a: Git service latency vs throughput under increasing client
//! load, across the four configurations (native, LibSEAL-process,
//! LibSEAL-mem, LibSEAL-disk).
//!
//! Paper anchors: native peaks at 491 req/s; -process 472 (-4%);
//! -mem 452 (-8%); -disk 425 (-14%).
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin fig5a
//! ```

use libseal_bench::*;

fn main() {
    let configs = [
        BenchConfig::Native,
        BenchConfig::Process,
        BenchConfig::Mem,
        BenchConfig::Disk,
    ];
    let clients: &[usize] = if full_sweep() {
        &[1, 2, 4, 8, 16, 32]
    } else {
        &[1, 4, 8, 16]
    };
    // Persistent connections pin a worker each; provision one worker
    // per client so the load generator is never admission-limited.
    let workers = *clients.iter().max().unwrap();
    let r = repeat(clients.len() * configs.len(), |i| {
        Scenario {
            clients: clients[i / configs.len()],
            ..Scenario::paper(App::Git, configs[i % configs.len()], workers)
        }
        .run()
    });
    print_load_curve(
        "Fig 5a: Git latency vs throughput (replayed commit workload)",
        &configs.map(|c| c.label()),
        clients,
        &r,
    );
    println!("\npaper anchors: process -4%, mem -8%, disk -14% vs native");
}
