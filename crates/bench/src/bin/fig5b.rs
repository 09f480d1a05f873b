//! Fig. 5b: ownCloud latency vs throughput (native, LibSEAL-mem,
//! LibSEAL-disk).
//!
//! Paper anchors: 115 → 100 req/s (-13%); disk adds nothing on top of
//! mem because the PHP engine is the bottleneck.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin fig5b
//! ```

use libseal_bench::*;

fn main() {
    let configs = [BenchConfig::Native, BenchConfig::Mem, BenchConfig::Disk];
    let clients: &[usize] = if full_sweep() {
        &[1, 2, 4, 8, 16]
    } else {
        &[1, 4, 8]
    };
    // One worker per persistent client (see fig5a).
    let workers = *clients.iter().max().unwrap();
    let r = repeat(clients.len() * configs.len(), |i| {
        Scenario {
            clients: clients[i / configs.len()],
            ..Scenario::paper(App::OwnCloud, configs[i % configs.len()], workers)
        }
        .run()
    });
    print_load_curve(
        "Fig 5b: ownCloud latency vs throughput (document edit workload)",
        &configs.map(|c| c.label()),
        clients,
        &r,
    );
    println!("\npaper anchors: -13% for mem; disk ≈ mem (PHP engine is the bottleneck)");
}
