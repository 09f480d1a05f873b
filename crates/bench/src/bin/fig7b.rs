//! Fig. 7b: Squid proxy latency vs throughput at 1 KB content,
//! STLS-native vs LibSEAL.
//!
//! Paper anchors: 850 → 590 req/s (-31%); the proxy's two TLS legs
//! double the handshake and crypto work, amplifying the enclave tax.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin fig7b
//! ```

use libseal_bench::*;

fn main() {
    let configs = [BenchConfig::Native, BenchConfig::Process];
    let clients: &[usize] = if full_sweep() {
        &[1, 2, 4, 8, 16]
    } else {
        &[1, 4, 8]
    };
    let r = repeat(clients.len() * configs.len(), |i| {
        Scenario {
            topology: Topology::Squid,
            // A fresh client connection means two handshakes.
            clients: clients[i / configs.len()],
            ..Scenario::paper(App::Static, configs[i % configs.len()], 4).new_connections(1024)
        }
        .run()
    });
    print_load_curve(
        "Fig 7b: Squid latency vs throughput (1 KB content, non-persistent)",
        &["Squid-LibreSSL", "Squid-LibSEAL"],
        clients,
        &r,
    );
    println!("\npaper anchors: 850 vs 590 req/s (-31%) — larger than Apache's overhead");
}
