//! Fig. 7c: multi-core scalability — throughput of Apache and Squid
//! (native and LibSEAL) as the number of server worker threads grows
//! from 1 to 4.
//!
//! Paper shape: near-linear scaling for all four configurations.
//!
//! **Host caveat**: on a machine with fewer cores than workers the
//! curve flattens — the binary prints the detected parallelism so the
//! reader can judge (the paper itself stopped at 4 cores for the same
//! reason). The load generator's client threads share those cores.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin fig7c
//! ```

use libseal_bench::*;

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {cores} hardware thread(s)");
    let lines = [
        ("Apache-LibreSSL", Topology::Apache, BenchConfig::Native),
        ("Apache-LibSEAL", Topology::Apache, BenchConfig::Process),
        ("Squid-LibreSSL", Topology::Squid, BenchConfig::Native),
        ("Squid-LibSEAL", Topology::Squid, BenchConfig::Process),
    ];
    // Index = worker count major, line minor: the four lines of one
    // worker count run back to back.
    let r = repeat(4 * lines.len(), |i| {
        let (_, topology, config) = lines[i % lines.len()];
        Scenario {
            topology,
            ..Scenario::paper(App::Static, config, i / lines.len() + 1).new_connections(1024)
        }
        .run()
    });
    let rows: Vec<Vec<String>> = (0..4)
        .map(|w| {
            let cell = |l: usize| {
                // Speed-up over the same line's 1-worker point, paired.
                let speedup = r.spread(|rep| rep[w * 4 + l].req_s / rep[l].req_s);
                format!("{} ×{:.2}", r.of(w * 4 + l, req_s).cell(0), speedup.median)
            };
            [vec![(w + 1).to_string()], (0..4).map(cell).collect()].concat()
        })
        .collect();
    let headers = [vec!["#workers"], lines.map(|l| l.0).to_vec()].concat();
    print_table(
        "Fig 7c: throughput (req/s, × the 1-worker point) vs #cores (worker threads)",
        &headers,
        &rows,
    );
    println!("\npaper shape: near-linear growth for all four lines up to 4 cores");
}
