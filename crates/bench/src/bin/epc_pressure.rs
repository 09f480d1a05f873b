//! EPC-pressure ablation (§2.5): enclave memory beyond the EPC limit
//! pays paging costs.
//!
//! The audit log lives inside the enclave; if it outgrew the ~93 MB
//! usable EPC, every query would start swapping 4 KB pages at high
//! cost. This binary sweeps an in-enclave working set across the EPC
//! limit and measures touch throughput, showing the cliff — and why
//! LibSEAL's log trimming (§5.1) matters beyond disk usage.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin epc_pressure
//! ```

use std::time::Instant;

use libseal_bench::{print_table, repeat};
use libseal_sgxsim::cost::CostModel;
use libseal_sgxsim::enclave::EnclaveBuilder;

fn main() {
    // A small EPC so the sweep is quick; the ratio to the limit is
    // what matters.
    let limit: u64 = 16 * 1024 * 1024;
    let model = CostModel {
        epc_limit_bytes: limit,
        ..CostModel::default()
    };
    let enclave = EnclaveBuilder::new(b"epc-pressure")
        .cost_model(model)
        .build(|_| ());

    let touch_bytes: u64 = 256 * 1024;
    let fractions = [25u64, 50, 75, 100, 110, 125, 150, 200];
    // (touch MB/s, page swaps) at each working-set size.
    let r = repeat(fractions.len(), |i| {
        let working_set = limit * fractions[i] / 100;
        enclave
            .ecall("alloc", |_, sv| {
                let cur = sv.epc_resident();
                if working_set > cur {
                    sv.epc_alloc(working_set - cur);
                } else {
                    sv.epc_free(cur - working_set);
                }
            })
            .unwrap();
        enclave.services().stats().reset();
        let iters = 200u64;
        let t0 = Instant::now();
        enclave
            .ecall("touch", |_, sv| {
                for _ in 0..iters {
                    sv.epc_touch(touch_bytes);
                }
            })
            .unwrap();
        let elapsed = t0.elapsed();
        let mbps = (touch_bytes * iters) as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64();
        (mbps, enclave.services().stats().snapshot().epc_page_swaps)
    });
    let rows: Vec<Vec<String>> = (0..fractions.len())
        .map(|i| {
            vec![
                format!("{}%", fractions[i]),
                format!(
                    "{:.1}",
                    (limit * fractions[i] / 100) as f64 / (1024.0 * 1024.0)
                ),
                r.of(i, |t| t.0).cell(0),
                r.of(i, |t| t.1 as f64).cell(0),
            ]
        })
        .collect();
    print_table(
        "EPC pressure: in-enclave touch throughput vs working-set size (16 MB EPC)",
        &[
            "working set / EPC",
            "working set (MB)",
            "touch MB/s",
            "page swaps while touching",
        ],
        &rows,
    );
    println!(
        "\nreading: throughput collapses once the working set exceeds the EPC — \
         the §2.5 paging cliff that makes log trimming (§5.1) a performance \
         feature, not just a disk-space one."
    );
}
