//! Tab. 4: asynchronous enclave calls while varying the number of
//! lthread tasks per SGX thread (3 SGX threads, 1 KB content).
//!
//! Paper shape: throughput is flat (~1,700 req/s on their hardware);
//! too few lthreads mainly hurts latency.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin table4
//! ```

use libseal_bench::*;
use libseal_lthread::RuntimeConfig;

fn main() {
    print_runtime_sweep(
        "Tab 4: async enclave calls, varying #lthread tasks per thread (3 SGX threads, 1 KB)",
        "#lthread tasks",
        &[12, 24, 36, 48],
        |paper, lthreads_per_thread| RuntimeConfig {
            lthreads_per_thread,
            ..paper
        },
    );
    println!("\npaper shape: throughput roughly flat; latency worst with too few lthreads");
}
