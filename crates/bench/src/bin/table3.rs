//! Tab. 3: asynchronous enclave calls while varying the number of SGX
//! worker threads (48 lthread tasks per thread, 1 KB content).
//!
//! Paper shape: throughput grows with SGX threads until the CPU
//! saturates (3 threads on the paper's 4-core box), then declines from
//! contention.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin table3
//! ```

use libseal_bench::*;
use libseal_lthread::RuntimeConfig;

fn main() {
    print_runtime_sweep(
        "Tab 3: async enclave calls, varying #SGX threads (48 lthreads/thread, 1 KB)",
        "#SGX threads",
        &[1, 2, 3, 4],
        |paper, sgx_threads| RuntimeConfig {
            sgx_threads,
            ..paper
        },
    );
    println!("\npaper shape: rises to a peak at ~3 threads (CPU saturation), then dips");
}
