//! §4.3/§6.8 micro-benchmark: the cost of one synchronous ecall as
//! more threads execute inside the enclave.
//!
//! Paper anchors: ~8,500 cycles with one thread, ~170,000 cycles with
//! 48 threads (20×). The simulator charges these costs; this binary
//! measures that the end-to-end wall-clock cost matches the model, and
//! contrasts it with the async slot handoff.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin micro_ecall_cost
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal_bench::*;
use libseal_lthread::{AsyncRuntime, RuntimeConfig};
use libseal_sgxsim::cost::CostModel;
use libseal_sgxsim::enclave::EnclaveBuilder;

fn main() {
    let model = CostModel::default();
    let ghz = model.clock_ghz;
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {parallelism} hardware thread(s)");
    println!(
        "(beyond that thread count, measured wall-clock per call includes OS \
         scheduling on top of the modelled contention)"
    );

    // Synchronous ecall cost under contention: ns per call.
    let thread_counts = [1usize, 2, 4, 8, 16, 32, 48];
    let r = repeat(thread_counts.len(), |i| {
        let threads = thread_counts[i];
        let enclave = EnclaveBuilder::new(b"ecall-cost")
            .cost_model(model.clone())
            .tcs_count(threads as u64 + 2)
            .build(|_| ());
        let stop = AtomicBool::new(false);
        let spin = || {
            let (mut calls, t0) = (0u64, Instant::now());
            while !stop.load(Ordering::Acquire) {
                let _ = enclave.ecall("noop", |_, _| ());
                calls += 1;
            }
            (calls, t0.elapsed())
        };
        let (total_calls, total_time) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(spin)).collect();
            std::thread::sleep(bench_secs().min(Duration::from_secs(1)));
            stop.store(true, Ordering::Release);
            let joined = handles.into_iter().map(|h| h.join().unwrap());
            joined.fold((0, Duration::ZERO), |a, b| (a.0 + b.0, a.1 + b.1))
        });
        total_time.as_nanos() as f64 / total_calls.max(1) as f64
    });
    let rows: Vec<Vec<String>> = (0..thread_counts.len())
        .map(|i| {
            vec![
                thread_counts[i].to_string(),
                r.of(i, |ns| *ns).cell(0),
                r.of(i, |ns| ns * ghz).cell(0),
                model.transition_cycles(thread_counts[i] as u64).to_string(),
            ]
        })
        .collect();
    print_table(
        "§6.8 micro: synchronous ecall cost vs in-enclave thread count",
        &[
            "threads",
            "measured ns/ecall",
            "measured cycles",
            "model cycles",
        ],
        &rows,
    );

    // Async slot handoff for contrast.
    let enclave = Arc::new(
        EnclaveBuilder::new(b"ecall-cost-async")
            .cost_model(model.clone())
            .tcs_count(8)
            .build(|_| ()),
    );
    let rt = AsyncRuntime::start(
        enclave,
        RuntimeConfig {
            sgx_threads: 3,
            lthreads_per_thread: 8,
            slots: 1,
            stack_size: 128 * 1024,
        },
    )
    .unwrap();
    let iters = 5_000u64;
    let handoff = repeat(1, |_| {
        let t0 = Instant::now();
        for _ in 0..iters {
            rt.async_ecall(0, |_, _, _| ());
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    });
    println!(
        "\nasync ecall via slots: {} ns/call ({} cycles) — the §4.3 mechanism \
         replaces the transition with a slot handoff",
        handoff.of(0, |ns| *ns).cell(0),
        handoff.of(0, |ns| ns * ghz).cell(0)
    );
    rt.shutdown();
    println!("\npaper anchors: 8,500 cycles at 1 thread; ~170,000 at 48 (20x)");
}
