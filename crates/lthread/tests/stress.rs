//! Stress tests for the coroutine and async-call runtime: many tasks,
//! deep interleavings, shutdown under load.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use libseal_lthread::{AsyncRuntime, Coroutine, Resume, RuntimeConfig};
use libseal_sgxsim::cost::CostModel;
use libseal_sgxsim::enclave::EnclaveBuilder;

#[test]
fn hundred_coroutines_with_interleaved_yields() {
    const N: usize = 100;
    const ROUNDS: u64 = 25;
    let counter = Arc::new(AtomicU64::new(0));
    let mut coros: Vec<Coroutine> = (0..N)
        .map(|_| {
            let c = Arc::clone(&counter);
            Coroutine::new(32 * 1024, move |y| {
                for _ in 0..ROUNDS {
                    c.fetch_add(1, Ordering::Relaxed);
                    y.yield_now();
                }
            })
        })
        .collect();
    let mut done = 0;
    while done < N {
        done = 0;
        for co in coros.iter_mut() {
            if co.is_finished() || co.resume() == Resume::Finished {
                done += 1;
            }
        }
    }
    assert_eq!(counter.load(Ordering::Relaxed), (N as u64) * ROUNDS);
}

#[test]
fn coroutine_stack_isolation() {
    // Each coroutine fills a large local buffer with its own pattern
    // and verifies it after other coroutines have run: stacks must not
    // bleed into each other.
    const N: usize = 16;
    let ok = Arc::new(AtomicU64::new(0));
    let mut coros: Vec<Coroutine> = (0..N)
        .map(|i| {
            let ok = Arc::clone(&ok);
            Coroutine::new(64 * 1024, move |y| {
                let pattern = i as u8;
                let mut buf = [0u8; 8 * 1024];
                for b in buf.iter_mut() {
                    *b = pattern;
                }
                y.yield_now();
                // After every other coroutine ran, the stack must be
                // intact.
                if buf.iter().all(|b| *b == pattern) {
                    ok.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for co in coros.iter_mut() {
        assert_eq!(co.resume(), Resume::Yielded);
    }
    for co in coros.iter_mut() {
        assert_eq!(co.resume(), Resume::Finished);
    }
    assert_eq!(ok.load(Ordering::Relaxed), N as u64);
}

#[test]
fn runtime_survives_rapid_start_shutdown() {
    for _ in 0..5 {
        let enclave = Arc::new(
            EnclaveBuilder::new(b"stress")
                .cost_model(CostModel::free())
                .tcs_count(8)
                .build(|_| ()),
        );
        let rt = AsyncRuntime::start(
            enclave,
            RuntimeConfig {
                sgx_threads: 2,
                lthreads_per_thread: 4,
                slots: 2,
                stack_size: 64 * 1024,
            },
        )
        .unwrap();
        for i in 0..20u64 {
            let out = rt.async_ecall((i % 2) as usize, move |_, _, _| i * 2);
            assert_eq!(out, i * 2);
        }
        rt.shutdown();
    }
}

#[test]
fn heavy_ocall_chatter() {
    let enclave = Arc::new(
        EnclaveBuilder::new(b"chatter")
            .cost_model(CostModel::free())
            .tcs_count(8)
            .build(|_| ()),
    );
    let rt = AsyncRuntime::start(
        enclave,
        RuntimeConfig {
            sgx_threads: 2,
            lthreads_per_thread: 8,
            slots: 4,
            stack_size: 64 * 1024,
        },
    )
    .unwrap();
    let rt = Arc::new(rt);
    let mut handles = Vec::new();
    for slot in 0..4usize {
        let rt = Arc::clone(&rt);
        handles.push(std::thread::spawn(move || {
            for i in 0..30u64 {
                let total = rt.async_ecall(slot, move |_, _, port| {
                    let mut acc = 0u64;
                    for k in 0..8u64 {
                        acc += port.ocall("chat", move || i + k);
                    }
                    acc
                });
                assert_eq!(total, 8 * i + 28);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let snap = rt.enclave().services().stats().snapshot();
    assert_eq!(snap.async_ocalls, 4 * 30 * 8);
}
