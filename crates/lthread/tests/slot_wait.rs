//! How an application thread waits on its §4.3 call slot: it yields
//! for a short spin budget (50 µs), then parks until whoever fills the
//! slot unparks it. A parked caller burns no CPU, and no wake-up is
//! lost: `park()` has no timeout that would hide one.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use libseal_lthread::{AsyncRuntime, RuntimeConfig};
use libseal_sgxsim::cost::CostModel;
use libseal_sgxsim::enclave::EnclaveBuilder;

/// Longer than the runtime's spin budget, so every wait on a body
/// holding its lthread this long ends in `park()`.
const PAST_SPIN_BUDGET: Duration = Duration::from_micros(100);

fn runtime(sgx_threads: usize, slots: usize) -> AsyncRuntime<()> {
    let enclave = Arc::new(
        EnclaveBuilder::new(b"slot-wait")
            .cost_model(CostModel::free())
            .tcs_count(8)
            .build(|_| ()),
    );
    let config = RuntimeConfig {
        sgx_threads,
        lthreads_per_thread: 4,
        slots,
        stack_size: 64 * 1024,
    };
    AsyncRuntime::start(enclave, config).unwrap()
}

/// utime + stime of the calling thread from `/proc/thread-self/stat`
/// (fields 14 and 15, USER_HZ = 100 ticks a second; the command name
/// may hold spaces, so count from the closing parenthesis).
fn thread_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("/proc/thread-self/stat");
    let after = stat.rsplit(')').next().expect("comm field");
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("tick count"))
        .sum();
    Duration::from_millis(ticks * 10)
}

#[test]
fn a_parked_waiter_burns_no_cpu() {
    let rt = runtime(1, 1);
    let before = thread_cpu();
    let started = Instant::now();
    rt.async_ecall(0, |_, _, _| std::thread::sleep(Duration::from_millis(300)));
    let used = thread_cpu() - before;
    assert!(started.elapsed() >= Duration::from_millis(300));
    assert!(
        used < Duration::from_millis(30),
        "the caller burned {used:?} of CPU waiting 300 ms for its ecall"
    );
}

#[test]
fn no_wake_up_is_lost() {
    const THREADS: usize = 4;
    const CALLS: u64 = 2_500;
    let rt = Arc::new(runtime(2, THREADS));
    let (done_tx, done_rx) = mpsc::channel();
    for slot in 0..THREADS {
        let (rt, done_tx) = (Arc::clone(&rt), done_tx.clone());
        std::thread::spawn(move || {
            for i in 0..CALLS {
                // Parks before the ocall and again after it: the ocall
                // and the ecall's completion each have to wake it.
                let out = rt.async_ecall(slot, move |_, _, port| {
                    std::thread::sleep(PAST_SPIN_BUDGET);
                    let echoed = port.ocall("echo", move || i);
                    std::thread::sleep(PAST_SPIN_BUDGET);
                    echoed + 1
                });
                assert_eq!(out, i + 1);
            }
            done_tx.send(()).unwrap();
        });
    }
    for _ in 0..THREADS {
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("an application thread hung parked: a wake-up was lost");
    }
    let snap = rt.enclave().services().stats().snapshot();
    assert_eq!(snap.async_ecalls, THREADS as u64 * CALLS);
    assert_eq!(snap.async_ocalls, THREADS as u64 * CALLS);
}
