//! The job pool is event-driven: carriers with nothing to run sleep on
//! the queue (no CPU), and a spawned job starts one wake-up later, not
//! one poll interval later.
//!
//! These measure *process* CPU time, so they live in their own test
//! binary and take turns on one lock: nothing else may run meanwhile.

use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use libseal_lthread::{JobPool, PoolConfig};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// utime + stime of this process from `/proc/self/stat` (fields 14 and
/// 15, USER_HZ = 100 ticks a second; the command name may hold spaces,
/// so count from the closing parenthesis).
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    let after = stat.rsplit(')').next().expect("comm field");
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("tick count"))
        .sum();
    Duration::from_millis(ticks * 10)
}

fn cpu_over(window: Duration) -> Duration {
    let before = process_cpu();
    std::thread::sleep(window);
    process_cpu() - before
}

fn two_carriers() -> JobPool {
    JobPool::new(PoolConfig { carriers: 2 })
}

const WINDOW: Duration = Duration::from_millis(300);
const BUDGET: Duration = Duration::from_millis(30);

#[test]
fn idle_pool_uses_no_cpu() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let pool = two_carriers();
    // Let both carriers finish their first sweep and go to sleep.
    std::thread::sleep(Duration::from_millis(20));
    let used = cpu_over(WINDOW);
    assert!(used < BUDGET, "idle pool burned {used:?} in {WINDOW:?}");
    pool.shutdown();
}

#[test]
fn parked_job_does_not_make_the_other_carrier_spin() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let pool = two_carriers();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    pool.spawn(move || {
        parked_tx.send(()).unwrap();
        // Sleeps in the kernel, as a job in the group-commit barrier
        // does; in flight the whole time.
        let _ = gate_rx.recv_timeout(Duration::from_secs(30));
    })
    .unwrap();
    parked_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the job starts");
    assert_eq!(pool.in_flight(), 1);
    let used = cpu_over(WINDOW);
    assert!(
        used < BUDGET,
        "a carrier swept while a job was parked: {used:?} of CPU in {WINDOW:?}"
    );
    gate_tx.send(()).unwrap();
    pool.shutdown();
}

#[test]
fn job_spawned_into_an_idle_pool_starts_promptly() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // One carrier, and gaps that drift across any fixed period, so a
    // carrier that naps instead of sleeping on the queue cannot happen
    // to be awake each time.
    let pool = JobPool::new(PoolConfig { carriers: 1 });
    let (started_tx, started_rx) = mpsc::channel::<Instant>();
    let mut waits: Vec<Duration> = (0..200u64)
        .map(|i| {
            // Idle means asleep: give the carrier time to get there.
            std::thread::sleep(Duration::from_micros(300 + i * 37 % 500));
            let tx = started_tx.clone();
            let spawned = Instant::now();
            pool.spawn(move || tx.send(Instant::now()).unwrap())
                .unwrap();
            started_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the job runs")
                .duration_since(spawned)
        })
        .collect();
    waits.sort_unstable();
    let median = waits[waits.len() / 2];
    assert!(
        median < Duration::from_micros(250),
        "median spawn-to-start {median:?} (p90 {:?})",
        waits[waits.len() * 9 / 10]
    );
    pool.shutdown();
}
