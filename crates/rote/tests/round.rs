//! What a round costs and what it guarantees when callers race.
//!
//! No test here arms a failpoint, so none opens a scenario; the
//! fault-injected cases are in `quorum.rs`, a binary of its own.

use std::collections::BTreeSet;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use libseal_rote::{Cluster, ClusterConfig};

#[test]
fn concurrent_increments_return_distinct_values() {
    const THREADS: usize = 4;
    const EACH: usize = 2_000;
    let c = Cluster::new(1, Duration::ZERO, b"race").unwrap();
    let start = Barrier::new(THREADS);
    let values: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    (0..EACH)
                        .map(|_| c.increment().unwrap().0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    let distinct: BTreeSet<u64> = values.iter().copied().collect();
    assert_eq!(distinct.len(), THREADS * EACH, "a value was bound twice");
    assert_eq!(c.current(), (THREADS * EACH) as u64);
}

#[test]
fn recovery_never_steps_the_local_value_back_under_increments() {
    let c = Cluster::new(1, Duration::ZERO, b"race").unwrap();
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for _ in 0..2_000 {
                c.increment().unwrap();
            }
        });
        start.wait();
        let mut last = 0;
        for _ in 0..2_000 {
            let v = c.recover().unwrap();
            assert!(v >= last, "recovered {v} after {last}");
            assert!(c.current() >= v);
            last = v;
        }
    });
    assert_eq!(c.current(), 2_000);
}

#[test]
fn read_round_waits_one_deadline_for_a_slow_node_and_ranks_the_rest() {
    let mut cfg = ClusterConfig::new(1);
    cfg.deadline = Duration::from_millis(100);
    let c = Cluster::with_config(cfg, b"read").unwrap();
    for (node, value) in [(0, 3), (1, 4), (2, 5), (3, 9)] {
        c.node(node).increment_to(b"read", value).unwrap();
    }
    c.node(3).set_latency(Duration::from_millis(300));
    let start = Instant::now();
    // Of [5, 4, 3] the f+1-th highest is 4; had the late 9 counted it
    // would be 5.
    assert_eq!(c.recover().unwrap(), 4);
    let elapsed = start.elapsed();
    assert!(elapsed >= Duration::from_millis(100), "{elapsed:?}");
    assert!(
        elapsed < Duration::from_millis(250),
        "{elapsed:?}: waited for the slow node, or retried with a quorum in hand"
    );
}

#[test]
fn quorum_pays_its_slowest_member_not_the_slowest_node() {
    let c = Cluster::new(1, Duration::ZERO, b"mixed").unwrap();
    for (node, ms) in [(0, 80), (1, 20), (2, 300), (3, 40)] {
        c.node(node).set_latency(Duration::from_millis(ms));
    }
    let start = Instant::now();
    let (_, acks) = c.increment().unwrap();
    let elapsed = start.elapsed();
    let from: Vec<usize> = acks.iter().map(|a| a.node).collect();
    assert_eq!(from, [1, 3, 0], "acks in arrival order, up to quorum");
    assert!(elapsed >= Duration::from_millis(80), "{elapsed:?}");
    assert!(
        elapsed < Duration::from_millis(140),
        "{elapsed:?}: the quorum's latencies were paid one after another"
    );
}
