//! Fault-injected quorum protocol tests.
//!
//! Every test opens a `plat::failpoint::scenario()` first: the
//! scenario is a global lock, so these tests serialize against each
//! other (and against any other fault-injected suite in this process)
//! instead of corrupting each other's armed faults.

use std::time::Duration;

use libseal_rote::{Cluster, ClusterConfig, RoteError};
use plat::failpoint::{self, FaultSpec};

fn fast_config(f: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(f);
    cfg.deadline = Duration::from_millis(200);
    cfg.backoff = Duration::from_millis(1);
    cfg
}

#[test]
fn dropped_node_messages_within_f_are_tolerated() {
    let s = failpoint::scenario();
    let c = Cluster::with_config(fast_config(1), b"q").unwrap();
    // Drop exactly one node's delivery in the round: 3 of 4 ack.
    s.set("rote::node::deliver", FaultSpec::error().times(1));
    let (v, acks) = c.increment().unwrap();
    assert_eq!(v, 1);
    assert_eq!(s.hits("rote::node::deliver"), 4, "every node was asked");
    // The drop cost exactly one ack: node 0 never saw the request, the
    // other three stored it and acknowledged.
    let from: Vec<usize> = acks.iter().map(|a| a.node).collect();
    assert_eq!(from, [1, 2, 3]);
    let stored = |i: usize| c.node(i).read(b"q").unwrap().value;
    assert_eq!([stored(0), stored(1), stored(2), stored(3)], [0, 1, 1, 1]);
    // Each further round asks every node again.
    c.increment().unwrap();
    assert_eq!(s.hits("rote::node::deliver"), 8);
}

#[test]
fn lost_round_is_retried_until_quorum() {
    let s = failpoint::scenario();
    let c = Cluster::with_config(fast_config(1), b"q").unwrap();
    // The first whole round vanishes (e.g. a network partition); the
    // retry goes through.
    s.set("rote::round", FaultSpec::error().times(1));
    let (v, acks) = c.increment().unwrap();
    assert_eq!(v, 1);
    assert!(acks.len() >= c.quorum());
    assert_eq!(s.hits("rote::round"), 2, "one failed round + one retry");
}

#[test]
fn failstop_reports_no_quorum_when_every_round_is_lost() {
    let s = failpoint::scenario();
    let mut cfg = fast_config(1);
    cfg.retries = 1;
    let c = Cluster::with_config(cfg, b"q").unwrap();
    s.set("rote::round", FaultSpec::error());
    match c.increment() {
        Err(RoteError::NoQuorum { acks, needed }) => {
            assert_eq!(acks, 0);
            assert_eq!(needed, 3);
        }
        other => panic!("expected NoQuorum, got {other:?}"),
    }
    assert_eq!(c.current(), 0, "local value must not advance");
    assert_eq!(s.hits("rote::round"), 2, "initial round + 1 retry");
}

#[test]
fn total_message_loss_stops_increments_until_messages_flow() {
    let s = failpoint::scenario();
    let mut cfg = fast_config(1);
    cfg.retries = 0;
    let c = Cluster::with_config(cfg, b"q").unwrap();
    s.set("rote::node::deliver", FaultSpec::error());
    assert!(matches!(
        c.increment(),
        Err(RoteError::NoQuorum { acks: 0, .. })
    ));
    assert_eq!(c.current(), 0, "no value is granted without a quorum");
    // Messages flow again: the next increment binds the value the
    // failed one did not take.
    s.unset("rote::node::deliver");
    let (v, acks) = c.increment().unwrap();
    assert_eq!(v, 1);
    assert!(acks.len() >= c.quorum());
}

#[test]
fn slow_nodes_miss_the_deadline_but_quorum_proceeds() {
    let _s = failpoint::scenario();
    let mut cfg = fast_config(1);
    cfg.deadline = Duration::from_millis(100);
    let c = Cluster::with_config(cfg, b"q").unwrap();
    // One node is pathologically slow; the other three answer in time.
    c.node(0).set_latency(Duration::from_millis(300));
    let start = std::time::Instant::now();
    let (v, acks) = c.increment().unwrap();
    assert_eq!(v, 1);
    assert!(acks.len() >= c.quorum());
    assert!(acks.iter().all(|a| a.node != 0), "the late ack is dropped");
    assert!(
        start.elapsed() < Duration::from_millis(250),
        "quorum did not wait for the straggler"
    );
    // The request still reached the straggler: it stores the value
    // although nobody waited for its answer.
    assert_eq!(c.node(0).read(b"q").unwrap().value, 1);
}

#[test]
fn recovery_transport_failure_is_explicit() {
    let s = failpoint::scenario();
    let c = Cluster::with_config(fast_config(1), b"q").unwrap();
    c.increment().unwrap();
    s.set("rote::recover", FaultSpec::error());
    assert!(matches!(c.recover(), Err(RoteError::Transport(_))));
    s.unset("rote::recover");
    assert_eq!(c.recover().unwrap(), 1);
}

#[test]
fn simulated_crash_fails_increments_until_recovery() {
    let s = failpoint::scenario();
    let mut cfg = fast_config(1);
    cfg.retries = 0;
    let c = Cluster::with_config(cfg, b"q").unwrap();
    c.increment().unwrap();
    s.set("rote::round", FaultSpec::crash());
    assert!(c.increment().is_err());
    // Crash latch: everything fails until the scenario resets (the
    // "process" restarts).
    assert!(c.increment().is_err());
    s.reset();
    let (v, _) = c.increment().unwrap();
    assert_eq!(v, 2);
}
