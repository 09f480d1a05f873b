//! The `rote_quorum_state` gauge follows the quorum under fail-stop: 0
//! once an increment or a recovery misses quorum, 1 once one reaches
//! it. Alone in its binary because the gauge is process-wide.

use std::time::Duration;

use libseal_rote::{Cluster, ClusterConfig};

fn quorum_state() -> i64 {
    libseal_telemetry::gauge("rote_quorum_state").get()
}

#[test]
fn quorum_gauge_reads_zero_while_increments_are_refused() {
    let mut cfg = ClusterConfig::new(1);
    cfg.retries = 1;
    cfg.backoff = Duration::from_millis(1);
    let c = Cluster::with_config(cfg, b"gauge").unwrap();
    c.increment().unwrap();
    assert_eq!(quorum_state(), 1);

    c.node(0).set_down(true);
    c.node(1).set_down(true);
    assert!(c.increment().is_err());
    assert_eq!(quorum_state(), 0, "no quorum while every append is refused");
    assert!(c.recover().is_err());
    assert_eq!(quorum_state(), 0);

    c.node(0).set_down(false);
    c.node(1).set_down(false);
    c.recover().unwrap();
    assert_eq!(quorum_state(), 1);
    c.node(0).set_down(true);
    c.node(1).set_down(true);
    assert!(c.increment().is_err());
    assert_eq!(quorum_state(), 0);
    c.node(0).set_down(false);
    c.node(1).set_down(false);
    c.increment().unwrap();
    assert_eq!(quorum_state(), 1);
}
