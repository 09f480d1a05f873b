//! Reactor capacity: the C10k shape from ROADMAP item 2.
//!
//! Registers 10 000 fds (eventfd notifiers — one fd each, so the
//! suite stays inside the default rlimit) and interleaves bursts of
//! activity on a small subset, checking that wait() reports exactly
//! the active tokens while the idle mass costs nothing.

use plat::reactor::{Interest, Notifier, Reactor};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const IDLE: usize = 10_000;

#[test]
fn ten_thousand_idle_registrations_with_interleaved_activity() {
    let mut reactor = Reactor::new().expect("reactor on linux");
    let mut fds = Vec::with_capacity(IDLE);
    for token in 0..IDLE {
        let n = Notifier::new().expect("eventfd");
        reactor
            .register(&n, token as u64, Interest::READABLE)
            .expect("register");
        fds.push(n);
    }

    // Idle mass alone: the reactor parks, nothing fires.
    let mut events = Vec::with_capacity(1024);
    let t0 = Instant::now();
    let n = reactor
        .wait(&mut events, Some(Duration::from_millis(30)))
        .unwrap();
    assert_eq!(n, 0, "10k idle fds must produce no events");
    assert!(t0.elapsed() >= Duration::from_millis(25));

    // Bursts of activity scattered across the registration space,
    // interleaved with waits: only the active tokens may surface.
    for round in 0..5u64 {
        let active: BTreeSet<u64> = (0..200u64)
            .map(|i| (i * 37 + round * 101) % IDLE as u64)
            .collect();
        for &t in &active {
            fds[t as usize].notify();
        }
        let mut seen = BTreeSet::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while seen.len() < active.len() && Instant::now() < deadline {
            reactor
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            for ev in &events {
                assert!(ev.readable);
                assert!(active.contains(&ev.token), "idle token {} fired", ev.token);
                fds[ev.token as usize].drain();
                seen.insert(ev.token);
            }
        }
        assert_eq!(seen, active, "round {round}: every active fd must fire");
        // Drained: the mass of idle sessions goes quiet again.
        assert_eq!(
            reactor
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap(),
            0
        );
    }

    for n in &fds {
        reactor.deregister(n).unwrap();
    }
}
