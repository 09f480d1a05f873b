//! The load generator: a closed-loop saturation leg and an open-loop
//! paced leg, both recording raw per-op nanoseconds.

use std::time::{Duration, Instant};

use libseal_httpx::http::{Request, Response};
use libseal_services::client::PersistentConnection;
use libseal_services::{HttpsClient, ServiceError};

use crate::gen::Script;
use crate::host;
use crate::span::{maybe_span, Tracer};

/// One generator thread: its connection policy and its script.
pub struct Client {
    https: HttpsClient,
    /// Keep one connection open across ops, or pay a handshake per op.
    keepalive: bool,
    conn: Option<PersistentConnection>,
    script: Box<dyn Script>,
    pub tracer: Option<Tracer>,
    /// What went wrong with the first few failed ops.
    pub failures: Vec<String>,
}

impl Client {
    pub fn new(https: HttpsClient, keepalive: bool, script: Box<dyn Script>) -> Client {
        Client {
            https,
            keepalive,
            conn: None,
            script,
            tracer: None,
            failures: Vec::new(),
        }
    }

    /// Sends the script's next request and checks the response.
    pub fn op(&mut self, op: u64) -> bool {
        let req = self.script.next_request();
        // A transport failure is checked as a 599, which no script
        // accepts, so the script's model stays in step with its ops.
        let (rsp, error) = match self.exchange(op, &req) {
            Ok(rsp) => (rsp, None),
            Err(e) => (Response::new(599, Vec::new()), Some(e.to_string())),
        };
        let ok = self.script.check(&rsp);
        if !ok && self.failures.len() < 4 {
            let why = error.unwrap_or_else(|| format!("wrong answer, status {}", rsp.status));
            self.failures
                .push(format!("op {op} ({} {}): {why}", req.method, req.target));
        }
        ok
    }

    fn exchange(&mut self, op: u64, req: &Request) -> Result<Response, ServiceError> {
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => maybe_span(&mut self.tracer, "services.client_connect", op, || {
                self.https.connect()
            })?,
        };
        let rsp = maybe_span(&mut self.tracer, "services.client_request", op, || {
            conn.request(req)
        });
        if self.keepalive && rsp.is_ok() {
            self.conn = Some(conn);
        } else {
            conn.close();
        }
        rsp
    }

    pub fn close(&mut self) {
        if let Some(mut conn) = self.conn.take() {
            conn.close();
        }
    }
}

/// One correct op: when it counted, and how long it took.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Sample {
    /// Nanoseconds since the leg began: the op's completion in a
    /// saturation leg, its due time in a paced leg.
    pub at_ns: u64,
    /// Latency. Paced legs time from the op's due time, saturation
    /// legs from its send.
    pub lat_ns: u64,
}

/// What one leg measured.
#[derive(Default)]
pub struct Leg {
    /// One per correct op, ordered by `at_ns`.
    pub samples: Vec<Sample>,
    /// Paced legs: how long after its due time each op was sent.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub cpu_s: f64,
    /// The kernel's part of `cpu_s`.
    pub sys_s: f64,
}

impl Leg {
    pub fn correct(&self) -> u64 {
        self.attempted - self.failed
    }

    fn absorb(&mut self, other: Leg) {
        self.samples.extend(other.samples);
        self.late_ns.extend(other.late_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Splits `ops` over `n` threads, the remainder going to the first.
fn share(ops: u64, n: usize, i: usize) -> u64 {
    ops / n as u64 + u64::from((i as u64) < ops % n as u64)
}

/// Runs `per_thread` on one thread per client and merges the legs,
/// with CPU time taken around the whole fan-out.
fn fan_out(clients: &mut [Client], per_thread: impl Fn(usize, &mut Client) -> Leg + Sync) -> Leg {
    let (user0, sys0) = host::cpu_user_sys();
    let legs: Vec<Leg> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let per_thread = &per_thread;
                s.spawn(move || per_thread(i, c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let (user, sys) = host::cpu_user_sys();
    let mut total = Leg {
        cpu_s: user + sys - user0 - sys0,
        sys_s: sys - sys0,
        ..Leg::default()
    };
    legs.into_iter().for_each(|l| total.absorb(l));
    total.samples.sort_unstable();
    total
}

fn ns_since(then: Instant) -> u64 {
    Instant::now().saturating_duration_since(then).as_nanos() as u64
}

/// Closed loop: every client sends its next op as soon as the last
/// one completed, `ops` in total. Op ids start at `first_op`.
pub fn saturate(clients: &mut [Client], first_op: u64, ops: u64) -> Leg {
    let n = clients.len();
    let start = Instant::now();
    fan_out(clients, |i, client| {
        let mut leg = Leg::default();
        for k in 0..share(ops, n, i) {
            let sent = Instant::now();
            let ok = client.op(first_op + k * n as u64 + i as u64);
            leg.attempted += 1;
            if ok {
                leg.samples.push(Sample {
                    at_ns: ns_since(start),
                    lat_ns: ns_since(sent),
                });
            } else {
                leg.failed += 1;
            }
        }
        leg
    })
}

/// Open loop: `ops` ops in total are due at a fixed `rate_per_s`,
/// interleaved over the clients, whatever the service's pace.
pub fn pace(clients: &mut [Client], first_op: u64, ops: u64, rate_per_s: f64) -> Leg {
    let n = clients.len();
    let gap = Duration::from_secs_f64(1.0 / rate_per_s);
    let start = Instant::now() + Duration::from_millis(2);
    fan_out(clients, |i, client| {
        paced_thread(
            start,
            gap * i as u32,
            gap * n as u32,
            share(ops, n, i),
            |k| client.op(first_op + k * n as u64 + i as u64),
        )
    })
}

/// One generator thread of an open loop: op `k` is due at
/// `start + offset + k * period`. An op that cannot start on time (the
/// previous one is still in flight) starts late, and its latency still
/// counts from when it was due, so a stall is charged to every op it
/// delayed.
pub fn paced_thread(
    start: Instant,
    offset: Duration,
    period: Duration,
    ops: u64,
    mut op: impl FnMut(u64) -> bool,
) -> Leg {
    let mut leg = Leg::default();
    for k in 0..ops {
        let due = start + offset + period * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        leg.late_ns.push(ns_since(due));
        let ok = op(k);
        leg.attempted += 1;
        if ok {
            leg.samples.push(Sample {
                at_ns: (due - start).as_nanos() as u64,
                lat_ns: ns_since(due),
            });
        } else {
            leg.failed += 1;
        }
    }
    leg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_ops_are_timed_from_their_due_time() {
        let period = Duration::from_millis(10);
        let stall = Duration::from_millis(45);
        let leg = paced_thread(Instant::now(), Duration::ZERO, period, 8, |k| {
            if k == 2 {
                std::thread::sleep(stall);
            }
            true
        });
        assert_eq!((leg.attempted, leg.failed), (8, 0));
        let ms = |ns: u64| ns as f64 / 1e6;
        // Before the stall the generator is on time.
        assert!(ms(leg.late_ns[0]) < 5.0 && ms(leg.late_ns[1]) < 5.0);
        // Op 2 stalls 45 ms: ops 3..=6 were due at 30, 40, 50 and
        // 60 ms but start at ~65 ms, late by ~35, 25, 15 and 5 ms.
        // Their own work is instant, yet their latency carries the
        // wait.
        for (k, late_ms) in [(3, 35.0), (4, 25.0), (5, 15.0)] {
            assert!(
                (ms(leg.late_ns[k]) - late_ms).abs() < 5.0,
                "op {k} late {} ms, expected ~{late_ms}",
                ms(leg.late_ns[k])
            );
            assert!(leg.samples[k].lat_ns >= leg.late_ns[k]);
            assert_eq!(leg.samples[k].at_ns, 10_000_000 * k as u64);
        }
        assert!(ms(leg.samples[2].lat_ns) >= 45.0);
        // The generator catches up once the backlog is gone.
        assert!(ms(leg.late_ns[7]) < 5.0);
    }

    #[test]
    fn failed_ops_are_counted_and_carry_no_latency() {
        let period = Duration::from_micros(100);
        let leg = paced_thread(Instant::now(), Duration::ZERO, period, 10, |k| k % 5 != 0);
        assert_eq!((leg.attempted, leg.failed, leg.correct()), (10, 2, 8));
        assert_eq!((leg.samples.len(), leg.late_ns.len()), (8, 10));
    }

    #[test]
    fn ops_are_shared_without_loss() {
        for (ops, n) in [(10, 3), (7, 2), (1, 2), (0, 2), (3000, 2)] {
            assert_eq!((0..n).map(|i| share(ops, n, i)).sum::<u64>(), ops);
        }
    }
}
