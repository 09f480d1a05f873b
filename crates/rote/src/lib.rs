#![warn(missing_docs)]
//! A ROTE-style distributed monotonic counter (rollback protection).
//!
//! SGX's hardware counters are too slow and wear out (§5.1; see
//! `libseal_sgxsim::counter`), so LibSEAL adopts the protocol of ROTE
//! [Matetic et al., 2017]: each counter increment is replicated to `n =
//! 3f + 1` counter nodes and acknowledged by a quorum of `2f + 1`,
//! tolerating `f` malicious or crashed nodes. An attacker who rolls the
//! local log back must also roll back a quorum of independent nodes.
//!
//! Nodes here are in-process objects with authenticated responses and
//! failure injection; in the paper's deployment they are other LibSEAL
//! instances owned by the provider. As in ROTE, counter messages are
//! authenticated with per-channel MAC keys established once at cluster
//! setup (after mutual attestation), not per-message signatures.
//!
//! # Hardening
//!
//! The nodes are simulated, so a round is a loop, not a fan-out: the
//! requester asks each node in turn, stamps each answer with the time
//! it would arrive on the modelled wire (every request leaves at once,
//! so that is the node's latency), takes the answers in arrival order
//! and then sleeps **once** for as long as the round lasted. An
//! increment therefore pays the latency of the slowest node its quorum
//! needed, not the sum and not a straggler's; the straggler still
//! stores the value, only its acknowledgement is dropped. One lock is
//! held across a round, so concurrent callers get distinct values.
//! Nothing that would arrive after the round's deadline is taken; a
//! round that misses quorum is retried a bounded number of times with
//! exponential, jittered backoff. When every retry fails the increment
//! fails and the local value does not advance (fail-stop, the paper's
//! behaviour): the service stops accepting requests rather than write
//! log entries no quorum vouches for. The `rote_quorum_state` gauge
//! reads 1 after a round that reached quorum and 0 after one that did
//! not.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal_crypto::hmac::HmacSha256;
use plat::sync::Mutex;

/// Process-wide ROTE metrics: round latency and quorum health.
struct RoteMetrics {
    round_ns: libseal_telemetry::Histogram,
    quorum_state: libseal_telemetry::Gauge,
}

fn rote_metrics() -> &'static RoteMetrics {
    static M: std::sync::OnceLock<RoteMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| RoteMetrics {
        round_ns: libseal_telemetry::histogram("rote_round_ns"),
        quorum_state: libseal_telemetry::gauge("rote_quorum_state"),
    })
}

/// Errors from the counter protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoteError {
    /// Fewer than a quorum of valid acknowledgements.
    NoQuorum {
        /// Valid acknowledgements received (best round).
        acks: usize,
        /// Required quorum size.
        needed: usize,
    },
    /// The cluster configuration is invalid.
    BadConfig(String),
    /// The transport to the counter nodes failed outright.
    Transport(String),
}

impl std::fmt::Display for RoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoteError::NoQuorum { acks, needed } => {
                write!(f, "no quorum: {acks} acks, {needed} needed")
            }
            RoteError::BadConfig(m) => write!(f, "bad configuration: {m}"),
            RoteError::Transport(m) => write!(f, "transport failure: {m}"),
        }
    }
}

impl std::error::Error for RoteError {}

/// An authenticated acknowledgement of a counter value.
#[derive(Clone, Debug)]
pub struct CounterAck {
    /// Node index.
    pub node: usize,
    /// Acknowledged counter value.
    pub value: u64,
    /// MAC over (counter-id, value) under the node's channel key.
    pub mac: [u8; 32],
}

/// One counter node (runs inside another enclave in the paper's
/// deployment).
pub struct CounterNode {
    index: usize,
    mac_key: [u8; 32],
    value: AtomicU64,
    /// Simulated network + processing latency per request: when this
    /// node's answer reaches the requester (the round pays it).
    latency: Mutex<Duration>,
    /// Failure injection: node ignores requests while true.
    down: AtomicBool,
    /// Byzantine injection: node acknowledges without storing.
    lies: AtomicBool,
}

impl CounterNode {
    fn mac_payload(counter_id: &[u8], value: u64) -> Vec<u8> {
        let mut p = b"rote-ack:".to_vec();
        p.extend_from_slice(counter_id);
        p.extend_from_slice(&value.to_le_bytes());
        p
    }

    /// Creates a node whose attested channel uses `mac_key`.
    pub fn new(index: usize, mac_key: &[u8; 32], latency: Duration) -> Self {
        CounterNode {
            index,
            mac_key: *mac_key,
            value: AtomicU64::new(0),
            latency: Mutex::new(latency),
            down: AtomicBool::new(false),
            lies: AtomicBool::new(false),
        }
    }

    /// The channel MAC key (held by the requesting enclave after the
    /// attestation ceremony).
    pub fn channel_key(&self) -> [u8; 32] {
        self.mac_key
    }

    /// Takes the node down (crash injection).
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// Makes the node acknowledge without persisting (byzantine).
    pub fn set_lies(&self, lies: bool) {
        self.lies.store(lies, Ordering::SeqCst);
    }

    /// Makes the node answer after `latency` (straggler injection).
    pub fn set_latency(&self, latency: Duration) {
        *self.latency.lock() = latency;
    }

    /// Handles an increment-to request; returns a signed ack, or None
    /// when down or the request would roll the counter back.
    pub fn increment_to(&self, counter_id: &[u8], target: u64) -> Option<CounterAck> {
        if self.down.load(Ordering::SeqCst) {
            return None;
        }
        if !self.lies.load(Ordering::SeqCst) {
            // Monotonicity: never move backwards.
            let mut cur = self.value.load(Ordering::SeqCst);
            loop {
                if target <= cur {
                    break;
                }
                match self
                    .value
                    .compare_exchange(cur, target, Ordering::SeqCst, Ordering::SeqCst)
                {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        }
        Some(CounterAck {
            node: self.index,
            value: target,
            mac: HmacSha256::mac(&self.mac_key, &Self::mac_payload(counter_id, target)),
        })
    }

    /// Reads the node's stored value.
    pub fn read(&self, counter_id: &[u8]) -> Option<CounterAck> {
        if self.down.load(Ordering::SeqCst) {
            return None;
        }
        let v = self.value.load(Ordering::SeqCst);
        Some(CounterAck {
            node: self.index,
            value: v,
            mac: HmacSha256::mac(&self.mac_key, &Self::mac_payload(counter_id, v)),
        })
    }
}

/// Tuning knobs for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fault tolerance: the cluster has `3f + 1` nodes and needs
    /// `2f + 1` acknowledgements.
    pub f: usize,
    /// Simulated per-request latency of each node.
    pub latency: Duration,
    /// How long one round waits for acknowledgements before giving up
    /// on the silent nodes.
    pub deadline: Duration,
    /// Additional rounds attempted after the first misses quorum.
    pub retries: u32,
    /// Base backoff between rounds; doubled per retry, plus up to 50 %
    /// random jitter so restarted peers do not retry in lockstep.
    pub backoff: Duration,
}

impl ClusterConfig {
    /// Defaults for tolerance `f`: zero simulated latency, 1 s round
    /// deadline, 2 retries at 5 ms base backoff.
    pub fn new(f: usize) -> ClusterConfig {
        ClusterConfig {
            f,
            latency: Duration::ZERO,
            deadline: Duration::from_secs(1),
            retries: 2,
            backoff: Duration::from_millis(5),
        }
    }
}

/// A quorum of counter nodes plus the local view.
pub struct Cluster {
    nodes: Vec<Arc<CounterNode>>,
    keys: Vec<[u8; 32]>,
    cfg: ClusterConfig,
    local: AtomicU64,
    /// Held across an increment and a recovery: two callers never bind
    /// the same value, and `local` never steps back.
    exclusive: Mutex<()>,
    counter_id: Vec<u8>,
}

/// Exponential backoff with up to 50 % random jitter.
fn backoff_with_jitter(base: Duration, attempt: u32) -> Duration {
    let exp = base.saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16));
    if exp.is_zero() {
        return exp;
    }
    let mut b = [0u8; 8];
    plat::entropy::fill(&mut b);
    let r = u64::from_le_bytes(b);
    exp + Duration::from_micros(r % ((exp.as_micros() as u64) / 2 + 1))
}

impl Cluster {
    /// Builds a cluster tolerating `f` faults (`3f + 1` nodes)
    /// with per-request `latency` and default hardening knobs
    /// (see [`ClusterConfig::new`]).
    ///
    /// # Errors
    ///
    /// As [`Cluster::with_config`].
    pub fn new(f: usize, latency: Duration, counter_id: &[u8]) -> Result<Cluster, RoteError> {
        let mut cfg = ClusterConfig::new(f);
        cfg.latency = latency;
        Self::with_config(cfg, counter_id)
    }

    /// Builds a cluster from an explicit configuration.
    ///
    /// # Errors
    ///
    /// [`RoteError::BadConfig`] on a zero round deadline (every round
    /// would time out before any node could answer).
    pub fn with_config(cfg: ClusterConfig, counter_id: &[u8]) -> Result<Cluster, RoteError> {
        if cfg.deadline.is_zero() {
            return Err(RoteError::BadConfig(
                "round deadline must be non-zero".into(),
            ));
        }
        let n = 3 * cfg.f + 1;
        let nodes: Vec<Arc<CounterNode>> = (0..n)
            .map(|i| {
                // Channel keys from the (simulated) attestation
                // ceremony at cluster setup.
                let mut key = [0u8; 32];
                key[..8].copy_from_slice(&(i as u64 + 1).to_le_bytes());
                key[8..16].copy_from_slice(&(counter_id.len() as u64).to_le_bytes());
                Arc::new(CounterNode::new(i, &key, cfg.latency))
            })
            .collect();
        let keys = nodes.iter().map(|n| n.channel_key()).collect();
        Ok(Cluster {
            nodes,
            keys,
            cfg,
            local: AtomicU64::new(0),
            exclusive: Mutex::new(()),
            counter_id: counter_id.to_vec(),
        })
    }

    /// Quorum size (`2f + 1`).
    pub fn quorum(&self) -> usize {
        2 * self.cfg.f + 1
    }

    /// Number of nodes (`3f + 1`).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Access to a node for failure injection in tests/benches.
    pub fn node(&self, i: usize) -> &Arc<CounterNode> {
        &self.nodes[i]
    }

    /// Current locally-known counter value.
    pub fn current(&self) -> u64 {
        self.local.load(Ordering::SeqCst)
    }

    /// One round on the modelled wire: with `expect = Some(target)` an
    /// increment-to, which stops at a quorum of valid acks for
    /// `target`; with `None` a read, which takes every answer, since
    /// more answers sharpen the `f+1`-th highest estimate. Every node is
    /// asked (through the `rote::node::deliver` failpoint, so tests can
    /// drop individual messages) and stores what it is asked to; its
    /// answer, an ack or a refusal, arrives after the node's latency.
    /// Answers are taken in arrival order up to the deadline, and the
    /// requester sleeps once for as long as that took.
    fn round(&self, expect: Option<u64>) -> Vec<CounterAck> {
        if plat::failpoint::check("rote::round").is_err() {
            return Vec::new();
        }
        let ask = |node: &Arc<CounterNode>| {
            let delivered = plat::failpoint::check("rote::node::deliver").ok();
            let ack = delivered.and_then(|()| match expect {
                Some(target) => node.increment_to(&self.counter_id, target),
                None => node.read(&self.counter_id),
            });
            (*node.latency.lock(), ack)
        };
        let mut answers: Vec<_> = self.nodes.iter().map(ask).collect();
        answers.sort_by_key(|(arrives, _)| *arrives);
        let mut acks = Vec::new();
        let mut took = Duration::ZERO;
        for (arrives, ack) in answers {
            if expect.is_some() && acks.len() >= self.quorum() {
                break;
            }
            if arrives >= self.cfg.deadline {
                took = self.cfg.deadline;
                break;
            }
            took = arrives;
            acks.extend(ack.filter(|a| self.verify_ack(a, expect.unwrap_or(a.value))));
        }
        std::thread::sleep(took);
        acks
    }

    /// Runs [`Cluster::round`] up to `1 + retries` times with jittered
    /// backoff, and sets the quorum gauge to whether one reached quorum.
    fn with_retries(&self, expect: Option<u64>) -> Result<Vec<CounterAck>, RoteError> {
        let mut best = 0usize;
        for attempt in 0..=self.cfg.retries {
            if attempt > 0 {
                std::thread::sleep(backoff_with_jitter(self.cfg.backoff, attempt));
            }
            let acks = self.round(expect);
            if acks.len() >= self.quorum() {
                rote_metrics().quorum_state.set(1);
                return Ok(acks);
            }
            best = best.max(acks.len());
        }
        rote_metrics().quorum_state.set(0);
        Err(RoteError::NoQuorum {
            acks: best,
            needed: self.quorum(),
        })
    }

    /// Increments the counter, collecting a quorum of signed acks.
    ///
    /// The call pays roughly one node latency, bounded by the round
    /// deadline times retries.
    ///
    /// # Errors
    ///
    /// [`RoteError::NoQuorum`] when every round misses quorum; the
    /// local value is not advanced.
    pub fn increment(&self) -> Result<(u64, Vec<CounterAck>), RoteError> {
        let _exclusive = self.exclusive.lock();
        let target = self.local.load(Ordering::SeqCst) + 1;
        let started = Instant::now();
        let outcome = self.with_retries(Some(target));
        rote_metrics().round_ns.record_duration(started.elapsed());
        let acks = outcome?;
        self.local.store(target, Ordering::SeqCst);
        Ok((target, acks))
    }

    /// Reads the highest value a quorum can attest to (recovery after
    /// restart): queries all nodes and takes the `f+1`-th highest, so
    /// at least one honest node stored it.
    ///
    /// # Errors
    ///
    /// [`RoteError::NoQuorum`] when fewer than `2f + 1` nodes respond
    /// across all retries; [`RoteError::Transport`] when the recovery
    /// path itself fails (fault injection).
    pub fn recover(&self) -> Result<u64, RoteError> {
        plat::failpoint::check("rote::recover").map_err(|e| RoteError::Transport(e.to_string()))?;
        let _exclusive = self.exclusive.lock();
        let acks = self.with_retries(None)?;
        let mut values: Vec<u64> = acks.iter().map(|a| a.value).collect();
        values.sort_unstable_by(|a, b| b.cmp(a));
        // The (f+1)-th highest value is vouched for by >= 1 honest node.
        let v = values[self.cfg.f.min(values.len() - 1)];
        self.local.store(v, Ordering::SeqCst);
        Ok(v)
    }

    fn verify_ack(&self, ack: &CounterAck, expected: u64) -> bool {
        if ack.value != expected || ack.node >= self.keys.len() {
            return false;
        }
        let payload = CounterNode::mac_payload(&self.counter_id, ack.value);
        HmacSha256::verify(&self.keys[ack.node], &payload, &ack.mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(f: usize) -> Cluster {
        Cluster::new(f, Duration::ZERO, b"audit-log").unwrap()
    }

    #[test]
    fn sizes_follow_3f_plus_1() {
        let c = cluster(1);
        assert_eq!(c.size(), 4);
        assert_eq!(c.quorum(), 3);
        let c = cluster(2);
        assert_eq!(c.size(), 7);
        assert_eq!(c.quorum(), 5);
    }

    #[test]
    fn increments_are_monotonic() {
        let c = cluster(1);
        for expect in 1..=10u64 {
            let (v, acks) = c.increment().unwrap();
            assert_eq!(v, expect);
            assert!(acks.len() >= c.quorum());
        }
        assert_eq!(c.current(), 10);
    }

    #[test]
    fn tolerates_f_failures() {
        let c = cluster(1);
        c.node(0).set_down(true);
        let (v, _) = c.increment().unwrap();
        assert_eq!(v, 1);
    }

    #[test]
    fn fails_beyond_f_failures() {
        let c = cluster(1);
        c.node(0).set_down(true);
        c.node(1).set_down(true);
        assert!(matches!(c.increment(), Err(RoteError::NoQuorum { .. })));
        assert_eq!(c.current(), 0, "local value must not advance");
    }

    #[test]
    fn recovery_resists_lying_minority() {
        let c = cluster(1);
        for _ in 0..5 {
            c.increment().unwrap();
        }
        // A lying node stops persisting; others hold 5.
        c.node(0).set_lies(true);
        // Simulate restart recovery: the quorum still attests 5.
        assert_eq!(c.recover().unwrap(), 5);
    }

    #[test]
    fn rollback_attack_detected_via_recovery() {
        let c = cluster(1);
        for _ in 0..7 {
            c.increment().unwrap();
        }
        // An attacker presenting an old log would need the cluster to
        // attest a lower value; recovery still returns 7.
        let recovered = c.recover().unwrap();
        assert_eq!(recovered, 7);
    }

    #[test]
    fn recovery_needs_quorum() {
        let c = cluster(1);
        c.increment().unwrap();
        c.node(0).set_down(true);
        c.node(1).set_down(true);
        assert!(matches!(c.recover(), Err(RoteError::NoQuorum { .. })));
    }

    #[test]
    fn fan_out_pays_max_latency_not_sum() {
        let c = Cluster::new(1, Duration::from_millis(20), b"x").unwrap();
        let start = std::time::Instant::now();
        c.increment().unwrap();
        let elapsed = start.elapsed();
        // Concurrent fan-out: one node latency, not quorum * latency.
        assert!(
            elapsed >= Duration::from_millis(20),
            "latency is still paid"
        );
        assert!(
            elapsed < Duration::from_millis(60),
            "3 node latencies paid sequentially ({elapsed:?}): fan-out is not concurrent"
        );
    }

    #[test]
    fn zero_deadline_is_rejected() {
        let mut cfg = ClusterConfig::new(1);
        cfg.deadline = Duration::ZERO;
        assert!(matches!(
            Cluster::with_config(cfg, b"x"),
            Err(RoteError::BadConfig(_))
        ));
    }

    #[test]
    fn distinct_counter_ids_isolated() {
        let a = Cluster::new(1, Duration::ZERO, b"log-a").unwrap();
        let b = Cluster::new(1, Duration::ZERO, b"log-b").unwrap();
        a.increment().unwrap();
        assert_eq!(a.current(), 1);
        assert_eq!(b.current(), 0);
    }

    #[test]
    fn failstop_counter_resumes_after_quorum_returns() {
        let c = cluster(1);
        c.increment().unwrap();
        c.node(0).set_down(true);
        c.node(1).set_down(true);
        assert!(c.increment().is_err());
        c.node(0).set_down(false);
        c.node(1).set_down(false);
        let (v, _) = c.increment().unwrap();
        assert_eq!(v, 2, "failed increment did not burn a value");
    }
}
