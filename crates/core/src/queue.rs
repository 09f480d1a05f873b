//! The bounded watermark queue and worker behind both background
//! halves of the audit path (§5.1, Fig. 1 steps 4–6: append, make
//! durable, check).
//!
//! Per-append sealing pays one rollback-counter round trip, one
//! Ed25519 head signature and one journal fsync per logged pair, and an
//! inline check makes every `interval`-th client pay the whole check.
//! Both are handed to a dedicated thread through the same mechanism:
//!
//! - A request [`TicketQueue::reserve`]s a slot BEFORE taking the
//!   audit-state lock and [`Slot::issue`]s its **ticket** while holding
//!   it, so ticket order matches log order. At most `cap` tickets are
//!   issued-or-reserved and unresolved at any time: the bound is
//!   checked and consumed in one place, so it is hard.
//! - A [`Worker`] drains the queue: one call of its closure resolves
//!   every ticket issued so far. For the **sealer** that closure is the
//!   `seal_batch` ecall — one counter increment, one head signature and
//!   one fsync make the whole batch durable ([`crate::log::seal_staged`])
//!   — and writers block in [`TicketQueue::wait`] until their batch is
//!   on disk, preserving response-before-durable. For the **verifier**
//!   it is the `verify_batch` ecall (one incremental check covers every
//!   due check queued so far); nobody waits per ticket, the queue depth
//!   is the verification lag, and `Libseal-Verify`, drain and shutdown
//!   wait for it to reach zero with [`TicketQueue::quiesce`].
//!
//! What differs between the two users is data handed to the
//! constructor ([`TicketQueue::sealer`], [`TicketQueue::verifier`]):
//! the cap, the failpoint sites and the telemetry handles.
//!
//! Tickets are deliberately independent of chain sequence numbers:
//! trimming renumbers the chain, while tickets stay monotone for the
//! lifetime of the queue.
//!
//! Crash semantics: whatever changes the log — a writer's pair here,
//! the verifier's trim — is staged, then sealed ([`crate::log`]), and a
//! whole batch shares one counter step, so the legal crash window
//! recovered by `AuditLog::open` stays "attested ≤ durable + 1 counter
//! step" — losing an in-flight batch loses at most the one increment it
//! had bound. A failed batch withholds its writers' responses; what it
//! staged stays staged and the next successful seal covers it.

use std::sync::Arc;
use std::time::Instant;

use libseal_telemetry::{counter, gauge, histogram, Counter, Gauge, Histogram};
use plat::sync::{Condvar, Mutex};

use crate::{LibSealError, Result};

/// Due checks the background verifier may have outstanding before
/// writers block: a violating pair is detected at most
/// `VERIFIER_LAG_BOUND × check_interval` pairs late.
pub const VERIFIER_LAG_BOUND: usize = 8;

/// Telemetry handles of one queue user; a defaulted handle is live
/// but registered under no name.
#[derive(Default)]
struct Instruments {
    /// Tickets issued but not resolved.
    depth: Gauge,
    /// Successfully resolved batches.
    batches: Counter,
    /// Tickets per successful batch.
    batch_entries: Histogram,
    /// Wall-clock per successful worker call.
    latency_ns: Histogram,
    /// Time spent in [`TicketQueue::wait`].
    wait_ns: Histogram,
    /// Failed batches.
    failures: Counter,
}

/// Failpoint sites of one queue user: issue, worker call, resolve.
struct Sites {
    enqueue: &'static str,
    run: &'static str,
    ack: &'static str,
}

fn injected(site: &str) -> Result<()> {
    plat::failpoint::check(site).map_err(|e| LibSealError::Log(e.to_string()))
}

/// Watermark state guarded by the queue mutex.
#[derive(Default)]
struct State {
    /// Highest ticket handed out (tickets are 1-based).
    issued: u64,
    /// Slots reserved and not yet issued or handed back.
    reserved: u64,
    /// Highest ticket resolved (successfully or not): waiters at or
    /// below this watermark stop waiting.
    resolved: u64,
    /// Highest ticket resolved successfully. `durable < resolved`
    /// marks the span of a failed batch.
    durable: u64,
    /// Last batch failure: reported to [`TicketQueue::wait`] for a
    /// ticket in a failed span, returned and cleared by
    /// [`TicketQueue::quiesce`].
    error: Option<String>,
    shutdown: bool,
}

/// The bounded ticket queue between the request path and a
/// [`Worker`]. All methods are `&self`; the queue is shared via
/// [`Arc`].
pub struct TicketQueue {
    cap: u64,
    sites: Sites,
    ins: Instruments,
    state: Mutex<State>,
    /// Signalled when a ticket is issued or shutdown begins (worker
    /// side).
    work: Condvar,
    /// Signalled when a batch resolves or a slot is handed back
    /// (request side: reservations, ticket waits and quiesce).
    done: Condvar,
}

impl TicketQueue {
    /// The group-commit queue: at most `max_batch` audited pairs are
    /// outstanding, so one seal covers at most that many.
    pub fn sealer(max_batch: usize) -> TicketQueue {
        TicketQueue::new(
            max_batch,
            Sites {
                enqueue: "core::commit::enqueue",
                run: "core::commit::seal",
                ack: "core::commit::ack",
            },
            Instruments {
                depth: gauge("core_commit_queue_depth"),
                batches: counter("core_commit_batches_total"),
                batch_entries: histogram("core_commit_batch_entries"),
                latency_ns: histogram("core_commit_latency_ns"),
                wait_ns: histogram("core_commit_wait_ns"),
                failures: counter("core_commit_seal_failures_total"),
            },
        )
    }

    /// The background verifier's queue of due checks, bounded by
    /// [`VERIFIER_LAG_BOUND`]. Its depth is the verification lag.
    pub fn verifier() -> TicketQueue {
        TicketQueue::new(
            VERIFIER_LAG_BOUND,
            Sites {
                enqueue: "core::verifier::enqueue",
                run: "core::verifier::check",
                ack: "core::verifier::ack",
            },
            Instruments {
                depth: gauge("core_verifier_lag"),
                batches: counter("core_verifier_batches_total"),
                latency_ns: histogram("core_verifier_drain_ns"),
                // No names for the rest on the verifier side: nobody
                // waits on a single due check, and a failed check is
                // reported by `quiesce`.
                ..Instruments::default()
            },
        )
    }

    fn new(cap: usize, sites: Sites, ins: Instruments) -> TicketQueue {
        TicketQueue {
            cap: cap.max(1) as u64,
            sites,
            ins,
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Blocks until fewer than `cap` tickets are issued-or-reserved and
    /// unresolved, then takes one slot. Call this BEFORE taking the
    /// audit-state lock: blocking inside it would stall the very worker
    /// that makes room. Returns at once after
    /// [`TicketQueue::shutdown`]; the slot's `issue` then fails.
    pub fn reserve(&self) -> Slot<'_> {
        let mut s = self.state.lock();
        while !s.shutdown && s.issued + s.reserved - s.resolved >= self.cap {
            s = self.done.wait(s);
        }
        s.reserved += 1;
        Slot { queue: self }
    }

    /// The barrier: blocks until `ticket`'s batch has resolved.
    ///
    /// # Errors
    ///
    /// When the batch failed: for the sealer the entries stay staged
    /// (the next successful seal covers them), but the response must
    /// not be released on the strength of a failed seal.
    pub fn wait(&self, ticket: u64) -> Result<()> {
        let started = Instant::now();
        let mut s = self.state.lock();
        while s.resolved < ticket {
            s = self.done.wait(s);
        }
        let out = if s.durable >= ticket {
            Ok(())
        } else {
            Err(LibSealError::Log(format!(
                "batch failed: {}",
                s.error.as_deref().unwrap_or("worker error")
            )))
        };
        drop(s);
        self.ins.wait_ns.record_duration(started.elapsed());
        out
    }

    /// Drain barrier: blocks until every issued ticket has resolved.
    /// It needs no ticket of its own, so a teardown or verification
    /// path can wait out strangers' batches. Terminates even after
    /// [`TicketQueue::shutdown`]: the worker drains what is pending
    /// before exiting.
    ///
    /// # Errors
    ///
    /// When a batch failed since the last call; the failure is consumed
    /// (a later call succeeds if later batches resolved cleanly).
    pub fn quiesce(&self) -> Result<()> {
        let mut s = self.state.lock();
        while s.resolved < s.issued {
            s = self.done.wait(s);
        }
        match s.error.take() {
            Some(e) => Err(LibSealError::Log(format!("batch failed: {e}"))),
            None => Ok(()),
        }
    }

    /// Resolves every issued ticket as successful without running the
    /// worker: a synchronous pass just covered the full current
    /// history, so pending batches are subsumed by its outcome.
    pub fn absorb(&self) {
        let mut s = self.state.lock();
        s.resolved = s.issued;
        s.durable = s.issued;
        self.ins.depth.set(0);
        drop(s);
        self.done.notify_all();
    }

    /// Worker side: blocks until at least one ticket is pending and
    /// returns the watermark to resolve through — one worker call
    /// covers everything issued so far. Returns [`None`] when the queue
    /// is shut down and fully drained.
    pub fn next(&self) -> Option<u64> {
        let mut s = self.state.lock();
        loop {
            if s.issued > s.resolved {
                return Some(s.issued);
            }
            if s.shutdown {
                return None;
            }
            s = self.work.wait(s);
        }
    }

    /// Worker side: resolves every ticket up to `upto` with the batch
    /// outcome, waking ticket, quiesce and reservation waiters.
    pub fn complete(&self, upto: u64, result: Result<()>) {
        // An injected ack fault resolves the batch as failed even
        // though the work landed: waiters err conservatively instead
        // of hanging on a watermark that would never advance.
        let result = result.and_then(|()| injected(self.sites.ack));
        let mut s = self.state.lock();
        let entries = upto.saturating_sub(s.resolved);
        match result {
            Ok(()) => {
                s.durable = s.durable.max(upto);
                self.ins.batches.inc();
                self.ins.batch_entries.record(entries);
            }
            Err(e) => {
                s.error = Some(e.to_string());
                self.ins.failures.inc();
            }
        }
        s.resolved = s.resolved.max(upto);
        self.ins.depth.set((s.issued - s.resolved) as i64);
        drop(s);
        self.done.notify_all();
    }

    /// Tickets issued but not yet resolved.
    pub fn depth(&self) -> u64 {
        let s = self.state.lock();
        s.issued - s.resolved
    }

    /// Stops issuing tickets and wakes everyone; the worker drains what
    /// is pending, then [`TicketQueue::next`] returns [`None`].
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.work.notify_all();
        self.done.notify_all();
    }
}

/// One place under a queue's cap, held from [`TicketQueue::reserve`]
/// until it becomes a ticket. Dropping it unissued hands the place
/// back and wakes a blocked reservation.
#[must_use = "a reservation holds queue capacity until issued or dropped"]
pub struct Slot<'q> {
    queue: &'q TicketQueue,
}

impl Slot<'_> {
    /// Turns the reservation into the next ticket. The caller must
    /// already have staged its entries under the audit-state lock and
    /// still hold it, so ticket order matches log order.
    ///
    /// # Errors
    ///
    /// After [`TicketQueue::shutdown`], or on an injected enqueue
    /// fault; the slot is handed back. Staged entries stay in the chain
    /// and are covered by the next successful seal; only this writer's
    /// response is withheld (the conservative direction).
    pub fn issue(self) -> Result<u64> {
        let q = self.queue;
        injected(q.sites.enqueue)?;
        let mut s = q.state.lock();
        if s.shutdown {
            drop(s);
            return Err(LibSealError::Log("ticket queue shut down".into()));
        }
        std::mem::forget(self);
        s.reserved -= 1;
        s.issued += 1;
        let ticket = s.issued;
        q.ins.depth.set((s.issued - s.resolved) as i64);
        drop(s);
        q.work.notify_one();
        Ok(ticket)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.queue.state.lock().reserved -= 1;
        // `done` is shared with ticket and quiesce waiters, so a single
        // wake-up could land on one of those; all re-check.
        self.queue.done.notify_all();
    }
}

/// A dedicated thread draining a [`TicketQueue`]. Dropping the handle
/// shuts the queue down, lets the thread drain what is pending and
/// joins it.
pub struct Worker {
    queue: Arc<TicketQueue>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    /// Spawns the drain loop. `run` is invoked once per batch and must
    /// leave everything issued before the call done on success: staged
    /// entries signed and flushed (sealer), the due check evaluated
    /// (verifier).
    pub fn spawn<F>(thread_name: &str, queue: Arc<TicketQueue>, mut run: F) -> Worker
    where
        F: FnMut() -> Result<()> + Send + 'static,
    {
        let q = Arc::clone(&queue);
        let handle = std::thread::Builder::new()
            .name(thread_name.into())
            .spawn(move || {
                while let Some(upto) = q.next() {
                    let started = Instant::now();
                    let r = injected(q.sites.run).and_then(|()| run());
                    if r.is_ok() {
                        q.ins.latency_ns.record_duration(started.elapsed());
                    }
                    q.complete(upto, r);
                }
            })
            .expect("spawn queue worker thread");
        Worker {
            queue,
            handle: Some(handle),
        }
    }

    /// The queue this worker drains.
    pub fn queue(&self) -> &TicketQueue {
        &self.queue
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.queue.shutdown();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
    use std::thread;

    /// A queue with its own failpoint sites and unregistered
    /// instruments, so tests neither share armed faults nor counters.
    fn queue(cap: usize, enqueue: &'static str) -> Arc<TicketQueue> {
        let sites = Sites {
            enqueue,
            run: "test::queue::run",
            ack: "test::queue::ack",
        };
        Arc::new(TicketQueue::new(cap, sites, Instruments::default()))
    }

    fn issue(q: &TicketQueue) -> u64 {
        q.reserve().issue().unwrap()
    }

    fn spin_until(cond: impl Fn() -> bool) {
        while !cond() {
            thread::yield_now();
        }
    }

    #[test]
    fn tickets_resolve_through_a_worker_and_quiesce_clears() {
        let q = queue(8, "test::queue::enqueue");
        let runs = Arc::new(AtomicU64::new(0));
        let runs2 = Arc::clone(&runs);
        let worker = Worker::spawn("test-worker", Arc::clone(&q), move || {
            runs2.fetch_add(1, SeqCst);
            Ok(())
        });
        let (t1, t2) = (issue(&q), issue(&q));
        assert_eq!((t1, t2), (1, 2));
        q.wait(t1).unwrap();
        q.wait(t2).unwrap();
        q.quiesce().unwrap();
        assert_eq!(q.depth(), 0);
        drop(worker);
        // One call may cover both tickets.
        let n = runs.load(SeqCst);
        assert!((1..=2).contains(&n), "{n} worker calls");
    }

    #[test]
    fn a_failed_batch_errs_its_waiters_and_the_next_quiesce_only() {
        let q = queue(8, "test::queue::enqueue");
        let fail = Arc::new(AtomicBool::new(true));
        let fail2 = Arc::clone(&fail);
        let _worker = Worker::spawn("test-worker", Arc::clone(&q), move || {
            match fail2.load(SeqCst) {
                true => Err(LibSealError::Log("disk gone".into())),
                false => Ok(()),
            }
        });
        let err = q.wait(issue(&q)).unwrap_err();
        assert!(err.to_string().contains("disk gone"), "{err}");
        let err = q.quiesce().unwrap_err();
        assert!(err.to_string().contains("disk gone"), "{err}");
        // The failure was consumed; later batches resolve cleanly.
        fail.store(false, SeqCst);
        q.wait(issue(&q)).unwrap();
        q.quiesce().unwrap();
    }

    #[test]
    fn absorb_subsumes_pending_tickets() {
        let q = queue(8, "test::queue::enqueue");
        let (_, t2) = (issue(&q), issue(&q));
        assert_eq!(q.depth(), 2);
        q.absorb();
        assert_eq!(q.depth(), 0);
        q.wait(t2).unwrap();
        q.quiesce().unwrap();
    }

    /// With the queue full and `4 × cap` threads heading into
    /// `reserve()`, each `complete()` lets through at most the number
    /// of tickets it resolved, and the depth never exceeds the cap.
    /// A thread that got through issues its ticket only once the main
    /// thread has seen it, as a writer does its append in between: a
    /// bound checked in `reserve` but consumed at `issue` lets the
    /// whole herd through on the first `complete`.
    #[test]
    fn the_cap_is_hard_under_a_thundering_herd() {
        const CAP: u64 = 2;
        let q = queue(CAP as usize, "test::queue::enqueue");
        for _ in 0..CAP {
            issue(&q);
        }
        let (freed, passed, go) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        thread::scope(|s| {
            for _ in 0..4 * CAP {
                s.spawn(|| {
                    let slot = q.reserve();
                    let through = passed.fetch_add(1, SeqCst) + 1;
                    let freed = freed.load(SeqCst);
                    assert!(
                        through <= freed,
                        "{through} reservations passed a full queue after {freed} frees"
                    );
                    spin_until(|| go.load(SeqCst) >= through);
                    slot.issue().unwrap();
                    let depth = q.depth();
                    assert!(depth <= CAP, "depth {depth} above the cap {CAP}");
                });
            }
            // Resolve one ticket at a time; `freed` moves first, so a
            // thread can never count more passes than frees begun.
            for upto in 1..=4 * CAP {
                freed.fetch_add(1, SeqCst);
                q.complete(upto, Ok(()));
                spin_until(|| passed.load(SeqCst) >= upto);
                go.store(upto, SeqCst);
                // Tickets resolve only once issued: wait for this one.
                spin_until(|| q.depth() == CAP);
            }
        });
    }

    #[test]
    fn a_dropped_reservation_frees_its_slot_for_exactly_one_waiter() {
        let q = queue(1, "test::queue::enqueue");
        let held = q.reserve();
        let (inside, entered, go) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let slot = q.reserve();
                    assert_eq!(inside.fetch_add(1, SeqCst), 0, "two slots under a cap of 1");
                    let nth = entered.fetch_add(1, SeqCst) + 1;
                    spin_until(|| go.load(SeqCst) >= nth);
                    inside.fetch_sub(1, SeqCst);
                    drop(slot);
                });
            }
            // One hand-back admits one waiter; the second enters only
            // once the first has handed its slot back in turn.
            drop(held);
            for nth in 1..=2 {
                spin_until(|| entered.load(SeqCst) >= nth);
                go.store(nth, SeqCst);
            }
        });
        assert_eq!(q.state.lock().reserved, 0);
    }

    #[test]
    fn shutdown_wakes_every_parked_reservation_and_refuses_tickets() {
        let q = queue(1, "test::queue::enqueue");
        issue(&q);
        thread::scope(|s| {
            let parked: Vec<_> = (0..4)
                .map(|_| s.spawn(|| q.reserve().issue().is_err()))
                .collect();
            q.shutdown();
            for t in parked {
                assert!(t.join().unwrap(), "a ticket was issued after shutdown");
            }
        });
        // The pending ticket still drains, then the worker side ends.
        assert_eq!(q.next(), Some(1));
        q.complete(1, Ok(()));
        assert_eq!(q.next(), None);
        assert_eq!(q.state.lock().reserved, 0);
    }

    #[test]
    fn an_injected_enqueue_fault_gives_the_slot_back() {
        let s = plat::failpoint::scenario();
        let q = queue(1, "test::queue::enqueue_fault");
        s.set(
            "test::queue::enqueue_fault",
            plat::failpoint::FaultSpec::error().times(1),
        );
        assert!(q.reserve().issue().is_err());
        assert_eq!(q.state.lock().reserved, 0);
        assert_eq!(q.depth(), 0);
        assert_eq!(issue(&q), 1);
    }

    plat::prop! {
        #![cases(16)]

        /// N writers against a model log (a vector pushed to under the
        /// lock the ticket is issued under) and a worker that fails
        /// drawn batches: tickets follow log order, the depth stays
        /// under the cap, every `wait` returns once and `Ok` only for
        /// a sealed ticket, and a successful batch after failed ones
        /// covers their span — nothing is lost.
        fn stress_keeps_ticket_order_and_loses_nothing(g) {
            let writers = g.usize_in(1..6);
            let per_writer = g.usize_in(0..60);
            let cap = g.usize_in(1..6);
            let fail_mask = g.u64() & g.u64();
            let yield_mask = g.u64();
            let q = queue(cap, "test::queue::enqueue");
            let log = Arc::new(Mutex::new(Vec::<(usize, usize)>::new()));
            let sealed = Arc::new(AtomicU64::new(0));
            let failing = Arc::new(AtomicBool::new(true));
            let worker = {
                let (log, sealed, failing) =
                    (Arc::clone(&log), Arc::clone(&sealed), Arc::clone(&failing));
                let mut batch = 0u64;
                Worker::spawn("test-worker", Arc::clone(&q), move || {
                    batch += 1;
                    if failing.load(SeqCst) && fail_mask >> (batch % 64) & 1 == 1 {
                        return Err(LibSealError::Log(format!("batch {batch} failed")));
                    }
                    // A seal covers everything staged, failed spans
                    // included.
                    sealed.store(log.lock().len() as u64, SeqCst);
                    Ok(())
                })
            };
            thread::scope(|s| {
                for w in 0..writers {
                    let (q, log, sealed) = (&q, &log, &sealed);
                    s.spawn(move || {
                        for i in 0..per_writer {
                            let slot = q.reserve();
                            let ticket = {
                                let mut log = log.lock();
                                log.push((w, i));
                                let t = slot.issue().unwrap();
                                assert_eq!(t, log.len() as u64, "ticket order != log order");
                                t
                            };
                            assert!(q.depth() <= cap as u64);
                            if yield_mask >> ((w + i) % 64) & 1 == 1 {
                                thread::yield_now();
                            }
                            if q.wait(ticket).is_ok() {
                                assert!(sealed.load(SeqCst) >= ticket, "acked before sealed");
                            }
                        }
                    });
                }
            });
            let _ = q.quiesce();
            // One more, successful, batch covers whatever failed ones
            // left unsealed.
            failing.store(false, SeqCst);
            q.wait(issue(&q)).unwrap();
            let total = writers * per_writer;
            assert_eq!(sealed.load(SeqCst), total as u64);
            assert_eq!(log.lock().len(), total);
            drop(worker);
            assert_eq!(q.next(), None);
        }
    }
}
