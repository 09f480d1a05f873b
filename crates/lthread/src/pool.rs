//! An M:N job pool built on lthread coroutines (§4.3 applied to the
//! service layer).
//!
//! The event-driven serve loops keep exactly one reactor thread; the
//! application handlers (and, with auditing, the group-commit barrier
//! inside `ssl_write`) run here instead. A [`JobPool`] multiplexes
//! many lthread coroutines over a few *carrier* OS threads: each
//! coroutine pulls jobs from a shared queue, runs them, and yields
//! back to its carrier between jobs, so a handful of OS threads serve
//! an arbitrary number of in-flight requests.
//!
//! This deliberately diverges from coroutine-per-session: lthread
//! stacks are committed up front, so parking ten thousand idle
//! sessions each on its own stack would waste hundreds of megabytes.
//! Sessions park *in the reactor* (a few bytes of registered interest)
//! and borrow a coroutine only while a request is actually being
//! handled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use plat::channel::{self, Receiver, RecvTimeoutError, Sender};
use plat::sync::Mutex;

use crate::coro::{Coroutine, Resume};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Pool sizing.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Carrier OS threads.
    pub carriers: usize,
    /// Coroutines multiplexed per carrier.
    pub lthreads_per_carrier: usize,
    /// Stack bytes per coroutine (rounded up by [`Coroutine::new`]).
    pub stack_size: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            carriers: 2,
            lthreads_per_carrier: 8,
            stack_size: 64 * 1024,
        }
    }
}

/// Error returned by [`JobPool::spawn`] once the pool is shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolShutdown;

impl std::fmt::Display for PoolShutdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job pool is shut down")
    }
}

impl std::error::Error for PoolShutdown {}

/// Shared pool state visible to every coroutine.
struct PoolShared {
    /// Jobs accepted but not yet finished (mirrored by the
    /// `lthread_pool_queue_depth` gauge).
    in_flight: AtomicU64,
    /// Jobs completed (monotonic; `lthread_pool_jobs_total`).
    completed: AtomicU64,
}

/// The M:N worker pool.
pub struct JobPool {
    tx: Option<Sender<Job>>,
    carriers: Vec<JoinHandle<()>>,
    shared: Arc<PoolShared>,
}

impl JobPool {
    /// Starts the carriers and their coroutines.
    pub fn new(cfg: PoolConfig) -> Self {
        let (tx, rx) = channel::unbounded::<Job>();
        let shared = Arc::new(PoolShared {
            in_flight: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let carriers = (0..cfg.carriers.max(1))
            .map(|_| {
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                let coros = cfg.lthreads_per_carrier.max(1);
                let stack = cfg.stack_size;
                std::thread::spawn(move || carrier(rx, shared, coros, stack))
            })
            .collect();
        JobPool {
            tx: Some(tx),
            carriers,
            shared,
        }
    }

    /// Queues a job for execution on some coroutine.
    ///
    /// # Errors
    ///
    /// [`PoolShutdown`] when the pool no longer accepts work.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolShutdown> {
        let Some(tx) = &self.tx else {
            return Err(PoolShutdown);
        };
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        libseal_telemetry::gauge("lthread_pool_queue_depth").add(1);
        match tx.send(Box::new(job)) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                libseal_telemetry::gauge("lthread_pool_queue_depth").sub(1);
                Err(PoolShutdown)
            }
        }
    }

    /// Jobs accepted but not yet finished.
    pub fn in_flight(&self) -> u64 {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Jobs run to completion since the pool started.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::SeqCst)
    }

    /// Stops accepting jobs, drains everything already queued, and
    /// joins the carriers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Dropping the only sender turns the queue Disconnected *after*
        // it empties, so queued jobs still run.
        self.tx = None;
        for h in self.carriers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One carrier thread: resume every coroutine round-robin, then sleep
/// on the queue until the next job (or shutdown) arrives. A coroutine
/// yields only on finding the queue empty, so a finished sweep means
/// there was nothing left to run; the carrier blocks whatever the other
/// carriers are doing, so a job parked on one never makes another spin.
/// Exits once every coroutine finished (which they do only on queue
/// disconnection, i.e. shutdown).
fn carrier(rx: Receiver<Job>, shared: Arc<PoolShared>, coros: usize, stack: usize) {
    // The job the carrier's blocking receive returned; the first
    // coroutine of the next sweep runs it.
    let handoff: Arc<Mutex<Option<Job>>> = Arc::new(Mutex::new(None));
    let mut lthreads: Vec<Coroutine> = (0..coros)
        .map(|_| {
            let rx = rx.clone();
            let shared = Arc::clone(&shared);
            let handoff = Arc::clone(&handoff);
            Coroutine::new(stack, move |y| loop {
                let handed = handoff.lock().take();
                match handed.map_or_else(|| rx.try_recv(), Ok) {
                    Ok(job) => {
                        job();
                        shared.completed.fetch_add(1, Ordering::SeqCst);
                        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                        libseal_telemetry::counter("lthread_pool_jobs_total").inc();
                        libseal_telemetry::gauge("lthread_pool_queue_depth").sub(1);
                    }
                    // Empty: park this coroutine until the carrier's
                    // next sweep.
                    Err(RecvTimeoutError::Timeout) => y.yield_now(),
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            })
        })
        .collect();
    loop {
        let mut finished = 0usize;
        for c in lthreads.iter_mut() {
            if c.is_finished() || c.resume() == Resume::Finished {
                finished += 1;
            }
        }
        if finished == lthreads.len() {
            return;
        }
        // `None` is shutdown with the queue drained: the next sweep
        // lets every coroutine see the disconnect and finish.
        *handoff.lock() = rx.recv();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_complete() {
        let pool = JobPool::new(PoolConfig {
            carriers: 2,
            lthreads_per_carrier: 4,
            stack_size: 64 * 1024,
        });
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let h = Arc::clone(&hits);
            pool.spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.completed() < 100 {
            assert!(std::time::Instant::now() < deadline, "pool stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(hits.load(Ordering::SeqCst), 100);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = JobPool::new(PoolConfig {
            carriers: 1,
            lthreads_per_carrier: 2,
            stack_size: 64 * 1024,
        });
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let h = Arc::clone(&hits);
            pool.spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 50, "shutdown must drain");
    }

    #[test]
    fn blocked_job_does_not_stop_other_carriers() {
        let pool = JobPool::new(PoolConfig {
            carriers: 2,
            lthreads_per_carrier: 2,
            stack_size: 64 * 1024,
        });
        let (gate_tx, gate_rx) = channel::unbounded::<()>();
        pool.spawn(move || {
            // Block until released — pins one carrier.
            let _ = gate_rx.recv_timeout(Duration::from_secs(30));
        })
        .unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..20 {
            let h = Arc::clone(&hits);
            pool.spawn(move || {
                h.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::SeqCst) < 20 {
            assert!(
                std::time::Instant::now() < deadline,
                "other carrier should have served the quick jobs"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        gate_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn spawn_after_shutdown_fails() {
        let mut pool = JobPool::new(PoolConfig::default());
        pool.shutdown_inner();
        assert!(pool.spawn(|| ()).is_err());
    }
}
