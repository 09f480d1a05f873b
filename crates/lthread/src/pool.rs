//! The job pool both serving drivers run application work on: a few
//! named OS threads sleeping on one shared queue.
//!
//! The event-driven serve loops keep exactly one reactor thread; the
//! application handlers (and, with auditing, the group-commit barrier
//! inside `ssl_write`) run here instead, so a handler that blocks —
//! on the commit barrier's condvar, an asynchronous ecall's reply, an
//! upstream dial — blocks a pool thread, never the reactor. Sessions
//! park *in the reactor* (a few bytes of registered interest) and
//! borrow a thread only while a request is actually being handled.
//! The thread-per-connection driver hands the pool whole connections
//! instead, one job each.
//!
//! These are plain threads, not lthreads: a job is a `FnOnce()` that
//! is never handed a [`crate::Yielder`], so it cannot yield, and what
//! it blocks on blocks its OS thread — concurrency is the thread
//! count. The audited write path (SQL, invariant checks, JSON)
//! therefore runs on a standard stack with a guard page. Coroutines
//! serve the §4.3 asynchronous-call runtime ([`crate::runtime`]) alone.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use plat::sync::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Pool sizing.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Carrier OS threads: how many jobs run at once.
    pub carriers: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { carriers: 2 }
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

/// Shared pool state visible to every carrier.
struct PoolShared {
    /// The queue's receiving end, taken from under this lock.
    rx: Mutex<Receiver<Job>>,
    /// Where idle carriers sleep: signalled once per queued job and
    /// broadcast at shutdown. (Sleeping in `recv` under the lock instead
    /// would make every dispatch also wake a carrier waiting for it.)
    ready: Condvar,
    /// Jobs accepted but not yet finished (mirrored by the
    /// `lthread_pool_queue_depth` gauge).
    in_flight: AtomicU64,
    /// Jobs completed (monotonic; `lthread_pool_jobs_total`).
    completed: AtomicU64,
}

/// The worker pool.
pub struct JobPool {
    tx: Option<Sender<Job>>,
    carriers: Vec<JoinHandle<()>>,
    shared: Arc<PoolShared>,
}

impl JobPool {
    /// Starts the carriers.
    pub fn new(cfg: PoolConfig) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let shared = Arc::new(PoolShared {
            rx: Mutex::new(rx),
            ready: Condvar::new(),
            in_flight: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let carriers = (0..cfg.carriers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pool-carrier-{i}"))
                    .spawn(move || carrier(shared))
                    .expect("spawn a pool carrier thread")
            })
            .collect();
        JobPool {
            tx: Some(tx),
            carriers,
            shared,
        }
    }

    /// Queues a job for execution on some carrier.
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
        {
            // Sent under the lock, so a carrier that just found the
            // queue empty is already asleep on `ready` when the signal
            // comes. The receiver lives in `shared`: the send cannot fail.
            let _rx = self.shared.rx.lock();
            let _ = tx.send(Box::new(job));
        }
        self.shared.ready.notify_one();
        Ok(())
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
        {
            let _rx = self.shared.rx.lock();
            self.tx = None;
        }
        self.shared.ready.notify_all();
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

/// One carrier thread: run jobs as they arrive, asleep on `ready` in
/// between (no CPU while idle or while another carrier's job is
/// parked). The queue reads Disconnected only once the pool dropped its
/// sender *and* the queue is empty, so shutdown drains what was
/// accepted. The lock is released before the job runs.
fn carrier(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut rx = shared.rx.lock();
            loop {
                match rx.try_recv() {
                    Ok(job) => break job,
                    Err(TryRecvError::Empty) => rx = shared.ready.wait(rx),
                    Err(TryRecvError::Disconnected) => return,
                }
            }
        };
        job();
        shared.completed.fetch_add(1, Ordering::SeqCst);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        libseal_telemetry::counter("lthread_pool_jobs_total").inc();
        libseal_telemetry::gauge("lthread_pool_queue_depth").sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_complete() {
        let pool = JobPool::new(PoolConfig { carriers: 2 });
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
        let pool = JobPool::new(PoolConfig { carriers: 1 });
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
        let pool = JobPool::new(PoolConfig { carriers: 2 });
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
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
