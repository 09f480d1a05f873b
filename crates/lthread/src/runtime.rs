//! The asynchronous enclave call runtime (§4.3, Fig. 3).
//!
//! `S` SGX worker threads permanently reside inside the enclave, each
//! running `T` lthread tasks; `A` application threads communicate with
//! them through per-thread request slots. An application thread yields
//! on its slot for a short spin budget, then parks; whoever fills the
//! slot — the lthread that finished the ecall or posted an ocall —
//! unparks it. The paper's dedicated polling thread only repeated those
//! wake-ups, so there is none.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal_sgxsim::enclave::{Enclave, EnclaveServices};
use libseal_sgxsim::Result;

use crate::coro::Coroutine;
use crate::slots::{EcallFn, OcallPort, Slot};

/// How long an application thread yields on its slot before it parks,
/// counted from the call's start and again from each ocall it serves.
/// Measured with `micro_ecall_cost`'s async no-op round trip on a
/// 2-core host, five alternated invocations each: parking at once costs
/// 5.7–7.1 µs a call, yielding throughout 1.4–5.1 µs, so a call that
/// returns soon must not park. 50 µs read 2.4–5.7 µs, within
/// yielding's own spread; 200 µs (1.5–3.8 µs) was not resolved from it
/// and burns four times as long per waiting caller before a long call
/// (a handshake, a commit wait: milliseconds) parks.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Configuration of the async runtime.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of SGX worker threads resident in the enclave (`S`).
    pub sgx_threads: usize,
    /// Number of lthread tasks per SGX thread (`T`).
    pub lthreads_per_thread: usize,
    /// Number of application slots (`A`, one per application thread).
    pub slots: usize,
    /// Stack size for each lthread task.
    pub stack_size: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            sgx_threads: 3,
            lthreads_per_thread: 48,
            slots: 16,
            stack_size: 256 * 1024,
        }
    }
}

struct RuntimeInner<T: Send + Sync + 'static> {
    enclave: Arc<Enclave<T>>,
    slots: Vec<Slot<T>>,
    shutdown: AtomicBool,
}

/// The asynchronous enclave call runtime.
pub struct AsyncRuntime<T: Send + Sync + 'static> {
    inner: Arc<RuntimeInner<T>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Send + Sync + 'static> AsyncRuntime<T> {
    /// Starts the resident worker threads for `enclave`.
    ///
    /// # Errors
    ///
    /// Fails if the enclave cannot admit `sgx_threads` persistent
    /// threads (TCS exhaustion).
    pub fn start(enclave: Arc<Enclave<T>>, config: RuntimeConfig) -> Result<Self> {
        let inner = Arc::new(RuntimeInner {
            enclave,
            slots: (0..config.slots).map(|_| Slot::default()).collect(),
            shutdown: AtomicBool::new(false),
        });

        let mut workers = Vec::with_capacity(config.sgx_threads);
        for worker_idx in 0..config.sgx_threads {
            let inner = Arc::clone(&inner);
            let lthreads = config.lthreads_per_thread;
            let stack = config.stack_size;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("sgx-worker-{worker_idx}"))
                    .spawn(move || worker_loop(inner, lthreads, stack))
                    .expect("spawn sgx worker"),
            );
        }

        Ok(AsyncRuntime { inner, workers })
    }

    /// Executes `f` inside the enclave as an asynchronous ecall from
    /// the application thread owning `slot_idx`.
    ///
    /// Any ocalls `f` performs through its [`OcallPort`] run on this
    /// thread, per the paper's slot-affinity rule.
    ///
    /// # Panics
    ///
    /// Panics if `slot_idx` is out of range or concurrently used by
    /// another application thread.
    pub fn async_ecall<R: Send + 'static>(
        &self,
        slot_idx: usize,
        f: impl for<'p> FnOnce(&T, &EnclaveServices, &OcallPort<'p, T>) -> R + Send,
    ) -> R {
        let slot = &self.inner.slots[slot_idx];
        assert!(
            slot.occupied
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok(),
            "slot {slot_idx} already in use by another application thread"
        );

        let result: Arc<plat::sync::Mutex<Option<R>>> = Arc::new(plat::sync::Mutex::new(None));
        let result2 = Arc::clone(&result);
        // Spelled out (not the `EcallFn` alias) to pin down the exact
        // pre-transmute type the SAFETY argument below relies on.
        #[allow(clippy::type_complexity)]
        let boxed: Box<dyn for<'p> FnOnce(&T, &EnclaveServices, &OcallPort<'p, T>) + Send> =
            Box::new(move |state, sv, port| {
                *result2.lock() = Some(f(state, sv, port));
            });
        // SAFETY: we block below until `ecall_done`, so the non-'static
        // captures of `f` outlive the enclave's use of the closure.
        let boxed: EcallFn<T> = unsafe { std::mem::transmute(boxed) };

        *slot.ecall_req.lock() = Some(boxed);
        slot.ecall_done.store(false, Ordering::Release);
        slot.ecall_pending.store(true, Ordering::Release);

        // Wait, serving our own ocalls as they appear.
        let mut waiting_since = Instant::now();
        loop {
            if slot
                .ocall_pending
                .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let req = slot.ocall_req.lock().take();
                if let Some(req) = req {
                    req();
                }
                slot.ocall_done.store(true, Ordering::Release);
                waiting_since = Instant::now();
                continue;
            }
            if slot.ecall_done.load(Ordering::Acquire) {
                slot.ecall_done.store(false, Ordering::Release);
                break;
            }
            if waiting_since.elapsed() < SPIN_BUDGET {
                // Yield, not spin: on a single core a pure spin would
                // starve the enclave workers for a whole timeslice.
                std::thread::yield_now();
                continue;
            }
            // Registered under the lock before the re-check: a filler
            // that sets its flag after the re-check takes the lock after
            // us, finds us registered and unparks us.
            *slot.waiter.lock() = Some(std::thread::current());
            if !slot.needs_app_thread() {
                std::thread::park();
            }
            slot.waiter.lock().take();
        }

        slot.occupied.store(false, Ordering::Release);
        let out = result.lock().take();
        out.expect("ecall result present after ecall_done")
    }

    /// The underlying enclave.
    pub fn enclave(&self) -> &Arc<Enclave<T>> {
        &self.inner.enclave
    }

    /// Number of application slots.
    pub fn slot_count(&self) -> usize {
        self.inner.slots.len()
    }

    /// Stops the workers and waits for them to exit, as dropping the
    /// runtime does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<T: Send + Sync + 'static> Drop for AsyncRuntime<T> {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop<T: Send + Sync + 'static>(
    inner: Arc<RuntimeInner<T>>,
    lthreads: usize,
    stack_size: usize,
) {
    // Enter the enclave once and stay: TCS slot held for the runtime's
    // lifetime, so async calls pay no transitions.
    let entry = match inner.enclave.enter_persistent() {
        Ok(e) => e,
        Err(_) => return,
    };
    let _ = &entry;

    let mut tasks: Vec<Coroutine> = (0..lthreads)
        .map(|_| {
            let inner = Arc::clone(&inner);
            Coroutine::new(stack_size, move |yielder| {
                // The lthread task: claim pending ecalls from any slot.
                loop {
                    if inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    let mut did_work = false;
                    for slot in inner.slots.iter() {
                        if let Some(req) = slot.try_claim_ecall() {
                            inner.enclave.async_call(|state, sv| {
                                let port = OcallPort {
                                    slot,
                                    yielder,
                                    services: sv,
                                };
                                req(state, sv, &port);
                            });
                            slot.ecall_done.store(true, Ordering::Release);
                            slot.wake_waiter();
                            did_work = true;
                        }
                    }
                    if !did_work {
                        yielder.yield_now();
                    }
                }
            })
        })
        .collect();

    // Round-robin lthread scheduler.
    loop {
        let mut alive = false;
        for task in tasks.iter_mut() {
            if !task.is_finished() {
                alive = true;
                let _ = task.resume();
            }
        }
        if !alive {
            break;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            // Keep resuming until every task observes shutdown and
            // finishes; they need resumes to exit their loops.
            let all_done = tasks.iter().all(|t| t.is_finished());
            if all_done {
                break;
            }
        } else {
            std::thread::yield_now();
        }
    }
    drop(tasks);
    drop(entry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use libseal_sgxsim::cost::CostModel;
    use libseal_sgxsim::enclave::EnclaveBuilder;
    use plat::sync::Mutex;

    fn runtime() -> AsyncRuntime<Mutex<Vec<u64>>> {
        let enclave = Arc::new(
            EnclaveBuilder::new(b"rt-test")
                .cost_model(CostModel::free())
                .tcs_count(8)
                .build(|_| Mutex::new(Vec::new())),
        );
        AsyncRuntime::start(
            enclave,
            RuntimeConfig {
                sgx_threads: 2,
                lthreads_per_thread: 4,
                slots: 4,
                stack_size: 128 * 1024,
            },
        )
        .unwrap()
    }

    #[test]
    fn async_ecall_returns_result() {
        let rt = runtime();
        let out = rt.async_ecall(0, |state, _, _| {
            state.lock().push(42);
            "done".to_string()
        });
        assert_eq!(out, "done");
        let len = rt.async_ecall(0, |state, _, _| state.lock().len());
        assert_eq!(len, 1);
        rt.shutdown();
    }

    #[test]
    fn ocall_executes_on_app_thread() {
        let rt = runtime();
        let app_thread = std::thread::current().id();
        let observed = rt.async_ecall(0, move |_, _, port| {
            port.ocall("probe", move || std::thread::current().id())
        });
        assert_eq!(observed, app_thread);
        rt.shutdown();
    }

    #[test]
    fn nested_ocalls_roundtrip() {
        let rt = runtime();
        let sum = rt.async_ecall(1, |_, _, port| {
            let a: u64 = port.ocall("read", || 10);
            let b: u64 = port.ocall("read", || 32);
            a + b
        });
        assert_eq!(sum, 42);
        rt.shutdown();
    }

    #[test]
    fn concurrent_app_threads() {
        let rt = Arc::new(runtime());
        let mut handles = Vec::new();
        for slot in 0..4 {
            let rt = Arc::clone(&rt);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let v = rt.async_ecall(slot, move |state, _, port| {
                        state.lock().push(i);
                        port.ocall("echo", move || i * 2)
                    });
                    assert_eq!(v, i * 2);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total = rt.async_ecall(0, |state, _, _| state.lock().len());
        assert_eq!(total, 200);
        match Arc::try_unwrap(rt) {
            Ok(rt) => rt.shutdown(),
            Err(_) => panic!("runtime still shared"),
        }
    }

    #[test]
    fn stats_record_async_calls() {
        let rt = runtime();
        rt.async_ecall(0, |_, _, port| {
            port.ocall("x", || ());
        });
        let snap = rt.enclave().services().stats().snapshot();
        assert_eq!(snap.async_ecalls, 1);
        assert_eq!(snap.async_ocalls, 1);
        assert_eq!(snap.ecalls, 0, "no sync transitions on the async path");
        rt.shutdown();
    }

    #[test]
    fn borrowed_captures_work() {
        // The ecall closure may borrow stack data of the app thread.
        let rt = runtime();
        let local = vec![1u64, 2, 3];
        let local_ref = &local;
        let sum = rt.async_ecall(0, move |_, _, _| local_ref.iter().sum::<u64>());
        assert_eq!(sum, 6);
        rt.shutdown();
    }
}
