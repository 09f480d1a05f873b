//! Shared request slots for asynchronous enclave calls (§4.3, Fig. 4).
//!
//! One slot per application thread, shared between the enclave and the
//! outside. The application thread writes an async-ecall into its slot
//! and waits; an lthread task inside the enclave claims and executes
//! it. When enclave code needs the outside world, it posts an
//! async-ocall into the *same* slot — the paper requires ocalls to be
//! executed by the application thread that issued the ecall, because
//! that thread owns the context (e.g. the client socket).

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::Thread;

use libseal_sgxsim::enclave::EnclaveServices;
use plat::sync::Mutex;

/// An enclave-bound request: runs against the trusted state with an
/// [`OcallPort`] for calling back out.
pub type EcallFn<T> = Box<dyn for<'p> FnOnce(&T, &EnclaveServices, &OcallPort<'p, T>) + Send>;

/// An outside-bound request: runs on the application thread.
pub type OcallFn = Box<dyn FnOnce() + Send>;

/// One application thread's request slot.
pub struct Slot<T> {
    /// An ecall request is waiting to be claimed by an lthread task.
    pub(crate) ecall_pending: AtomicBool,
    /// The ecall finished; its result cell is filled.
    pub(crate) ecall_done: AtomicBool,
    /// An ocall request is waiting for the application thread.
    pub(crate) ocall_pending: AtomicBool,
    /// The ocall finished; its result cell is filled.
    pub(crate) ocall_done: AtomicBool,
    pub(crate) ecall_req: Mutex<Option<EcallFn<T>>>,
    pub(crate) ocall_req: Mutex<Option<OcallFn>>,
    /// The application thread, while it is parked waiting on this slot;
    /// whoever fills the slot takes and unparks it.
    pub(crate) waiter: Mutex<Option<Thread>>,
    /// Whether an application thread currently owns this slot.
    pub(crate) occupied: AtomicBool,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot {
            ecall_pending: AtomicBool::new(false),
            ecall_done: AtomicBool::new(false),
            ocall_pending: AtomicBool::new(false),
            ocall_done: AtomicBool::new(false),
            ecall_req: Mutex::new(None),
            ocall_req: Mutex::new(None),
            waiter: Mutex::new(None),
            occupied: AtomicBool::new(false),
        }
    }
}

impl<T> Slot<T> {
    /// Attempts to claim a pending ecall request; used by lthread tasks.
    pub(crate) fn try_claim_ecall(&self) -> Option<EcallFn<T>> {
        if self
            .ecall_pending
            .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.ecall_req.lock().take()
        } else {
            None
        }
    }

    /// Whether anything in this slot needs the application thread's
    /// attention.
    pub(crate) fn needs_app_thread(&self) -> bool {
        self.ocall_pending.load(Ordering::Acquire) || self.ecall_done.load(Ordering::Acquire)
    }

    /// Unparks the application thread if it is parked on this slot;
    /// call after setting the flag it waits for.
    pub(crate) fn wake_waiter(&self) {
        if let Some(w) = self.waiter.lock().take() {
            w.unpark();
        }
    }
}

/// Enclave-side handle for issuing asynchronous ocalls from within an
/// async ecall.
pub struct OcallPort<'p, T> {
    pub(crate) slot: &'p Slot<T>,
    pub(crate) yielder: &'p crate::coro::Yielder,
    pub(crate) services: &'p EnclaveServices,
}

impl<T> OcallPort<'_, T> {
    /// Executes `f` outside the enclave on the owning application
    /// thread, suspending this lthread task until the result arrives.
    ///
    /// Costs one cheap slot handoff instead of a full enclave
    /// transition.
    pub fn ocall<R: Send + 'static>(&self, _name: &'static str, f: impl FnOnce() -> R + Send) -> R {
        self.services.model().charge_async_handoff();
        self.services
            .stats()
            .record_async_ocall(self.services.model().async_handoff_cycles);

        let result: std::sync::Arc<Mutex<Option<R>>> = std::sync::Arc::new(Mutex::new(None));
        let result2 = std::sync::Arc::clone(&result);
        // SAFETY of the lifetime erasure below: we block (yield-loop)
        // inside this function until `ocall_done` is set, so `f` cannot
        // outlive this stack frame even though the box claims 'static.
        let boxed: Box<dyn FnOnce() + Send> = Box::new(move || {
            *result2.lock() = Some(f());
        });
        let boxed: OcallFn = unsafe { std::mem::transmute(boxed) };

        *self.slot.ocall_req.lock() = Some(boxed);
        self.slot.ocall_done.store(false, Ordering::Release);
        self.slot.ocall_pending.store(true, Ordering::Release);
        self.slot.wake_waiter();

        while !self.slot.ocall_done.load(Ordering::Acquire) {
            self.yielder.yield_now();
        }
        self.slot.ocall_done.store(false, Ordering::Release);
        let out = result.lock().take();
        out.expect("ocall result present after ocall_done")
    }

    /// The enclave services (sealing, RNG, stats) for this call.
    pub fn services(&self) -> &EnclaveServices {
        self.services
    }
}
