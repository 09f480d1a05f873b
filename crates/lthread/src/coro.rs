//! Stackful user-level coroutines (the `lthread` tasks of §4.3).
//!
//! A coroutine switches stacks in user space with a handful of
//! assembly instructions (see [`crate::context`]) — this is what makes
//! async enclave calls cheap.

use crate::context::{lthread_ctx_switch, prepare_stack, EntryCell};

/// Outcome of resuming a coroutine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// The coroutine yielded and can be resumed again.
    Yielded,
    /// The coroutine body returned; it must not be resumed again.
    Finished,
}

/// Handle passed to coroutine bodies for cooperative yielding.
pub struct Yielder {
    inner: *mut CoroShared,
}

impl Yielder {
    /// Suspends the coroutine, returning control to whoever resumed it.
    pub fn yield_now(&self) {
        // SAFETY: `inner` points into the Coroutine that is currently
        // running us; it cannot be dropped while we are suspended
        // because dropping a live coroutine aborts (see Drop).
        unsafe { yield_from(self.inner) };
    }
}

/// Shared mutable state between a coroutine and its resumer.
struct CoroShared {
    /// The coroutine's saved stack pointer while suspended.
    task_rsp: u64,
    /// The entry cell; `return_rsp` doubles as the resumer context.
    cell: EntryCell,
    finished: bool,
}

/// A stackful coroutine with its own stack.
pub struct Coroutine {
    shared: Box<CoroShared>,
    // Keep the stack alive and pinned for the coroutine's lifetime.
    _stack: Box<[u8]>,
    started: bool,
}

// SAFETY: A suspended coroutine is just memory (a stack plus saved
// registers); it is safe to move the handle between threads as long
// as only one thread resumes it at a time, which `&mut self`
// enforces.
unsafe impl Send for Coroutine {}

impl Coroutine {
    /// Creates a coroutine running `body` on a fresh stack of
    /// `stack_size` bytes (rounded up to 4 KiB, minimum 16 KiB).
    pub fn new(stack_size: usize, body: impl FnOnce(&Yielder) + Send + 'static) -> Self {
        let stack_size = stack_size.max(16 * 1024).next_multiple_of(4096);
        let mut stack = vec![0u8; stack_size].into_boxed_slice();
        let mut shared = Box::new(CoroShared {
            task_rsp: 0,
            cell: EntryCell {
                body: None,
                return_rsp: 0,
            },
            finished: false,
        });
        let shared_ptr: *mut CoroShared = &mut *shared;
        // The body wrapper owns the Yielder construction and marks
        // completion.
        let wrapped = Box::new(move || {
            let yielder = Yielder { inner: shared_ptr };
            body(&yielder);
            // SAFETY: the shared cell outlives the coroutine body.
            unsafe { (*shared_ptr).finished = true };
        });
        shared.cell.body = Some(wrapped);
        // SAFETY: `shared.cell` is heap-pinned by the Box and the
        // stack lives as long as the Coroutine.
        let task_rsp = unsafe { prepare_stack(&mut stack, &mut shared.cell) };
        shared.task_rsp = task_rsp;
        Coroutine {
            shared,
            _stack: stack,
            started: false,
        }
    }

    /// Resumes the coroutine until it yields or finishes.
    ///
    /// # Panics
    ///
    /// Panics if called after the coroutine finished.
    pub fn resume(&mut self) -> Resume {
        assert!(!self.shared.finished, "resume on finished coroutine");
        self.started = true;
        let shared: *mut CoroShared = &mut *self.shared;
        // SAFETY: shared is valid; the switch saves our context in
        // cell.return_rsp and activates the task's stack. The task
        // switches back via `yield_from` or the trampoline exit,
        // restoring us here.
        unsafe {
            let target = (*shared).task_rsp;
            lthread_ctx_switch(&mut (*shared).cell.return_rsp, target);
        }
        if self.shared.finished {
            Resume::Finished
        } else {
            Resume::Yielded
        }
    }

    /// Whether the coroutine has run to completion.
    pub fn is_finished(&self) -> bool {
        self.shared.finished
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        if self.started && !self.shared.finished {
            // Dropping a suspended coroutine would leak whatever its
            // stack owns and dangle the Yielder; treat as fatal.
            eprintln!("lthread: dropped a live coroutine; aborting");
            std::process::abort();
        }
    }
}

/// Switches from the running coroutine back to its resumer.
///
/// # Safety
///
/// Must be called from within the coroutine that `shared` belongs
/// to.
unsafe fn yield_from(shared: *mut CoroShared) {
    // SAFETY: Caller contract: we are executing on the coroutine's
    // stack right now, so saving into task_rsp and jumping to the
    // resumer's rsp is the inverse of `resume`.
    unsafe {
        let ret = (*shared).cell.return_rsp;
        lthread_ctx_switch(&mut (*shared).task_rsp, ret);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_to_completion() {
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let mut c = Coroutine::new(64 * 1024, move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(c.resume(), Resume::Finished);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(c.is_finished());
    }

    #[test]
    fn yields_and_resumes() {
        let trace = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&trace);
        let mut c = Coroutine::new(64 * 1024, move |y| {
            t.store(1, Ordering::SeqCst);
            y.yield_now();
            t.store(2, Ordering::SeqCst);
            y.yield_now();
            t.store(3, Ordering::SeqCst);
        });
        assert_eq!(c.resume(), Resume::Yielded);
        assert_eq!(trace.load(Ordering::SeqCst), 1);
        assert_eq!(c.resume(), Resume::Yielded);
        assert_eq!(trace.load(Ordering::SeqCst), 2);
        assert_eq!(c.resume(), Resume::Finished);
        assert_eq!(trace.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn many_coroutines_interleave() {
        const N: usize = 8;
        let counter = Arc::new(AtomicU64::new(0));
        let mut coros: Vec<Coroutine> = (0..N)
            .map(|_| {
                let c = Arc::clone(&counter);
                Coroutine::new(64 * 1024, move |y| {
                    for _ in 0..10 {
                        c.fetch_add(1, Ordering::SeqCst);
                        y.yield_now();
                    }
                })
            })
            .collect();
        let mut finished = 0;
        while finished < N {
            finished = 0;
            for c in coros.iter_mut() {
                if c.is_finished() || c.resume() == Resume::Finished {
                    finished += 1;
                }
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), (N * 10) as u64);
    }

    #[test]
    fn deep_stack_usage() {
        // Recursion that needs a real stack, exercising the allocation.
        fn fib(n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                fib(n - 1) + fib(n - 2)
            }
        }
        let out = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&out);
        let mut c = Coroutine::new(256 * 1024, move |y| {
            let v = fib(20);
            y.yield_now();
            o.store(v, Ordering::SeqCst);
        });
        assert_eq!(c.resume(), Resume::Yielded);
        assert_eq!(c.resume(), Resume::Finished);
        assert_eq!(out.load(Ordering::SeqCst), 6765);
    }

    #[test]
    fn coroutine_moves_between_threads() {
        let mut c = Coroutine::new(64 * 1024, move |y| {
            y.yield_now();
        });
        assert_eq!(c.resume(), Resume::Yielded);
        // Resume on a different thread.
        let handle = std::thread::spawn(move || {
            let mut c = c;
            c.resume()
        });
        assert_eq!(handle.join().unwrap(), Resume::Finished);
    }
}
