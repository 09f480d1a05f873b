//! Raw x86-64 context switching for stackful coroutines.
//!
//! Modelled on the boost-context / lthread approach: a switch saves the
//! System V callee-saved registers and the stack pointer of the current
//! execution context, then restores those of the target context. New
//! contexts are born with a hand-crafted stack frame whose return
//! address is a trampoline that calls into Rust.

use std::panic::AssertUnwindSafe;

core::arch::global_asm!(
    ".text",
    ".globl lthread_ctx_switch",
    ".type lthread_ctx_switch, @function",
    // fn lthread_ctx_switch(save: *mut u64 /* rdi */, restore: u64 /* rsi */)
    "lthread_ctx_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov qword ptr [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size lthread_ctx_switch, . - lthread_ctx_switch",
    ".globl lthread_ctx_tramp",
    ".type lthread_ctx_tramp, @function",
    // First activation of a new context lands here via `ret`. The
    // coroutine cell pointer was parked in r12 by `prepare_stack`.
    "lthread_ctx_tramp:",
    "mov rdi, r12",
    // `ret` left rsp 8-modulo-16; realign for the call below.
    "sub rsp, 8",
    "call {entry}",
    "ud2",
    ".size lthread_ctx_tramp, . - lthread_ctx_tramp",
    entry = sym lthread_entry,
);

unsafe extern "C" {
    /// Saves the current context's stack pointer through `save` and
    /// resumes execution at the context whose stack pointer is
    /// `restore`.
    pub fn lthread_ctx_switch(save: *mut u64, restore: u64);
    fn lthread_ctx_tramp();
}

/// Everything the trampoline needs to run a coroutine body.
pub struct EntryCell {
    /// The coroutine body; taken exactly once by the trampoline.
    pub body: Option<Box<dyn FnOnce()>>,
    /// Where the final "I am done" switch returns to (the resumer's
    /// saved stack pointer). Updated on every resume.
    pub return_rsp: u64,
}

/// The Rust half of the trampoline: runs the body, then switches back
/// to the most recent resumer forever.
///
/// # Safety
///
/// Called exactly once per coroutine by `lthread_ctx_tramp` with the
/// pointer that `prepare_stack` parked in `r12`; `cell` must stay valid
/// for the coroutine's lifetime.
unsafe extern "C" fn lthread_entry(cell: *mut EntryCell) -> ! {
    {
        // SAFETY: The cell outlives the coroutine (owned by Coroutine).
        let cell_ref = unsafe { &mut *cell };
        let body = cell_ref.body.take().expect("body present at first entry");
        // A panic must not unwind into the assembly trampoline.
        let result = std::panic::catch_unwind(AssertUnwindSafe(body));
        if result.is_err() {
            // Propagating coroutine panics across contexts is not
            // supported; treat it as fatal like a panic in a detached
            // thread would be under panic=abort.
            eprintln!("lthread: coroutine panicked; aborting");
            std::process::abort();
        }
    }
    // SAFETY: `cell` is still valid; return_rsp was stored by the
    // resumer immediately before switching to us.
    unsafe {
        let mut scratch = 0u64;
        let target = (*cell).return_rsp;
        lthread_ctx_switch(&mut scratch, target);
    }
    unreachable!("finished coroutine must never be resumed");
}

/// Carves an initial stack frame for a new coroutine into `stack` and
/// returns the stack pointer to switch to.
///
/// # Safety
///
/// `cell` must remain valid (not moved or dropped) until the coroutine
/// finishes; `stack` must outlive the coroutine.
pub unsafe fn prepare_stack(stack: &mut [u8], cell: *mut EntryCell) -> u64 {
    let top = stack.as_mut_ptr() as u64 + stack.len() as u64;
    // 16-byte align the top.
    let mut sp = top & !15;
    let mut push = |v: u64| {
        sp -= 8;
        // SAFETY: sp stays within `stack`, which is at least 4 KiB.
        unsafe { (sp as *mut u64).write(v) };
    };
    push(0); // Fake return address slot for the trampoline's frame.
    push(lthread_ctx_tramp as *const () as usize as u64); // `ret` target of first switch.
    push(0); // rbp
    push(0); // rbx
    push(cell as u64); // r12: the trampoline's argument.
    push(0); // r13
    push(0); // r14
    push(0); // r15
    sp
}
