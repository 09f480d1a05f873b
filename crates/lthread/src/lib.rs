#![warn(missing_docs)]
//! User-level threading and asynchronous enclave calls for LibSEAL.
//!
//! Enclave transitions are expensive (§4.2: ~8,400 cycles each, worse
//! under contention). LibSEAL therefore executes ecalls and ocalls
//! *asynchronously* (§4.3): application threads write call requests
//! into shared slots, and user-level `lthread` tasks running on a small
//! number of permanently-resident enclave threads pick them up. This
//! crate reproduces that machinery:
//!
//! - [`coro`]: stackful coroutines with an x86-64 assembly context
//!   switch;
//! - [`slots`]: the per-application-thread request slots of Fig. 4;
//! - [`runtime`]: the `S × T` worker/task topology of Fig. 3; an
//!   application thread yields briefly on its slot, then parks until
//!   the slot is filled;
//! - [`pool`]: the job pool the event-driven serve loops run
//!   application handlers on — plain OS threads on one queue, outside
//!   the enclave; coroutines serve the [`runtime`] alone.

pub mod context;
pub mod coro;
pub mod pool;
pub mod runtime;
pub mod slots;

pub use coro::{Coroutine, Resume, Yielder};
pub use pool::{JobPool, PoolConfig};
pub use runtime::{AsyncRuntime, RuntimeConfig};
pub use slots::OcallPort;
