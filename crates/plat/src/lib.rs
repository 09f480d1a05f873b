//! Platform shims keeping the workspace free of external crates.
//!
//! LibSEAL's trust argument rests on a small, fully-auditable TCB
//! (§4: the paper ports LibreSSL and SQLite into the enclave rather
//! than trusting opaque binaries). This crate applies the same policy
//! to the reproduction itself: every capability the workspace used to
//! pull from crates.io lives here as a thin, std-backed shim, so a
//! clean checkout builds with `CARGO_NET_OFFLINE=true` and an empty
//! registry cache.
//!
//! The product runs on Linux on x86-64, the only architecture with
//! SGX; its records need AES-NI. The shims also build on aarch64 (the
//! [`entropy`] fallback, the portable `lthread` coroutine), where the
//! workspace compiles and its scalar primitives run but no product
//! path does.
//!
//! - [`sync`] — poison-transparent `Mutex`/`RwLock` (the `parking_lot`
//!   surface the workspace used). Hand-offs between threads use
//!   `std::sync::mpsc` directly: no shim repeats what `std` has.
//! - [`entropy`] — OS randomness: `/dev/urandom`, falling back to the
//!   `getrandom` syscall (the `rand::rngs::OsRng` surface).
//! - [`tmp`] — RAII temp-path guard for disk-backed tests.
//! - [`check`] — seeded, shrink-free property-testing harness (the
//!   `proptest` surface, deterministic by construction).
//! - [`failpoint`] — deterministic fault injection (the `fail-rs`
//!   surface): named sites, per-test scoped fault scenarios, torn
//!   writes and simulated crashes for crash-consistency testing.
//! - [`reactor`] — epoll-backed readiness multiplexer with an
//!   `eventfd` waker (the `mio` surface), via direct syscalls.
//! - [`timer`] — ordered deadline set for per-session timeouts.
//! - [`chaos`] — deterministic fault-injecting stream wrapper (short
//!   reads/writes, stalls, resets, truncation, delays) for
//!   hostile-network testing.

pub mod chaos;
pub mod check;
pub mod entropy;
pub mod failpoint;
pub mod reactor;
pub mod sync;
pub mod timer;
pub mod tmp;
