#![warn(missing_docs)]
//! A simulated Intel SGX trusted execution environment.
//!
//! The LibSEAL paper runs on SGX hardware; this workspace has none, so
//! this crate provides a software stand-in that preserves the two
//! properties the paper's design and evaluation depend on:
//!
//! 1. **A trust boundary.** Trusted state lives inside an [`Enclave`]
//!    and is reachable *only* through registered ecalls; enclave code
//!    reaches the outside world only through ocalls. Sealing binds
//!    persisted data to the enclave's signing authority, and quotes
//!    ([`attest`]) let remote parties verify what code they talk to.
//!
//! 2. **A cost model.** Every enclave transition charges a calibrated
//!    number of CPU cycles (8,400 per synchronous call in the paper's
//!    micro-benchmark, §4.2, growing with in-enclave thread count,
//!    §6.8), and enclave memory beyond the EPC limit pays a paging
//!    penalty (§2.5). Costs are *really spent* — the simulator spins the
//!    CPU — so end-to-end throughput measurements over real sockets
//!    reproduce the paper's relative overheads.
//!
//! The asynchronous call mechanism of §4.3 that avoids these transition
//! costs lives in the `libseal-lthread` crate, layered on top of this
//! one.

pub mod attest;
pub mod cost;
pub mod counter;
pub mod enclave;
pub mod epc;
pub mod seal;
pub mod stats;

pub use attest::{AttestationService, Quote, QuotingEnclave};
pub use cost::CostModel;
pub use counter::MonotonicCounter;
pub use enclave::{CallId, Enclave, EnclaveBuilder, EnclaveServices};
pub use epc::EpcState;
pub use seal::SealingPolicy;
pub use stats::{StatsSnapshot, TransitionStats};

/// Errors surfaced by the simulated TEE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// All TCS slots are busy: too many threads inside the enclave.
    OutOfTcs,
    /// A sealed blob failed to authenticate or decrypt.
    SealingFailure,
    /// A hardware monotonic counter wore out or was used incorrectly.
    CounterFailure(String),
    /// A quote failed verification.
    AttestationFailure,
    /// An interface check on an ecall/ocall parameter failed.
    InterfaceViolation(String),
}

impl std::fmt::Display for SgxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgxError::OutOfTcs => write!(f, "no free TCS slot for enclave entry"),
            SgxError::SealingFailure => write!(f, "sealed data failed to unseal"),
            SgxError::CounterFailure(m) => write!(f, "monotonic counter failure: {m}"),
            SgxError::AttestationFailure => write!(f, "quote verification failed"),
            SgxError::InterfaceViolation(m) => write!(f, "interface check failed: {m}"),
        }
    }
}

impl std::error::Error for SgxError {}

/// Convenience alias for fallible TEE operations.
pub type Result<T> = std::result::Result<T, SgxError>;
