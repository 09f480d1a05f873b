//! SGX hardware monotonic counters.
//!
//! The paper (§5.1, citing ROTE) notes that SGX counters "have
//! poor performance and limited lifespans": increments take on the
//! order of 100 ms and the backing NVRAM wears out after on the order
//! of a million writes. This module reproduces both properties so the
//! benchmarks show why LibSEAL uses the distributed ROTE protocol
//! (`libseal-rote`) instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use libseal_telemetry::Histogram;

use crate::{Result, SgxError};

/// Latency of simulated HW counter increments, across all counters.
fn increment_latency_hist() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| libseal_telemetry::histogram("sgxsim_counter_increment_ns"))
}

/// A simulated SGX hardware monotonic counter.
pub struct MonotonicCounter {
    value: AtomicU64,
    writes: AtomicU64,
    max_writes: u64,
    increment_latency: Duration,
}

impl MonotonicCounter {
    /// Creates a counter with the given increment latency and write
    /// endurance (the paper-era hardware: ~100 ms and ~1 M writes;
    /// tests and fast benchmarks pass `Duration::ZERO`).
    pub fn with_properties(increment_latency: Duration, max_writes: u64) -> Self {
        MonotonicCounter {
            value: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            max_writes,
            increment_latency,
        }
    }

    /// Reads the current value (fast).
    pub fn read(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }

    /// Increments and returns the new value; pays the NVRAM write
    /// latency and consumes endurance.
    ///
    /// # Errors
    ///
    /// [`SgxError::CounterFailure`] once the endurance budget is
    /// exhausted.
    pub fn increment(&self) -> Result<u64> {
        let start = std::time::Instant::now();
        let writes = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
        if writes > self.max_writes {
            return Err(SgxError::CounterFailure(format!(
                "counter worn out after {} writes",
                self.max_writes
            )));
        }
        if !self.increment_latency.is_zero() {
            std::thread::sleep(self.increment_latency);
        }
        let value = self.value.fetch_add(1, Ordering::SeqCst) + 1;
        increment_latency_hist().record_duration(start.elapsed());
        Ok(value)
    }

    /// Number of writes performed so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_monotonically() {
        let c = MonotonicCounter::with_properties(Duration::ZERO, 100);
        assert_eq!(c.read(), 0);
        assert_eq!(c.increment().unwrap(), 1);
        assert_eq!(c.increment().unwrap(), 2);
        assert_eq!(c.read(), 2);
    }

    #[test]
    fn wears_out() {
        let c = MonotonicCounter::with_properties(Duration::ZERO, 3);
        for _ in 0..3 {
            c.increment().unwrap();
        }
        assert!(matches!(c.increment(), Err(SgxError::CounterFailure(_))));
    }

    #[test]
    fn latency_is_paid() {
        let c = MonotonicCounter::with_properties(Duration::from_millis(5), 10);
        let start = std::time::Instant::now();
        c.increment().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }
}
