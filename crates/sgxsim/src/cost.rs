//! The SGX performance cost model.
//!
//! The paper's micro-benchmarks give the anchors:
//!
//! - one synchronous enclave transition costs ~8,400 cycles (§4.2),
//!   about 6× a system call;
//! - with 48 threads executing inside the enclave, one ecall costs
//!   ~170,000 cycles — a 20× increase (§6.8);
//! - EPC paging beyond the ~128 MB limit is expensive (§2.5).
//!
//! Costs are charged by *actually spinning the CPU* for the equivalent
//! wall-clock time, so end-to-end measurements (requests/sec over real
//! sockets) reflect the modelled SGX tax. Spin throughput is calibrated
//! once per process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Tunable cost parameters for the simulated TEE.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Whether costs are charged at all. Unit tests disable this.
    pub enabled: bool,
    /// Assumed CPU clock in GHz, used to convert cycles to time.
    pub clock_ghz: f64,
    /// Cycles for one synchronous transition (ecall or ocall) with a
    /// single thread inside the enclave.
    pub sync_transition_cycles: u64,
    /// Extra contention factor per additional thread executing inside
    /// the enclave. Calibrated so 48 threads cost ~20× one thread:
    /// `cost = sync * (1 + alpha * (threads - 1))` with `alpha ≈ 0.404`.
    pub contention_alpha: f64,
    /// Cycles charged when the async slot mechanism hands over one call
    /// (shared-memory write + schedule), replacing a full transition.
    pub async_handoff_cycles: u64,
    /// Usable EPC size in bytes before paging kicks in (~93.5 MB usable
    /// of the 128 MB EPC on the paper's hardware).
    pub epc_limit_bytes: u64,
    /// Cycles charged per 4 KB page swapped between EPC and DRAM.
    pub epc_page_swap_cycles: u64,
    /// Floor on the thread count used for contention pricing. On hosts
    /// with fewer cores than the paper's testbed, genuine in-enclave
    /// parallelism cannot arise, so transitions would always be priced
    /// at the uncontended 8,400 cycles; setting this to the workload's
    /// configured application-thread count charges the cost the
    /// modelled hardware would see (0 = use the live thread count
    /// only).
    pub assumed_concurrency: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            enabled: true,
            clock_ghz: 3.7, // the paper's Xeon E3-1280 v5
            sync_transition_cycles: 8_400,
            contention_alpha: 0.404,
            async_handoff_cycles: 450,
            epc_limit_bytes: 93 * 1024 * 1024,
            epc_page_swap_cycles: 12_000,
            assumed_concurrency: 0,
        }
    }
}

impl CostModel {
    /// A model that charges nothing; useful for functional tests.
    pub fn free() -> Self {
        CostModel {
            enabled: false,
            ..CostModel::default()
        }
    }

    /// Cycles for one synchronous transition given `threads` currently
    /// executing inside the enclave.
    #[must_use]
    pub fn transition_cycles(&self, threads: u64) -> u64 {
        let threads = threads.max(self.assumed_concurrency);
        let extra = threads.saturating_sub(1) as f64;
        (self.sync_transition_cycles as f64 * (1.0 + self.contention_alpha * extra)) as u64
    }

    /// Burns CPU for approximately `cycles` cycles of the modelled clock.
    pub fn charge_cycles(&self, cycles: u64) {
        if !self.enabled || cycles == 0 {
            return;
        }
        let nanos = cycles as f64 / self.clock_ghz;
        spin_for_nanos(nanos as u64);
    }

    /// Charges one synchronous enclave transition.
    pub fn charge_transition(&self, threads_inside: u64) {
        self.charge_cycles(self.transition_cycles(threads_inside.max(1)));
    }

    /// Charges one asynchronous slot handoff.
    pub fn charge_async_handoff(&self) {
        self.charge_cycles(self.async_handoff_cycles);
    }
}

/// Calibrated spin iterations per microsecond.
fn spin_iters_per_us() -> u64 {
    static CAL: OnceLock<u64> = OnceLock::new();
    *CAL.get_or_init(|| {
        // Measure how many spin iterations fit in ~2 ms.
        let start = Instant::now();
        let mut iters: u64 = 0;
        let sink = AtomicU64::new(0);
        while start.elapsed().as_micros() < 2_000 {
            for _ in 0..1_000 {
                std::hint::spin_loop();
                sink.fetch_add(1, Ordering::Relaxed);
            }
            iters += 1_000;
        }
        let us = start.elapsed().as_micros().max(1) as u64;
        (iters / us).max(1)
    })
}

/// Busy-spins for approximately `nanos` nanoseconds.
pub fn spin_for_nanos(nanos: u64) {
    if nanos == 0 {
        return;
    }
    // Iteration-based burning (not wall-clock): under thread
    // contention a wall-clock spin would count descheduled time as
    // work done, silently parallelising the modelled cost.
    let iters = spin_iters_per_us() * nanos / 1_000;
    let sink = AtomicU64::new(0);
    for _ in 0..iters.max(1) {
        std::hint::spin_loop();
        sink.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_cycles_scale_with_threads() {
        let m = CostModel::default();
        let one = m.transition_cycles(1);
        let many = m.transition_cycles(48);
        assert_eq!(one, 8_400);
        // Paper: ~20x at 48 threads.
        let ratio = many as f64 / one as f64;
        assert!((18.0..22.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = CostModel::free();
        let start = Instant::now();
        for _ in 0..1000 {
            m.charge_transition(4);
        }
        assert!(start.elapsed().as_millis() < 50);
    }

    #[test]
    fn enabled_model_burns_time() {
        let m = CostModel {
            enabled: true,
            ..CostModel::default()
        };
        let start = Instant::now();
        // 3.7 GHz, 8400 cycles ≈ 2.3 us each; 2000 calls ≈ 4.5 ms.
        for _ in 0..2000 {
            m.charge_transition(1);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed.as_micros() > 1_000,
            "charging was too cheap: {elapsed:?}"
        );
    }

    #[test]
    fn async_handoff_cheaper_than_transition() {
        let m = CostModel::default();
        assert!(m.async_handoff_cycles * 10 < m.sync_transition_cycles);
    }

    #[test]
    fn spin_calibration_is_sane() {
        assert!(spin_iters_per_us() >= 1);
    }
}
