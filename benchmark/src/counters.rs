//! The program's own process-wide telemetry, read before and after a
//! traced leg. These fifteen names are part of the benchmark's pinned
//! surface: a change that renames one makes the counter read zero and
//! the workloads that must move it fail loudly.

/// Plain counters.
pub const COUNTERS: [&str; 13] = [
    "sgxsim_ecalls_total",
    "sgxsim_ocalls_total",
    "sgxsim_cycles_charged_total",
    "sgxsim_batch_ecalls_total",
    "sgxsim_batch_items_total",
    "tlsx_records_sealed_total",
    "tlsx_records_opened_total",
    "core_appends_total",
    "core_head_signs_total",
    "core_counter_binds_total",
    "sealdb_journal_fsyncs_total",
    "sealdb_statements_total",
    "lthread_pool_jobs_total",
];

/// Latency histograms, read as (count, sum of nanoseconds).
pub const HISTOGRAMS: [&str; 2] = ["core_commit_wait_ns", "rote_round_ns"];

/// One reading of every pinned name, or the difference of two.
#[derive(Clone, Default)]
pub struct Counters {
    counts: Vec<u64>,
    sums_ns: Vec<u64>,
}

impl Counters {
    pub fn read() -> Counters {
        let registry = libseal_telemetry::global();
        let mut counts: Vec<u64> = COUNTERS.iter().map(|n| registry.counter(n).get()).collect();
        let mut sums_ns = vec![0; COUNTERS.len()];
        for name in HISTOGRAMS {
            let snapshot = registry.histogram(name).snapshot();
            counts.push(snapshot.count());
            sums_ns.push(snapshot.sum());
        }
        Counters { counts, sums_ns }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(a, b)| a - b).collect();
        Counters {
            counts: sub(&self.counts, &before.counts),
            sums_ns: sub(&self.sums_ns, &before.sums_ns),
        }
    }

    fn index(name: &str) -> usize {
        COUNTERS
            .iter()
            .chain(&HISTOGRAMS)
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a pinned telemetry name"))
    }

    /// A counter's value, or a histogram's sample count.
    pub fn count(&self, name: &str) -> u64 {
        self.counts[Counters::index(name)]
    }

    /// A histogram's mean sample in microseconds (0 without samples).
    pub fn mean_us(&self, name: &str) -> f64 {
        let i = Counters::index(name);
        match self.counts[i] {
            0 => 0.0,
            n => self.sums_ns[i] as f64 / n as f64 / 1e3,
        }
    }

    /// `numerator / denominator`, 0 when nothing was counted below.
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        match self.count(denominator) {
            0 => 0.0,
            d => self.count(numerator) as f64 / d as f64,
        }
    }

    /// The names among `names` that did not move.
    pub fn unmoved(&self, names: &[&'static str]) -> Vec<&'static str> {
        names
            .iter()
            .copied()
            .filter(|n| self.count(n) == 0)
            .collect()
    }
}
