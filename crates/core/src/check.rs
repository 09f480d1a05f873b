//! Invariant checking and trimming scheduler (§5.2, §6.5).

use libseal_sealdb::Value;

use crate::log::AuditLog;
use crate::ssm::ServiceModule;
use crate::Result;

/// Latency of full invariant-checking passes.
fn check_latency_hist() -> &'static libseal_telemetry::Histogram {
    static H: std::sync::OnceLock<libseal_telemetry::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| libseal_telemetry::histogram("core_check_ns"))
}

/// Latency of incremental (delta-maintained view) checking passes.
fn incremental_latency_hist() -> &'static libseal_telemetry::Histogram {
    static H: std::sync::OnceLock<libseal_telemetry::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| libseal_telemetry::histogram("core_check_incremental_ns"))
}

/// Result of running one invariant.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Invariant name.
    pub invariant: String,
    /// Number of violating log entries.
    pub violations: usize,
    /// Up to [`MAX_REPORT_ROWS`] violating rows as evidence.
    pub rows: Vec<Vec<Value>>,
}

/// Cap on evidence rows carried per report.
pub const MAX_REPORT_ROWS: usize = 16;

/// Aggregated outcome of one checking pass.
#[derive(Clone, Debug, Default)]
pub struct CheckOutcome {
    /// Logical time of the check.
    pub at_time: u64,
    /// Per-invariant reports.
    pub reports: Vec<CheckReport>,
}

impl CheckOutcome {
    /// Total violations across invariants.
    pub fn total_violations(&self) -> usize {
        self.reports.iter().map(|r| r.violations).sum()
    }

    /// Counts this outcome as one drained background-verifier batch:
    /// `core_verifier_alarms_total` (registered by the first batch)
    /// moves when it carries violations — the operator-facing signal
    /// that the service has been caught misbehaving.
    pub fn count_alarm(&self) {
        let alarms = libseal_telemetry::counter("core_verifier_alarms_total");
        if self.total_violations() > 0 {
            alarms.inc();
        }
    }

    /// Renders the `Libseal-Check-Result` header value (§5.2).
    pub fn header_value(&self) -> String {
        if self.total_violations() == 0 {
            "ok".to_string()
        } else {
            let parts: Vec<String> = self
                .reports
                .iter()
                .filter(|r| r.violations > 0)
                .map(|r| format!("{}:{}", r.invariant, r.violations))
                .collect();
            format!("violations={};{}", self.total_violations(), parts.join(","))
        }
    }
}

/// Client-triggered checks (`Libseal-Check`) one check interval allows:
/// a client can make the enclave run at most this many checks per
/// `interval` logged pairs, so a flood of check headers cannot turn
/// into a flood of checks (the §6.3 DoS bound).
pub const CLIENT_CHECKS_PER_INTERVAL: usize = 4;

/// Interval-based checking/trimming state with client-trigger rate
/// limiting (§5.2, §6.3 DoS defence). A due check on a clean log trims
/// it.
pub struct Checker {
    /// Pairs logged since the last automatic check.
    pairs_since_check: usize,
    /// Automatic check interval in request/response pairs (0 = off).
    pub interval: usize,
    /// Remaining client-triggered check budget in the current window.
    client_budget: usize,
    /// The most recent outcome (served to clients in-band).
    pub last_outcome: CheckOutcome,
    /// Chain length the last automatic trim left (once its seal has
    /// rebuilt the chain). Appends only lengthen the chain, so an equal
    /// length means nothing was logged since, and trimming again would
    /// frame the same snapshot.
    entries_at_trim: Option<u64>,
}

impl Checker {
    /// Creates a checker running every `interval` pairs.
    pub fn new(interval: usize) -> Checker {
        Checker {
            pairs_since_check: 0,
            interval,
            client_budget: CLIENT_CHECKS_PER_INTERVAL,
            last_outcome: CheckOutcome::default(),
            entries_at_trim: None,
        }
    }

    /// Parses every statement `ssm` will have run — invariants and
    /// trims here, deltas and rescans by the registration of the views
    /// backing every delta-capable invariant. Call once after opening
    /// the log; safe to call again (re-registration reseeds from the
    /// base tables).
    ///
    /// # Errors
    ///
    /// A [`libseal_sealdb::DbError::Parse`] for SQL outside sealdb's
    /// subset, so it fails here, before the service serves, not at the
    /// first check or trim; a [`libseal_sealdb::DbError::Schema`] for a
    /// view whose source columns or output width do not fit.
    pub fn install(ssm: &dyn ServiceModule, log: &mut AuditLog) -> Result<()> {
        let invariants = ssm.invariants().iter().map(|i| i.sql);
        for sql in invariants.chain(ssm.trim_queries().iter().copied()) {
            libseal_sealdb::parser::parse(sql).map_err(crate::LibSealError::Db)?;
        }
        for spec in ssm.invariants().iter().filter_map(|i| i.matview_spec()) {
            log.register_matview(spec)?;
        }
        Ok(())
    }

    /// Runs every invariant of `ssm` against `log` with a full scan
    /// (the reference evaluation — also the randomized cross-check
    /// oracle for the incremental path).
    ///
    /// # Errors
    ///
    /// Query failures.
    pub fn run_checks(ssm: &dyn ServiceModule, log: &AuditLog) -> Result<CheckOutcome> {
        let started = std::time::Instant::now();
        let mut outcome = CheckOutcome {
            at_time: log.now(),
            reports: Vec::new(),
        };
        for inv in ssm.invariants() {
            let r = log.query(inv.sql, &[])?;
            outcome.reports.push(CheckReport {
                invariant: inv.name.to_string(),
                violations: r.rows.len(),
                rows: r.rows.into_iter().take(MAX_REPORT_ROWS).collect(),
            });
        }
        check_latency_hist().record_duration(started.elapsed());
        Ok(outcome)
    }

    /// Runs every invariant incrementally: refreshes the dirty
    /// partitions of the delta-maintained views, then reads violations
    /// straight out of them — O(rows touched since the last check)
    /// instead of O(log). Invariants without delta metadata (or whose
    /// views were never installed) fall back to the full scan.
    ///
    /// # Errors
    ///
    /// Refresh or query failures.
    pub fn run_checks_incremental(
        ssm: &dyn ServiceModule,
        log: &mut AuditLog,
    ) -> Result<CheckOutcome> {
        let started = std::time::Instant::now();
        log.refresh_matviews()?;
        let mut outcome = CheckOutcome {
            at_time: log.now(),
            reports: Vec::new(),
        };
        for inv in ssm.invariants() {
            // A registered view's violations are its rows, read as they
            // lie.
            let report = |rows: &[Vec<Value>]| CheckReport {
                invariant: inv.name.to_string(),
                violations: rows.len(),
                rows: rows.iter().take(MAX_REPORT_ROWS).cloned().collect(),
            };
            outcome.reports.push(match log.matview_rows(inv.name) {
                Some(rows) => report(rows),
                None => report(&log.query(inv.sql, &[])?.rows),
            });
        }
        incremental_latency_hist().record_duration(started.elapsed());
        Ok(outcome)
    }

    /// Notes one completed request/response pair. Returns `true` when
    /// the check interval has elapsed — the caller then either runs
    /// [`Checker::run_due`] inline or enqueues a batch on the
    /// background verifier.
    pub fn note_pair(&mut self) -> bool {
        self.pairs_since_check += 1;
        if self.interval == 0 || self.pairs_since_check < self.interval {
            return false;
        }
        self.pairs_since_check = 0;
        self.client_budget = CLIENT_CHECKS_PER_INTERVAL;
        true
    }

    /// Runs a due incremental check (plus trimming when the log is
    /// clean and has grown since the last trim) and caches the outcome.
    ///
    /// # Errors
    ///
    /// Check or trim failures.
    pub fn run_due(&mut self, ssm: &dyn ServiceModule, log: &mut AuditLog) -> Result<CheckOutcome> {
        let outcome = Self::run_checks_incremental(ssm, log)?;
        if outcome.total_violations() == 0 && self.entries_at_trim != Some(log.entries()) {
            // Trim only clean logs: violations must stay as evidence.
            // Trimming deletes base rows, which marks the views fully
            // dirty — the next check recomputes over the (now small)
            // trimmed log. The trim only stages its deletions: the next
            // commit rebuilds the chain, signs it under that batch's
            // counter bind and appends it as one snapshot frame, written
            // and fsynced with the batch. An interval of unlogged
            // responses skips it, so the journal does not grow a frame
            // per interval.
            self.entries_at_trim = Some(log.trim(ssm.trim_queries())?);
        }
        self.last_outcome = outcome.clone();
        Ok(outcome)
    }

    /// Handles a client-triggered check (`Libseal-Check` header).
    /// Returns the outcome, or `None` when rate-limited (the client
    /// then sees the cached `last_outcome`).
    ///
    /// # Errors
    ///
    /// Check failures.
    pub fn client_check(
        &mut self,
        ssm: &dyn ServiceModule,
        log: &mut AuditLog,
    ) -> Result<Option<CheckOutcome>> {
        if self.client_budget == 0 {
            return Ok(None);
        }
        self.client_budget -= 1;
        let outcome = Self::run_checks_incremental(ssm, log)?;
        self.last_outcome = outcome.clone();
        Ok(Some(outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{LogBacking, NoGuard};
    use crate::ssm::GitModule;
    use libseal_crypto::ed25519::SigningKey;

    fn setup() -> (GitModule, AuditLog) {
        let m = GitModule;
        let log = AuditLog::open(
            LogBacking::Memory,
            [0u8; 32],
            SigningKey::from_seed(&[1u8; 32]),
            Box::new(NoGuard),
            crate::ssm::git::GIT_SCHEMA,
            vec![
                crate::log::TableSpec {
                    name: "updates",
                    key_cols: &["time", "repo", "branch"],
                },
                crate::log::TableSpec {
                    name: "advertisements",
                    key_cols: &["time", "repo", "branch"],
                },
            ],
        )
        .unwrap();
        (m, log)
    }

    #[test]
    fn clean_log_reports_ok() {
        let (m, log) = setup();
        let outcome = Checker::run_checks(&m, &log).unwrap();
        assert_eq!(outcome.total_violations(), 0);
        assert_eq!(outcome.header_value(), "ok");
    }

    #[test]
    fn violations_render_in_header() {
        let (m, mut log) = setup();
        let t1 = log.next_time() as i64;
        log.append(
            "updates",
            &[
                Value::Integer(t1),
                Value::Text("r".into()),
                Value::Text("main".into()),
                Value::Text("c1".into()),
                Value::Text("update".into()),
            ],
        )
        .unwrap();
        let t2 = log.next_time() as i64;
        log.append(
            "advertisements",
            &[
                Value::Integer(t2),
                Value::Text("r".into()),
                Value::Text("main".into()),
                Value::Text("WRONG".into()),
            ],
        )
        .unwrap();
        let outcome = Checker::run_checks(&m, &log).unwrap();
        assert_eq!(outcome.total_violations(), 1);
        assert!(outcome
            .header_value()
            .starts_with("violations=1;git-soundness:1"));
    }

    #[test]
    fn interval_scheduling() {
        let mut checker = Checker::new(3);
        assert!(!checker.note_pair());
        assert!(!checker.note_pair());
        assert!(checker.note_pair());
        assert!(!checker.note_pair());
    }

    #[test]
    fn client_rate_limit() {
        let (m, mut log) = setup();
        let mut checker = Checker::new(10);
        for _ in 0..CLIENT_CHECKS_PER_INTERVAL {
            assert!(checker.client_check(&m, &mut log).unwrap().is_some());
        }
        // Budget exhausted: served from cache.
        assert!(checker.client_check(&m, &mut log).unwrap().is_none());
        // Interval elapse refills.
        assert_eq!((0..10).filter(|_| checker.note_pair()).count(), 1);
        assert!(checker.client_check(&m, &mut log).unwrap().is_some());
    }

    #[test]
    fn dirty_log_is_not_trimmed() {
        let (m, mut log) = setup();
        let t1 = log.next_time() as i64;
        log.append(
            "updates",
            &[
                Value::Integer(t1),
                Value::Text("r".into()),
                Value::Text("main".into()),
                Value::Text("c1".into()),
                Value::Text("update".into()),
            ],
        )
        .unwrap();
        let t2 = log.next_time() as i64;
        log.append(
            "advertisements",
            &[
                Value::Integer(t2),
                Value::Text("r".into()),
                Value::Text("main".into()),
                Value::Text("WRONG".into()),
            ],
        )
        .unwrap();
        let mut checker = Checker::new(1);
        assert!(checker.note_pair());
        let outcome = checker.run_due(&m, &mut log).unwrap();
        assert_eq!(outcome.total_violations(), 1);
        // Evidence survives: the advertisement was not trimmed away.
        let r = log
            .query("SELECT COUNT(*) FROM advertisements", &[])
            .unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Integer(1));
    }

    #[test]
    fn incremental_check_matches_full_scan_on_git_invariants() {
        let (m, mut log) = setup();
        Checker::install(&m, &mut log).unwrap();

        // Interleave clean and violating histories; after every append
        // the incremental evaluation must agree with the reference.
        for i in 0..24i64 {
            let tu = log.next_time() as i64;
            let cid = format!("c{i}");
            log.append(
                "updates",
                &[
                    Value::Integer(tu),
                    Value::Text("r".into()),
                    Value::Text("main".into()),
                    Value::Text(cid.clone()),
                    Value::Text("update".into()),
                ],
            )
            .unwrap();
            let ta = log.next_time() as i64;
            // Every third advertisement lies about the head commit.
            let advertised = if i % 3 == 2 { "WRONG".to_string() } else { cid };
            log.append(
                "advertisements",
                &[
                    Value::Integer(ta),
                    Value::Text("r".into()),
                    Value::Text("main".into()),
                    Value::Text(advertised),
                ],
            )
            .unwrap();

            let inc = Checker::run_checks_incremental(&m, &mut log).unwrap();
            let full = Checker::run_checks(&m, &log).unwrap();
            assert_eq!(inc.total_violations(), full.total_violations(), "step {i}");
            assert_eq!(inc.header_value(), full.header_value(), "step {i}");
            for (a, b) in inc.reports.iter().zip(full.reports.iter()) {
                assert_eq!(a.invariant, b.invariant);
                assert_eq!(a.violations, b.violations, "invariant {}", a.invariant);
            }
        }
        // 8 of 24 rounds advertised a wrong head.
        let full = Checker::run_checks(&m, &log).unwrap();
        assert_eq!(full.total_violations(), 8);
    }

    #[test]
    fn uninstalled_views_fall_back_to_full_scan() {
        let (m, mut log) = setup();
        // No install(): the incremental path must still be correct.
        let tu = log.next_time() as i64;
        log.append(
            "updates",
            &[
                Value::Integer(tu),
                Value::Text("r".into()),
                Value::Text("main".into()),
                Value::Text("c1".into()),
                Value::Text("update".into()),
            ],
        )
        .unwrap();
        let t = log.next_time() as i64;
        log.append(
            "advertisements",
            &[
                Value::Integer(t),
                Value::Text("r".into()),
                Value::Text("main".into()),
                Value::Text("WRONG".into()),
            ],
        )
        .unwrap();
        let inc = Checker::run_checks_incremental(&m, &mut log).unwrap();
        assert_eq!(inc.total_violations(), 1);
    }
}
