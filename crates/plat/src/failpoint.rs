//! Deterministic fault injection (the `fail-rs` surface, zero-dep).
//!
//! Code under test declares *sites* — named points on its I/O and
//! protocol paths — by calling [`check`] (control points) or
//! [`write_all`] (write points). In production nothing is configured:
//! a site costs one relaxed atomic load. Tests open a [`Scenario`]
//! (a global lock, so concurrent tests serialize instead of stomping
//! each other's faults) and attach a [`FaultSpec`] to a site:
//!
//! - **return-error** — the site fails with an injected I/O error;
//! - **partial-write** — a write point persists only a prefix of its
//!   buffer and then fails (a torn write, as a crash mid-`write(2)`
//!   leaves it);
//! - **simulated-crash** — the site fails *and latches the process
//!   dead*: every later site also fails until the scenario is torn
//!   down, so no code "after the crash" can touch the disk. Recovery
//!   code then runs under a fresh scenario, exactly like a restarted
//!   process reading what the dead one left behind.
//!
//! Sites hit while a scenario is active are recorded, so a harness can
//! dry-run a workload once and then enumerate every registered site —
//! the crash-matrix gate in `ci.sh` crashes each of them in turn.

use std::collections::BTreeMap;

use std::sync::MutexGuard;

use crate::sync::Mutex;

/// What an armed site does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fail with an injected error, touching nothing.
    ReturnError,
    /// Write only the first `n` bytes of the buffer, then fail.
    PartialWrite(usize),
    /// Fail and latch the whole process as crashed.
    Crash,
}

/// An [`Action`] plus when it fires: hits `skip .. skip + times`.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    action: Action,
    skip: u64,
    times: u64,
}

impl FaultSpec {
    /// A spec firing on every hit from the first.
    pub fn new(action: Action) -> FaultSpec {
        FaultSpec {
            action,
            skip: 0,
            times: u64::MAX,
        }
    }

    /// Shorthand for [`Action::ReturnError`].
    pub fn error() -> FaultSpec {
        Self::new(Action::ReturnError)
    }

    /// Shorthand for [`Action::Crash`].
    pub fn crash() -> FaultSpec {
        Self::new(Action::Crash)
    }

    /// Shorthand for [`Action::PartialWrite`].
    pub fn partial_write(bytes: usize) -> FaultSpec {
        Self::new(Action::PartialWrite(bytes))
    }

    /// Skips the first `skip` hits before firing.
    pub fn after(mut self, skip: u64) -> FaultSpec {
        self.skip = skip;
        self
    }

    /// Fires for at most `times` hits, then disarms.
    pub fn times(mut self, times: u64) -> FaultSpec {
        self.times = times;
        self
    }
}

#[derive(Default)]
struct Registry {
    /// Hit counts per site since the scenario opened.
    hits: BTreeMap<String, u64>,
    /// Armed faults.
    armed: BTreeMap<String, FaultSpec>,
    /// The site whose `Crash` fired, if any.
    crashed: Option<String>,
}

static ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);
static SCENARIO: Mutex<()> = Mutex::new(());

fn with_registry<T>(f: impl FnOnce(&mut Registry) -> T) -> T {
    let mut guard = REGISTRY.lock();
    f(guard.get_or_insert_with(Registry::default))
}

/// Exclusive handle on the global fault-injection state.
///
/// Creating one blocks until every other scenario (in other tests of
/// the same process) is dropped, then clears all armed faults, hit
/// counts and any crash latch. Dropping it clears them again and
/// disables injection.
pub struct Scenario {
    _lock: MutexGuard<'static, ()>,
}

/// Opens a [`Scenario`], serializing against all other scenarios.
pub fn scenario() -> Scenario {
    let lock = SCENARIO.lock();
    with_registry(|r| *r = Registry::default());
    ENABLED.store(true, std::sync::atomic::Ordering::SeqCst);
    Scenario { _lock: lock }
}

impl Scenario {
    /// Arms `site` with `spec` (replacing any previous arming).
    pub fn set(&self, site: &str, spec: FaultSpec) {
        with_registry(|r| {
            r.armed.insert(site.to_string(), spec);
        });
    }

    /// Disarms `site`.
    pub fn unset(&self, site: &str) {
        with_registry(|r| {
            r.armed.remove(site);
        });
    }

    /// Disarms every site and clears the crash latch and hit counts;
    /// the registry of seen site names is kept.
    pub fn reset(&self) {
        with_registry(|r| {
            r.armed.clear();
            r.crashed = None;
            r.hits.values_mut().for_each(|h| *h = 0);
        });
    }

    /// Every site hit since this scenario (or a dry run under it)
    /// started.
    pub fn registered(&self) -> Vec<String> {
        with_registry(|r| r.hits.keys().cloned().collect())
    }

    /// How many times `site` has been hit.
    pub fn hits(&self, site: &str) -> u64 {
        with_registry(|r| r.hits.get(site).copied().unwrap_or(0))
    }

    /// The site whose simulated crash fired, if any.
    pub fn crashed(&self) -> Option<String> {
        with_registry(|r| r.crashed.clone())
    }
}

impl Drop for Scenario {
    fn drop(&mut self) {
        ENABLED.store(false, std::sync::atomic::Ordering::SeqCst);
        with_registry(|r| *r = Registry::default());
    }
}

/// Whether a simulated crash has latched (the "process" is dead).
pub fn crash_active() -> bool {
    if !ENABLED.load(std::sync::atomic::Ordering::Relaxed) {
        return false;
    }
    with_registry(|r| r.crashed.is_some())
}

fn injected_error(site: &str, what: &str) -> std::io::Error {
    std::io::Error::other(format!("failpoint {site}: {what}"))
}

/// True for errors produced by an armed failpoint.
pub fn is_injected(e: &std::io::Error) -> bool {
    e.to_string().contains("failpoint ")
}

/// Records a hit on `site` and returns the action to apply, if any.
fn eval(site: &str) -> Option<Action> {
    if !ENABLED.load(std::sync::atomic::Ordering::Relaxed) {
        return None;
    }
    with_registry(|r| {
        if r.crashed.is_some() {
            // The process is dead: every subsequent site fails.
            return Some(Action::Crash);
        }
        let hits = r.hits.entry(site.to_string()).or_insert(0);
        let idx = *hits;
        *hits += 1;
        let spec = r.armed.get(site)?;
        if idx < spec.skip || idx >= spec.skip.saturating_add(spec.times) {
            return None;
        }
        if spec.action == Action::Crash {
            r.crashed = Some(site.to_string());
        }
        Some(spec.action)
    })
}

/// A control-point site: fails if armed, else a no-op.
///
/// # Errors
///
/// The injected error when the site is armed with `ReturnError`,
/// `PartialWrite` (which degenerates to an error here) or `Crash`.
pub fn check(site: &str) -> std::io::Result<()> {
    match eval(site) {
        None => Ok(()),
        Some(Action::Crash) => Err(injected_error(site, "simulated crash")),
        Some(Action::ReturnError) | Some(Action::PartialWrite(_)) => {
            Err(injected_error(site, "injected error"))
        }
    }
}

/// A write-point site: writes `buf` to `w`, or applies the armed
/// fault (a partial write persists a prefix and then fails).
///
/// # Errors
///
/// The injected error, or the underlying writer's.
pub fn write_all(site: &str, w: &mut impl std::io::Write, buf: &[u8]) -> std::io::Result<()> {
    match eval(site) {
        None => w.write_all(buf),
        Some(Action::Crash) => Err(injected_error(site, "simulated crash")),
        Some(Action::ReturnError) => Err(injected_error(site, "injected error")),
        Some(Action::PartialWrite(n)) => {
            w.write_all(&buf[..n.min(buf.len())])?;
            Err(injected_error(site, "torn write"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_scenario_is_empty_and_unarmed_sites_pass() {
        let s = scenario();
        assert!(s.registered().is_empty());
        assert!(s.crashed().is_none());
        // Unarmed sites are recorded but never fail.
        assert!(check("fp-test::unarmed").is_ok());
        assert_eq!(s.hits("fp-test::unarmed"), 1);
    }

    #[test]
    fn skip_and_times_bound_the_firing_window() {
        let s = scenario();
        s.set("fp-test::win", FaultSpec::error().after(1).times(2));
        assert!(check("fp-test::win").is_ok()); // hit 0: skipped
        assert!(check("fp-test::win").is_err()); // hit 1
        assert!(check("fp-test::win").is_err()); // hit 2
        assert!(check("fp-test::win").is_ok()); // hit 3: expired
        assert_eq!(s.hits("fp-test::win"), 4);
    }

    #[test]
    fn crash_latches_until_reset() {
        let s = scenario();
        s.set("fp-test::boom", FaultSpec::crash());
        assert!(check("fp-test::other").is_ok());
        assert!(check("fp-test::boom").is_err());
        // Everything after the crash fails, armed or not.
        assert!(check("fp-test::other").is_err());
        assert!(crash_active());
        assert_eq!(s.crashed().as_deref(), Some("fp-test::boom"));
        s.reset();
        assert!(!crash_active());
        assert!(check("fp-test::boom").is_ok());
    }

    #[test]
    fn partial_write_persists_a_prefix() {
        let s = scenario();
        s.set("fp-test::torn", FaultSpec::partial_write(3));
        let mut out = Vec::new();
        let err = write_all("fp-test::torn", &mut out, b"abcdef").unwrap_err();
        assert!(is_injected(&err));
        assert_eq!(out, b"abc");
        // Unarmed write points pass bytes through.
        s.unset("fp-test::torn");
        write_all("fp-test::torn", &mut out, b"gh").unwrap();
        assert_eq!(out, b"abcgh");
    }

    #[test]
    fn registry_enumerates_sites_for_a_dry_run() {
        let s = scenario();
        check("fp-test::a").unwrap();
        check("fp-test::b").unwrap();
        check("fp-test::b").unwrap();
        let names = s.registered();
        assert!(names.contains(&"fp-test::a".to_string()));
        assert!(names.contains(&"fp-test::b".to_string()));
        assert_eq!(s.hits("fp-test::b"), 2);
    }
}
