//! Deadline set for per-session timeouts.
//!
//! A reactor arms one deadline per session (its phase deadline or
//! idle timer), re-arms it whenever the session changes phase, and
//! parks until the earliest one. An ordered set answers each of those
//! exactly: a deadline fires as soon as it has passed, the earliest
//! live deadline is the set's first entry, and a re-arm replaces the
//! token's one entry, so nothing is left behind for a sweep.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Live deadlines keyed by `u64` tokens, at most one per token:
/// [`schedule`] replaces any earlier deadline for the same token.
///
/// [`schedule`]: Deadlines::schedule
#[derive(Default)]
pub struct Deadlines {
    /// Every live deadline, earliest first.
    order: BTreeSet<(Instant, u64)>,
    /// token -> its one entry in `order`.
    armed: HashMap<u64, Instant>,
}

impl Deadlines {
    /// Arms (or re-arms) the timer for `token` at `deadline`.
    pub fn schedule(&mut self, token: u64, deadline: Instant) {
        if let Some(old) = self.armed.insert(token, deadline) {
            self.order.remove(&(old, token));
        }
        self.order.insert((deadline, token));
    }

    /// Disarms `token`'s timer, if armed.
    pub fn cancel(&mut self, token: u64) {
        if let Some(old) = self.armed.remove(&token) {
            self.order.remove(&(old, token));
        }
    }

    /// The earliest live deadline, for sizing a poll timeout.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.order.first().map(|&(deadline, _)| deadline)
    }

    /// Disarms and returns, earliest first, every token whose deadline
    /// is at or before `now`.
    pub fn expired(&mut self, now: Instant) -> Vec<u64> {
        let mut fired = Vec::new();
        while let Some(&(deadline, token)) = self.order.first() {
            if deadline > now {
                break;
            }
            self.order.pop_first();
            self.armed.remove(&token);
            fired.push(token);
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn fires_after_deadline_not_before() {
        let mut d = Deadlines::default();
        let now = Instant::now();
        d.schedule(1, now + ms(20));
        assert!(d.expired(now + ms(5)).is_empty());
        assert_eq!(d.expired(now + ms(20)), vec![1]);
        assert!(d.next_deadline().is_none());
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut d = Deadlines::default();
        let now = Instant::now();
        d.schedule(1, now + ms(5));
        d.cancel(1);
        assert!(d.expired(now + ms(50)).is_empty());
        assert!(d.armed.is_empty() && d.order.is_empty());
    }

    #[test]
    fn reschedule_supersedes_earlier_deadline() {
        let mut d = Deadlines::default();
        let now = Instant::now();
        d.schedule(1, now + ms(5));
        d.schedule(1, now + ms(200));
        assert!(d.expired(now + ms(50)).is_empty());
        assert_eq!(d.next_deadline(), Some(now + ms(200)));
        assert_eq!(d.expired(now + ms(300)), vec![1]);
    }

    #[test]
    fn far_deadlines_wait_their_time() {
        let mut d = Deadlines::default();
        let now = Instant::now();
        d.schedule(1, now + Duration::from_secs(3600));
        d.schedule(2, now + ms(100));
        assert_eq!(d.expired(now + ms(150)), vec![2]);
        assert!(d.expired(now + Duration::from_secs(3599)).is_empty());
        assert_eq!(d.expired(now + Duration::from_secs(3600)), vec![1]);
    }

    #[test]
    fn next_deadline_tracks_earliest_and_recovers_after_cancel() {
        let mut d = Deadlines::default();
        let now = Instant::now();
        assert!(d.next_deadline().is_none());
        let (d1, d2) = (now + ms(10), now + ms(500));
        d.schedule(1, d1);
        d.schedule(2, d2);
        assert_eq!(d.next_deadline(), Some(d1));
        d.cancel(1);
        assert_eq!(d.next_deadline(), Some(d2));
        d.cancel(2);
        assert!(d.next_deadline().is_none());
    }

    #[test]
    fn thousands_of_timers_fire_exactly_once() {
        let mut d = Deadlines::default();
        let now = Instant::now();
        for t in 0..5000u64 {
            d.schedule(t, now + ms(1 + t % 97));
        }
        // Constant rescheduling, as an idle-timeout workload does.
        for t in 0..5000u64 {
            d.schedule(t, now + ms(10 + t % 53));
        }
        let mut fired = d.expired(now + ms(200));
        fired.sort_unstable();
        assert_eq!(fired, (0..5000).collect::<Vec<_>>());
        assert!(d.expired(now + ms(400)).is_empty());
    }

    #[test]
    fn re_arming_keeps_one_entry_per_token() {
        let mut d = Deadlines::default();
        let now = Instant::now();
        for i in 0..100_000u64 {
            d.schedule(7, now + Duration::from_micros(i % 5000));
        }
        assert_eq!((d.order.len(), d.armed.len()), (1, 1));
    }

    crate::prop! {
        #![cases(64)]

        /// Against a model of what is armed, at steps that land
        /// anywhere between 5 ms boundaries: every deadline at or
        /// before `t` fires at `t`, no other, and `next_deadline` is
        /// the earliest deadline still armed.
        fn a_passed_deadline_fires_at_once(g) {
            let mut d = Deadlines::default();
            let base = Instant::now();
            let mut model: HashMap<u64, Instant> = HashMap::new();
            let mut t = base;
            for _ in 0..200 {
                let token = g.below(16);
                match g.below(4) {
                    0 => {
                        d.cancel(token);
                        model.remove(&token);
                    }
                    _ => {
                        let at = 5_000 * g.below(20) + 1 + g.below(4_999);
                        let deadline = t + Duration::from_micros(at);
                        d.schedule(token, deadline);
                        model.insert(token, deadline);
                    }
                }
                t += Duration::from_micros(g.below(3_000));
                let mut due: Vec<u64> = model
                    .iter()
                    .filter(|&(_, &deadline)| deadline <= t)
                    .map(|(&token, _)| token)
                    .collect();
                model.retain(|_, deadline| *deadline > t);
                let mut fired = d.expired(t);
                fired.sort_unstable();
                due.sort_unstable();
                assert_eq!(fired, due, "at {:?}", t - base);
                assert_eq!(d.next_deadline(), model.values().min().copied());
            }
        }
    }
}
