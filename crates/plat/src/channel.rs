//! An unbounded channel with cloneable receivers (the
//! `crossbeam::channel` surface the servers use).
//!
//! One queue behind one lock with one condition variable: a receiver
//! with nothing to take sleeps on the condvar until a sender queues an
//! item, the last sender goes away, or its deadline passes. Nothing
//! polls, so a hand-off costs one wake-up and an idle receiver costs no
//! CPU. Sender and receiver handles are counted under the same lock so
//! disconnection is observed exactly: receivers see `Disconnected` only
//! after the queue drains, senders get their item back once the last
//! receiver is gone.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex};

/// Why a receive with a deadline returned without an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with the channel still empty.
    Timeout,
    /// Every sender is gone and the channel is drained.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled once per queued item and broadcast on disconnect.
    ready: Condvar,
}

/// Creates an unbounded channel; both halves are cloneable.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        ready: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

/// The sending half; cloneable across threads.
pub struct Sender<T>(Arc<Shared<T>>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.0.ready.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Sends an item; fails only when every receiver is gone.
    ///
    /// # Errors
    ///
    /// Returns the item back when the channel is disconnected.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut st = self.0.state.lock();
        if st.receivers == 0 {
            return Err(value);
        }
        st.queue.push_back(value);
        drop(st);
        self.0.ready.notify_one();
        Ok(())
    }
}

/// The receiving half; cloneable — clones compete for items.
pub struct Receiver<T>(Arc<Shared<T>>);

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.state.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            // Nobody can take these any more; free them now, outside
            // the lock (an item's own drop may touch another channel).
            let orphans = std::mem::take(&mut st.queue);
            drop(st);
            drop(orphans);
        }
    }
}

impl<T> Receiver<T> {
    /// Receives an item, sleeping until one is queued, every sender is
    /// gone, or `deadline` (if any) passes.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut st = self.0.state.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            st = match deadline {
                None => self.0.ready.wait(st),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(RecvTimeoutError::Timeout);
                    }
                    self.0.ready.wait_timeout(st, d - now).0
                }
            };
        }
    }

    /// Receives an item, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when the deadline passes,
    /// [`RecvTimeoutError::Disconnected`] when all senders are gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        // A timeout too large to add to the clock is no deadline.
        self.recv_until(Instant::now().checked_add(timeout))
    }

    /// Receives an item, waiting as long as a sender exists; `None`
    /// once every sender is gone and the channel is drained.
    pub fn recv(&self) -> Option<T> {
        self.recv_until(None).ok()
    }

    /// Receives an item if one is already queued.
    ///
    /// # Errors
    ///
    /// As [`Receiver::recv_timeout`] with a zero deadline.
    pub fn try_recv(&self) -> Result<T, RecvTimeoutError> {
        let mut st = self.0.state.lock();
        match st.queue.pop_front() {
            Some(v) => Ok(v),
            None if st.senders == 0 => Err(RecvTimeoutError::Disconnected),
            None => Err(RecvTimeoutError::Timeout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn items_fan_out_to_competing_receivers() {
        let (tx, rx) = unbounded::<u32>();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rx = rx.clone();
            handles.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv_timeout(Duration::from_millis(100)) {
                    got.push(v);
                }
                got
            }));
        }
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn timeout_fires_on_empty_channel() {
        let (tx, rx) = unbounded::<u32>();
        let t0 = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert_eq!(rx.try_recv(), Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(rx.try_recv(), Err(RecvTimeoutError::Disconnected));
        assert_eq!(rx.recv(), None);
    }

    crate::prop! {
        #![cases(24)]

        /// N producers, M consumers, seeded sizes and interleavings
        /// (producers yield at drawn points; consumers mix blocking,
        /// timed and non-blocking receives): every item arrives exactly
        /// once, and once a consumer has seen `Disconnected` the
        /// channel stays empty.
        fn stress_delivers_each_item_exactly_once(g) {
            let producers = g.usize_in(1..5);
            let consumers = g.usize_in(1..5);
            let per_producer = g.usize_in(0..400);
            let yield_mask = g.u64() | 1 << g.below(64);
            let (tx, rx) = unbounded::<(usize, usize)>();
            let start = Arc::new(Barrier::new(producers + consumers));
            let senders: Vec<_> = (0..producers)
                .map(|p| {
                    let (tx, start) = (tx.clone(), Arc::clone(&start));
                    thread::spawn(move || {
                        start.wait();
                        for i in 0..per_producer {
                            tx.send((p, i)).unwrap();
                            if yield_mask >> ((p + i) % 64) & 1 == 1 {
                                thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            drop(tx);
            let receivers: Vec<_> = (0..consumers)
                .map(|c| {
                    let (rx, start) = (rx.clone(), Arc::clone(&start));
                    thread::spawn(move || {
                        start.wait();
                        let mut got = Vec::new();
                        loop {
                            let r = match (c + got.len()) % 3 {
                                0 => rx.recv().ok_or(RecvTimeoutError::Disconnected),
                                1 => rx.recv_timeout(Duration::from_secs(30)),
                                _ => rx.try_recv(),
                            };
                            match r {
                                Ok(v) => got.push(v),
                                Err(RecvTimeoutError::Timeout) => thread::yield_now(),
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                        assert_eq!(
                            rx.try_recv(),
                            Err(RecvTimeoutError::Disconnected),
                            "an item arrived after Disconnected"
                        );
                        got
                    })
                })
                .collect();
            for h in senders {
                h.join().unwrap();
            }
            let mut all: Vec<(usize, usize)> = Vec::new();
            for h in receivers {
                let got = h.join().unwrap();
                // One producer's items reach one consumer in send order.
                for p in 0..producers {
                    let seq: Vec<usize> =
                        got.iter().filter(|v| v.0 == p).map(|v| v.1).collect();
                    assert!(seq.windows(2).all(|w| w[0] < w[1]), "reordered: {seq:?}");
                }
                all.extend(got);
            }
            all.sort_unstable();
            let want: Vec<(usize, usize)> = (0..producers)
                .flat_map(|p| (0..per_producer).map(move |i| (p, i)))
                .collect();
            assert_eq!(all, want);
        }
    }

    #[test]
    fn dropping_the_last_sender_wakes_every_blocked_receiver() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        let blocked = Arc::new(Barrier::new(5));
        let waiters: Vec<_> = (0..4)
            .map(|i| {
                let (rx, blocked) = (rx.clone(), Arc::clone(&blocked));
                thread::spawn(move || {
                    blocked.wait();
                    let t0 = Instant::now();
                    let r = if i % 2 == 0 {
                        rx.recv_timeout(Duration::from_secs(30))
                    } else {
                        rx.recv().ok_or(RecvTimeoutError::Disconnected)
                    };
                    (r, t0.elapsed())
                })
            })
            .collect();
        blocked.wait();
        // Let them reach the condvar; a receiver that has not yet is
        // covered too (it sees `senders == 0` before sleeping).
        thread::sleep(Duration::from_millis(20));
        drop(tx);
        thread::sleep(Duration::from_millis(20));
        drop(tx2);
        for w in waiters {
            let (r, waited) = w.join().unwrap();
            assert_eq!(r, Err(RecvTimeoutError::Disconnected));
            assert!(
                waited >= Duration::from_millis(30),
                "woke while a sender was alive ({waited:?})"
            );
            assert!(waited < Duration::from_secs(5), "slept on ({waited:?})");
        }
    }

    #[test]
    fn send_without_a_receiver_returns_the_item() {
        let (tx, rx) = unbounded::<String>();
        let rx2 = rx.clone();
        drop(rx);
        assert_eq!(tx.send("kept".into()), Ok(()));
        drop(rx2);
        assert_eq!(tx.send("back".into()), Err("back".to_string()));
        assert_eq!(tx.clone().send("again".into()), Err("again".to_string()));
    }

    /// A hand-off is one wake-up, not a poll interval: with the 500 µs
    /// poll this replaced, 1 000 round trips took at least 500 ms.
    #[test]
    fn ping_pong_is_wakeup_bound() {
        const ROUNDS: u32 = 1_000;
        let (ping_tx, ping_rx) = unbounded::<u32>();
        let (pong_tx, pong_rx) = unbounded::<u32>();
        let echo = thread::spawn(move || {
            while let Some(v) = ping_rx.recv() {
                pong_tx.send(v + 1).unwrap();
            }
        });
        // Best of three: one descheduled slice on a loaded host must
        // not fail a bound that is 10x the expected time.
        let best = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                for i in 0..ROUNDS {
                    ping_tx.send(i).unwrap();
                    assert_eq!(pong_rx.recv_timeout(Duration::from_secs(10)), Ok(i + 1));
                }
                t0.elapsed()
            })
            .min()
            .unwrap();
        drop(ping_tx);
        echo.join().unwrap();
        assert!(
            best < Duration::from_millis(250),
            "{ROUNDS} ping-pongs took {best:?}"
        );
    }
}
