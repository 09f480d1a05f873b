//! Deterministic network-fault injection for robustness tests.
//!
//! [`ChaosStream`] wraps any `Read + Write` transport and perturbs it
//! according to a seeded schedule: short reads/writes, `WouldBlock`
//! stalls, connection resets, silent byte truncation and delays. The
//! schedule is a pure function of the seed and the operation index, so
//! a failing trial replays exactly from its seed — no time, no OS
//! entropy, no global state.
//!
//! The wrapper composes under the TLS layer (both the blocking
//! `SslStream` and the sans-IO session pumped over a non-blocking
//! transport, as the reactor runs it) exactly where a hostile network
//! would sit, which is how the chaos gate drives
//! handshake-, header-, body- and write-phase faults against the
//! services without any server-side plumbing.
//!
//! Note on stalls: a [`Fault::Stall`] surfaces as `WouldBlock`, which
//! blocking-stream callers treat as a read timeout. Use stalls against
//! non-blocking consumers; use delays to slow a blocking client down.

use std::io::{self, Read, Write};
use std::time::Duration;

/// What the schedule does to one I/O operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Pass through untouched.
    None,
    /// Move at most this many bytes (short read / short write).
    Short(usize),
    /// Fail with `WouldBlock`.
    Stall,
    /// Fail with `ConnectionReset`; sticky — every later op fails too.
    Reset,
    /// Sleep, then perform the op normally.
    Delay(Duration),
    /// Sticky black hole: writes are swallowed, reads report EOF.
    Truncate,
}

/// A deterministic fault schedule.
///
/// Probabilities are per-mille per operation; scheduled faults
/// (`reset_at_op`, `truncate_at_op`) key off the shared read+write
/// operation counter and take precedence over the random draws.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// PRNG seed; equal seeds give equal schedules.
    pub seed: u64,
    /// Per-mille chance of a short read/write.
    pub short_per_mille: u16,
    /// Per-mille chance of a `WouldBlock` stall.
    pub stall_per_mille: u16,
    /// Per-mille chance of a delay.
    pub delay_per_mille: u16,
    /// Sleep injected by each delay fault.
    pub delay: Duration,
    /// Reset the connection at this operation index (sticky).
    pub reset_at_op: Option<u64>,
    /// Black-hole the stream from this operation index (sticky).
    pub truncate_at_op: Option<u64>,
}

impl ChaosConfig {
    /// A fault-free schedule with the given seed; add faults with the
    /// builder methods.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            short_per_mille: 0,
            stall_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::from_millis(1),
            reset_at_op: None,
            truncate_at_op: None,
        }
    }

    /// Short read/write probability, per mille.
    #[must_use]
    pub fn shorts(mut self, per_mille: u16) -> ChaosConfig {
        self.short_per_mille = per_mille;
        self
    }

    /// `WouldBlock` stall probability, per mille.
    #[must_use]
    pub fn stalls(mut self, per_mille: u16) -> ChaosConfig {
        self.stall_per_mille = per_mille;
        self
    }

    /// Delay probability (per mille) and the sleep per delay.
    #[must_use]
    pub fn delays(mut self, per_mille: u16, delay: Duration) -> ChaosConfig {
        self.delay_per_mille = per_mille;
        self.delay = delay;
        self
    }

    /// Reset the connection at operation `op`.
    #[must_use]
    pub fn reset_at(mut self, op: u64) -> ChaosConfig {
        self.reset_at_op = Some(op);
        self
    }

    /// Black-hole the stream from operation `op`.
    #[must_use]
    pub fn truncate_at(mut self, op: u64) -> ChaosConfig {
        self.truncate_at_op = Some(op);
        self
    }
}

/// splitmix64: tiny, well-distributed, and good enough to decorrelate
/// fault draws. Not cryptographic, deliberately — schedules must
/// replay.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `Read + Write` transport with deterministic injected faults.
pub struct ChaosStream<S> {
    inner: S,
    cfg: ChaosConfig,
    rng: u64,
    ops: u64,
    reset: bool,
    truncated: bool,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under the given schedule.
    pub fn new(inner: S, cfg: ChaosConfig) -> ChaosStream<S> {
        ChaosStream {
            inner,
            cfg,
            rng: cfg.seed,
            ops: 0,
            reset: false,
            truncated: false,
        }
    }

    /// Operations (reads + writes) the schedule has decided so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The wrapped transport.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Decides the fault for the next operation. Consumes exactly one
    /// op index and (for the probabilistic path) a fixed number of
    /// PRNG draws, so the schedule depends only on seed and op count.
    fn next_fault(&mut self) -> Fault {
        let op = self.ops;
        self.ops += 1;
        if self.reset {
            return Fault::Reset;
        }
        if self.cfg.reset_at_op.is_some_and(|at| op >= at) {
            self.reset = true;
            return Fault::Reset;
        }
        if self.truncated || self.cfg.truncate_at_op.is_some_and(|at| op >= at) {
            self.truncated = true;
            return Fault::Truncate;
        }
        let roll = (splitmix64(&mut self.rng) % 1000) as u16;
        let len_draw = splitmix64(&mut self.rng); // always drawn: keeps the stream aligned
        let stall_end = self.cfg.stall_per_mille;
        let short_end = stall_end.saturating_add(self.cfg.short_per_mille);
        let delay_end = short_end.saturating_add(self.cfg.delay_per_mille);
        if roll < stall_end {
            Fault::Stall
        } else if roll < short_end {
            Fault::Short(1 + (len_draw % 8) as usize)
        } else if roll < delay_end {
            Fault::Delay(self.cfg.delay)
        } else {
            Fault::None
        }
    }
}

fn reset_err() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "chaos: injected reset")
}

fn stall_err() -> io::Error {
    io::Error::new(io::ErrorKind::WouldBlock, "chaos: injected stall")
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.next_fault() {
            Fault::None => self.inner.read(buf),
            Fault::Short(n) => {
                let cap = n.min(buf.len()).max(1).min(buf.len());
                self.inner.read(&mut buf[..cap])
            }
            Fault::Stall => Err(stall_err()),
            Fault::Reset => Err(reset_err()),
            Fault::Delay(d) => {
                std::thread::sleep(d);
                self.inner.read(buf)
            }
            Fault::Truncate => Ok(0),
        }
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.next_fault() {
            Fault::None => self.inner.write(buf),
            Fault::Short(n) => {
                let cap = n.min(buf.len()).max(1).min(buf.len());
                self.inner.write(&buf[..cap])
            }
            Fault::Stall => Err(stall_err()),
            Fault::Reset => Err(reset_err()),
            Fault::Delay(d) => {
                std::thread::sleep(d);
                self.inner.write(buf)
            }
            // Swallowed, reported as sent: the peer simply never sees
            // the bytes — a mid-path truncation.
            Fault::Truncate => Ok(buf.len()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.reset {
            return Err(reset_err());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn faults(cfg: ChaosConfig, n: usize) -> Vec<Fault> {
        let mut s = ChaosStream::new((), cfg);
        (0..n).map(|_| s.next_fault()).collect()
    }

    #[test]
    fn schedule_is_deterministic() {
        let cfg = ChaosConfig::new(42)
            .shorts(300)
            .stalls(100)
            .delays(50, Duration::from_millis(1));
        assert_eq!(faults(cfg, 1000), faults(cfg, 1000));
        // A different seed must (overwhelmingly) give a different
        // schedule.
        assert_ne!(faults(cfg, 1000), faults(ChaosConfig::new(43).shorts(300).stalls(100).delays(50, Duration::from_millis(1)), 1000));
    }

    #[test]
    fn short_reads_cap_bytes() {
        let data = vec![7u8; 1024];
        let mut s = ChaosStream::new(Cursor::new(data), ChaosConfig::new(1).shorts(1000));
        let mut buf = [0u8; 512];
        let n = s.read(&mut buf).unwrap();
        assert!((1..=8).contains(&n), "short read moved {n} bytes");
    }

    #[test]
    fn reset_is_sticky() {
        let mut s = ChaosStream::new(Cursor::new(vec![0u8; 64]), ChaosConfig::new(1).reset_at(2));
        let mut buf = [0u8; 16];
        assert!(s.read(&mut buf).is_ok());
        assert!(s.write(b"x").is_ok());
        for _ in 0..4 {
            let e = s.read(&mut buf).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        }
        assert_eq!(
            s.write(b"x").unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn truncate_black_holes() {
        let mut s = ChaosStream::new(Cursor::new(Vec::new()), ChaosConfig::new(1).truncate_at(0));
        // Writes claim success but the inner stream never sees them.
        assert_eq!(s.write(b"vanish").unwrap(), 6);
        assert!(s.get_ref().get_ref().is_empty());
        let mut buf = [0u8; 8];
        assert_eq!(s.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn stall_is_would_block() {
        let mut s = ChaosStream::new(Cursor::new(vec![0u8; 8]), ChaosConfig::new(1).stalls(1000));
        let mut buf = [0u8; 8];
        assert_eq!(
            s.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
    }

    #[test]
    fn clean_config_passes_through() {
        let mut s = ChaosStream::new(Cursor::new(b"hello".to_vec()), ChaosConfig::new(9));
        let mut buf = [0u8; 16];
        assert_eq!(s.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"hello");
    }
}
