//! OS entropy without the `rand` crate.
//!
//! The workspace's only real randomness need is seeding the ChaCha20
//! DRBG in `libseal-crypto` (everything downstream runs forward from
//! that seed, mirroring the paper's §4.2 in-enclave generator) and the
//! 64 bytes of key-share and hello randomness of each new connection.
//! This module invokes the `getrandom(2)` syscall directly — one
//! syscall, no file descriptor, no libc binding required — and falls
//! back to reading `/dev/urandom` when the syscall fails (a kernel
//! older than 3.17, or a seccomp filter that refuses it).

use std::io::Read;

/// Fills `buf` with operating-system entropy.
///
/// # Panics
///
/// Panics when no OS entropy source works; seeding a DRBG from a
/// predictable value would silently void every security property, so
/// failing loudly is the only safe behaviour.
pub fn fill(buf: &mut [u8]) {
    if fill_from_syscall(buf).is_ok() {
        return;
    }
    if fill_from_urandom(buf).is_ok() {
        return;
    }
    panic!("no OS entropy source available (getrandom and /dev/urandom both failed)");
}

/// Returns 32 bytes of OS entropy (the DRBG seed shape).
pub fn seed32() -> [u8; 32] {
    let mut seed = [0u8; 32];
    fill(&mut seed);
    seed
}

fn fill_from_urandom(buf: &mut [u8]) -> std::io::Result<()> {
    std::fs::File::open("/dev/urandom")?.read_exact(buf)
}

fn fill_from_syscall(buf: &mut [u8]) -> Result<(), ()> {
    const EINTR: isize = 4;
    let mut filled = 0usize;
    while filled < buf.len() {
        match getrandom(&mut buf[filled..]) {
            // A signal arrived before anything was copied.
            ret if ret == -EINTR => {}
            ret if ret <= 0 => return Err(()),
            ret => filled += ret as usize,
        }
    }
    Ok(())
}

/// `getrandom(buf, len, 0)` (syscall 318): the bytes written or `-errno`.
fn getrandom(buf: &mut [u8]) -> isize {
    let ret: isize;
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 318isize => ret,
            in("rdi") buf.as_mut_ptr(),
            in("rsi") buf.len(),
            in("rdx") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_produces_distinct_draws() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        fill(&mut a);
        fill(&mut b);
        assert_ne!(a, b, "two 256-bit OS draws must not collide");
        assert_ne!(a, [0u8; 32]);
    }

    #[test]
    fn urandom_fallback_works() {
        let mut a = [0u8; 64];
        assert!(fill_from_urandom(&mut a).is_ok());
        assert_ne!(a, [0u8; 64]);
    }

    #[test]
    fn syscall_path_works() {
        let mut a = [0u8; 64];
        fill_from_syscall(&mut a).expect("getrandom syscall");
        assert_ne!(a, [0u8; 64]);
    }
}
