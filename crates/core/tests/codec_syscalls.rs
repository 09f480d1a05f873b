//! Sealing a journal record makes no system call: the codec draws its
//! nonce tail from the OS once, at construction, not once per record
//! (inside an enclave every such read would be an ocall). Alone in its
//! binary because `/proc/self/io` counts the whole process's reads.
#![cfg(target_os = "linux")]

use libseal::log::SealingCodec;
use libseal_sealdb::journal::JournalCodec;

/// `read`-family system calls this process has made so far.
fn read_syscalls() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap();
    let line = io.lines().find(|l| l.starts_with("syscr:")).unwrap();
    line["syscr:".len()..].trim().parse().unwrap()
}

#[test]
fn sealing_a_record_reads_nothing_and_every_codec_draws_its_own_tail() {
    let codec = SealingCodec::new([7u8; 32]);
    let before = read_syscalls();
    for i in 0..1000u32 {
        codec.encode(&i.to_le_bytes()).unwrap();
    }
    let reads = read_syscalls() - before;
    assert!(reads < 10, "1,000 encodes made {reads} read syscalls");

    // Same key, same epoch, same counter: the nonces differ only in the
    // tail, and two codecs must not draw the same one.
    let (a, b) = (SealingCodec::new([7u8; 32]), SealingCodec::new([7u8; 32]));
    a.set_epoch(3);
    b.set_epoch(3);
    let (sa, sb) = (a.encode(b"row").unwrap(), b.encode(b"row").unwrap());
    assert_eq!(sa[..8], sb[..8], "epoch and counter");
    assert_ne!(sa[8..12], sb[8..12], "two codecs drew the same nonce tail");
    assert_eq!(a.decode(&sb).unwrap(), b"row");
}
