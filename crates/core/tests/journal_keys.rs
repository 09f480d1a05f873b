//! Each audit log seals its journal under a key of its own: the
//! enclave's seal key expanded with the log signer's public key. The
//! shards of a plane sign with distinct keys and start their epochs
//! and counters alike, so under one shared key their nonces would
//! differ only by the codecs' random tails.

use libseal::log::{journal_key, SealingCodec};
use libseal_crypto::ed25519::SigningKey;
use libseal_sealdb::journal::JournalCodec;

#[test]
fn each_log_signer_seals_its_journal_under_a_key_of_its_own() {
    let seal = [9u8; 32];
    let [a, b] = [1u8, 2].map(|s| SigningKey::from_seed(&[s; 32]).verifying_key());
    assert_eq!(journal_key(&seal, &a), journal_key(&seal, &a));
    assert_ne!(journal_key(&seal, &a), journal_key(&seal, &b));
    assert_ne!(journal_key(&seal, &a), seal);
    assert_ne!(journal_key(&[8u8; 32], &a), journal_key(&seal, &a));

    // Two codecs at the same epoch and counter: a frame of one log
    // does not open in the other.
    let (ca, cb) = (
        SealingCodec::new(journal_key(&seal, &a)),
        SealingCodec::new(journal_key(&seal, &b)),
    );
    ca.set_epoch(1);
    cb.set_epoch(1);
    let frame = ca.encode(b"row").unwrap();
    assert_eq!(ca.decode(&frame).unwrap(), b"row");
    assert!(cb.decode(&frame).is_err());
}
