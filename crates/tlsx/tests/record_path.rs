//! The record path end to end: what `ssl_write` puts on the wire and
//! what `pump` makes of it, however the wire is cut.
//!
//! Alone in its binary, as one test: it reads the process-wide
//! `tlsx_records_*_total` counters, which any other test that moves a
//! record would move too.
//!
//! - Wire bytes are held to the RFC 8439 textbook AEAD the record layer
//!   ran on before the lane-parallel kernels (the oracle of
//!   `crates/crypto/tests/aead_equiv.rs`), not to the library itself.
//! - A seeded 1 MiB transfer fed to the peer cut at every boundary
//!   class — mid-header, mid-payload, mid-tag, many records at once —
//!   yields the same plaintext and the same record counts.
//! - Records are opened where they lie in the session's input buffer,
//!   so a forged record must fail before a byte of it is decrypted, and
//!   nothing after it is released.

use libseal_tlsx::cert::{CertificateAuthority, Extension, MAX_EXTENSION_LEN};
use libseal_tlsx::record::{self, ContentType, RecordKeys, HEADER, MAX_RECORD, TAG};
use libseal_tlsx::ssl::{Ssl, SslConfig};
use libseal_tlsx::TlsError;
use plat::check::Gen;

#[path = "../../crypto/tests/oracle/mod.rs"]
mod oracle;

fn ca() -> CertificateAuthority {
    CertificateAuthority::new("RootCA", &[0x33; 32])
}

/// An established pair; the same seeds every time, so the same keys.
fn established() -> (Ssl, Ssl) {
    let ca = ca();
    let (key, cert) = ca.issue_identity("localhost", &[4u8; 32]).unwrap();
    let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [1; 64]);
    let mut server = Ssl::new(SslConfig::server(cert, key), [2; 64]);
    let mut to_server = client.pump(&[]).output;
    while !to_server.is_empty() {
        let to_client = server.pump(&to_server).output;
        to_server = client.pump(&to_client).output;
    }
    assert!(client.is_established() && server.is_established());
    (client, server)
}

fn counted(name: &str) -> u64 {
    libseal_telemetry::counter(name).get()
}

/// Where each record of `wire` starts, and `wire.len()` last.
fn record_starts(wire: &[u8]) -> Vec<usize> {
    let mut starts = vec![0];
    while let Some((_, used)) = record::parse(&wire[starts[starts.len() - 1]..]).unwrap() {
        starts.push(starts[starts.len() - 1] + used);
    }
    assert_eq!(starts.last(), Some(&wire.len()), "whole records only");
    starts
}

/// Cuts `wire` at `cuts` (ascending offsets) and pumps the pieces into a
/// fresh server; returns the plaintext and how many records it opened.
fn receive(wire: &[u8], cuts: impl IntoIterator<Item = usize>) -> (Vec<u8>, u64) {
    let (_, mut server) = established();
    let before = counted("tlsx_records_opened_total");
    let mut plain = Vec::new();
    let mut from = 0;
    for cut in cuts.into_iter().chain([wire.len()]) {
        let p = server.pump(&wire[from..cut]);
        assert_eq!(p.error, None, "piece {from}..{cut}");
        assert!(p.output.is_empty() && !p.closed);
        plain.extend_from_slice(&p.data);
        from = cut;
    }
    (plain, counted("tlsx_records_opened_total") - before)
}

fn a_transfer_reads_the_same_however_the_wire_is_cut() {
    let mut g = Gen::for_case("record_path_transfer", 0);
    let payload = g.bytes(1 << 20..(1 << 20) + 1);
    let records = (payload.len() / MAX_RECORD) as u64;

    let (mut client, _) = established();
    let before = counted("tlsx_records_sealed_total");
    client.ssl_write(&payload).unwrap();
    let wire = client.take_output();
    assert_eq!(counted("tlsx_records_sealed_total") - before, records);
    assert_eq!(wire.len(), payload.len() + 64 * (HEADER + TAG));
    let starts = record_starts(&wire);
    assert_eq!(starts.len() as u64, records + 1);

    let inner = &starts[1..starts.len() - 1];
    let classes: Vec<(&str, Vec<usize>)> = vec![
        ("all at once", vec![]),
        ("record by record", inner.to_vec()),
        (
            "mid-header",
            starts[..64].iter().flat_map(|s| [s + 1, s + 2]).collect(),
        ),
        (
            "mid-payload",
            starts[..64].iter().map(|s| s + HEADER + 8000).collect(),
        ),
        ("mid-tag", starts[1..].iter().map(|s| s - 5).collect()),
        (
            "two and a half records",
            (1..26).map(|i| i * 41_000).collect(),
        ),
        ("seeded", {
            let mut cuts = vec![g.usize_in(1..50)];
            while cuts[cuts.len() - 1] < wire.len() - 40_000 {
                cuts.push(cuts[cuts.len() - 1] + g.usize_in(1..40_000));
            }
            cuts
        }),
    ];
    for (class, cuts) in classes {
        let (plain, opened) = receive(&wire, cuts);
        assert!(plain == payload, "{class}: plaintext differs");
        assert_eq!(opened, records, "{class}: records opened");
    }
}

fn the_wire_is_the_textbook_aead_s() {
    let mut g = Gen::for_case("record_path_wire", 0);
    let (key, iv) = (g.byte_array::<32>(), g.byte_array::<12>());
    let mut keys = RecordKeys::new(&key, &iv);
    let mut wire = Vec::new();
    let mut expected = Vec::new();
    // With the byte each travels as, which is also the AEAD's AAD.
    let kinds = [
        (ContentType::Handshake, 22u8),
        (ContentType::AppData, 23),
        (ContentType::Alert, 21),
    ];
    let sizes = [0, 1, 64, 600, 1100, 4096, MAX_RECORD - 1, MAX_RECORD];
    for (seq, len) in sizes.into_iter().cycle().take(20).enumerate() {
        let (ctype, type_byte) = kinds[seq % 3];
        let plaintext = g.bytes(len..len + 1);
        keys.seal_into(ctype, &plaintext, &mut wire).unwrap();

        let mut nonce = iv;
        for (n, s) in nonce[4..].iter_mut().zip((seq as u64).to_be_bytes()) {
            *n ^= s;
        }
        let payload = oracle::aead_seal(&key, &nonce, &[type_byte], &plaintext);
        expected.push(type_byte);
        expected.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        expected.extend_from_slice(&payload);
        assert!(wire == expected, "record {seq}: {len} bytes of {ctype:?}");
    }
    // The copying forms are the same bytes without the header.
    let (mut tx, mut rx) = (RecordKeys::new(&key, &iv), RecordKeys::new(&key, &iv));
    for start in record_starts(&wire).windows(2) {
        let (rec, _) = record::parse(&wire[start[0]..]).unwrap().unwrap();
        let plain = rx.open(rec.ctype, rec.payload).unwrap();
        assert!(tx.seal(rec.ctype, &plain) == rec.payload);
    }
    // One byte more than a record holds is refused, and appends nothing.
    let len = wire.len();
    let refused = tx.seal_into(ContentType::AppData, &vec![0; MAX_RECORD + 1], &mut wire);
    assert!(matches!(refused, Err(TlsError::Protocol(_))), "{refused:?}");
    assert_eq!(wire.len(), len);
}

fn a_forged_record_fails_undecrypted_and_releases_nothing() {
    let mut g = Gen::for_case("record_path_forged", 0);
    let payload = g.bytes(40_000..40_001);
    let (mut client, _) = established();
    client.ssl_write(&payload).unwrap();
    let wire = client.take_output();
    let starts = record_starts(&wire);
    assert_eq!(starts.len(), 4, "three records");

    // Second record: a ciphertext byte, then a tag byte.
    for at in [starts[1] + HEADER + 100, starts[2] - 1] {
        let mut forged = wire.clone();
        forged[at] ^= 0x20;
        let (_, mut server) = established();
        let p = server.pump(&forged);
        assert_eq!(p.error, Some(TlsError::Decrypt));
        assert!(p.data == payload[..MAX_RECORD], "only the record before it");
        // It stays refused, and the intact record behind it stays
        // unread.
        let again = server.pump(&[]);
        assert_eq!(again.error, Some(TlsError::Decrypt));
        assert!(again.data.is_empty());
    }

    // Where the record lies: refused with every byte as it arrived, the
    // sequence number unmoved.
    let (key, iv) = (g.byte_array::<32>(), g.byte_array::<12>());
    let (mut tx, mut rx) = (RecordKeys::new(&key, &iv), RecordKeys::new(&key, &iv));
    let plaintext = g.bytes(1100..1101);
    let sealed = tx.seal(ContentType::AppData, &plaintext);
    for at in [0, 700, sealed.len() - TAG, sealed.len() - 1] {
        let mut forged = sealed.clone();
        forged[at] ^= 1;
        let arrived = forged.clone();
        let refused = rx.open_in_place(ContentType::AppData, &mut forged);
        assert_eq!(refused, Err(TlsError::Decrypt));
        assert!(
            forged == arrived,
            "byte {at}: a refused record was modified"
        );
    }
    let mut intact = sealed.clone();
    let opened = rx.open_in_place(ContentType::AppData, &mut intact).unwrap();
    assert!(*opened == *plaintext);
}

/// `record::frame` used to guard its length with a `debug_assert!` and
/// write `len as u16`: in release a certificate of five 16 KiB
/// extensions left the server as a record claiming 16 408 bytes.
fn a_handshake_message_too_long_for_a_record_is_a_typed_error() {
    let ca = ca();
    let key = libseal_crypto::ed25519::SigningKey::from_seed(&[4u8; 32]);
    let extensions = (0..5)
        .map(|i| Extension {
            ext_type: 0x7000 + i,
            critical: false,
            data: vec![0xab; MAX_EXTENSION_LEN],
        })
        .collect();
    let cert = ca
        .issue_with_extensions("localhost", key.verifying_key().as_bytes(), extensions)
        .unwrap();
    assert!(cert.encode().len() > usize::from(u16::MAX));
    let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [1; 64]);
    let mut server = Ssl::new(SslConfig::server(cert, key), [2; 64]);
    let hello = client.pump(&[]).output;
    let p = server.pump(&hello);
    assert!(
        matches!(p.error, Some(TlsError::Protocol(_))),
        "{:?}",
        p.error
    );
    assert!(!p.established);
    let oversized = vec![0; MAX_RECORD + TAG + 1];
    assert!(record::frame(ContentType::Handshake, &oversized).is_err());
    assert!(record::frame(ContentType::Handshake, &oversized[1..]).is_ok());
}

#[test]
fn record_path() {
    a_transfer_reads_the_same_however_the_wire_is_cut();
    the_wire_is_the_textbook_aead_s();
    a_forged_record_fails_undecrypted_and_releases_nothing();
    a_handshake_message_too_long_for_a_record_is_a_typed_error();
}
