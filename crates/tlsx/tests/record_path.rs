//! The record path end to end: what `ssl_write` puts on the wire and
//! what `pump` makes of it, however the wire is cut.
//!
//! Alone in its binary, as one test: it reads the process-wide
//! `tlsx_records_*_total` counters, which any other test that moves a
//! record would move too.
//!
//! - Wire bytes are held to a textbook AES-256-GCM (FIPS-197 AES through
//!   the S-box table, SP 800-38D's bit-serial GHASH: the oracle of
//!   `crates/crypto/tests/gcm_equiv.rs`), not to the library itself.
//! - A seeded 1 MiB transfer fed to the peer cut at every boundary
//!   class — mid-header, mid-payload, mid-tag, many records at once —
//!   yields the same plaintext and the same record counts.
//! - Records are opened where they lie in the session's input buffer,
//!   so a forged record must fail before a byte of it is decrypted, and
//!   nothing after it is released.
//! - A pump over inputs that end or begin anywhere — the handshake's
//!   last flight with the first application record, a close_notify or a
//!   forged record inside a burst — releases the same plaintext, the
//!   same typed error and opens the same records as `provide_input` +
//!   `ssl_read` fed one record at a time; the transfer above includes one
//!   record carried across three inputs.

use libseal_tlsx::cert::{CertificateAuthority, Extension, MAX_EXTENSION_LEN};
use libseal_tlsx::record::{self, ContentType, RecordKeys, HEADER, MAX_RECORD, TAG};
use libseal_tlsx::ssl::{ReadOutcome, Ssl, SslConfig};
use libseal_tlsx::TlsError;
use plat::check::Gen;

#[path = "../../crypto/tests/oracle/mod.rs"]
mod oracle;

fn ca() -> CertificateAuthority {
    CertificateAuthority::new("RootCA", &[0x33; 32])
}

/// A pair whose client is established and whose server awaits the
/// client's last flight, returned beside them; the same seeds every
/// time, so the same keys.
fn awaiting_last_flight() -> (Ssl, Ssl, Vec<u8>) {
    let ca = ca();
    let (key, cert) = ca.issue_identity("localhost", &[4u8; 32]).unwrap();
    let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [1; 64]);
    let mut server = Ssl::new(SslConfig::server(cert, key), [2; 64]);
    let hello = client.pump(Vec::new()).output;
    let flight = server.pump(hello).output;
    let last = client.pump(flight).output;
    assert!(client.is_established() && !server.is_established());
    (client, server, last)
}

/// An established pair, the same every time.
fn established() -> (Ssl, Ssl) {
    let (client, mut server, last) = awaiting_last_flight();
    let p = server.pump(last);
    assert!(p.established && p.output.is_empty());
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

/// What a server released from a wire: its plaintext, the first error,
/// whether close_notify arrived, and how many records it opened.
#[derive(Debug, PartialEq)]
struct Released {
    plain: Vec<u8>,
    error: Option<TlsError>,
    closed: bool,
    opened: u64,
}

/// `wire` cut at `cuts` (ascending offsets), each piece pumped into
/// `server` until one fails. A server that is sent records has nothing
/// to answer.
fn pumped(mut server: Ssl, wire: &[u8], cuts: &[usize]) -> Released {
    let before = counted("tlsx_records_opened_total");
    let (mut plain, mut error, mut closed, mut from) = (Vec::new(), None, false, 0);
    for &cut in cuts.iter().chain([&wire.len()]) {
        let p = server.pump(wire[from..cut].to_vec());
        assert!(p.output.is_empty(), "piece {from}..{cut}");
        plain.extend_from_slice(&p.data);
        closed |= p.closed;
        from = cut;
        if p.error.is_some() {
            error = p.error;
            break;
        }
    }
    let opened = counted("tlsx_records_opened_total") - before;
    Released {
        plain,
        error,
        closed,
        opened,
    }
}

/// The reference: `wire` given to `server` one record at a time by
/// `provide_input`, each read out by `ssl_read` until it wants more.
fn read_per_record(mut server: Ssl, wire: &[u8]) -> Released {
    let before = counted("tlsx_records_opened_total");
    let (mut plain, mut error, mut closed) = (Vec::new(), None, false);
    'wire: for record in record_starts(wire).windows(2) {
        server.provide_input(&wire[record[0]..record[1]]);
        loop {
            match server.ssl_read() {
                Ok(ReadOutcome::Data(d)) => plain.extend_from_slice(&d),
                Ok(ReadOutcome::WantRead) => break,
                Ok(ReadOutcome::Closed) => {
                    closed = true;
                    break 'wire;
                }
                Err(e) => {
                    error = Some(e);
                    break 'wire;
                }
            }
        }
    }
    let opened = counted("tlsx_records_opened_total") - before;
    Released {
        plain,
        error,
        closed,
        opened,
    }
}

/// What `client` puts on the wire for `data`.
fn written(client: &mut Ssl, data: &[u8]) -> Vec<u8> {
    client.ssl_write(data).unwrap();
    client.take_output()
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
        (
            "one record across three inputs",
            vec![starts[1] + 5, starts[1] + 9_000],
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
        let got = pumped(established().1, &wire, &cuts);
        assert!(got.plain == payload, "{class}: plaintext differs");
        assert_eq!(got.error, None, "{class}");
        assert!(!got.closed, "{class}");
        assert_eq!(got.opened, records, "{class}: records opened");
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
        let payload = oracle::gcm_seal(&key, &nonce, &[type_byte], &plaintext);
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
        // Pumped whole, at one record's boundaries or inside the forged
        // one, as record-by-record reads see it.
        let reference = read_per_record(established().1, &forged);
        for cuts in [vec![], vec![starts[1]], vec![starts[1] + 7, at + 1]] {
            let got = pumped(established().1, &forged, &cuts);
            assert_eq!(got, reference, "byte {at}, cut at {cuts:?}");
        }
        let (_, mut server) = established();
        let p = server.pump(forged);
        assert_eq!(p.error, Some(TlsError::Decrypt));
        assert!(p.data == payload[..MAX_RECORD], "only the record before it");
        // It stays refused, and the intact record behind it stays
        // unread.
        let again = server.pump(Vec::new());
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

/// Inputs that hold more than records of one kind: the handshake's last
/// flight with the first application record, and a close_notify with
/// records behind it that would fail if anything read them. Each is
/// pumped whole and at six seeded cuts.
fn a_pump_releases_what_record_by_record_reads_release() {
    let mut g = Gen::for_case("record_path_splits", 0);
    let payload = g.bytes(40_000..40_001);
    // Each case: a fresh server and the wire it is given, the same every
    // call, and what it must release.
    type Case<'a> = (&'static str, Box<dyn Fn() -> (Ssl, Vec<u8>) + 'a>, Released);
    let cases: Vec<Case> = vec![
        (
            "the last flight with the first record",
            Box::new(|| {
                let (mut client, server, last) = awaiting_last_flight();
                (server, [last, written(&mut client, &payload)].concat())
            }),
            Released {
                plain: payload.clone(),
                error: None,
                closed: false,
                opened: 3,
            },
        ),
        (
            "a close_notify inside a burst",
            Box::new(|| {
                let (mut client, server) = established();
                let mut wire = written(&mut client, &payload[..20_000]);
                client.send_close();
                wire.extend_from_slice(&client.take_output());
                let (mut other, _) = established();
                wire.extend_from_slice(&written(&mut other, &payload[20_000..]));
                (server, wire)
            }),
            Released {
                plain: payload[..20_000].to_vec(),
                error: None,
                closed: true,
                opened: 3,
            },
        ),
    ];
    for (name, setup, expected) in cases {
        let (_, wire) = setup();
        let mut seeded: Vec<usize> = (0..6).map(|_| g.usize_in(1..wire.len())).collect();
        seeded.sort_unstable();
        seeded.dedup();
        let reference = read_per_record(setup().0, &wire);
        assert_eq!(reference, expected, "{name}: the reference");
        for cuts in [vec![], seeded] {
            let got = pumped(setup().0, &wire, &cuts);
            assert_eq!(got, reference, "{name}, cut at {cuts:?}");
        }
    }
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
    let hello = client.pump(Vec::new()).output;
    let p = server.pump(hello);
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
    a_pump_releases_what_record_by_record_reads_release();
    a_handshake_message_too_long_for_a_record_is_a_typed_error();
}
