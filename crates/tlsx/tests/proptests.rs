//! Property-based tests for the STLS transport (deterministic
//! `plat::check` harness; same properties and case counts as the
//! original proptest suite).

use libseal_tlsx::cert::{Certificate, CertificateAuthority};
use libseal_tlsx::record::{frame, parse, ContentType, RecordKeys};
use libseal_tlsx::ssl::{ReadOutcome, Ssl, SslConfig};

fn pump(a: &mut Ssl, b: &mut Ssl) {
    for _ in 0..12 {
        let out = a.take_output();
        if !out.is_empty() {
            b.provide_input(&out);
        }
        let _ = b.do_handshake();
        let back = b.take_output();
        if !back.is_empty() {
            a.provide_input(&back);
        }
        let _ = a.do_handshake();
        if a.is_established() && b.is_established() {
            return;
        }
    }
}

plat::prop! {
    #![cases(24)]

    fn issue_enforces_name_bound_and_roundtrips(g) {
        // Subject names at and around the decode cap: issuance must
        // accept exactly the lengths decode can represent (satellite
        // regression: `issue` used to mint certs longer than 4096
        // bytes that `decode` then refused).
        let len = g.usize_in(libseal_tlsx::cert::MAX_NAME_LEN - 8..libseal_tlsx::cert::MAX_NAME_LEN + 8);
        let subject = "n".repeat(len);
        let pubkey = g.byte_array::<32>();
        let ca = CertificateAuthority::new("PropCA", &[0x61; 32]);
        match ca.issue(&subject, &pubkey) {
            Ok(cert) => {
                assert!(len <= libseal_tlsx::cert::MAX_NAME_LEN);
                let decoded = Certificate::decode(&cert.encode()).unwrap();
                assert_eq!(decoded, cert);
                decoded.verify(&ca.root_key()).unwrap();
            }
            Err(_) => assert!(len > libseal_tlsx::cert::MAX_NAME_LEN),
        }
        // The issuer name is bounded by the same cap.
        let ca_name = "i".repeat(len);
        let long_ca = CertificateAuthority::new(&ca_name, &[0x62; 32]);
        assert_eq!(
            long_ca.issue("svc", &pubkey).is_ok(),
            len <= libseal_tlsx::cert::MAX_NAME_LEN
        );
    }

    fn record_frame_parse_roundtrip(g) {
        let payload = g.bytes(0..4000);
        let framed = frame(ContentType::AppData, &payload).unwrap();
        let (rec, used) = parse(&framed).unwrap().unwrap();
        assert_eq!(used, framed.len());
        assert_eq!(rec.payload, payload);
    }

    fn record_keys_roundtrip_sequences(g) {
        let key = g.byte_array::<32>();
        let iv = g.byte_array::<12>();
        let messages: Vec<Vec<u8>> = (0..g.usize_in(1..8)).map(|_| g.bytes(0..200)).collect();
        let mut tx = RecordKeys::new(&key, &iv);
        let mut rx = RecordKeys::new(&key, &iv);
        for m in &messages {
            let sealed = tx.seal(ContentType::AppData, m);
            assert_eq!(&rx.open(ContentType::AppData, &sealed).unwrap(), m);
        }
    }

    fn data_transfer_any_sizes(g) {
        let entropy_c = g.byte_array::<64>();
        let entropy_s = g.byte_array::<64>();
        let payload = g.bytes(1..60_000);
        let ca = CertificateAuthority::new("PropCA", &[0x61; 32]);
        let (key, cert) = ca.issue_identity("prop", &[0x62; 32]).unwrap();
        let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), entropy_c);
        let mut server = Ssl::new(SslConfig::server(cert, key), entropy_s);
        client.do_handshake().unwrap();
        pump(&mut client, &mut server);
        assert!(client.is_established() && server.is_established());

        client.ssl_write(&payload).unwrap();
        server.provide_input(&client.take_output());
        let mut got = Vec::new();
        while got.len() < payload.len() {
            match server.ssl_read().unwrap() {
                ReadOutcome::Data(d) => got.extend_from_slice(&d),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(got, payload);
    }

    fn fragmented_delivery_reassembles(g) {
        let chunk = g.usize_in(1..97);
        let payload = g.bytes(1..3000);
        let ca = CertificateAuthority::new("PropCA", &[0x61; 32]);
        let (key, cert) = ca.issue_identity("prop", &[0x62; 32]).unwrap();
        let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [1u8; 64]);
        let mut server = Ssl::new(SslConfig::server(cert, key), [2u8; 64]);
        client.do_handshake().unwrap();
        pump(&mut client, &mut server);

        client.ssl_write(&payload).unwrap();
        let wire = client.take_output();
        let mut got = Vec::new();
        // Deliver the ciphertext in tiny chunks: the record layer must
        // reassemble regardless of TCP segmentation.
        for piece in wire.chunks(chunk) {
            server.provide_input(piece);
            loop {
                match server.ssl_read().unwrap() {
                    ReadOutcome::Data(d) => got.extend_from_slice(&d),
                    ReadOutcome::WantRead => break,
                    ReadOutcome::Closed => panic!("closed"),
                }
            }
        }
        assert_eq!(got, payload);
    }

    fn corrupted_wire_never_yields_wrong_plaintext(g) {
        let payload = g.bytes(1..500);
        let ca = CertificateAuthority::new("PropCA", &[0x61; 32]);
        let (key, cert) = ca.issue_identity("prop", &[0x62; 32]).unwrap();
        let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [1u8; 64]);
        let mut server = Ssl::new(SslConfig::server(cert, key), [2u8; 64]);
        client.do_handshake().unwrap();
        pump(&mut client, &mut server);

        client.ssl_write(&payload).unwrap();
        let mut wire = client.take_output();
        let idx = g.index(wire.len());
        wire[idx] ^= 1 << g.usize_in(0..8);
        server.provide_input(&wire);
        // Whatever happens, it must not be acceptance of wrong bytes:
        // either a decrypt/protocol error or (header-length damage) a
        // starved WantRead — never Data != payload.
        if let Ok(ReadOutcome::Data(d)) = server.ssl_read() {
            assert_eq!(d, payload);
        }
    }

    // sealdb-style no-panic fuzz, extended to wire decoding: network
    // bytes must produce typed errors, never a panic inside the
    // enclave (an unwind there is an availability violation the audit
    // log cannot record).

    fn cert_decode_never_panics(g) {
        let bytes = match g.usize_in(0..3) {
            0 => g.bytes(0..300),
            1 => {
                // Mutated valid certificate: reaches past the length
                // guards into the field parsing.
                let ca = CertificateAuthority::new("PropCA", &[0x61; 32]);
                let (_, cert) = ca.issue_identity("prop", &[0x62; 32]).unwrap();
                let mut b = cert.encode();
                for _ in 0..g.usize_in(1..5) {
                    let idx = g.index(b.len());
                    b[idx] = b[idx].wrapping_add(1 + g.usize_in(0..255) as u8);
                }
                b
            }
            _ => {
                // Truncations of a valid certificate at every prefix.
                let ca = CertificateAuthority::new("PropCA", &[0x61; 32]);
                let (_, cert) = ca.issue_identity("prop", &[0x62; 32]).unwrap();
                let b = cert.encode();
                b[..g.index(b.len() + 1)].to_vec()
            }
        };
        // Must return Ok or a typed TlsError — never panic.
        let _ = Certificate::decode(&bytes);
    }

    fn handshake_decode_never_panics_on_garbage(g) {
        use libseal_tlsx::record::{frame, ContentType};
        let ca = CertificateAuthority::new("PropCA", &[0x61; 32]);
        let (key, cert) = ca.issue_identity("prop", &[0x62; 32]).unwrap();
        let mut peer = if g.usize_in(0..2) == 0 {
            Ssl::new(SslConfig::server(cert, key), [2u8; 64])
        } else {
            let mut c = Ssl::new(SslConfig::client(vec![ca.root_key()]), [1u8; 64]);
            let _ = c.do_handshake();
            let _ = c.take_output();
            c
        };
        // Garbage framed as handshake records reaches the message
        // parser (incl. the short-ClientHello/ServerHello paths the
        // key-share extraction guards); raw noise exercises record
        // parsing itself.
        for _ in 0..g.usize_in(1..4) {
            let noise = match g.usize_in(0..3) {
                0 => g.bytes(0..80),
                1 => {
                    // Correctly-framed handshake message (type + 3-byte
                    // big-endian length) with an arbitrary body.
                    let mut msg = vec![g.usize_in(1..8) as u8];
                    let body = g.bytes(0..40);
                    msg.extend_from_slice(&(body.len() as u32).to_be_bytes()[1..4]);
                    msg.extend_from_slice(&body);
                    frame(ContentType::Handshake, &msg).unwrap()
                }
                _ => frame(ContentType::Handshake, &g.bytes(0..60)).unwrap(),
            };
            peer.provide_input(&noise);
            let _ = peer.do_handshake();
            let _ = peer.ssl_read();
            let _ = peer.take_output();
        }
    }

    fn handshake_truncated_flights_never_panic(g) {
        // A real server flight truncated at an arbitrary byte: the
        // client must error or starve (WantRead), never panic.
        let ca = CertificateAuthority::new("PropCA", &[0x61; 32]);
        let (key, cert) = ca.issue_identity("prop", &[0x62; 32]).unwrap();
        let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [1u8; 64]);
        let mut server = Ssl::new(SslConfig::server(cert, key), [2u8; 64]);
        client.do_handshake().unwrap();
        server.provide_input(&client.take_output());
        let _ = server.do_handshake();
        let flight = server.take_output();
        let cut = g.index(flight.len() + 1);
        client.provide_input(&flight[..cut]);
        let _ = client.do_handshake();
        let _ = client.ssl_read();
    }
}
