//! `ssl_write_parts` seals a chain of slices exactly as `ssl_write`
//! seals their concatenation: the same wire bytes and the same number
//! of records, however the chain is cut — empty slices, and cuts at,
//! inside and across the 16 KiB record boundary.
//!
//! Alone in its binary, as one property: it reads the process-wide
//! `tlsx_records_sealed_total`, which any other test that seals a record
//! would move too.

use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::record::MAX_RECORD;
use libseal_tlsx::ssl::{ReadOutcome, Ssl, SslConfig};
use plat::check::Gen;

/// An established pair; the same seeds every time, so the same keys.
fn established() -> (Ssl, Ssl) {
    let ca = CertificateAuthority::new("RootCA", &[0x33; 32]);
    let (key, cert) = ca.issue_identity("localhost", &[4u8; 32]).unwrap();
    let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [1; 64]);
    let mut server = Ssl::new(SslConfig::server(cert, key), [2; 64]);
    let mut to_server = client.pump(Vec::new()).output;
    while !to_server.is_empty() {
        let to_client = server.pump(to_server).output;
        to_server = client.pump(to_client).output;
    }
    (client, server)
}

fn sealed() -> u64 {
    libseal_telemetry::counter("tlsx_records_sealed_total").get()
}

/// A length near the record boundary as often as anywhere else.
fn near_a_boundary(g: &mut Gen, most: usize) -> usize {
    if g.bool() {
        return g.usize_in(0..most + 1);
    }
    let records = g.usize_in(0..most / MAX_RECORD + 1);
    let at = records * MAX_RECORD;
    match g.usize_in(0..3) {
        0 => at,
        1 => at.saturating_sub(1),
        _ => (at + 1).min(most),
    }
}

/// The data cut into a chain: cut points at random or near a record
/// boundary, repeated cuts giving empty slices, empty slices at the
/// ends.
fn chain(g: &mut Gen, data: &[u8]) -> Vec<Vec<u8>> {
    let mut cuts: Vec<usize> = (0..g.usize_in(0..6))
        .map(|_| near_a_boundary(g, data.len()))
        .collect();
    cuts.extend([0, data.len()]);
    cuts.sort_unstable();
    let mut parts: Vec<Vec<u8>> = cuts.windows(2).map(|w| data[w[0]..w[1]].to_vec()).collect();
    if g.bool() {
        parts.insert(0, Vec::new());
    }
    parts
}

plat::prop! {
    #![cases(96)]

    fn a_chain_is_sealed_as_its_concatenation(g) {
        let len = near_a_boundary(g, 3 * MAX_RECORD + 2);
        let data = g.bytes(len..len + 1);
        let parts = chain(g, &data);
        let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();

        let (mut whole_client, mut whole) = established();
        let before = sealed();
        assert_eq!(whole.ssl_write(&data).unwrap(), len);
        let whole_records = sealed() - before;
        let (_, mut split) = established();
        let before = sealed();
        assert_eq!(split.ssl_write_parts(&slices).unwrap(), len);
        let split_records = sealed() - before;

        let wire = whole.take_output();
        assert_eq!(split.take_output(), wire, "cut at {:?}", parts.iter().map(Vec::len).collect::<Vec<_>>());
        assert_eq!(split_records, whole_records);
        assert_eq!(whole_records as usize, len.div_ceil(MAX_RECORD));
        whole_client.provide_input(&wire);
        let mut seen = Vec::new();
        while let Ok(ReadOutcome::Data(d)) = whole_client.ssl_read() {
            seen.extend_from_slice(&d);
        }
        assert_eq!(seen, data);
    }
}
