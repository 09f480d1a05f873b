//! The STLS record layer: framing and AEAD protection.
//!
//! Records are `type (1) || len (2, big-endian) || payload`. Before
//! keys are established payloads are plaintext handshake messages;
//! afterwards they are AES-256-GCM ciphertexts under the nonce
//! `iv ⊕ seq`, `seq` a per-direction sequence number that no record
//! repeats under one key. The AAD is the content-type byte alone: the
//! length field is not authenticated as header bytes, but GHASH's final
//! length block covers the ciphertext's length, so a record whose
//! length was changed fails its tag.

use libseal_crypto::gcm::Aes256Gcm;

use crate::{Result, TlsError};

/// Record content types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentType {
    /// Handshake messages.
    Handshake,
    /// Application data.
    AppData,
    /// Alerts (close_notify, failures).
    Alert,
}

impl ContentType {
    fn to_byte(self) -> u8 {
        match self {
            ContentType::Handshake => 22,
            ContentType::AppData => 23,
            ContentType::Alert => 21,
        }
    }

    fn from_byte(b: u8) -> Result<ContentType> {
        match b {
            22 => Ok(ContentType::Handshake),
            23 => Ok(ContentType::AppData),
            21 => Ok(ContentType::Alert),
            other => Err(TlsError::Protocol(format!("unknown record type {other}"))),
        }
    }
}

/// Maximum record payload size.
pub const MAX_RECORD: usize = 16 * 1024;
/// Bytes of a record header: type, then the payload length.
pub const HEADER: usize = 3;
/// Bytes protection adds to a payload (the AEAD tag).
pub const TAG: usize = 16;

/// A record found by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record<'a> {
    /// Content type.
    pub ctype: ContentType,
    /// Payload (plaintext or ciphertext depending on layer state).
    pub payload: &'a [u8],
}

/// The header of a record carrying `len` payload bytes.
fn header(ctype: ContentType, len: usize) -> Result<[u8; HEADER]> {
    if len > MAX_RECORD + TAG {
        return Err(TlsError::Protocol(format!("oversized record: {len}")));
    }
    let [hi, lo] = (len as u16).to_be_bytes();
    Ok([ctype.to_byte(), hi, lo])
}

/// Frames a record for the wire.
///
/// # Errors
///
/// [`TlsError::Protocol`] when `payload` is longer than a record the
/// peer's [`parse`] accepts.
pub fn frame(ctype: ContentType, payload: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&header(ctype, payload.len())?);
    out.extend_from_slice(payload);
    Ok(out)
}

/// Attempts to parse one record from the front of `buf`; returns the
/// record and bytes consumed, or `None` when more bytes are needed.
///
/// # Errors
///
/// [`TlsError::Protocol`] on an invalid header.
pub fn parse(buf: &[u8]) -> Result<Option<(Record<'_>, usize)>> {
    if buf.len() < HEADER {
        return Ok(None);
    }
    let ctype = ContentType::from_byte(buf[0])?;
    let len = u16::from_be_bytes([buf[1], buf[2]]) as usize;
    if len > MAX_RECORD + TAG {
        return Err(TlsError::Protocol(format!("oversized record: {len}")));
    }
    let Some(payload) = buf.get(HEADER..HEADER + len) else {
        return Ok(None);
    };
    Ok(Some((Record { ctype, payload }, HEADER + len)))
}

/// One direction's record protection state.
pub struct RecordKeys {
    aead: Aes256Gcm,
    iv: [u8; 12],
    seq: u64,
}

impl RecordKeys {
    /// Creates protection state from a 32-byte key and 12-byte IV.
    ///
    /// # Panics
    ///
    /// On a CPU without AES-NI and PCLMULQDQ; a handshake refuses such
    /// a CPU with [`TlsError::Protocol`] before it derives its keys.
    pub fn new(key: &[u8; 32], iv: &[u8; 12]) -> Self {
        RecordKeys {
            aead: Aes256Gcm::new(key),
            iv: *iv,
            seq: 0,
        }
    }

    fn nonce(&self) -> [u8; 12] {
        let mut n = self.iv;
        let seq = self.seq.to_be_bytes();
        for (i, b) in seq.iter().enumerate() {
            n[4 + i] ^= b;
        }
        n
    }

    /// Seals `plaintext` into a protected record payload, advancing the
    /// sequence number.
    pub fn seal(&mut self, ctype: ContentType, plaintext: &[u8]) -> Vec<u8> {
        let sealed = self.aead.seal(&self.nonce(), &[ctype.to_byte()], plaintext);
        self.seq += 1;
        sealed
    }

    /// Appends the whole protected record of `plaintext` to `out` —
    /// header, ciphertext, tag — encrypting where the bytes land, and
    /// advances the sequence number.
    ///
    /// # Errors
    ///
    /// [`TlsError::Protocol`] when `plaintext` is longer than
    /// [`MAX_RECORD`]; nothing is appended.
    pub fn seal_into(
        &mut self,
        ctype: ContentType,
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.seal_parts_into(ctype, &[plaintext], out)
    }

    /// [`RecordKeys::seal_into`] for a plaintext given as a chain of
    /// slices: each is copied once, to where it is encrypted.
    ///
    /// # Errors
    ///
    /// As [`RecordKeys::seal_into`], for the chain's total length.
    pub fn seal_parts_into(
        &mut self,
        ctype: ContentType,
        parts: &[&[u8]],
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let len = parts.iter().map(|p| p.len()).sum::<usize>();
        out.extend_from_slice(&header(ctype, len + TAG)?);
        let start = out.len();
        parts.iter().for_each(|p| out.extend_from_slice(p));
        let tag = self
            .aead
            .seal_in_place(&self.nonce(), &[ctype.to_byte()], &mut out[start..]);
        out.extend_from_slice(&tag);
        self.seq += 1;
        Ok(())
    }

    /// Opens a protected record payload, advancing the sequence number.
    ///
    /// # Errors
    ///
    /// [`TlsError::Decrypt`] on authentication failure.
    pub fn open(&mut self, ctype: ContentType, sealed: &[u8]) -> Result<Vec<u8>> {
        let mut data = sealed.to_vec();
        let len = self.open_in_place(ctype, &mut data)?.len();
        data.truncate(len);
        Ok(data)
    }

    /// [`Self::open`] where the payload lies: returns the plaintext,
    /// the leading bytes of `sealed`.
    ///
    /// # Errors
    ///
    /// [`TlsError::Decrypt`] on authentication failure; `sealed` is
    /// then untouched (no byte is decrypted before the tag verifies)
    /// and the sequence number has not moved.
    pub fn open_in_place<'a>(
        &mut self,
        ctype: ContentType,
        sealed: &'a mut [u8],
    ) -> Result<&'a mut [u8]> {
        let plain = self
            .aead
            .open_in_place(&self.nonce(), &[ctype.to_byte()], sealed)
            .map_err(|_| TlsError::Decrypt)?;
        self.seq += 1;
        Ok(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_parse_roundtrip() {
        let framed = frame(ContentType::AppData, b"payload").unwrap();
        let (rec, used) = parse(&framed).unwrap().unwrap();
        assert_eq!(used, framed.len());
        assert_eq!(rec.ctype, ContentType::AppData);
        assert_eq!(rec.payload, b"payload");
    }

    #[test]
    fn partial_returns_none() {
        let framed = frame(ContentType::Handshake, b"abcdef").unwrap();
        assert!(parse(&framed[..2]).unwrap().is_none());
        assert!(parse(&framed[..5]).unwrap().is_none());
    }

    #[test]
    fn bad_type_rejected() {
        assert!(parse(&[99, 0, 0]).is_err());
    }

    #[test]
    fn seal_open_sequence() {
        let key = [7u8; 32];
        let iv = [3u8; 12];
        let mut tx = RecordKeys::new(&key, &iv);
        let mut rx = RecordKeys::new(&key, &iv);
        for i in 0..10u32 {
            let msg = format!("message {i}");
            let sealed = tx.seal(ContentType::AppData, msg.as_bytes());
            let opened = rx.open(ContentType::AppData, &sealed).unwrap();
            assert_eq!(opened, msg.as_bytes());
        }
    }

    #[test]
    fn replay_detected_by_sequence() {
        let key = [7u8; 32];
        let iv = [3u8; 12];
        let mut tx = RecordKeys::new(&key, &iv);
        let mut rx = RecordKeys::new(&key, &iv);
        let sealed = tx.seal(ContentType::AppData, b"once");
        rx.open(ContentType::AppData, &sealed).unwrap();
        // Replaying the same ciphertext fails: the nonce has moved on.
        assert_eq!(
            rx.open(ContentType::AppData, &sealed),
            Err(TlsError::Decrypt)
        );
    }

    #[test]
    fn type_confusion_detected() {
        let key = [7u8; 32];
        let iv = [3u8; 12];
        let mut tx = RecordKeys::new(&key, &iv);
        let mut rx = RecordKeys::new(&key, &iv);
        let sealed = tx.seal(ContentType::AppData, b"x");
        assert_eq!(
            rx.open(ContentType::Handshake, &sealed),
            Err(TlsError::Decrypt)
        );
    }
}
