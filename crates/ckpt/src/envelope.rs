//! The checksummed envelope shared by the `.hsart` (compiled graph) and
//! `.hsbt` (bench table) artifact formats; each format picks its own magic
//! and version.
//!
//! ```text
//! offset  size  field
//! 0       4     magic
//! 4       4     format version (u32 LE)
//! 8       8     payload length (u64 LE)
//! 16      8     FNV-1a checksum of the payload (u64 LE)
//! 24      …     payload
//! ```
//!
//! [`open`] is strict: a short file, wrong magic, foreign version, a
//! length that does not match the file, or a checksum mismatch is refused
//! with a message naming the defect, so a truncated or bit-flipped file
//! never reaches a payload decoder.

use crate::fnv1a;

/// Envelope header length in bytes.
pub const HEADER_LEN: usize = 24;

/// `payload` behind a header carrying `magic`, `version`, its length and
/// its FNV-1a checksum.
pub fn seal(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&magic);
    bytes.extend_from_slice(&version.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// The payload of a [`seal`]ed file, after checking every header field.
///
/// # Errors
///
/// A message naming the first defect: a file shorter than the header,
/// bad magic, a foreign version, a truncated or padded payload, or a
/// checksum mismatch.
pub fn open(magic: [u8; 4], version: u32, bytes: &[u8]) -> Result<&[u8], String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!(
            "file is {} bytes, smaller than the {HEADER_LEN}-byte header",
            bytes.len()
        ));
    }
    if bytes[0..4] != magic {
        return Err(format!(
            "bad magic {:02x?}, expected {:02x?} ({:?})",
            &bytes[0..4],
            magic,
            String::from_utf8_lossy(&magic)
        ));
    }
    let le64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let found = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if found != version {
        return Err(format!(
            "format version {found} is not supported (this build reads version {version})"
        ));
    }
    let payload_len = le64(8) as usize;
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != payload_len {
        return Err(format!(
            "payload is {} bytes but the header promises {payload_len} (truncated or padded file)",
            payload.len()
        ));
    }
    let checksum = le64(16);
    let actual = fnv1a(payload);
    if checksum != actual {
        return Err(format!(
            "payload checksum {actual:#018x} does not match header {checksum:#018x} (corrupted file)"
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    #[test]
    fn header_layout_is_pinned() {
        let bytes = seal(MAGIC, 3, b"abc");
        let mut expected = b"TEST".to_vec();
        expected.extend_from_slice(&[3, 0, 0, 0]);
        expected.extend_from_slice(&[3, 0, 0, 0, 0, 0, 0, 0]);
        // FNV-1a("abc") = 0xe71fa2190541574b, little-endian.
        expected.extend_from_slice(&[0x4b, 0x57, 0x41, 0x05, 0x19, 0xa2, 0x1f, 0xe7]);
        expected.extend_from_slice(b"abc");
        assert_eq!(bytes, expected);
        assert_eq!(open(MAGIC, 3, &bytes).unwrap(), b"abc");
    }

    #[test]
    fn every_tampering_is_refused_by_name() {
        let good = seal(MAGIC, 1, b"some payload bytes");
        let edit = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            f(&mut bytes);
            bytes
        };
        let cases: [(&str, Vec<u8>, &str); 6] = [
            (
                "short file",
                good[..HEADER_LEN - 1].to_vec(),
                "smaller than the 24-byte header",
            ),
            ("bad magic", edit(&|b| b[0] = b'X'), "bad magic"),
            (
                "foreign version",
                edit(&|b| b[4] = 2),
                "format version 2 is not supported",
            ),
            (
                "truncated",
                edit(&|b| b.truncate(b.len() - 1)),
                "truncated or padded",
            ),
            ("padded", edit(&|b| b.push(0)), "truncated or padded"),
            (
                "flipped byte",
                edit(&|b| b[HEADER_LEN + 3] ^= 0x10),
                "checksum",
            ),
        ];
        for (case, bytes, needle) in cases {
            let err = open(MAGIC, 1, &bytes).expect_err(case);
            assert!(err.contains(needle), "{case}: {err}");
        }
        assert!(open(MAGIC, 1, &good).is_ok());
    }
}
