//! # hsconas-ckpt
//!
//! Versioned, crash-safe persistence for the long-running HSCoNAS phases
//! (supernet training, progressive shrinking, evolutionary search, latency
//! calibration). A crash or preemption at hour N must not restart the run
//! from hour 0, so every write here is built to survive being interrupted
//! at any instruction:
//!
//! * **Atomic writes** ([`file::write_atomic`]): payloads land in a
//!   temporary file in the destination directory, are fsynced, and are
//!   renamed over the final name; the directory is fsynced afterwards. A
//!   kill at any point leaves either the old complete file or the new
//!   complete file — never a torn one.
//! * **Self-describing files** ([`file::CkptHeader`]): a fixed magic,
//!   format version, phase tag, cursor, configuration hash, payload length
//!   and FNV-1a payload checksum precede every payload. Corrupted or
//!   truncated files are rejected with a precise [`CkptError`], never
//!   deserialized into garbage state.
//! * **Config-hash guard**: resuming against a checkpoint written under a
//!   different search-space/configuration hash is refused
//!   ([`CkptError::ConfigHashMismatch`]).
//! * **Retention** ([`store::CheckpointStore`]): a keep-last-K policy
//!   prunes old checkpoints after each successful write, newest-first.
//! * **Fault injection** ([`failpoint`]): feature-gated hooks (compiled
//!   out by default, like telemetry) that error or abort the process at
//!   named write sites, so the crash-safety guarantees are enforced by
//!   tests instead of asserted in comments.
//!
//! The [`envelope`] module holds the lighter magic/version/length/checksum
//! header that the `.hsart` and `.hsbt` artifact formats share.
//!
//! The payload itself is an opaque byte string; [`codec`] provides a
//! little-endian binary encoder/decoder whose float paths go through
//! `to_bits`/`from_bits`, so state round-trips **bit-identically** — the
//! property the resume-equivalence tests upstream are built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod envelope;
mod error;
pub mod failpoint;
pub mod file;
pub mod store;

pub use codec::{Decoder, Encoder};
pub use error::CkptError;
pub use file::{
    inspect, read_payload, write_atomic, write_atomic_bytes, CkptHeader, Phase, FORMAT_VERSION,
};
pub use store::CheckpointStore;

/// FNV-1a over a byte string — the checksum/config-hash primitive used
/// throughout the checkpoint format.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"hsconas"), fnv1a(b"hsconas"));
    }
}
