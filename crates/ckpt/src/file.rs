//! Checkpoint file format and the atomic write / validated read protocol.
//!
//! ## On-disk layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic "HSCK"
//! 4       4     format version (u32 LE)
//! 8       4     phase tag (u32 LE)
//! 12      8     progress cursor (u64 LE)
//! 20      8     configuration hash (u64 LE)
//! 28      8     payload length (u64 LE)
//! 36      8     FNV-1a checksum of payload (u64 LE)
//! 44      N     payload bytes
//! ```
//!
//! ## Atomicity protocol
//!
//! [`write_atomic`] writes header + payload to a temp file unique to the
//! call (`<name>.<pid>.<seq>.tmp`) in the destination directory, fsyncs
//! it, renames it over the final name, then fsyncs the directory. POSIX rename is atomic, so a kill at
//! any instruction leaves either the previous complete file or the new
//! complete file — never a torn one. Fault-injection tests (feature
//! `failpoints`) kill the process at each named site in this sequence and
//! assert exactly that.

use crate::error::CkptError;
use crate::failpoint::fail_point;
use crate::fnv1a;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes identifying an HSCoNAS checkpoint file.
pub const MAGIC: [u8; 4] = *b"HSCK";
/// Current checkpoint format version. Bumped on any layout change.
pub const FORMAT_VERSION: u32 = 1;
/// Size of the fixed header preceding the payload.
pub const HEADER_LEN: usize = 44;

/// Which long-running phase a checkpoint belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Supernet warm training (`hsconas-supernet`'s trainer).
    Train,
    /// Progressive shrinking stage progress.
    Shrink,
    /// Evolutionary search state.
    Search,
    /// Latency-LUT calibration state.
    Lut,
    /// Whole-pipeline checkpoint (embeds the states above).
    Pipeline,
}

impl Phase {
    /// The on-disk tag for this phase.
    pub fn tag(self) -> u32 {
        match self {
            Phase::Train => 0,
            Phase::Shrink => 1,
            Phase::Search => 2,
            Phase::Lut => 3,
            Phase::Pipeline => 4,
        }
    }

    /// Parses an on-disk tag; unknown tags are preserved as errors by the
    /// caller (they may come from a future version).
    pub fn from_tag(tag: u32) -> Option<Phase> {
        match tag {
            0 => Some(Phase::Train),
            1 => Some(Phase::Shrink),
            2 => Some(Phase::Search),
            3 => Some(Phase::Lut),
            4 => Some(Phase::Pipeline),
            _ => None,
        }
    }

    /// Human-readable name (for `hsconas ckpt inspect`).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Train => "train",
            Phase::Shrink => "shrink",
            Phase::Search => "search",
            Phase::Lut => "lut",
            Phase::Pipeline => "pipeline",
        }
    }
}

/// Parsed checkpoint header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptHeader {
    /// Format version the file was written with.
    pub version: u32,
    /// Raw phase tag (use [`CkptHeader::phase`] for the enum).
    pub phase_tag: u32,
    /// Monotonic progress cursor (meaning is phase-specific).
    pub cursor: u64,
    /// Hash of the configuration the run was started under.
    pub config_hash: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// FNV-1a checksum of the payload.
    pub checksum: u64,
}

impl CkptHeader {
    /// The phase, if the tag is known to this build.
    pub fn phase(&self) -> Option<Phase> {
        Phase::from_tag(self.phase_tag)
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..8].copy_from_slice(&self.version.to_le_bytes());
        out[8..12].copy_from_slice(&self.phase_tag.to_le_bytes());
        out[12..20].copy_from_slice(&self.cursor.to_le_bytes());
        out[20..28].copy_from_slice(&self.config_hash.to_le_bytes());
        out[28..36].copy_from_slice(&self.payload_len.to_le_bytes());
        out[36..44].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Result<CkptHeader, CkptError> {
        if bytes.len() < HEADER_LEN {
            return Err(CkptError::Truncated {
                needed: HEADER_LEN,
                available: bytes.len(),
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
        if magic != MAGIC {
            return Err(CkptError::BadMagic { found: magic });
        }
        let le32 =
            |r: std::ops::Range<usize>| u32::from_le_bytes(bytes[r].try_into().expect("4 bytes"));
        let le64 =
            |r: std::ops::Range<usize>| u64::from_le_bytes(bytes[r].try_into().expect("8 bytes"));
        let version = le32(4..8);
        if version != FORMAT_VERSION {
            return Err(CkptError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        Ok(CkptHeader {
            version,
            phase_tag: le32(8..12),
            cursor: le64(12..20),
            config_hash: le64(20..28),
            payload_len: le64(28..36),
            checksum: le64(36..44),
        })
    }
}

/// Atomically writes a checkpoint file: header + payload, by the same
/// writer and protocol as [`write_atomic_bytes`].
///
/// # Errors
///
/// Returns [`CkptError::Io`] on filesystem failure, or
/// [`CkptError::FailPoint`] when a fault-injection site is armed.
pub fn write_atomic(
    path: &Path,
    phase: Phase,
    cursor: u64,
    config_hash: u64,
    payload: &[u8],
) -> Result<(), CkptError> {
    let header = CkptHeader {
        version: FORMAT_VERSION,
        phase_tag: phase.tag(),
        cursor,
        config_hash,
        payload_len: payload.len() as u64,
        checksum: fnv1a(payload),
    };
    write_parts(path, &[&header.encode(), payload])
}

/// Atomically replaces `path` with `bytes`: temp file in the destination
/// directory → fsync → rename over `path` → fsync the directory. Every
/// atomic file write in the workspace (checkpoints, LUT snapshots, spill
/// files, artifacts) goes through here, so a watcher polling the file's
/// mtime only ever observes complete contents, and the fault-injection
/// sites cover them all.
///
/// The temp name is unique per call (`<name>.<pid>.<seq>.tmp`), so
/// concurrent writers of one path — threads or processes sharing a
/// directory — never rename each other's temp files; the last rename
/// wins whole. A failed write removes its temp file.
///
/// # Errors
///
/// Returns [`CkptError::Io`] on filesystem failure, or
/// [`CkptError::FailPoint`] when a fault-injection site is armed.
pub fn write_atomic_bytes(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    write_parts(path, &[bytes])
}

/// The one atomic writer: `parts` concatenated, per [`write_atomic_bytes`].
fn write_parts(path: &Path, parts: &[&[u8]]) -> Result<(), CkptError> {
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .ok_or_else(|| CkptError::corrupt(format!("path {path:?} has no file name")))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp_path = path.with_file_name(tmp_name);

    fail_point("write.before_temp")?;
    let staged = write_temp(&tmp_path, parts)
        .and_then(|()| fail_point("write.after_temp"))
        .and_then(|()| {
            fs::rename(&tmp_path, path)
                .map_err(|e| CkptError::io(format!("rename {tmp_path:?} -> {path:?}"), e))
        });
    if let Err(e) = staged {
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    fail_point("write.after_rename")?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; ignore platforms where directories
        // cannot be opened for sync.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Creates `tmp_path`, writes `parts` in order, and fsyncs it.
fn write_temp(tmp_path: &Path, parts: &[&[u8]]) -> Result<(), CkptError> {
    let mut tmp = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(tmp_path)
        .map_err(|e| CkptError::io(format!("create temp {tmp_path:?}"), e))?;
    for part in parts {
        tmp.write_all(part)
            .map_err(|e| CkptError::io(format!("write temp {tmp_path:?}"), e))?;
    }
    tmp.sync_all()
        .map_err(|e| CkptError::io(format!("fsync temp {tmp_path:?}"), e))
}

/// Reads and fully validates a checkpoint file: magic, version, expected
/// phase, expected config hash, payload length, and checksum. Returns the
/// header and payload only when every check passes — a corrupted file is
/// never deserialized into state.
///
/// # Errors
///
/// Returns the precise [`CkptError`] describing the first failed check.
pub fn read_payload(
    path: &Path,
    expected_phase: Phase,
    expected_config_hash: u64,
) -> Result<(CkptHeader, Vec<u8>), CkptError> {
    let (header, payload) = read_unchecked(path)?;
    if header.phase_tag != expected_phase.tag() {
        return Err(CkptError::PhaseMismatch {
            found: header.phase_tag,
            expected: expected_phase.tag(),
        });
    }
    if header.config_hash != expected_config_hash {
        return Err(CkptError::ConfigHashMismatch {
            found: header.config_hash,
            expected: expected_config_hash,
        });
    }
    Ok((header, payload))
}

/// Reads and validates a checkpoint's integrity (magic, version, length,
/// checksum) without asserting a phase or config hash — the basis for
/// `hsconas ckpt inspect`, which must describe any valid checkpoint.
///
/// # Errors
///
/// Returns [`CkptError`] if the file is unreadable, truncated, or fails
/// its checksum.
pub fn inspect(path: &Path) -> Result<CkptHeader, CkptError> {
    read_unchecked(path).map(|(header, _)| header)
}

fn read_unchecked(path: &Path) -> Result<(CkptHeader, Vec<u8>), CkptError> {
    let mut file = File::open(path).map_err(|e| CkptError::io(format!("open {path:?}"), e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| CkptError::io(format!("read {path:?}"), e))?;
    let header = CkptHeader::decode(&bytes)?;
    let body = &bytes[HEADER_LEN..];
    let expected_len = usize::try_from(header.payload_len)
        .map_err(|_| CkptError::corrupt("payload length overflows usize".to_string()))?;
    if body.len() < expected_len {
        return Err(CkptError::Truncated {
            needed: expected_len,
            available: body.len(),
        });
    }
    if body.len() > expected_len {
        return Err(CkptError::corrupt(format!(
            "{} trailing bytes after payload",
            body.len() - expected_len
        )));
    }
    let computed = fnv1a(body);
    if computed != header.checksum {
        return Err(CkptError::ChecksumMismatch {
            stored: header.checksum,
            computed,
        });
    }
    Ok((header, body.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hsck-file-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_read_round_trips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("ckpt-0000000001.hsck");
        write_atomic(&path, Phase::Search, 1, 0xabcd, b"payload bytes").unwrap();
        let (header, payload) = read_payload(&path, Phase::Search, 0xabcd).unwrap();
        assert_eq!(header.version, FORMAT_VERSION);
        assert_eq!(header.phase(), Some(Phase::Search));
        assert_eq!(header.cursor, 1);
        assert_eq!(payload, b"payload bytes");
        assert!(temp_files(&dir).is_empty(), "no temp file left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_phase_and_config_hash_are_refused() {
        let dir = tmp_dir("guards");
        let path = dir.join("c.hsck");
        write_atomic(&path, Phase::Train, 7, 0x1111, b"x").unwrap();
        assert!(matches!(
            read_payload(&path, Phase::Search, 0x1111),
            Err(CkptError::PhaseMismatch { .. })
        ));
        assert!(matches!(
            read_payload(&path, Phase::Train, 0x2222),
            Err(CkptError::ConfigHashMismatch { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("c.hsck");
        write_atomic(&path, Phase::Lut, 3, 5, b"some payload").unwrap();

        // Flip a payload byte -> checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + 2] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            inspect(&path),
            Err(CkptError::ChecksumMismatch { .. })
        ));

        // Truncate -> Truncated.
        write_atomic(&path, Phase::Lut, 3, 5, b"some payload").unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(matches!(inspect(&path), Err(CkptError::Truncated { .. })));

        // Bad magic -> BadMagic.
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(inspect(&path), Err(CkptError::BadMagic { .. })));

        // Future version -> UnsupportedVersion.
        write_atomic(&path, Phase::Lut, 3, 5, b"some payload").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            inspect(&path),
            Err(CkptError::UnsupportedVersion { found: 99, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_bytes_replaces_and_leaves_no_temp() {
        let dir = tmp_dir("raw_bytes");
        let path = dir.join("snapshot.json");
        write_atomic_bytes(&path, b"{\"v\":1}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":1}");
        write_atomic_bytes(&path, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":2}");
        let leftovers = temp_files(&dir);
        assert!(leftovers.is_empty(), "temp files cleaned: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Several threads replacing one path at once: every write succeeds,
    /// the file ends up equal to one whole payload, and no temp remains.
    #[test]
    fn concurrent_writers_of_one_path_all_succeed() {
        let dir = tmp_dir("concurrent");
        let path = dir.join("shared.evals");
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|t| vec![t; 4096 + usize::from(t)]).collect();
        std::thread::scope(|scope| {
            for payload in &payloads {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..25 {
                        write_atomic_bytes(path, payload).unwrap();
                    }
                });
            }
        });
        let last = fs::read(&path).unwrap();
        assert!(payloads.contains(&last), "file is one whole payload");
        let leftovers = temp_files(&dir);
        assert!(leftovers.is_empty(), "temp files cleaned: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    fn temp_files(dir: &Path) -> Vec<std::ffi::OsString> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect()
    }

    #[test]
    fn empty_payload_is_valid() {
        let dir = tmp_dir("empty");
        let path = dir.join("c.hsck");
        write_atomic(&path, Phase::Pipeline, 0, 0, b"").unwrap();
        let (header, payload) = read_payload(&path, Phase::Pipeline, 0).unwrap();
        assert_eq!(header.payload_len, 0);
        assert!(payload.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
