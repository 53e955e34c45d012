//! The `.hsbt` precomputed bench-table artifact (ROADMAP item 3).
//!
//! An offline `hsconas bench-table` run subspace-samples architectures and
//! precomputes, for a device set, `arch → {latency per device, proxy
//! accuracy}` with exactly the predictors and oracle the server would use
//! live. The server then answers `predict_latency` and `score` for covered
//! architectures with an O(1) lookup instead of a queue round-trip —
//! bit-identically, because every stored float is the bit pattern the live
//! evaluator would produce, and a per-device LUT generation stamp refuses
//! lookups against a predictor the table was not built for.
//!
//! ## Envelope
//!
//! The [`hsconas_ckpt::envelope`] header shared with `.hsart`, with magic
//! "HSBT" and format version 1, around an hsconas-ckpt Encoder stream,
//! written atomically.
//!
//! Loading is strict: wrong magic, a foreign version, a truncated or
//! padded payload, a checksum mismatch, or trailing payload bytes all
//! reject loudly — a bit-flipped table can never limp into serving.

use std::collections::HashMap;
use std::path::Path;

use hsconas_ckpt::{envelope, write_atomic_bytes, Decoder, Encoder};

/// Table envelope magic.
pub const MAGIC: [u8; 4] = *b"HSBT";
/// Current table format version.
pub const FORMAT_VERSION: u32 = 1;

/// One device column of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDevice {
    /// Canonical device name (e.g. `edge-xavier`).
    pub name: String,
    /// Content-hash generation stamp of the predictor the latencies were
    /// computed under (see [`crate::state::DeviceState::lut_generation`]).
    /// A serve-side lookup requires an exact match.
    pub lut_generation: u64,
    /// Eq. 3 bias of that predictor, stored so a table-hit
    /// `predict_latency` answer carries the same `bias_us` field bytes as
    /// a live one.
    pub bias_us: f64,
}

/// One precomputed row: proxy accuracy plus one latency per device.
#[derive(Debug, Clone, PartialEq)]
pub struct TableEntry {
    /// Surrogate-oracle accuracy (%), device-independent.
    pub accuracy: f64,
    /// Predicted latency per device, aligned with [`BenchTable::devices`].
    pub latencies_ms: Vec<f64>,
}

/// The in-memory table: provenance, device columns, and rows keyed by
/// genome fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchTable {
    /// Seed the subspace sample was drawn with.
    pub seed: u64,
    /// Samples requested (rows may be fewer after fingerprint dedup).
    pub samples: u64,
    /// Device columns, name-sorted.
    pub devices: Vec<TableDevice>,
    entries: HashMap<u64, TableEntry>,
}

impl BenchTable {
    /// Creates an empty table over `devices` (sorted by name here, so the
    /// column order is canonical regardless of how the builder listed
    /// them).
    pub fn new(seed: u64, samples: u64, mut devices: Vec<TableDevice>) -> BenchTable {
        devices.sort_by(|a, b| a.name.cmp(&b.name));
        BenchTable {
            seed,
            samples,
            devices,
            entries: HashMap::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts (or replaces) one row.
    ///
    /// # Panics
    ///
    /// Panics if the entry's latency count does not match the device
    /// count — a builder bug, not an input error.
    pub fn insert(&mut self, fingerprint: u64, entry: TableEntry) {
        assert_eq!(
            entry.latencies_ms.len(),
            self.devices.len(),
            "one latency per device column"
        );
        self.entries.insert(fingerprint, entry);
    }

    /// The row for `fingerprint`, if covered.
    pub fn get(&self, fingerprint: u64) -> Option<&TableEntry> {
        self.entries.get(&fingerprint)
    }

    /// The column index for a canonical device name.
    pub fn device_index(&self, canonical_name: &str) -> Option<usize> {
        self.devices.iter().position(|d| d.name == canonical_name)
    }

    /// All covered fingerprints, sorted (deterministic iteration for the
    /// encoder and for exhaustive tests).
    pub fn fingerprints(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.entries.keys().copied().collect();
        all.sort_unstable();
        all
    }

    /// Serializes the table into its envelope bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u64(self.seed);
        e.put_u64(self.samples);
        e.put_usize(self.devices.len());
        for device in &self.devices {
            e.put_str(&device.name);
            e.put_u64(device.lut_generation);
            e.put_f64(device.bias_us);
        }
        let fingerprints = self.fingerprints();
        e.put_usize(fingerprints.len());
        for fp in fingerprints {
            let entry = &self.entries[&fp];
            e.put_u64(fp);
            e.put_f64(entry.accuracy);
            for &lat in &entry.latencies_ms {
                e.put_f64(lat);
            }
        }
        let payload = e.finish();

        envelope::seal(MAGIC, FORMAT_VERSION, &payload)
    }

    /// Parses a table, rejecting any malformed envelope or payload.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first defect found.
    pub fn from_bytes(bytes: &[u8]) -> Result<BenchTable, String> {
        let payload = envelope::open(MAGIC, FORMAT_VERSION, bytes)?;
        let mut d = Decoder::new(payload);
        let table = decode_payload(&mut d)?;
        d.expect_end().map_err(|e| e.to_string())?;
        Ok(table)
    }

    /// Writes the table crash-safely (temp file + fsync + rename).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error text.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("create table dir: {e}"))?;
            }
        }
        write_atomic_bytes(path, &self.to_bytes()).map_err(|e| e.to_string())
    }

    /// Reads and validates a table file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the defect — callers are expected to fail
    /// loudly, never to serve from a table that did not validate.
    pub fn load(path: &Path) -> Result<BenchTable, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        BenchTable::from_bytes(&bytes)
            .map_err(|detail| format!("invalid bench table {}: {detail}", path.display()))
    }
}

fn decode_payload(d: &mut Decoder<'_>) -> Result<BenchTable, String> {
    let err = |e: hsconas_ckpt::CkptError| e.to_string();
    let seed = d.get_u64().map_err(err)?;
    let samples = d.get_u64().map_err(err)?;
    let num_devices = d.get_usize().map_err(err)?;
    let mut devices = Vec::with_capacity(num_devices.min(64));
    for _ in 0..num_devices {
        devices.push(TableDevice {
            name: d.get_str().map_err(err)?,
            lut_generation: d.get_u64().map_err(err)?,
            bias_us: d.get_f64().map_err(err)?,
        });
    }
    for pair in devices.windows(2) {
        if pair[0].name >= pair[1].name {
            return Err(format!(
                "device columns not in canonical order ('{}' then '{}')",
                pair[0].name, pair[1].name
            ));
        }
    }
    let num_entries = d.get_usize().map_err(err)?;
    let mut entries = HashMap::with_capacity(num_entries.min(1 << 20));
    for _ in 0..num_entries {
        let fingerprint = d.get_u64().map_err(err)?;
        let accuracy = d.get_f64().map_err(err)?;
        let mut latencies_ms = Vec::with_capacity(devices.len());
        for _ in 0..devices.len() {
            latencies_ms.push(d.get_f64().map_err(err)?);
        }
        if entries
            .insert(
                fingerprint,
                TableEntry {
                    accuracy,
                    latencies_ms,
                },
            )
            .is_some()
        {
            return Err(format!("duplicate row for fingerprint {fingerprint:#018x}"));
        }
    }
    Ok(BenchTable {
        seed,
        samples,
        devices,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> BenchTable {
        let mut table = BenchTable::new(
            7,
            3,
            vec![
                TableDevice {
                    name: "gpu-gv100".into(),
                    lut_generation: 0xdead,
                    bias_us: 120.5,
                },
                TableDevice {
                    name: "cpu-xeon-6136".into(),
                    lut_generation: 0xbeef,
                    bias_us: -3.25,
                },
            ],
        );
        table.insert(
            11,
            TableEntry {
                accuracy: 71.125,
                latencies_ms: vec![4.5, 9.75],
            },
        );
        table.insert(
            42,
            TableEntry {
                accuracy: 68.0625,
                latencies_ms: vec![3.0, 8.5],
            },
        );
        table
    }

    #[test]
    fn devices_are_canonically_sorted() {
        let table = sample_table();
        assert_eq!(table.devices[0].name, "cpu-xeon-6136");
        assert_eq!(table.device_index("gpu-gv100"), Some(1));
        assert_eq!(table.device_index("gpu"), None, "aliases are not columns");
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let table = sample_table();
        let bytes = table.to_bytes();
        let decoded = BenchTable::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, table);
        assert_eq!(decoded.to_bytes(), bytes, "re-encoding is byte-stable");
    }

    #[test]
    fn corruption_is_rejected_loudly() {
        let table = sample_table();
        let good = table.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(BenchTable::from_bytes(&bad_magic)
            .unwrap_err()
            .contains("magic"));

        let mut foreign_version = good.clone();
        foreign_version[4] = 99;
        assert!(BenchTable::from_bytes(&foreign_version)
            .unwrap_err()
            .contains("version"));

        let truncated = &good[..good.len() - 3];
        assert!(BenchTable::from_bytes(truncated)
            .unwrap_err()
            .contains("truncated"));

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(BenchTable::from_bytes(&flipped)
            .unwrap_err()
            .contains("checksum"));

        let mut padded = good.clone();
        padded.push(0);
        assert!(BenchTable::from_bytes(&padded).is_err());
    }

    #[test]
    fn save_load_roundtrips() {
        let dir = std::env::temp_dir().join(format!("hsconas-hsbt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("t.hsbt");
        let table = sample_table();
        table.save(&path).unwrap();
        assert_eq!(BenchTable::load(&path).unwrap(), table);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
