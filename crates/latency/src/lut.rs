//! The per-operator latency lookup table of Eq. 2.
//!
//! Each entry records the *isolated* execution time of one concrete layer
//! configuration `(layer, op, c_in, c_out)` on one device — what a
//! profiling pass over the operator zoo produces. Entries are filled
//! lazily and memoized, so only configurations that actually occur are
//! profiled (the full table over the paper space would have
//! `20 × 5 × 10 × 10 = 10,000` entries; lazy filling keeps calibration
//! fast).

use hsconas_hwsim::lower::{lower_head, lower_layer, lower_stem};
use hsconas_hwsim::DeviceSpec;
use hsconas_space::{resolve_geometry, Arch, NetworkSkeleton, OpKind, SearchSpace, SpaceError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Why a [`LutSnapshot`] was refused at import time.
///
/// Before this error existed, a stale or foreign LUT (profiled on another
/// device, another channel layout, or an older search space) would import
/// silently and the predictor would return plausible-looking garbage for
/// every architecture. Both failure modes are now typed and refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LutImportError {
    /// The snapshot was profiled on a different device.
    DeviceMismatch {
        /// The device this table belongs to.
        expected: String,
        /// The device named in the snapshot.
        found: String,
    },
    /// A snapshot entry's key does not exist in the target search space
    /// (wrong layer count, operator not allowed at that layer, or a
    /// channel count no architecture of the space can produce).
    ForeignKey {
        /// The first offending key.
        key: LutKey,
        /// What about the key is impossible in this space.
        reason: String,
    },
}

impl std::fmt::Display for LutImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LutImportError::DeviceMismatch { expected, found } => {
                write!(f, "LUT profiled on device '{found}', expected '{expected}'")
            }
            LutImportError::ForeignKey { key, reason } => write!(
                f,
                "LUT entry (layer {}, {:?}, c_in {}, c_out {}) does not \
                 belong to the search space: {reason}",
                key.layer, key.op, key.c_in, key.c_out
            ),
        }
    }
}

impl std::error::Error for LutImportError {}

/// Key identifying one profiled operator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LutKey {
    /// Zero-based layer index.
    pub layer: usize,
    /// Operator kind.
    pub op: OpKind,
    /// Input channel count.
    pub c_in: usize,
    /// Output channel count.
    pub c_out: usize,
}

/// A serializable snapshot of a profiled LUT (see [`LatencyLut::export`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LutSnapshot {
    /// Name of the device the entries were profiled on.
    pub device_name: String,
    /// Profiled stem latency, microseconds.
    pub stem_us: f64,
    /// Profiled operator entries.
    pub entries: Vec<(LutKey, f64)>,
}

impl LutSnapshot {
    /// Checks that every entry's key is a configuration some architecture
    /// of `space` can actually produce: the layer exists, the operator is
    /// allowed there, and the `(c_in, c_out)` pair is reachable given the
    /// space's channel scales (including widths carried through stride-1
    /// skips). A snapshot from another layout or a shrunk/foreign space
    /// fails here instead of silently predicting garbage.
    ///
    /// # Errors
    ///
    /// Returns [`LutImportError::ForeignKey`] naming the first offending
    /// entry.
    pub fn validate_for_space(&self, space: &SearchSpace) -> Result<(), LutImportError> {
        let slots = space.skeleton().layer_slots();
        // Reachable width sets, layer by layer. `in_set` starts at the stem
        // width; a layer's outputs are its scaled widths, plus (through a
        // stride-1 skip) any of its input widths.
        let mut in_sets: Vec<BTreeSet<usize>> = Vec::with_capacity(slots.len());
        let mut scaled_sets: Vec<BTreeSet<usize>> = Vec::with_capacity(slots.len());
        let mut in_set: BTreeSet<usize> = BTreeSet::from([space.skeleton().stem_channels]);
        for (layer, slot) in slots.iter().enumerate() {
            let scaled: BTreeSet<usize> = space
                .allowed_scales(layer)
                .iter()
                .map(|s| s.apply(slot.max_channels))
                .collect();
            let mut out = scaled.clone();
            if slot.stride == 1 && space.allowed_ops(layer).contains(&OpKind::Skip) {
                out.extend(in_set.iter().copied());
            }
            in_sets.push(in_set.clone());
            scaled_sets.push(scaled);
            in_set = out;
        }
        for &(key, _) in &self.entries {
            let refuse = |reason: String| LutImportError::ForeignKey { key, reason };
            let slot = slots
                .get(key.layer)
                .ok_or_else(|| refuse(format!("space has only {} layers", slots.len())))?;
            if !space.allowed_ops(key.layer).contains(&key.op) {
                return Err(refuse(format!(
                    "operator not allowed at layer {}",
                    key.layer
                )));
            }
            if !in_sets[key.layer].contains(&key.c_in) {
                return Err(refuse(format!(
                    "no architecture reaches layer {} with {} input channels",
                    key.layer, key.c_in
                )));
            }
            let c_out_ok = if key.op == OpKind::Skip && slot.stride == 1 {
                key.c_out == key.c_in
            } else {
                scaled_sets[key.layer].contains(&key.c_out)
            };
            if !c_out_ok {
                return Err(refuse(format!(
                    "{} output channels is not a scaled width of layer {}",
                    key.c_out, key.layer
                )));
            }
        }
        Ok(())
    }
}

/// A lazily filled per-operator latency table for one device.
#[derive(Debug, Clone)]
pub struct LatencyLut {
    device: DeviceSpec,
    skeleton: NetworkSkeleton,
    entries: HashMap<LutKey, f64>,
    stem_us: f64,
}

impl LatencyLut {
    /// Creates an empty LUT for a device and skeleton. The fixed stem is
    /// profiled eagerly (it is identical for every architecture).
    pub fn new(device: DeviceSpec, skeleton: NetworkSkeleton) -> Self {
        let stem_us = device.op_time_us(&lower_stem(&skeleton));
        LatencyLut {
            device,
            skeleton,
            entries: HashMap::new(),
            stem_us,
        }
    }

    /// The device this table was profiled on.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Number of profiled operator configurations so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no operator has been profiled yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exports the profiled entries for persistence (paired with the
    /// device name so a table is never replayed against the wrong
    /// hardware), sorted by key so equal tables export equal bytes.
    pub fn export(&self) -> LutSnapshot {
        let mut entries: Vec<(LutKey, f64)> = self.entries.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        LutSnapshot {
            device_name: self.device.name.clone(),
            stem_us: self.stem_us,
            entries,
        }
    }

    /// Restores previously profiled entries into this table.
    ///
    /// # Errors
    ///
    /// Returns [`LutImportError::DeviceMismatch`] if the snapshot was
    /// profiled on a different device. Key-set validation against a search
    /// space is [`LutSnapshot::validate_for_space`] (the predictor's
    /// snapshot/reload path runs both checks).
    pub fn import(&mut self, snapshot: LutSnapshot) -> Result<usize, LutImportError> {
        if snapshot.device_name != self.device.name {
            return Err(LutImportError::DeviceMismatch {
                expected: self.device.name.clone(),
                found: snapshot.device_name,
            });
        }
        let count = snapshot.entries.len();
        self.stem_us = snapshot.stem_us;
        self.entries.extend(snapshot.entries);
        Ok(count)
    }

    /// Sum of per-operator LUT latencies for `arch` (the `Σ_l op^l` term of
    /// Eq. 2), including the fixed stem and head, in microseconds.
    /// Profiles and memoizes any configuration not seen before.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the architecture does not fit the skeleton.
    pub fn op_sum_us(&mut self, arch: &Arch) -> Result<f64, SpaceError> {
        let geoms = resolve_geometry(&self.skeleton, arch)?;
        let mut total = self.stem_us;
        for geom in &geoms {
            let key = LutKey {
                layer: geom.index,
                op: geom.op,
                c_in: geom.c_in,
                c_out: geom.c_out,
            };
            let device = &self.device;
            let t = *self
                .entries
                .entry(key)
                .or_insert_with(|| device.op_time_us(&lower_layer(geom)));
            total += t;
        }
        let final_res = geoms
            .last()
            .map(|g| g.resolution_out())
            .unwrap_or(self.skeleton.input_resolution / 2);
        let last_c = geoms
            .last()
            .map(|g| g.c_out)
            .unwrap_or(self.skeleton.stem_channels);
        total += self
            .device
            .op_time_us(&lower_head(&self.skeleton, last_c, final_res));
        Ok(total)
    }

    /// Lock-free variant of [`Self::op_sum_us`]: configurations missing
    /// from the table are computed on the fly **without** being memoized.
    /// `op_time_us` is a pure function of the configuration, so the result
    /// is identical to the memoizing path — this is what lets
    /// [`LatencyPredictor::predict_us`](crate::LatencyPredictor::predict_us)
    /// take `&self` and be shared freely across worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError`] if the architecture does not fit the skeleton.
    pub fn op_sum_us_shared(&self, arch: &Arch) -> Result<f64, SpaceError> {
        let geoms = resolve_geometry(&self.skeleton, arch)?;
        let mut total = self.stem_us;
        for geom in &geoms {
            let key = LutKey {
                layer: geom.index,
                op: geom.op,
                c_in: geom.c_in,
                c_out: geom.c_out,
            };
            total += self
                .entries
                .get(&key)
                .copied()
                .unwrap_or_else(|| self.device.op_time_us(&lower_layer(geom)));
        }
        let final_res = geoms
            .last()
            .map(|g| g.resolution_out())
            .unwrap_or(self.skeleton.input_resolution / 2);
        let last_c = geoms
            .last()
            .map(|g| g.c_out)
            .unwrap_or(self.skeleton.stem_channels);
        total += self
            .device
            .op_time_us(&lower_head(&self.skeleton, last_c, final_res));
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_space::SearchSpace;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_lut() -> LatencyLut {
        let space = SearchSpace::hsconas_a();
        LatencyLut::new(DeviceSpec::cpu_xeon_6136(), space.skeleton().clone())
    }

    #[test]
    fn op_sum_is_deterministic_and_memoized() {
        let mut lut = make_lut();
        let arch = Arch::widest(20);
        let a = lut.op_sum_us(&arch).unwrap();
        let entries_after_first = lut.len();
        let b = lut.op_sum_us(&arch).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            lut.len(),
            entries_after_first,
            "second query adds no entries"
        );
        assert!(entries_after_first <= 20);
    }

    #[test]
    fn distinct_archs_share_entries() {
        let mut lut = make_lut();
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(1);
        for arch in space.sample_n(20, &mut rng) {
            lut.op_sum_us(&arch).unwrap();
        }
        // far fewer entries than 20 archs × 20 layers
        assert!(lut.len() < 400);
        assert!(!lut.is_empty());
    }

    #[test]
    fn op_sum_underestimates_network_time() {
        // Eq. 2's point: the LUT sum misses the communication overheads.
        let mut lut = make_lut();
        let arch = Arch::widest(20);
        let sum = lut.op_sum_us(&arch).unwrap();
        let space = SearchSpace::hsconas_a();
        let net = hsconas_hwsim::lower_arch(space.skeleton(), &arch).unwrap();
        let full = lut.device().network_time_us(&net);
        assert!(full > sum, "{full} <= {sum}");
    }

    #[test]
    fn snapshot_roundtrip_and_device_guard() {
        let mut lut = make_lut();
        let arch = Arch::widest(20);
        let reference = lut.op_sum_us(&arch).unwrap();
        let snapshot = lut.export();
        assert_eq!(snapshot.entries.len(), lut.len());
        // a fresh LUT answers identically after import, with no profiling
        let space = SearchSpace::hsconas_a();
        let mut fresh = LatencyLut::new(DeviceSpec::cpu_xeon_6136(), space.skeleton().clone());
        let imported = fresh.import(snapshot.clone()).unwrap();
        assert_eq!(imported, lut.len());
        assert_eq!(fresh.op_sum_us(&arch).unwrap(), reference);
        // importing onto the wrong device is refused
        let mut wrong = LatencyLut::new(DeviceSpec::gpu_gv100(), space.skeleton().clone());
        assert_eq!(
            wrong.import(snapshot),
            Err(LutImportError::DeviceMismatch {
                expected: "gpu-gv100".to_string(),
                found: "cpu-xeon-6136".to_string(),
            })
        );
    }

    #[test]
    fn profiled_snapshot_validates_for_its_space() {
        let mut lut = make_lut();
        let space = SearchSpace::hsconas_a();
        let mut rng = StdRng::seed_from_u64(7);
        for arch in space.sample_n(30, &mut rng) {
            lut.op_sum_us(&arch).unwrap();
        }
        lut.export().validate_for_space(&space).unwrap();
    }

    #[test]
    fn foreign_layout_snapshot_is_refused() {
        // Profile under layout B, then validate against layout A: the
        // stage-channel grids differ, so some key must be unreachable.
        let space_b = SearchSpace::hsconas_b();
        let mut lut = LatencyLut::new(DeviceSpec::cpu_xeon_6136(), space_b.skeleton().clone());
        let mut rng = StdRng::seed_from_u64(8);
        for arch in space_b.sample_n(30, &mut rng) {
            lut.op_sum_us(&arch).unwrap();
        }
        let snapshot = lut.export();
        snapshot.validate_for_space(&space_b).unwrap();
        let err = snapshot
            .validate_for_space(&SearchSpace::hsconas_a())
            .unwrap_err();
        assert!(matches!(err, LutImportError::ForeignKey { .. }), "{err}");
    }

    #[test]
    fn out_of_space_keys_are_refused_with_reasons() {
        let space = SearchSpace::hsconas_a();
        let base = LutSnapshot {
            device_name: "cpu-xeon-6136".into(),
            stem_us: 1.0,
            entries: Vec::new(),
        };
        let cases = [
            // layer beyond the skeleton
            (
                LutKey {
                    layer: 99,
                    op: OpKind::Shuffle3,
                    c_in: 16,
                    c_out: 48,
                },
                "layers",
            ),
            // impossible input width (no scale of any previous layer gives 17)
            (
                LutKey {
                    layer: 1,
                    op: OpKind::Shuffle3,
                    c_in: 17,
                    c_out: 48,
                },
                "input channels",
            ),
            // impossible output width for the layer's channel grid
            (
                LutKey {
                    layer: 0,
                    op: OpKind::Shuffle3,
                    c_in: 16,
                    c_out: 1000,
                },
                "output channels",
            ),
        ];
        for (key, needle) in cases {
            let snapshot = LutSnapshot {
                entries: vec![(key, 10.0)],
                ..base.clone()
            };
            let err = snapshot.validate_for_space(&space).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg} should mention {needle}");
        }
    }

    #[test]
    fn stride_one_skip_carried_widths_validate() {
        // A stride-1 skip preserves its input width; a key recording that
        // carried width must validate even though it is not a scaled width
        // of the layer itself.
        let space = SearchSpace::hsconas_a();
        let mut lut = make_lut();
        let scales = hsconas_space::ChannelScale::all();
        let mut arch = Arch::widest(20);
        // narrow layer 1, then skip at layer 2 so layer 3 sees the carried width
        arch.set_gene(1, hsconas_space::Gene::new(OpKind::Shuffle3, scales[0]))
            .unwrap();
        arch.set_gene(2, hsconas_space::Gene::new(OpKind::Skip, scales[9]))
            .unwrap();
        lut.op_sum_us(&arch).unwrap();
        lut.export().validate_for_space(&space).unwrap();
    }

    #[test]
    fn rejects_mismatched_arch() {
        let mut lut = make_lut();
        assert!(lut.op_sum_us(&Arch::widest(3)).is_err());
    }
}
