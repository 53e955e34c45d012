//! # hsconas-data
//!
//! A procedurally generated image-classification dataset standing in for
//! ImageNet in the real-training experiments.
//!
//! ## Substitution rationale (documented in DESIGN.md)
//!
//! The supernet-training pipeline (weight sharing, channel masking,
//! progressive shrinking, evolutionary subnet evaluation) only needs a
//! dataset that (a) is learnable by the ShuffleNetV2-style networks in the
//! search space, (b) exhibits a capacity–accuracy gradient (bigger subnets
//! score higher), and (c) streams deterministically from a seed. This
//! module generates oriented-grating images: each class has a distinct
//! orientation, spatial frequency, and RGB tint, with per-sample random
//! phase, offset, and pixel noise. The task is linearly non-trivial but
//! comfortably learnable by small CNNs in seconds.
//!
//! ## Example
//!
//! ```
//! use hsconas_data::SyntheticDataset;
//!
//! let data = SyntheticDataset::new(8, 16, 42);
//! let (images, labels) = data.batch(4, 0);
//! assert_eq!(images.shape().to_vec(), vec![4, 3, 16, 16]);
//! assert_eq!(labels.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augment;

use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;

/// A deterministic synthetic dataset of oriented-grating images.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    num_classes: usize,
    resolution: usize,
    seed: u64,
}

impl SyntheticDataset {
    /// Creates a dataset with `num_classes` classes at square `resolution`,
    /// generated deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0` or `resolution == 0`.
    pub fn new(num_classes: usize, resolution: usize, seed: u64) -> Self {
        assert!(num_classes > 0, "need at least one class");
        assert!(resolution > 0, "resolution must be positive");
        SyntheticDataset {
            num_classes,
            resolution,
            seed,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Image resolution (square).
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// The generation seed. Together with [`Self::num_classes`] and
    /// [`Self::resolution`] this fully identifies the stream, which lets
    /// consumers fingerprint a dataset (e.g. the supernet prefix cache
    /// keys cached activations by the batch stream they came from).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates one sample deterministically from `(self.seed, index)`.
    /// Even indices round-robin class labels so every batch is balanced.
    pub fn sample(&self, index: u64) -> (Tensor, usize) {
        let label = self.label(index);
        let mut rng = SmallRng::new(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index),
        );
        let image = self.render(label, &mut rng);
        (image, label)
    }

    /// Generates a batch of `n` consecutive samples starting at
    /// `start_index` as one NCHW tensor plus labels.
    pub fn batch(&self, n: usize, start_index: u64) -> (Tensor, Vec<usize>) {
        let r = self.resolution;
        let mut images = Tensor::zeros([n, 3, r, r]);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let (img, label) = self.sample(start_index + i as u64);
            let dst_off = i * 3 * r * r;
            images.data_mut()[dst_off..dst_off + 3 * r * r].copy_from_slice(img.data());
            labels.push(label);
        }
        (images, labels)
    }

    /// The labels of [`Self::batch`]`(n, start_index)`, without rendering
    /// its images.
    pub fn labels(&self, n: usize, start_index: u64) -> Vec<usize> {
        (0..n).map(|i| self.label(start_index + i as u64)).collect()
    }

    /// The label of sample `index`.
    fn label(&self, index: u64) -> usize {
        (index as usize) % self.num_classes
    }

    /// Renders one image of `label`'s grating pattern with per-sample
    /// random phase, offset, and noise.
    fn render(&self, label: usize, rng: &mut SmallRng) -> Tensor {
        let r = self.resolution;
        let k = self.num_classes as f32;
        let angle = label as f32 * std::f32::consts::PI / k;
        let freq = 2.0 + (label % 3) as f32 * 1.5;
        let (dx, dy) = (angle.cos(), angle.sin());
        let phase = rng.next_f32() * std::f32::consts::TAU;
        // class tint: distinct RGB weights per class
        let tint = [
            0.5 + 0.5 * (label as f32 * 2.399).sin(),
            0.5 + 0.5 * (label as f32 * 2.399 + 2.0).sin(),
            0.5 + 0.5 * (label as f32 * 2.399 + 4.0).sin(),
        ];
        let mut img = Tensor::zeros([1, 3, r, r]);
        let scale = std::f32::consts::TAU * freq / r as f32;
        for (c, &t) in tint.iter().enumerate() {
            for y in 0..r {
                for x in 0..r {
                    let wave = ((x as f32 * dx + y as f32 * dy) * scale + phase).sin();
                    let noise = rng.next_normal() as f32 * 0.25;
                    *img.at_mut(0, c, y, x) = wave * t + noise;
                }
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_by_seed_and_index() {
        let d = SyntheticDataset::new(10, 16, 7);
        let (a, la) = d.sample(3);
        let (b, lb) = d.sample(3);
        assert_eq!(a, b);
        assert_eq!(la, lb);
        let (c, _) = d.sample(4);
        assert_ne!(a, c);
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = SyntheticDataset::new(10, 16, 1).sample(0);
        let (b, _) = SyntheticDataset::new(10, 16, 2).sample(0);
        assert_ne!(a, b);
    }

    #[test]
    fn labels_round_robin() {
        let d = SyntheticDataset::new(4, 8, 0);
        let (_, labels) = d.batch(8, 0);
        assert_eq!(labels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn labels_match_batch_labels() {
        let d = SyntheticDataset::new(7, 4, 3);
        for (n, start) in [(0, 0), (1, 6), (8, 0), (16, 13), (9, u32::MAX as u64)] {
            assert_eq!(
                d.labels(n, start),
                d.batch(n, start).1,
                "n {n} start {start}"
            );
        }
    }

    #[test]
    fn batch_layout_matches_samples() {
        let d = SyntheticDataset::new(3, 8, 5);
        let (batch, _) = d.batch(3, 10);
        let (single, _) = d.sample(11);
        let r = 8 * 8 * 3;
        assert_eq!(&batch.data()[r..2 * r], single.data());
    }

    #[test]
    fn pixel_values_bounded() {
        let d = SyntheticDataset::new(10, 16, 3);
        let (img, _) = d.sample(0);
        for &v in img.data() {
            assert!(v.abs() < 3.0, "pixel {v} out of expected range");
        }
    }

    #[test]
    fn classes_are_statistically_distinct() {
        // The label signal lives in phase-invariant statistics (channel
        // tint / energy), so compare per-channel standard deviations:
        // same-class profiles must be closer than cross-class profiles.
        let d = SyntheticDataset::new(4, 16, 9);
        let profile = |img: &Tensor| -> [f32; 3] {
            let s = img.shape();
            let mut out = [0.0f32; 3];
            for (c, o) in out.iter_mut().enumerate() {
                let mut sum_sq = 0.0;
                for h in 0..s.h {
                    for w in 0..s.w {
                        sum_sq += img.at(0, c, h, w).powi(2);
                    }
                }
                *o = (sum_sq / (s.h * s.w) as f32).sqrt();
            }
            out
        };
        let dist = |a: [f32; 3], b: [f32; 3]| -> f32 {
            a.iter().zip(&b).map(|(x, y)| (x - y).powi(2)).sum::<f32>()
        };
        // samples 0, 4, 8 are class 0; 1, 5 are class 1
        let p0a = profile(&d.sample(0).0);
        let p0b = profile(&d.sample(4).0);
        let p1 = profile(&d.sample(1).0);
        let intra = dist(p0a, p0b);
        let inter = dist(p0a, p1);
        assert!(
            inter > intra * 2.0,
            "inter {inter} should clearly exceed intra {intra}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn zero_classes_panics() {
        SyntheticDataset::new(0, 8, 0);
    }
}
