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
        let r = self.resolution;
        let mut image = Tensor::zeros([1, 3, r, r]);
        let label = self.render_into(index, image.data_mut());
        (image, label)
    }

    /// Generates a batch of `n` consecutive samples starting at
    /// `start_index` as one NCHW tensor plus labels.
    pub fn batch(&self, n: usize, start_index: u64) -> (Tensor, Vec<usize>) {
        let r = self.resolution;
        let mut images = Tensor::zeros([n, 3, r, r]);
        self.render_batch(start_index, images.data_mut());
        (images, self.labels(n, start_index))
    }

    /// Renders the images of [`Self::batch`]`(n, start_index)` into `out`,
    /// whose length `n * 3 * r * r` gives the batch size. Allocates
    /// nothing, so it can fill a caller-owned buffer from another thread.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a multiple of one image's length.
    pub fn render_batch(&self, start_index: u64, out: &mut [f32]) {
        let image_len = 3 * self.resolution * self.resolution;
        assert_eq!(
            out.len() % image_len,
            0,
            "buffer of {} floats is not a whole number of {image_len}-float images",
            out.len()
        );
        for (i, image) in out.chunks_exact_mut(image_len).enumerate() {
            self.render_into(start_index + i as u64, image);
        }
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

    /// The per-sample generator of sample `index`.
    fn sample_rng(&self, index: u64) -> SmallRng {
        SmallRng::new(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(index),
        )
    }

    /// Renders sample `index` into `out`, one CHW image, and returns its
    /// label.
    fn render_into(&self, index: u64, out: &mut [f32]) -> usize {
        let label = self.label(index);
        self.render(label, &mut self.sample_rng(index), out);
        label
    }

    /// Renders one image of `label`'s grating pattern with per-sample
    /// random phase, offset, and noise into `out` (CHW).
    ///
    /// The wave depends on `(y, x)` only, so it is computed once into the
    /// last channel plane; channels 0 and 1 read it from there, and
    /// channel 2 then overwrites it in place. Noise is drawn channel by
    /// channel in row-major order.
    fn render(&self, label: usize, rng: &mut SmallRng, out: &mut [f32]) {
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
        let scale = std::f32::consts::TAU * freq / r as f32;
        let (front, wave) = out.split_at_mut(2 * r * r);
        for (y, row) in wave.chunks_exact_mut(r).enumerate() {
            for (x, w) in row.iter_mut().enumerate() {
                *w = ((x as f32 * dx + y as f32 * dy) * scale + phase).sin();
            }
        }
        for (plane, &t) in front.chunks_exact_mut(r * r).zip(&tint) {
            for (v, &w) in plane.iter_mut().zip(wave.iter()) {
                *v = w * t + rng.next_normal() as f32 * 0.25;
            }
        }
        for w in wave.iter_mut() {
            *w = *w * tint[2] + rng.next_normal() as f32 * 0.25;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-pixel render this crate shipped before the plane-slice
    /// one, kept as the bit-identity reference: one `sin` per channel and
    /// every element written through `at_mut`.
    fn scalar_render(d: &SyntheticDataset, label: usize, rng: &mut SmallRng) -> Tensor {
        let r = d.resolution;
        let k = d.num_classes as f32;
        let angle = label as f32 * std::f32::consts::PI / k;
        let freq = 2.0 + (label % 3) as f32 * 1.5;
        let (dx, dy) = (angle.cos(), angle.sin());
        let phase = rng.next_f32() * std::f32::consts::TAU;
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

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn render_is_bit_identical_to_scalar_loops() {
        for classes in [1, 3, 4, 7, 10] {
            for resolution in [1, 5, 8, 32] {
                for seed in [0, 1, 42, u64::MAX] {
                    let d = SyntheticDataset::new(classes, resolution, seed);
                    let image_len = 3 * resolution * resolution;
                    let (batch, labels) = d.batch(5, 17);
                    for index in 17..22u64 {
                        let label = d.label(index);
                        let mut old_rng = d.sample_rng(index);
                        let want = scalar_render(&d, label, &mut old_rng);
                        // The RNG stream stays in step: both renders leave
                        // the generator in the same state.
                        let mut new_rng = d.sample_rng(index);
                        let mut got = vec![0.0; image_len];
                        d.render(label, &mut new_rng, &mut got);
                        assert_eq!(
                            new_rng.state(),
                            old_rng.state(),
                            "rng {classes}/{resolution}/{seed}/{index}"
                        );
                        assert_eq!(bits(&got), bits(want.data()));
                        let (sample, sample_label) = d.sample(index);
                        assert_eq!(sample_label, label);
                        assert_eq!(bits(sample.data()), bits(want.data()));
                        let i = (index - 17) as usize;
                        assert_eq!(labels[i], label);
                        assert_eq!(
                            bits(&batch.data()[i * image_len..(i + 1) * image_len]),
                            bits(want.data()),
                            "batch image {i} at {classes}/{resolution}/{seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn render_batch_fills_a_caller_buffer_like_batch() {
        let d = SyntheticDataset::new(4, 8, 11);
        let (batch, _) = d.batch(3, 40);
        let mut out = vec![f32::NAN; batch.len()];
        d.render_batch(40, &mut out);
        assert_eq!(bits(&out), bits(batch.data()));
        d.render_batch(40, &mut []);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn render_batch_rejects_a_partial_image() {
        SyntheticDataset::new(4, 8, 11).render_batch(0, &mut [0.0; 3 * 64 + 1]);
    }

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
