//! Standard training augmentations: random horizontal flip and random
//! crop with zero padding (the "standard data augmentations" of §IV-A,
//! scaled to the synthetic dataset).

use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;

/// Horizontally flips every image in the batch with probability 0.5
/// (independently per image).
pub fn random_flip(batch: &Tensor, rng: &mut SmallRng) -> Tensor {
    let s = batch.shape();
    let mut out = batch.clone();
    let image = s.c * s.h * s.w;
    for n in 0..s.n {
        if rng.next_f32() < 0.5 {
            let rows = &mut out.data_mut()[n * image..(n + 1) * image];
            // `max(1)`: an image with empty rows has nothing to flip.
            for row in rows.chunks_exact_mut(s.w.max(1)) {
                row.reverse();
            }
        }
    }
    out
}

/// Randomly crops each image back to its original size after padding all
/// sides with `pad` zeros (independent offsets per image).
pub fn random_crop(batch: &Tensor, pad: usize, rng: &mut SmallRng) -> Tensor {
    if pad == 0 {
        return batch.clone();
    }
    let s = batch.shape();
    let (h, w) = (s.h as isize, s.w as isize);
    let mut out = Tensor::zeros(s);
    let dst = out.data_mut();
    let src = batch.data();
    for n in 0..s.n {
        let dy = rng.next_below(2 * pad + 1) as isize - pad as isize;
        let dx = rng.next_below(2 * pad + 1) as isize - pad as isize;
        // Output columns `w0..w1` read source columns `w0 + dx..w1 + dx`,
        // the ones inside the image; the others, and every row whose
        // source row is outside it, stay zero (padding).
        let w0 = (-dx).clamp(0, w);
        let w1 = (w - dx).clamp(0, w);
        if w0 >= w1 {
            continue;
        }
        let cols = w0 as usize..w1 as usize;
        let from = (w0 + dx) as usize;
        for c in 0..s.c {
            for y in 0..h {
                let sy = y + dy;
                if sy < 0 || sy >= h {
                    continue;
                }
                let o = s.index(n, c, y as usize, 0);
                let i = s.index(n, c, sy as usize, from);
                dst[o + cols.start..o + cols.end].copy_from_slice(&src[i..i + cols.len()]);
            }
        }
    }
    out
}

/// Applies the full training augmentation pipeline (flip then crop).
pub fn augment(batch: &Tensor, pad: usize, rng: &mut SmallRng) -> Tensor {
    random_crop(&random_flip(batch, rng), pad, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_batch() -> Tensor {
        let mut t = Tensor::zeros([2, 1, 4, 4]);
        for n in 0..2 {
            for h in 0..4 {
                for w in 0..4 {
                    *t.at_mut(n, 0, h, w) = (n * 100 + h * 10 + w) as f32;
                }
            }
        }
        t
    }

    /// The per-element flip and crop that the row copies replaced, kept as
    /// the bit-exactness reference.
    mod scalar {
        use super::*;

        pub fn random_flip(batch: &Tensor, rng: &mut SmallRng) -> Tensor {
            let s = batch.shape();
            let mut out = batch.clone();
            for n in 0..s.n {
                if rng.next_f32() < 0.5 {
                    for c in 0..s.c {
                        for h in 0..s.h {
                            for w in 0..s.w {
                                *out.at_mut(n, c, h, w) = batch.at(n, c, h, s.w - 1 - w);
                            }
                        }
                    }
                }
            }
            out
        }

        pub fn random_crop(batch: &Tensor, pad: usize, rng: &mut SmallRng) -> Tensor {
            if pad == 0 {
                return batch.clone();
            }
            let s = batch.shape();
            let mut out = Tensor::zeros(s);
            for n in 0..s.n {
                let dy = rng.next_below(2 * pad + 1) as isize - pad as isize;
                let dx = rng.next_below(2 * pad + 1) as isize - pad as isize;
                for c in 0..s.c {
                    for h in 0..s.h {
                        for w in 0..s.w {
                            let sy = h as isize + dy;
                            let sx = w as isize + dx;
                            if sy >= 0 && sx >= 0 && (sy as usize) < s.h && (sx as usize) < s.w {
                                *out.at_mut(n, c, h, w) = batch.at(n, c, sy as usize, sx as usize);
                            }
                        }
                    }
                }
            }
            out
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn row_copies_are_bit_identical_to_scalar_loops() {
        let mut data_rng = SmallRng::new(6);
        for shape in [
            [1, 1, 1, 1],
            [3, 2, 1, 7],
            [4, 3, 5, 4],
            [9, 3, 8, 8],
            [2, 1, 3, 2],
        ] {
            for pad in [0, 1, 2, 4, 9] {
                let batch = Tensor::randn(shape, 1.0, &mut data_rng);
                let (mut rng, mut ref_rng) = (SmallRng::new(pad as u64), SmallRng::new(pad as u64));
                for _ in 0..4 {
                    let what = format!("{shape:?} pad {pad}");
                    let flipped = random_flip(&batch, &mut rng);
                    let ref_flipped = scalar::random_flip(&batch, &mut ref_rng);
                    assert_eq!(bits(&flipped), bits(&ref_flipped), "{what}: flip");
                    let cropped = random_crop(&batch, pad, &mut rng);
                    let ref_cropped = scalar::random_crop(&batch, pad, &mut ref_rng);
                    assert_eq!(bits(&cropped), bits(&ref_cropped), "{what}: crop");
                    // Both draw the same numbers, so the streams stay in step.
                    assert_eq!(rng.next_u64(), ref_rng.next_u64(), "{what}: rng");
                }
            }
        }
    }

    #[test]
    fn flip_preserves_content_per_row() {
        let batch = ramp_batch();
        let mut rng = SmallRng::new(1);
        let flipped = random_flip(&batch, &mut rng);
        for n in 0..2 {
            for h in 0..4 {
                let mut orig: Vec<f32> = (0..4).map(|w| batch.at(n, 0, h, w)).collect();
                let mut got: Vec<f32> = (0..4).map(|w| flipped.at(n, 0, h, w)).collect();
                orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
                got.sort_by(|a, b| a.partial_cmp(b).unwrap());
                assert_eq!(orig, got);
            }
        }
    }

    #[test]
    fn flip_eventually_flips() {
        let batch = ramp_batch();
        let mut rng = SmallRng::new(2);
        let mut seen_flip = false;
        let mut seen_same = false;
        for _ in 0..20 {
            let f = random_flip(&batch, &mut rng);
            if f.at(0, 0, 0, 0) == batch.at(0, 0, 0, 3) {
                seen_flip = true;
            }
            if f.at(0, 0, 0, 0) == batch.at(0, 0, 0, 0) {
                seen_same = true;
            }
        }
        assert!(seen_flip && seen_same);
    }

    #[test]
    fn crop_zero_pad_is_identity() {
        let batch = ramp_batch();
        let mut rng = SmallRng::new(3);
        assert_eq!(random_crop(&batch, 0, &mut rng), batch);
    }

    #[test]
    fn crop_shifts_content() {
        let batch = ramp_batch();
        let mut rng = SmallRng::new(4);
        let mut saw_shift = false;
        for _ in 0..20 {
            let c = random_crop(&batch, 1, &mut rng);
            assert_eq!(c.shape(), batch.shape());
            if c != batch {
                saw_shift = true;
            }
        }
        assert!(saw_shift);
    }

    #[test]
    fn augment_preserves_shape() {
        let batch = ramp_batch();
        let mut rng = SmallRng::new(5);
        let a = augment(&batch, 2, &mut rng);
        assert_eq!(a.shape(), batch.shape());
    }
}
