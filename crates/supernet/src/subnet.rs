//! Subnet materialization: build a *standalone* network from a discovered
//! architecture, with the scaled channel widths realized structurally
//! rather than by masking.
//!
//! The paper trains its discovered HSCoNets "from scratch for fair
//! comparisons" (§IV-A); this module provides exactly that path for the
//! real-training substrate. Each searchable layer comes from
//! [`build_operator`], the same routine that fills the supernet's slots, at
//! the layer's resolved geometry: a stride-1 unit whose neighbours picked
//! different scales (`c_in != c_out`) is an ordinary
//! [`hsconas_nn::ShuffleUnit`] that pads or truncates its pass-through
//! half. The materialized network is a plain [`Sequential`], so it trains
//! with the ordinary optimizer and has no supernet machinery attached.

use crate::mixed::build_operator;
use crate::trainer::for_each_batch;
use crate::SupernetError;
use hsconas_data::SyntheticDataset;
use hsconas_nn::{
    BatchNorm2d, Conv2d, CosineSchedule, GlobalAvgPool, Layer, Linear, Relu, Sequential, Sgd,
    SoftmaxCrossEntropy,
};
use hsconas_space::{resolve_geometry, Arch, NetworkSkeleton};
use hsconas_tensor::rng::SmallRng;

/// Materializes `arch` as a standalone trainable network with structurally
/// scaled widths (stem + blocks + head + classifier).
///
/// # Errors
///
/// Returns [`SupernetError`] if the architecture does not match the
/// skeleton or a block is unconstructible.
pub fn build_subnet(
    skeleton: &NetworkSkeleton,
    arch: &Arch,
    rng: &mut SmallRng,
) -> Result<Sequential, SupernetError> {
    let geoms = resolve_geometry(skeleton, arch)?;
    let mut net = Sequential::new()
        .push(Conv2d::new(
            skeleton.input_channels,
            skeleton.stem_channels,
            3,
            2,
            1,
            1,
            rng,
        ))
        .push(BatchNorm2d::new(skeleton.stem_channels))
        .push(Relu::new());
    for geom in &geoms {
        net.push_boxed(build_operator(
            geom.op,
            geom.c_in,
            geom.c_out,
            geom.stride,
            rng,
        )?);
    }
    let last_c = geoms
        .last()
        .map(|g| g.c_out)
        .unwrap_or(skeleton.stem_channels);
    net.push_boxed(Box::new(Conv2d::pointwise(
        last_c,
        skeleton.head_channels,
        rng,
    )));
    net.push_boxed(Box::new(BatchNorm2d::new(skeleton.head_channels)));
    net.push_boxed(Box::new(Relu::new()));
    net.push_boxed(Box::new(GlobalAvgPool::new()));
    net.push_boxed(Box::new(Linear::new(
        skeleton.head_channels,
        skeleton.num_classes,
        rng,
    )));
    Ok(net)
}

/// From-scratch training record of a materialized subnet.
#[derive(Debug, Clone, PartialEq)]
pub struct FromScratchResult {
    /// Per-step training losses.
    pub losses: Vec<f32>,
    /// Held-out top-1 accuracy in `[0, 1]` after training.
    pub accuracy: f64,
}

/// Trains a materialized subnet from scratch with the paper's optimizer
/// shape (SGD momentum + cosine LR with warm-up) and evaluates it on
/// held-out data.
///
/// # Errors
///
/// Returns [`SupernetError`] on any layer failure.
///
/// # Panics
///
/// Panics if `steps == 0`.
pub fn train_from_scratch(
    net: &mut Sequential,
    data: &SyntheticDataset,
    steps: usize,
    batch_size: usize,
    base_lr: f32,
    _rng: &mut SmallRng,
) -> Result<FromScratchResult, SupernetError> {
    assert!(steps > 0, "need at least one training step");
    let schedule = CosineSchedule::new(base_lr, (steps / 20).min(steps - 1), steps);
    let mut optimizer = Sgd::paper_defaults();
    let mut loss_fn = SoftmaxCrossEntropy::new();
    let mut losses = Vec::with_capacity(steps);
    let index = |step: usize| (step * batch_size) as u64;
    for_each_batch(data, batch_size, 0..steps, index, |step, batch, labels| {
        let logits = net.forward(batch, true)?;
        let loss = loss_fn.forward(&logits, labels)?;
        let grad = loss_fn.backward()?;
        net.backward(&grad)?;
        optimizer.step(net, schedule.lr(step));
        losses.push(loss);
        Ok(())
    })?;
    // held-out evaluation
    let mut correct = 0.0;
    let batches = 4;
    for b in 0..batches {
        let (batch, labels) = data.batch(batch_size, 1_000_000 + (b * batch_size) as u64);
        let logits = net.forward(&batch, false)?;
        correct += SoftmaxCrossEntropy::accuracy(&logits, &labels) as f64;
    }
    Ok(FromScratchResult {
        losses,
        accuracy: correct / batches as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsconas_space::{ChannelScale, Gene, OpKind, SearchSpace};
    use hsconas_tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn materialized_subnet_has_correct_output_shape() {
        let space = SearchSpace::tiny(4);
        let mut arch_rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut rng = SmallRng::new(2);
        for _ in 0..5 {
            let arch = space.sample(&mut arch_rng);
            let mut net = build_subnet(space.skeleton(), &arch, &mut rng).unwrap();
            let x = Tensor::randn([2, 3, 32, 32], 1.0, &mut rng);
            let y = net.forward(&x, false).unwrap();
            assert_eq!(y.shape().to_vec(), vec![2, 4, 1, 1], "{arch}");
        }
    }

    #[test]
    fn narrow_subnet_has_fewer_params_than_wide() {
        let space = SearchSpace::tiny(4);
        let mut rng = SmallRng::new(3);
        let wide = Arch::widest(4);
        let mut narrow = wide.clone();
        for l in 0..4 {
            narrow
                .set_gene(
                    l,
                    Gene::new(OpKind::Shuffle3, ChannelScale::from_tenths(3).unwrap()),
                )
                .unwrap();
        }
        let mut wide_net = build_subnet(space.skeleton(), &wide, &mut rng).unwrap();
        let mut narrow_net = build_subnet(space.skeleton(), &narrow, &mut rng).unwrap();
        assert!(
            narrow_net.param_count() < wide_net.param_count(),
            "narrow {} vs wide {}",
            narrow_net.param_count(),
            wide_net.param_count()
        );
    }

    #[test]
    fn from_scratch_training_learns() {
        let space = SearchSpace::tiny(4);
        let data = SyntheticDataset::new(4, 32, 6);
        let mut rng = SmallRng::new(7);
        let mut net = build_subnet(space.skeleton(), &Arch::widest(4), &mut rng).unwrap();
        let result = train_from_scratch(&mut net, &data, 60, 8, 0.08, &mut rng).unwrap();
        let early: f32 = result.losses[..5].iter().sum::<f32>() / 5.0;
        let late: f32 = result.losses[result.losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(late < early, "loss {early} -> {late}");
        assert!(result.accuracy > 0.4, "accuracy {}", result.accuracy);
    }

    #[test]
    fn subnet_with_skips_trains_without_errors() {
        let space = SearchSpace::tiny(4);
        let data = SyntheticDataset::new(4, 32, 8);
        let mut rng = SmallRng::new(9);
        let mut arch = Arch::widest(4);
        // layer 1..3 are stride-2 in the tiny skeleton; set layer 2 to skip
        arch.set_gene(2, Gene::new(OpKind::Skip, ChannelScale::FULL))
            .unwrap();
        let mut net = build_subnet(space.skeleton(), &arch, &mut rng).unwrap();
        let result = train_from_scratch(&mut net, &data, 10, 4, 0.05, &mut rng).unwrap();
        assert_eq!(result.losses.len(), 10);
    }
}
