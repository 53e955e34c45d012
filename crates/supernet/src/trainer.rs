//! Single-path one-shot supernet training (§II-A, §IV-A) and subnet
//! evaluation with inherited weights.

use crate::model::{Supernet, SupernetParams};
use crate::prefix::{PrefixCache, PrefixCacheStats, PrefixEntry};
use crate::SupernetError;
use hsconas_data::{augment::augment, SyntheticDataset};
use hsconas_nn::{BnMode, CosineSchedule, Sgd, SoftmaxCrossEntropy};
use hsconas_space::{Arch, SearchSpace};
use hsconas_tensor::rng::SmallRng;
use hsconas_tensor::Tensor;
use std::ops::Range;

/// Feeds the training batches `data.batch(batch_size, index(s))`, for `s`
/// in `steps`, to `step`, double-buffered: while step `s` runs on the
/// calling thread, a pool worker renders batch `s + 1` into a second
/// buffer the caller owns ([`hsconas_par::overlap`]). Rendering is a pure
/// function of the sample index, so `step` sees exactly the batches the
/// serial loop would make, at any thread count.
///
/// # Errors
///
/// Stops at, and returns, the first error `step` returns.
pub(crate) fn for_each_batch(
    data: &SyntheticDataset,
    batch_size: usize,
    steps: Range<usize>,
    index: impl Fn(usize) -> u64,
    mut step: impl FnMut(usize, &Tensor, &[usize]) -> Result<(), SupernetError>,
) -> Result<(), SupernetError> {
    if steps.is_empty() {
        return Ok(());
    }
    let r = data.resolution();
    let mut current = Tensor::zeros([batch_size, 3, r, r]);
    let mut next = Tensor::zeros([batch_size, 3, r, r]);
    data.render_batch(index(steps.start), current.data_mut());
    for s in steps.clone() {
        let labels = data.labels(batch_size, index(s));
        let prefetch = (s + 1 < steps.end).then(|| (index(s + 1), next.data_mut()));
        hsconas_par::overlap(
            || {
                if let Some((start, buf)) = prefetch {
                    data.render_batch(start, buf);
                }
            },
            || step(s, &current, &labels),
        )?;
        std::mem::swap(&mut current, &mut next);
    }
    Ok(())
}

/// Training-mode forwards used to recalibrate batch-norm statistics before
/// scoring a subnet.
pub const RECALIB_BATCHES: usize = 8;

/// First sample index of the held-out evaluation range (training consumes
/// indices from 0 upward).
const EVAL_BASE: u64 = 1_000_000;

/// Training configuration. The paper trains 100 epochs at batch 512 with
/// SGD(0.9)/wd 3e-5/clip 5 and cosine LR 0.5→0; [`TrainConfig::quick_test`]
/// scales everything down for the synthetic-dataset experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Optimization steps to run.
    pub steps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate (cosine-annealed to zero over `steps`).
    pub base_lr: f32,
    /// Linear warm-up steps.
    pub warmup_steps: usize,
    /// Random-crop padding for augmentation (0 disables).
    pub augment_pad: usize,
}

impl TrainConfig {
    /// A seconds-scale configuration for tests and examples.
    pub fn quick_test() -> Self {
        TrainConfig {
            steps: 30,
            batch_size: 8,
            base_lr: 0.05,
            warmup_steps: 3,
            augment_pad: 2,
        }
    }

    /// A configuration matching the paper's schedule *shape* (cosine with
    /// warm-up, momentum SGD) at synthetic-dataset scale.
    pub fn synthetic_full() -> Self {
        TrainConfig {
            steps: 400,
            batch_size: 16,
            base_lr: 0.1,
            warmup_steps: 20,
            augment_pad: 2,
        }
    }
}

/// Step-level training record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Step index.
    pub step: usize,
    /// Training loss at this step.
    pub loss: f32,
    /// Learning rate used.
    pub lr: f32,
}

/// Snapshot of everything the trainer needs to resume **bit-identically**:
/// all trainable parameters and optimizer velocities (in visit order — the
/// deterministic stem→layers→head walk), the global step cursor that keys
/// the batch stream, and the training history.
///
/// Batch-norm *running statistics* are deliberately excluded: training-mode
/// forwards normalize with batch statistics, and [`SupernetTrainer::evaluate`]
/// resets and recalibrates running statistics from scratch for every query
/// (`BnMode::Accumulate`), so they never influence a result a resumed run
/// could observe. The prefix-activation cache is likewise excluded — it is
/// a pure accelerator that starts cold after a resume.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerCheckpoint {
    /// Every trainable parameter tensor's values, in visit order.
    pub params: Vec<Vec<f32>>,
    /// Optimizer velocity buffers, in visit order.
    pub velocities: Vec<([usize; 4], Vec<f32>)>,
    /// Total optimization steps taken (the batch-stream cursor).
    pub steps_done: usize,
    /// Per-step training records so far.
    pub history: Vec<StepRecord>,
}

/// Mid-call training cursor: the RNG states and step index needed to
/// resume an interrupted [`SupernetTrainer::train_steps_resumable`] call
/// with identical random streams and an identical LR schedule.
///
/// The architecture-sampling stream (`arch_rng`) is derived **once per
/// call** from the caller's rng, and the cosine schedule spans the whole
/// call — so resuming must re-enter the *same* call at an interior step,
/// not issue a fresh call for the remaining steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainCursor {
    /// Steps completed within the interrupted call.
    pub step_in_call: u64,
    /// xoshiro256++ state of the per-call architecture-sampling stream.
    pub arch_rng: [u64; 4],
    /// SplitMix64 counter of the caller's augmentation rng.
    pub data_rng_state: u64,
    /// Cached Box–Muller spare of the caller's rng, as bits.
    pub data_rng_spare: Option<u64>,
}

/// Checkpoint hook invoked at step boundaries by
/// [`SupernetTrainer::train_steps_resumable`]: receives the trainer (to
/// snapshot) and the cursor identifying the boundary.
pub type TrainCkptHook<'a> =
    dyn FnMut(&mut SupernetTrainer, &TrainCursor) -> Result<(), SupernetError> + 'a;

/// Trains a [`Supernet`] with uniformly sampled single paths and evaluates
/// subnets with inherited weights.
#[derive(Debug)]
pub struct SupernetTrainer {
    net: Supernet,
    config: TrainConfig,
    optimizer: Sgd,
    steps_done: usize,
    history: Vec<StepRecord>,
    /// Prefix-activation cache for [`Self::evaluate`]; `None` when disabled.
    prefix_cache: Option<PrefixCache>,
}

impl SupernetTrainer {
    /// Creates a trainer with the paper's optimizer settings. The
    /// prefix-activation cache is enabled by default (it never changes
    /// results — see [`crate::prefix`]).
    pub fn new(net: Supernet, config: TrainConfig) -> Self {
        SupernetTrainer {
            net,
            config,
            optimizer: Sgd::paper_defaults(),
            steps_done: 0,
            history: Vec::new(),
            prefix_cache: Some(PrefixCache::new(crate::prefix::DEFAULT_MAX_BYTES)),
        }
    }

    /// The wrapped supernet.
    pub fn supernet(&self) -> &Supernet {
        &self.net
    }

    /// Mutable access to the wrapped supernet (weight surgery in tests).
    /// Drops all cached prefix activations, since the caller may change
    /// weights the cache depends on.
    pub fn supernet_mut(&mut self) -> &mut Supernet {
        self.clear_prefix_cache();
        &mut self.net
    }

    /// Enables or disables the prefix-activation cache. Disabling drops all
    /// cached activations; re-enabling starts from an empty cache.
    pub fn set_prefix_cache_enabled(&mut self, enabled: bool) {
        match (enabled, self.prefix_cache.is_some()) {
            (true, false) => {
                self.prefix_cache = Some(PrefixCache::new(crate::prefix::DEFAULT_MAX_BYTES));
            }
            (false, true) => self.prefix_cache = None,
            _ => {}
        }
    }

    /// Whether the prefix-activation cache is enabled.
    pub fn prefix_cache_enabled(&self) -> bool {
        self.prefix_cache.is_some()
    }

    /// Counters of the prefix-activation cache, if enabled.
    pub fn prefix_cache_stats(&self) -> Option<PrefixCacheStats> {
        self.prefix_cache.as_ref().map(|c| c.stats())
    }

    /// Drops every cached prefix activation (the cache stays enabled).
    /// Benchmark sweeps call this between independent configurations.
    pub fn clear_prefix_cache(&mut self) {
        if let Some(cache) = self.prefix_cache.as_mut() {
            cache.clear();
        }
    }

    /// Per-step training records so far.
    pub fn history(&self) -> &[StepRecord] {
        &self.history
    }

    /// Runs `config.steps` single-path training steps, sampling one
    /// architecture per batch uniformly from `space` (so a shrunk space
    /// trains only its surviving candidates — the fine-tuning stage of
    /// §III-C reuses this with a lower learning rate).
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] on any layer failure.
    pub fn train(
        &mut self,
        space: &SearchSpace,
        data: &SyntheticDataset,
        rng: &mut SmallRng,
    ) -> Result<(), SupernetError> {
        self.train_steps(space, data, self.config.steps, self.config.base_lr, rng)
    }

    /// Runs `steps` training steps at `base_lr` (cosine-annealed within
    /// this call). Exposed separately so progressive shrinking can
    /// fine-tune at the paper's reduced learning rates (0.01 / 0.0035).
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] on any layer failure.
    pub fn train_steps(
        &mut self,
        space: &SearchSpace,
        data: &SyntheticDataset,
        steps: usize,
        base_lr: f32,
        rng: &mut SmallRng,
    ) -> Result<(), SupernetError> {
        self.train_steps_resumable(
            space,
            data,
            steps,
            base_lr,
            rng,
            None,
            0,
            &mut |_, _| Ok(()),
        )
    }

    /// The resumable training core behind [`Self::train_steps`].
    ///
    /// With `resume == None` this consumes RNG streams exactly like the
    /// plain entry point. With `resume == Some(cursor)` it re-enters the
    /// interrupted call: the caller's `rng` and the per-call architecture
    /// stream are restored from the cursor and training continues at
    /// `cursor.step_in_call` under the *original* call's cosine schedule —
    /// so the completed run is bit-identical to one that was never
    /// interrupted. (The trainer's weights/optimizer/step counter must
    /// already have been restored via [`Self::restore`].)
    ///
    /// `on_ckpt` fires after every `ckpt_interval`-th step of the call
    /// (0 disables), receiving the trainer and the boundary cursor.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] on any layer failure or if `on_ckpt`
    /// reports a persistence failure.
    #[allow(clippy::too_many_arguments)]
    pub fn train_steps_resumable(
        &mut self,
        space: &SearchSpace,
        data: &SyntheticDataset,
        steps: usize,
        base_lr: f32,
        rng: &mut SmallRng,
        resume: Option<&TrainCursor>,
        ckpt_interval: usize,
        on_ckpt: &mut TrainCkptHook<'_>,
    ) -> Result<(), SupernetError> {
        if steps == 0 {
            return Ok(());
        }
        let _train_span = hsconas_telemetry::span!(
            "supernet.train",
            steps = steps,
            batch_size = self.config.batch_size,
            base_lr = base_lr as f64
        );
        let schedule = CosineSchedule::new(base_lr, self.config.warmup_steps.min(steps - 1), steps);
        let mut loss_fn = SoftmaxCrossEntropy::new();
        use rand::SeedableRng;
        let (start, mut arch_rng) = match resume {
            Some(cursor) => {
                *rng = SmallRng::from_state(cursor.data_rng_state, cursor.data_rng_spare);
                (
                    cursor.step_in_call as usize,
                    rand::rngs::StdRng::from_state(cursor.arch_rng),
                )
            }
            None => (0, rand::rngs::StdRng::seed_from_u64(rng.next_u64())),
        };
        let batch_size = self.config.batch_size;
        // Step `step` of the call trains on the batch at cursor `steps_done`.
        let entry = self.steps_done;
        let index = move |step: usize| ((entry + step - start) * batch_size) as u64;
        for_each_batch(
            data,
            batch_size,
            start..steps,
            index,
            |step, batch, labels| {
                let _step_span = hsconas_telemetry::span!("supernet.step", step = self.steps_done);
                let augmented;
                let batch = if self.config.augment_pad > 0 {
                    augmented = augment(batch, self.config.augment_pad, rng);
                    &augmented
                } else {
                    batch
                };
                let arch = space.sample(&mut arch_rng);
                let logits = self.net.forward(batch, &arch, true)?;
                let loss = loss_fn.forward(&logits, labels)?;
                let grad = loss_fn.backward()?;
                self.net.backward(&grad)?;
                let lr = schedule.lr(step);
                self.optimizer.step(&mut SupernetParams(&mut self.net), lr);
                hsconas_telemetry::gauge_set("supernet.loss", loss as f64);
                self.history.push(StepRecord {
                    step: self.steps_done,
                    loss,
                    lr,
                });
                self.steps_done += 1;
                if ckpt_interval > 0 && (step + 1) % ckpt_interval == 0 && step + 1 < steps {
                    let (data_rng_state, data_rng_spare) = rng.state();
                    let cursor = TrainCursor {
                        step_in_call: (step + 1) as u64,
                        arch_rng: arch_rng.state(),
                        data_rng_state,
                        data_rng_spare,
                    };
                    on_ckpt(self, &cursor)?;
                }
                Ok(())
            },
        )?;
        // Weights changed: every cached prefix activation is stale.
        self.clear_prefix_cache();
        Ok(())
    }

    /// Snapshots the trainer for checkpointing — see [`TrainerCheckpoint`]
    /// for exactly what is (and is deliberately not) captured.
    pub fn checkpoint(&mut self) -> TrainerCheckpoint {
        let mut params = Vec::new();
        self.net
            .visit_params(&mut |p, _, _| params.push(p.data().to_vec()));
        TrainerCheckpoint {
            params,
            velocities: self.optimizer.export_velocities(),
            steps_done: self.steps_done,
            history: self.history.clone(),
        }
    }

    /// Restores a [`Self::checkpoint`] snapshot onto this trainer. The
    /// network must have the same topology the snapshot was taken from
    /// (same visit order and tensor shapes). Gradients are zeroed and the
    /// prefix-activation cache is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError::Structure`] if the snapshot's parameter
    /// count or any tensor length disagrees with the network.
    pub fn restore(&mut self, ckpt: &TrainerCheckpoint) -> Result<(), SupernetError> {
        let mut idx = 0usize;
        let mut mismatch: Option<String> = None;
        self.net.visit_params(&mut |p, g, _| {
            match ckpt.params.get(idx) {
                Some(src) if src.len() == p.data().len() => {
                    p.data_mut().copy_from_slice(src);
                    g.map_inplace(|_| 0.0);
                }
                Some(src) => {
                    mismatch.get_or_insert_with(|| {
                        format!(
                            "param {idx}: checkpoint has {} values, network expects {}",
                            src.len(),
                            p.data().len()
                        )
                    });
                }
                None => {
                    mismatch
                        .get_or_insert_with(|| "checkpoint has fewer params than network".into());
                }
            }
            idx += 1;
        });
        if idx != ckpt.params.len() {
            mismatch.get_or_insert_with(|| {
                format!(
                    "checkpoint has {} params, network visits {idx}",
                    ckpt.params.len()
                )
            });
        }
        if let Some(detail) = mismatch {
            return Err(SupernetError::Structure { detail });
        }
        self.optimizer.import_velocities(ckpt.velocities.clone());
        self.steps_done = ckpt.steps_done;
        self.history = ckpt.history.clone();
        self.clear_prefix_cache();
        Ok(())
    }

    /// Signature binding a dataset identity to the deterministic batch
    /// protocol of [`Self::evaluate`] — cached activations are only reused
    /// when the exact same batch stream would be replayed.
    fn batch_stream_sig(config: &TrainConfig, data: &SyntheticDataset, batches: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [
            data.seed(),
            data.num_classes() as u64,
            data.resolution() as u64,
            config.batch_size as u64,
            batches as u64,
            RECALIB_BATCHES as u64,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Evaluates `arch` with inherited weights on `batches` deterministic
    /// evaluation batches (drawn from a held-out index range), returning
    /// top-1 accuracy in `[0, 1]`.
    ///
    /// Before scoring, batch-norm running statistics are **recalibrated**
    /// for the specific path: a handful of training-mode forward passes
    /// (no backward) refresh the running means/variances, which otherwise
    /// mix statistics from every sampled width — masked channels feed
    /// zeros into shared batch norms, so without recalibration the widest
    /// paths evaluate at chance. This is the standard single-path
    /// one-shot evaluation protocol.
    ///
    /// When the prefix cache is enabled, evaluation resumes from the
    /// deepest cached layer boundary whose prefix genes match `arch` and
    /// only recomputes the suffix (recalibrating only the suffix's batch
    /// norms via [`Supernet::set_bn_mode_from`]). The cached activations
    /// are bit-identical to what a full run would compute, so the returned
    /// accuracy is byte-identical with the cache on or off.
    ///
    /// # Errors
    ///
    /// Returns [`SupernetError`] if the architecture does not fit.
    pub fn evaluate(
        &mut self,
        arch: &Arch,
        data: &SyntheticDataset,
        batches: usize,
    ) -> Result<f64, SupernetError> {
        self.net.check_arch(arch)?;
        let _eval_span = hsconas_telemetry::span!("supernet.evaluate", batches = batches);
        let num_layers = self.net.num_layers();
        let sig = Self::batch_stream_sig(&self.config, data, batches);

        // Cache lookup. The resume boundary's activations are cloned out so
        // the cache borrow ends before the network runs; `start` is the
        // first layer that actually executes.
        let mut resume: Option<(Vec<Tensor>, Vec<Tensor>)> = None;
        let mut cached_labels: Option<Vec<Vec<usize>>> = None;
        let mut start = 0usize;
        if let Some(cache) = self.prefix_cache.as_mut() {
            if let Some((depth, entry)) = cache.deepest(arch, sig) {
                start = depth;
                resume = Some((entry.recalib.clone(), entry.eval.clone()));
            }
            cached_labels = cache.labels(sig).cloned();
        }
        // Boundaries ..start are already cached (or unknown — never
        // recomputed either way); record the freshly computed ones.
        let record = self.prefix_cache.is_some();
        let first_new = if resume.is_some() { start + 1 } else { 0 };
        let mut pending: Vec<PrefixEntry> = if record {
            vec![PrefixEntry::default(); num_layers + 1]
        } else {
            Vec::new()
        };

        // BN recalibration: reset running statistics and accumulate the
        // evaluated path's statistics from scratch over a few
        // training-range batches, so the result is independent of
        // whatever paths were sampled during training. On a cache hit only
        // the suffix is reset — the skipped prefix never runs, so its
        // statistics are never read.
        match &resume {
            Some(_) => self.net.set_bn_mode_from(start, BnMode::Accumulate),
            None => self.net.set_bn_mode(BnMode::Accumulate),
        }
        for b in 0..RECALIB_BATCHES {
            let mut x = match &resume {
                Some((recalib, _)) => recalib[b].clone(),
                None => {
                    let (batch, _) =
                        data.batch(self.config.batch_size, (b * self.config.batch_size) as u64);
                    self.net.forward_stem(&batch, true)?
                }
            };
            if record && first_new == 0 {
                pending[0].recalib.push(x.clone());
            }
            for d in start..num_layers {
                x = self.net.forward_layer(d, &x, arch.genes()[d], true)?;
                if record && d + 1 >= first_new {
                    pending[d + 1].recalib.push(x.clone());
                }
            }
            self.net.forward_head(&x, true)?;
        }
        self.net.set_bn_mode(BnMode::Normal);

        let mut correct = 0usize;
        let mut total = 0usize;
        let mut fresh_labels: Vec<Vec<usize>> = Vec::new();
        for b in 0..batches {
            let index = EVAL_BASE + (b * self.config.batch_size) as u64;
            let (mut x, labels) = match (&resume, &cached_labels) {
                (Some((_, eval)), Some(ls)) => (eval[b].clone(), ls[b].clone()),
                (Some((_, eval)), None) => {
                    (eval[b].clone(), data.labels(self.config.batch_size, index))
                }
                (None, _) => {
                    let (batch, labels) = data.batch(self.config.batch_size, index);
                    (self.net.forward_stem(&batch, false)?, labels)
                }
            };
            if record && first_new == 0 {
                pending[0].eval.push(x.clone());
            }
            for d in start..num_layers {
                x = self.net.forward_layer(d, &x, arch.genes()[d], false)?;
                if record && d + 1 >= first_new {
                    pending[d + 1].eval.push(x.clone());
                }
            }
            let logits = self.net.forward_head(&x, false)?;
            let acc = SoftmaxCrossEntropy::accuracy(&logits, &labels);
            correct += (acc * labels.len() as f32).round() as usize;
            total += labels.len();
            if record && cached_labels.is_none() {
                fresh_labels.push(labels);
            }
        }

        if let Some(cache) = self.prefix_cache.as_mut() {
            if cached_labels.is_none() {
                cache.store_labels(sig, fresh_labels);
            }
            for (depth, entry) in pending.into_iter().enumerate().skip(first_new) {
                cache.insert(sig, arch, depth, entry);
            }
        }
        Ok(correct as f64 / total.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(seed: u64) -> (SearchSpace, SyntheticDataset, SupernetTrainer) {
        let space = SearchSpace::tiny(4);
        let data = SyntheticDataset::new(4, 32, seed);
        let mut rng = SmallRng::new(seed);
        let net = Supernet::build(space.skeleton(), &mut rng).unwrap();
        let trainer = SupernetTrainer::new(net, TrainConfig::quick_test());
        (space, data, trainer)
    }

    #[test]
    fn training_reduces_loss() {
        // Pin the space to one path so the loss curve is not confounded by
        // single-path switching noise (convergence across switching paths
        // is covered by the slower integration tests).
        let (space, data, mut trainer) = setup(1);
        let pinned = space.pin_to(&Arch::widest(4)).unwrap();
        let mut rng = SmallRng::new(2);
        trainer
            .train_steps(&pinned, &data, 40, 0.05, &mut rng)
            .unwrap();
        let h = trainer.history();
        let early: f32 = h[..5].iter().map(|r| r.loss).sum::<f32>() / 5.0;
        let late: f32 = h[h.len() - 5..].iter().map(|r| r.loss).sum::<f32>() / 5.0;
        assert!(
            late < early,
            "loss should fall: early {early:.3} late {late:.3}"
        );
    }

    #[test]
    fn trained_supernet_beats_chance() {
        let (space, data, mut trainer) = setup(3);
        let mut rng = SmallRng::new(4);
        // Train the widest path only, for signal concentration.
        let pinned = space.pin_to(&Arch::widest(4)).unwrap();
        trainer
            .train_steps(&pinned, &data, 60, 0.05, &mut rng)
            .unwrap();
        let acc = trainer.evaluate(&Arch::widest(4), &data, 6).unwrap();
        assert!(acc > 0.4, "accuracy {acc} not above chance (0.25)");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (_, data, mut trainer) = setup(5);
        let arch = Arch::widest(4);
        let a = trainer.evaluate(&arch, &data, 2).unwrap();
        let b = trainer.evaluate(&arch, &data, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn prefix_cache_matches_uncached_evaluation_bit_for_bit() {
        let (space, data, mut trainer) = setup(11);
        let mut rng = SmallRng::new(12);
        trainer
            .train_steps(&space, &data, 10, 0.05, &mut rng)
            .unwrap();
        // A family of sibling architectures sharing long prefixes.
        let mut archs = vec![Arch::widest(4)];
        for l in 0..4 {
            let mut a = Arch::widest(4);
            a.set_gene(
                l,
                hsconas_space::Gene::new(
                    hsconas_space::OpKind::Shuffle3,
                    hsconas_space::ChannelScale::from_tenths(5).unwrap(),
                ),
            )
            .unwrap();
            archs.push(a);
        }
        let cached: Vec<f64> = archs
            .iter()
            .map(|a| trainer.evaluate(a, &data, 2).unwrap())
            .collect();
        let stats = trainer.prefix_cache_stats().unwrap();
        assert!(stats.hits >= 3, "sibling evals should hit: {stats:?}");
        trainer.set_prefix_cache_enabled(false);
        let plain: Vec<f64> = archs
            .iter()
            .map(|a| trainer.evaluate(a, &data, 2).unwrap())
            .collect();
        assert_eq!(cached, plain, "cache on/off must be byte-identical");
    }

    #[test]
    fn training_invalidates_prefix_cache() {
        let (space, data, mut trainer) = setup(13);
        let arch = Arch::widest(4);
        trainer.evaluate(&arch, &data, 2).unwrap();
        assert!(trainer.prefix_cache_stats().unwrap().entries > 0);
        let mut rng = SmallRng::new(14);
        trainer
            .train_steps(&space, &data, 2, 0.05, &mut rng)
            .unwrap();
        assert_eq!(trainer.prefix_cache_stats().unwrap().entries, 0);
        // supernet_mut (weight surgery) also invalidates.
        trainer.evaluate(&arch, &data, 2).unwrap();
        let _ = trainer.supernet_mut();
        assert_eq!(trainer.prefix_cache_stats().unwrap().entries, 0);
    }

    #[test]
    fn cached_reevaluation_skips_all_layers() {
        let (_, data, mut trainer) = setup(15);
        let arch = Arch::widest(4);
        let a = trainer.evaluate(&arch, &data, 2).unwrap();
        let b = trainer.evaluate(&arch, &data, 2).unwrap();
        assert_eq!(a, b);
        let stats = trainer.prefix_cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(
            stats.layers_skipped, 4,
            "identical arch should resume past every mixed layer"
        );
    }

    #[test]
    fn mid_call_checkpoint_resume_is_bit_identical() {
        let (space, data, mut trainer) = setup(21);
        let mut rng = SmallRng::new(22);
        trainer
            .train_steps(&space, &data, 24, 0.05, &mut rng)
            .unwrap();
        let reference = trainer.checkpoint();
        let ref_rng = rng.state();

        // Same run, snapshotting at step 8.
        let (_, _, mut t2) = setup(21);
        let mut rng2 = SmallRng::new(22);
        let mut snap: Option<(TrainerCheckpoint, TrainCursor)> = None;
        t2.train_steps_resumable(&space, &data, 24, 0.05, &mut rng2, None, 8, &mut |t, c| {
            if snap.is_none() {
                snap = Some((t.checkpoint(), *c));
            }
            Ok(())
        })
        .unwrap();
        let (ckpt, cursor) = snap.expect("hook fired at step 8");
        assert_eq!(cursor.step_in_call, 8);

        // "Crash": a fresh process restores the snapshot and re-enters the
        // call at the cursor. The resumed caller rng is restored from the
        // cursor, so its pre-resume seed is irrelevant.
        let (_, _, mut t3) = setup(21);
        t3.restore(&ckpt).unwrap();
        let mut rng3 = SmallRng::new(0xffff);
        t3.train_steps_resumable(
            &space,
            &data,
            24,
            0.05,
            &mut rng3,
            Some(&cursor),
            0,
            &mut |_, _| Ok(()),
        )
        .unwrap();
        assert_eq!(t3.checkpoint(), reference, "resume must be bit-identical");
        assert_eq!(rng3.state(), ref_rng, "caller rng stream must realign");
    }

    #[test]
    fn restore_rejects_mismatched_topology() {
        let (_, _, mut trainer) = setup(23);
        let mut ckpt = trainer.checkpoint();
        ckpt.params.pop();
        assert!(matches!(
            trainer.restore(&ckpt),
            Err(SupernetError::Structure { .. })
        ));
        let mut ckpt = trainer.checkpoint();
        ckpt.params[0].pop();
        assert!(matches!(
            trainer.restore(&ckpt),
            Err(SupernetError::Structure { .. })
        ));
    }

    #[test]
    fn zero_steps_is_noop() {
        let (space, data, mut trainer) = setup(6);
        let mut rng = SmallRng::new(7);
        trainer
            .train_steps(&space, &data, 0, 0.1, &mut rng)
            .unwrap();
        assert!(trainer.history().is_empty());
    }

    #[test]
    fn lr_schedule_recorded() {
        let (space, data, mut trainer) = setup(8);
        let mut rng = SmallRng::new(9);
        trainer
            .train_steps(&space, &data, 10, 0.1, &mut rng)
            .unwrap();
        let h = trainer.history();
        // warm-up rises then cosine falls
        assert!(h[0].lr < h[2].lr);
        assert!(h.last().unwrap().lr < h[3].lr);
    }
}
