//! Crash-safe checkpoint/resume plumbing for the long-running pipelines.
//!
//! This module bridges the generic [`hsconas_ckpt`] persistence layer
//! (atomic files, self-describing headers, checksums) and the concrete
//! pipeline state of this crate:
//!
//! * [`CheckpointOptions`] — where to write, whether to resume, retention.
//! * [`Checkpointer`] — the boundary protocol shared by every resumable
//!   pipeline (the surrogate search, the real-training pipeline, Fig. 5):
//!   one method per phase boundary that either restores the phase from the
//!   resume payload or runs it and writes a checkpoint. With no options it
//!   reads and writes nothing, so the plain entry points run the same body.
//! * `PipelineCkpt` — the self-contained payload written at every
//!   pipeline boundary (each file alone is enough to resume; no chain of
//!   deltas), covering supernet weights + optimizer state, the mid-call
//!   training cursor, the calibrated latency-predictor snapshot, completed
//!   shrinking-stage records, the EA state, and the driving RNG streams.
//! * Config hashing — a checkpoint records a hash of the search
//!   space/configuration/seed it was produced under, and resume refuses a
//!   mismatch instead of silently continuing a different experiment.
//! * [`run_search_checkpointed`] — a per-generation checkpointing driver
//!   for a standalone evolutionary search over a memoized objective
//!   (including the memo-cache contents, so a resumed search does not
//!   re-evaluate architectures it already scored).
//!
//! ## What is deliberately *not* checkpointed
//!
//! * **BatchNorm running statistics** — `SupernetTrainer::evaluate`
//!   recalibrates them from scratch for every queried architecture, and
//!   training-mode forwards use batch statistics, so they carry no state
//!   across the boundaries where checkpoints are written.
//! * **The prefix-activation cache** — a pure accelerator; a resumed run
//!   starts it cold and produces bit-identical results.
//! * **The `TradeoffObjective` per-instance cache** — rebuilt on demand;
//!   surrogate evaluations are cheap and deterministic.

use std::path::{Path, PathBuf};

use crate::error::objective_error;
use crate::{PipelineConfig, PipelineError, RealPipelineConfig};
use hsconas_ckpt::{fnv1a, CheckpointStore, CkptError, Decoder, Encoder, Phase};
use hsconas_data::SyntheticDataset;
use hsconas_evo::{
    Evaluation, EvolutionSearch, GenerationStats, Individual, MemoObjective, Objective, ParetoEval,
    ParetoFrontier, ParetoIndividual, ParetoObjective, ParetoSearch, ParetoState, SearchResult,
    SearchState,
};
use hsconas_hwsim::DeviceSpec;
use hsconas_latency::{LatencyPredictor, PredictorSnapshot};
use hsconas_shrink::{ProgressiveShrinking, ShrinkConfig, ShrinkResult, StageRecord};
use hsconas_space::{Arch, SearchSpace};
use hsconas_supernet::{
    StepRecord, SupernetError, SupernetTrainer, TrainCursor, TrainerCheckpoint,
};
use hsconas_tensor::rng::SmallRng;
use rand::rngs::StdRng;

// File cursors: one range per boundary kind, so zero-padded file names
// sort in pipeline order.
/// Mid-call warm-training checkpoints (`+ step_in_call`).
const CUR_WARM_BASE: u64 = 1_000_000;
/// The post-calibration checkpoint.
const CUR_CALIBRATED: u64 = 2_000_000;
/// Completed shrinking stages (`+ stage_index + 1`).
const CUR_SHRINK_BASE: u64 = 3_000_000;
/// Completed EA generations (`+ completed_generations`).
const CUR_EA_BASE: u64 = 4_000_000;

/// Payload tag: interrupted mid-call warm training.
const TAG_WARM: u8 = 1;
/// Payload tag: latency predictor calibrated.
const TAG_CALIBRATED: u8 = 2;
/// Payload tag: a shrinking stage (and its fine-tune) completed.
const TAG_SHRINK_STAGE: u8 = 3;
/// Payload tag: an EA generation completed.
const TAG_EA_GEN: u8 = 4;

/// Where and how to checkpoint a pipeline run.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Directory holding the checkpoint files.
    pub dir: PathBuf,
    /// Resume from the latest checkpoint in `dir` (errors if the latest
    /// file is invalid or was written under a different configuration;
    /// an empty directory starts fresh).
    pub resume: bool,
    /// Keep only the newest `keep_last` checkpoints (0 = keep all).
    pub keep_last: usize,
    /// Steps between mid-call checkpoints during supernet training
    /// (0 disables mid-call checkpoints; phase boundaries still write).
    pub train_interval: usize,
}

impl CheckpointOptions {
    /// Options with the defaults: no resume, keep the last 3 files,
    /// checkpoint training every 64 steps.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            dir: dir.into(),
            resume: false,
            keep_last: 3,
            train_interval: 64,
        }
    }

    /// Sets the resume flag.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Sets the retention count (0 = keep all).
    #[must_use]
    pub fn keep_last(mut self, keep_last: usize) -> Self {
        self.keep_last = keep_last;
        self
    }

    /// Sets the mid-call training checkpoint interval (0 = boundaries only).
    #[must_use]
    pub fn train_interval(mut self, steps: usize) -> Self {
        self.train_interval = steps;
        self
    }
}

fn ckpt_err(detail: impl Into<String>) -> PipelineError {
    PipelineError::Ckpt {
        detail: detail.into(),
    }
}

/// Opens the store for a run (none without options) and, when resuming,
/// reads the payload of its latest checkpoint.
fn open_store(
    opts: Option<&CheckpointOptions>,
    phase: Phase,
    config_hash: impl FnOnce() -> Result<u64, PipelineError>,
) -> Result<(Option<CheckpointStore>, Option<Vec<u8>>), PipelineError> {
    let Some(opts) = opts else {
        return Ok((None, None));
    };
    let store = CheckpointStore::open(&opts.dir, phase, config_hash()?, opts.keep_last)?;
    let latest = match opts.resume {
        true => store.load_latest()?.map(|(_, payload)| payload),
        false => None,
    };
    Ok((Some(store), latest))
}

/// The checkpoint boundary protocol of one resumable pipeline run.
///
/// Opened from `Option<&CheckpointOptions>`. Without options it reads and
/// writes nothing — no payload is encoded, no predictor exported, no
/// trainer snapshotted — so a plain run and a checkpointed run execute the
/// same phase code. With options it owns the [`CheckpointStore`] and the
/// decoded resume payload, and each phase method either restores its phase
/// from that payload or runs it and saves a self-contained checkpoint at
/// its boundary. Phase methods that save supernet state take a `trainer`
/// accessor into the objective; surrogate pipelines pass `|_| None`.
pub struct Checkpointer {
    store: Option<CheckpointStore>,
    resume: Option<PipelineCkpt>,
    train_interval: usize,
    /// The calibrated predictor, carried in every later checkpoint.
    predictor_json: Option<String>,
    /// Completed shrinking stages, carried in every later checkpoint.
    stages: Vec<StageRecord>,
}

impl Checkpointer {
    /// Opens the protocol for one run. `config_hash` identifies everything
    /// that determines the run's results; it is computed only with options,
    /// and resume refuses a checkpoint written under another hash.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Ckpt`] if the store cannot be opened, or if
    /// resuming and the latest checkpoint is corrupt or was written under a
    /// different configuration.
    pub fn open(
        opts: Option<&CheckpointOptions>,
        phase: Phase,
        config_hash: impl FnOnce() -> Result<u64, PipelineError>,
    ) -> Result<Self, PipelineError> {
        let (store, latest) = open_store(opts, phase, config_hash)?;
        let mut resume = latest.map(|p| PipelineCkpt::decode(&p)).transpose()?;
        let stages = resume
            .as_mut()
            .map(|r| std::mem::take(&mut r.stages))
            .unwrap_or_default();
        Ok(Checkpointer {
            store,
            resume,
            train_interval: opts.map_or(0, |o| o.train_interval),
            predictor_json: None,
            stages,
        })
    }

    /// Restores `trainer` from the resume payload, then runs (or finishes)
    /// warm supernet training unless the run is already past it, saving a
    /// checkpoint every `train_interval` steps.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] on a training or checkpoint failure.
    pub fn train_warm(
        &self,
        trainer: &mut SupernetTrainer,
        space: &SearchSpace,
        data: &SyntheticDataset,
        steps: usize,
        lr: f32,
        rng: &mut SmallRng,
    ) -> Result<(), PipelineError> {
        let train_err = |e: SupernetError| objective_error(e.to_string());
        let cursor = match &self.resume {
            Some(r) => {
                let snapshot = r
                    .trainer
                    .as_ref()
                    .ok_or_else(|| ckpt_err("pipeline checkpoint is missing trainer state"))?;
                trainer.restore(snapshot).map_err(train_err)?;
                if r.tag > TAG_WARM {
                    return Ok(());
                }
                r.cursor
            }
            None => None,
        };
        let _span = hsconas_telemetry::span!("pipeline.train", steps = steps);
        let mut save = |t: &mut SupernetTrainer, c: &TrainCursor| {
            let snapshot = self.snapshot(Some(t));
            self.save(
                TAG_WARM,
                CUR_WARM_BASE + c.step_in_call,
                snapshot,
                Some(*c),
                None,
                None,
            )
            .map_err(|e| SupernetError::Checkpoint {
                detail: e.to_string(),
            })
        };
        trainer
            .train_steps_resumable(
                space,
                data,
                steps,
                lr,
                rng,
                cursor.as_ref(),
                self.train_interval,
                &mut save,
            )
            .map_err(train_err)
    }

    /// Restores the driving RNG and the latency predictor from the resume
    /// payload, or calibrates the predictor (Eq. 2–3) on `device`; then
    /// saves the post-calibration checkpoint unless the run is past it.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] on a calibration failure, an invalid
    /// predictor snapshot, or a checkpoint failure.
    pub fn calibrate(
        &mut self,
        device: DeviceSpec,
        space: &SearchSpace,
        archs: usize,
        repeats: usize,
        rng: &mut StdRng,
        trainer: Option<&mut SupernetTrainer>,
    ) -> Result<LatencyPredictor, PipelineError> {
        if let Some(state) = self.resume.as_ref().and_then(|r| r.search_rng) {
            *rng = StdRng::from_state(state);
        }
        let predictor = match self
            .resume
            .as_ref()
            .and_then(|r| r.predictor_json.as_deref())
        {
            Some(json) => {
                let snapshot: PredictorSnapshot = serde_json::from_str(json).map_err(|e| {
                    ckpt_err(format!("invalid predictor snapshot in checkpoint: {e}"))
                })?;
                LatencyPredictor::from_snapshot(device, space, snapshot)
                    .map_err(|e| ckpt_err(e.to_string()))?
            }
            None => {
                let _span = hsconas_telemetry::span!("pipeline.calibrate");
                LatencyPredictor::calibrate(device, space, archs, repeats, rng)?
            }
        };
        if self.store.is_some() {
            self.predictor_json = Some(
                serde_json::to_string(&predictor.export())
                    .map_err(|e| ckpt_err(format!("serializing predictor snapshot: {e}")))?,
            );
            if self.resume.as_ref().is_none_or(|r| r.tag < TAG_CALIBRATED) {
                let snapshot = self.snapshot(trainer);
                self.save(
                    TAG_CALIBRATED,
                    CUR_CALIBRATED,
                    snapshot,
                    None,
                    Some(rng),
                    None,
                )?;
            }
        }
        Ok(predictor)
    }

    /// Progressive shrinking (§III-C) one stage per
    /// [`ProgressiveShrinking::run`] call, so the RNG can be saved between
    /// stages (the stream each stage consumes is the same either way). The
    /// resumed stages are replayed into `space` from their saved per-layer
    /// decisions; each new stage is followed by `fine_tune` and a saved
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] on a shrinking, fine-tuning, or checkpoint
    /// failure.
    pub fn shrink<O: Objective>(
        &mut self,
        space: SearchSpace,
        schedule: &ShrinkConfig,
        objective: &mut O,
        rng: &mut StdRng,
        mut fine_tune: impl FnMut(&mut O, usize, &SearchSpace) -> Result<(), PipelineError>,
        mut trainer: impl FnMut(&mut O) -> Option<&mut SupernetTrainer>,
    ) -> Result<ShrinkResult, PipelineError> {
        let mut current = space;
        for record in &self.stages {
            for decision in &record.decisions {
                current = current.restrict_op(decision.layer, decision.chosen)?;
            }
        }
        let _span = hsconas_telemetry::span!("pipeline.shrink", stages = schedule.stages.len());
        for (stage_idx, layers) in schedule.stages.iter().enumerate().skip(self.stages.len()) {
            let engine = ProgressiveShrinking::new(ShrinkConfig {
                stages: vec![layers.clone()],
                samples_per_subspace: schedule.samples_per_subspace,
            });
            let result = engine.run(current, objective, rng, |_, _| Ok(()))?;
            current = result.space;
            let mut record = result
                .stages
                .into_iter()
                .next()
                .expect("single-stage shrink yields one record");
            record.stage = stage_idx;
            self.stages.push(record);
            fine_tune(objective, stage_idx, &current)?;
            let snapshot = self.snapshot(trainer(objective));
            let cursor = CUR_SHRINK_BASE + stage_idx as u64 + 1;
            self.save(TAG_SHRINK_STAGE, cursor, snapshot, None, Some(rng), None)?;
        }
        Ok(ShrinkResult {
            space: current,
            stages: self.stages.clone(),
        })
    }

    /// The evolutionary search (§III-D), resumed from the saved EA state
    /// when there is one, with a checkpoint after the initial population
    /// and after every generation. The supernet is only evaluated during
    /// the search, so one trainer snapshot serves every generation.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] on a search or checkpoint failure.
    pub fn evolve<O: Objective>(
        &self,
        mut search: EvolutionSearch,
        objective: &mut O,
        rng: &mut StdRng,
        mut trainer: impl FnMut(&mut O) -> Option<&mut SupernetTrainer>,
    ) -> Result<SearchResult, PipelineError> {
        let snapshot = self.snapshot(trainer(objective));
        let _span = hsconas_telemetry::span!("pipeline.search");
        let resumed = self.resume.as_ref().and_then(|r| r.ea.clone());
        run_generations(&mut search, objective, rng, resumed, |state, rng, _| {
            let cursor = CUR_EA_BASE + state.completed_generations() as u64;
            self.save(
                TAG_EA_GEN,
                cursor,
                snapshot.clone(),
                None,
                Some(rng),
                Some(state),
            )
        })
    }

    /// `trainer.checkpoint()`, taken only when this run writes checkpoints
    /// (a snapshot copies every weight).
    fn snapshot(&self, trainer: Option<&mut SupernetTrainer>) -> Option<TrainerCheckpoint> {
        self.store.as_ref()?;
        trainer.map(|t| t.checkpoint())
    }

    /// Encodes and saves one boundary's payload (a no-op without a store).
    fn save(
        &self,
        tag: u8,
        cursor: u64,
        trainer: Option<TrainerCheckpoint>,
        train_cursor: Option<TrainCursor>,
        rng: Option<&StdRng>,
        ea: Option<&SearchState>,
    ) -> Result<(), PipelineError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let payload = PipelineCkpt {
            tag,
            trainer,
            cursor: train_cursor,
            predictor_json: self.predictor_json.clone(),
            search_rng: rng.map(StdRng::state),
            stages: self.stages.clone(),
            ea: ea.cloned(),
        }
        .encode()?;
        store.save(cursor, &payload)?;
        Ok(())
    }
}

/// Runs an evolutionary search to completion one generation at a time:
/// init (unless `resumed`), then step, calling `save` after the initial
/// population and after every generation. [`EvolutionSearch::run`] is the
/// same loop without the saves.
fn run_generations<O: Objective>(
    search: &mut EvolutionSearch,
    objective: &mut O,
    rng: &mut StdRng,
    resumed: Option<SearchState>,
    mut save: impl FnMut(&SearchState, &StdRng, &O) -> Result<(), PipelineError>,
) -> Result<SearchResult, PipelineError> {
    let config = *search.config();
    let _ea_span = hsconas_telemetry::span!(
        "ea.search",
        generations = config.generations,
        population = config.population,
        parents = config.parents
    );
    let mut state = match resumed {
        Some(state) => state,
        None => {
            let state = search.init_state(objective, rng)?;
            save(&state, rng, objective)?;
            state
        }
    };
    while state.completed_generations() < config.generations {
        search.step_generation(&mut state, objective, rng)?;
        save(&state, rng, objective)?;
    }
    search.finalize(&state).map_err(Into::into)
}

/// The state captured at one pipeline boundary. Every field a later phase
/// needs is present, so a single file is sufficient to resume.
#[derive(Debug, Clone, PartialEq)]
struct PipelineCkpt {
    /// Which boundary this checkpoint was written at (`TAG_*`).
    pub tag: u8,
    /// Supernet trainer state (real-training pipeline only).
    pub trainer: Option<TrainerCheckpoint>,
    /// Mid-call training cursor (`TAG_WARM` only).
    pub cursor: Option<TrainCursor>,
    /// JSON-serialized [`hsconas_latency::PredictorSnapshot`].
    pub predictor_json: Option<String>,
    /// xoshiro256++ state of the search-driving [`StdRng`].
    pub search_rng: Option<[u64; 4]>,
    /// Completed shrinking stages, in order (replayed to rebuild the
    /// restricted space on resume).
    pub stages: Vec<StageRecord>,
    /// Evolutionary-search state (`TAG_EA_GEN` only).
    pub ea: Option<SearchState>,
}

impl PipelineCkpt {
    /// Serializes the checkpoint into a payload for
    /// [`CheckpointStore::save`].
    fn encode(&self) -> Result<Vec<u8>, PipelineError> {
        let stages_json = serde_json::to_string(&self.stages)
            .map_err(|e| ckpt_err(format!("serializing shrink stage records: {e}")))?;
        let mut e = Encoder::new();
        e.put_u8(self.tag);
        put_opt(&mut e, self.trainer.as_ref(), put_trainer);
        put_opt(&mut e, self.cursor.as_ref(), put_cursor);
        put_opt(&mut e, self.predictor_json.as_deref(), |e, s| e.put_str(s));
        put_opt(&mut e, self.search_rng.as_ref(), |e, s| e.put_u64_slice(s));
        e.put_str(&stages_json);
        put_opt(&mut e, self.ea.as_ref(), put_search_state);
        Ok(e.finish())
    }

    /// Deserializes a payload produced by [`Self::encode`]; fails on any
    /// structural mismatch (truncation, trailing bytes, malformed JSON).
    fn decode(payload: &[u8]) -> Result<Self, PipelineError> {
        let mut d = Decoder::new(payload);
        let ckpt = decode_inner(&mut d).map_err(|e| ckpt_err(e.to_string()))?;
        d.expect_end().map_err(|e| ckpt_err(e.to_string()))?;
        Ok(ckpt)
    }
}

fn decode_inner(d: &mut Decoder<'_>) -> Result<PipelineCkpt, CkptError> {
    let tag = d.get_u8()?;
    let trainer = get_opt(d, get_trainer)?;
    let cursor = get_opt(d, get_cursor)?;
    let predictor_json = get_opt(d, |d| d.get_str())?;
    let search_rng = get_opt(d, get_rng4)?;
    let stages_json = d.get_str()?;
    let stages: Vec<StageRecord> = serde_json::from_str(&stages_json)
        .map_err(|e| CkptError::corrupt(format!("malformed stage records: {e}")))?;
    let ea = get_opt(d, get_search_state)?;
    Ok(PipelineCkpt {
        tag,
        trainer,
        cursor,
        predictor_json,
        search_rng,
        stages,
        ea,
    })
}

fn put_opt<T: ?Sized>(e: &mut Encoder, v: Option<&T>, put: impl FnOnce(&mut Encoder, &T)) {
    match v {
        Some(v) => {
            e.put_bool(true);
            put(e, v);
        }
        None => e.put_bool(false),
    }
}

fn get_opt<T>(
    d: &mut Decoder<'_>,
    get: impl FnOnce(&mut Decoder<'_>) -> Result<T, CkptError>,
) -> Result<Option<T>, CkptError> {
    if d.get_bool()? {
        Ok(Some(get(d)?))
    } else {
        Ok(None)
    }
}

fn put_trainer(e: &mut Encoder, t: &TrainerCheckpoint) {
    e.put_usize(t.params.len());
    for p in &t.params {
        e.put_f32_slice(p);
    }
    e.put_usize(t.velocities.len());
    for (shape, values) in &t.velocities {
        for d in shape {
            e.put_usize(*d);
        }
        e.put_f32_slice(values);
    }
    e.put_usize(t.steps_done);
    e.put_usize(t.history.len());
    for r in &t.history {
        e.put_usize(r.step);
        e.put_f32(r.loss);
        e.put_f32(r.lr);
    }
}

fn get_trainer(d: &mut Decoder<'_>) -> Result<TrainerCheckpoint, CkptError> {
    let n_params = d.get_usize()?;
    let mut params = Vec::with_capacity(n_params.min(d.remaining()));
    for _ in 0..n_params {
        params.push(d.get_f32_vec()?);
    }
    let n_vel = d.get_usize()?;
    let mut velocities = Vec::with_capacity(n_vel.min(d.remaining()));
    for _ in 0..n_vel {
        let mut shape = [0usize; 4];
        for s in &mut shape {
            *s = d.get_usize()?;
        }
        velocities.push((shape, d.get_f32_vec()?));
    }
    let steps_done = d.get_usize()?;
    let n_hist = d.get_usize()?;
    let mut history = Vec::with_capacity(n_hist.min(d.remaining()));
    for _ in 0..n_hist {
        history.push(StepRecord {
            step: d.get_usize()?,
            loss: d.get_f32()?,
            lr: d.get_f32()?,
        });
    }
    Ok(TrainerCheckpoint {
        params,
        velocities,
        steps_done,
        history,
    })
}

fn put_cursor(e: &mut Encoder, c: &TrainCursor) {
    e.put_u64(c.step_in_call);
    e.put_u64_slice(&c.arch_rng);
    e.put_u64(c.data_rng_state);
    put_opt(e, c.data_rng_spare.as_ref(), |e, v| e.put_u64(*v));
}

fn get_cursor(d: &mut Decoder<'_>) -> Result<TrainCursor, CkptError> {
    Ok(TrainCursor {
        step_in_call: d.get_u64()?,
        arch_rng: get_rng4(d)?,
        data_rng_state: d.get_u64()?,
        data_rng_spare: get_opt(d, |d| d.get_u64())?,
    })
}

fn get_rng4(d: &mut Decoder<'_>) -> Result<[u64; 4], CkptError> {
    let v = d.get_u64_vec()?;
    <[u64; 4]>::try_from(v)
        .map_err(|v| CkptError::corrupt(format!("rng state has {} words, expected 4", v.len())))
}

fn put_evaluation(e: &mut Encoder, ev: &Evaluation) {
    e.put_f64(ev.score);
    e.put_f64(ev.accuracy);
    e.put_f64(ev.latency_ms);
}

fn get_evaluation(d: &mut Decoder<'_>) -> Result<Evaluation, CkptError> {
    Ok(Evaluation {
        score: d.get_f64()?,
        accuracy: d.get_f64()?,
        latency_ms: d.get_f64()?,
    })
}

fn put_arch(e: &mut Encoder, arch: &Arch) {
    let encoded: Vec<u64> = arch.encode().iter().map(|&v| v as u64).collect();
    e.put_u64_slice(&encoded);
}

fn get_arch(d: &mut Decoder<'_>) -> Result<Arch, CkptError> {
    let encoded: Vec<usize> = d.get_u64_vec()?.iter().map(|&v| v as usize).collect();
    Arch::decode(&encoded).map_err(|e| CkptError::corrupt(format!("malformed genome: {e}")))
}

fn put_search_state(e: &mut Encoder, state: &SearchState) {
    e.put_usize(state.history.len());
    for gen in &state.history {
        e.put_usize(gen.generation);
        e.put_usize(gen.individuals.len());
        for ind in &gen.individuals {
            put_arch(e, &ind.arch);
            put_evaluation(e, &ind.evaluation);
        }
    }
}

fn get_search_state(d: &mut Decoder<'_>) -> Result<SearchState, CkptError> {
    let n_gens = d.get_usize()?;
    let mut history = Vec::with_capacity(n_gens.min(d.remaining()));
    for _ in 0..n_gens {
        let generation = d.get_usize()?;
        let n_ind = d.get_usize()?;
        let mut individuals = Vec::with_capacity(n_ind.min(d.remaining()));
        for _ in 0..n_ind {
            individuals.push(Individual {
                arch: get_arch(d)?,
                evaluation: get_evaluation(d)?,
            });
        }
        history.push(GenerationStats {
            generation,
            individuals,
        });
    }
    Ok(SearchState { history })
}

/// Hash of everything that determines a real-training pipeline run's
/// results. A checkpoint written under one `(config, seed)` refuses to
/// resume under another.
pub fn real_config_hash(config: &RealPipelineConfig, seed: u64) -> u64 {
    let mut e = Encoder::new();
    e.put_str("real-pipeline-v1");
    e.put_usize(config.classes);
    e.put_usize(config.warm_steps);
    e.put_usize(config.fine_tune_steps);
    e.put_usize(config.final_steps);
    e.put_usize(config.shrink_stages.len());
    for stage in &config.shrink_stages {
        let layers: Vec<u64> = stage.iter().map(|&l| l as u64).collect();
        e.put_u64_slice(&layers);
    }
    e.put_usize(config.samples_per_subspace);
    e.put_usize(config.eval_batches);
    put_evolution_config(&mut e, &config.evolution);
    e.put_f64(config.target_ms);
    e.put_f64(config.beta);
    e.put_u64(seed);
    fnv1a(&e.finish())
}

/// Hash identifying a surrogate-pipeline run: the search space, the target
/// device, the latency constraint, and the pipeline configuration.
///
/// # Errors
///
/// Returns [`PipelineError::Ckpt`] if the space cannot be serialized.
pub fn surrogate_config_hash(
    space: &SearchSpace,
    device: &DeviceSpec,
    target_ms: f64,
    config: &PipelineConfig,
) -> Result<u64, PipelineError> {
    let space_json = serde_json::to_string(space)
        .map_err(|e| ckpt_err(format!("serializing search space: {e}")))?;
    let mut e = Encoder::new();
    e.put_str("surrogate-pipeline-v1");
    e.put_str(&space_json);
    e.put_str(&device.name);
    e.put_f64(target_ms);
    e.put_usize(config.calibration_archs);
    e.put_usize(config.calibration_repeats);
    e.put_f64(config.beta);
    e.put_bool(config.shrink);
    e.put_usize(config.shrink_config.stages.len());
    for stage in &config.shrink_config.stages {
        let layers: Vec<u64> = stage.iter().map(|&l| l as u64).collect();
        e.put_u64_slice(&layers);
    }
    e.put_usize(config.shrink_config.samples_per_subspace);
    put_evolution_config(&mut e, &config.evolution);
    Ok(fnv1a(&e.finish()))
}

fn put_evolution_config(e: &mut Encoder, config: &hsconas_evo::EvolutionConfig) {
    e.put_usize(config.generations);
    e.put_usize(config.population);
    e.put_usize(config.parents);
    e.put_f64(config.crossover_prob);
    e.put_f64(config.mutation_prob);
    e.put_f64(config.gene_mutation_rate);
}

/// Hash identifying a standalone checkpointed EA run (space + EA config).
///
/// # Errors
///
/// Returns [`PipelineError::Ckpt`] if the space cannot be serialized.
pub fn search_config_hash(search: &EvolutionSearch) -> Result<u64, PipelineError> {
    let space_json = serde_json::to_string(search.space())
        .map_err(|e| ckpt_err(format!("serializing search space: {e}")))?;
    let mut e = Encoder::new();
    e.put_str("ea-search-v1");
    e.put_str(&space_json);
    put_evolution_config(&mut e, search.config());
    Ok(fnv1a(&e.finish()))
}

fn encode_search_payload(
    state: &SearchState,
    rng_state: [u64; 4],
    memo: &[(u64, Evaluation)],
) -> Vec<u8> {
    let mut e = Encoder::new();
    put_search_state(&mut e, state);
    e.put_u64_slice(&rng_state);
    e.put_usize(memo.len());
    for (fingerprint, evaluation) in memo {
        e.put_u64(*fingerprint);
        put_evaluation(&mut e, evaluation);
    }
    e.finish()
}

type SearchPayload = (SearchState, [u64; 4], Vec<(u64, Evaluation)>);

fn decode_search_payload(payload: &[u8]) -> Result<SearchPayload, PipelineError> {
    let inner = |d: &mut Decoder<'_>| -> Result<SearchPayload, CkptError> {
        let state = get_search_state(d)?;
        let rng_state = get_rng4(d)?;
        let n_memo = d.get_usize()?;
        let mut memo = Vec::with_capacity(n_memo.min(d.remaining()));
        for _ in 0..n_memo {
            let fingerprint = d.get_u64()?;
            memo.push((fingerprint, get_evaluation(d)?));
        }
        Ok((state, rng_state, memo))
    };
    let mut d = Decoder::new(payload);
    let decoded = inner(&mut d).map_err(|e| ckpt_err(e.to_string()))?;
    d.expect_end().map_err(|e| ckpt_err(e.to_string()))?;
    Ok(decoded)
}

/// Runs (or resumes) an evolutionary search with a checkpoint after every
/// generation: the full [`SearchState`], the driving RNG's state, and the
/// memo-cache contents, so a resumed search re-evaluates nothing and
/// continues bit-identically — at any worker-thread count of the wrapped
/// objective. With `opts = None` nothing is read or written.
///
/// # Errors
///
/// Returns [`PipelineError`] on objective failures or checkpoint I/O
/// failures; resume fails loudly on a corrupt latest checkpoint or a
/// configuration mismatch.
pub fn run_search_checkpointed<O: Objective>(
    search: &mut EvolutionSearch,
    objective: &mut MemoObjective<O>,
    rng: &mut StdRng,
    opts: Option<&CheckpointOptions>,
) -> Result<SearchResult, PipelineError> {
    let (store, latest) = open_store(opts, Phase::Search, || search_config_hash(search))?;
    let resumed = match latest {
        Some(payload) => {
            let (state, rng_state, memo) = decode_search_payload(&payload)?;
            objective.import_cache(memo);
            *rng = StdRng::from_state(rng_state);
            Some(state)
        }
        None => None,
    };
    run_generations(search, objective, rng, resumed, |state, rng, objective| {
        let Some(store) = &store else {
            return Ok(());
        };
        let payload = encode_search_payload(state, rng.state(), &objective.export_cache());
        store.save(state.completed_generations() as u64, &payload)?;
        Ok(())
    })
}

fn put_pareto_eval(e: &mut Encoder, ev: &ParetoEval) {
    e.put_f64(ev.accuracy);
    e.put_usize(ev.latencies_ms.len());
    for &lat in &ev.latencies_ms {
        e.put_f64(lat);
    }
}

fn get_pareto_eval(d: &mut Decoder<'_>) -> Result<ParetoEval, CkptError> {
    let accuracy = d.get_f64()?;
    let n = d.get_usize()?;
    let mut latencies_ms = Vec::with_capacity(n.min(d.remaining()));
    for _ in 0..n {
        latencies_ms.push(d.get_f64()?);
    }
    Ok(ParetoEval {
        accuracy,
        latencies_ms,
    })
}

fn put_pareto_individuals(e: &mut Encoder, individuals: &[ParetoIndividual]) {
    e.put_usize(individuals.len());
    for ind in individuals {
        put_arch(e, &ind.arch);
        put_pareto_eval(e, &ind.eval);
    }
}

fn get_pareto_individuals(d: &mut Decoder<'_>) -> Result<Vec<ParetoIndividual>, CkptError> {
    let n = d.get_usize()?;
    let mut individuals = Vec::with_capacity(n.min(d.remaining()));
    for _ in 0..n {
        individuals.push(ParetoIndividual {
            arch: get_arch(d)?,
            eval: get_pareto_eval(d)?,
        });
    }
    Ok(individuals)
}

fn encode_pareto_payload(state: &ParetoState, rng_state: [u64; 4]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_usize(state.generation);
    e.put_u64(state.evaluated);
    put_pareto_individuals(&mut e, &state.population);
    put_pareto_individuals(&mut e, &state.archive);
    e.put_u64_slice(&rng_state);
    e.finish()
}

fn decode_pareto_payload(payload: &[u8]) -> Result<(ParetoState, [u64; 4]), PipelineError> {
    let inner = |d: &mut Decoder<'_>| -> Result<(ParetoState, [u64; 4]), CkptError> {
        let generation = d.get_usize()?;
        let evaluated = d.get_u64()?;
        let population = get_pareto_individuals(d)?;
        let archive = get_pareto_individuals(d)?;
        let rng_state = get_rng4(d)?;
        Ok((
            ParetoState {
                generation,
                population,
                archive,
                evaluated,
            },
            rng_state,
        ))
    };
    let mut d = Decoder::new(payload);
    let decoded = inner(&mut d).map_err(|e| ckpt_err(e.to_string()))?;
    d.expect_end().map_err(|e| ckpt_err(e.to_string()))?;
    Ok(decoded)
}

/// Hash identifying a checkpointed multi-device Pareto search: the space,
/// the EA configuration, and the canonical device set the objective
/// vector is built over.
///
/// # Errors
///
/// Returns [`PipelineError::Ckpt`] if the space cannot be serialized.
pub fn pareto_config_hash(search: &ParetoSearch, devices: &[String]) -> Result<u64, PipelineError> {
    let space_json = serde_json::to_string(search.space())
        .map_err(|e| ckpt_err(format!("serializing search space: {e}")))?;
    let mut e = Encoder::new();
    e.put_str("pareto-search-v1");
    e.put_str(&space_json);
    put_evolution_config(&mut e, search.config());
    e.put_usize(devices.len());
    for device in devices {
        e.put_str(device);
    }
    Ok(fnv1a(&e.finish()))
}

/// Runs (or resumes) a multi-device Pareto search with a checkpoint after
/// the initial population and after every generation: the full
/// [`ParetoState`] (population, archive, counters) and the driving RNG's
/// state. A run killed at any point and resumed from its latest file
/// produces the exact frontier the uninterrupted run produces —
/// evaluations are deterministic, so the re-evaluated prefix is
/// bit-identical.
///
/// # Errors
///
/// Returns [`PipelineError`] on objective failures or checkpoint I/O
/// failures; resume fails loudly on a corrupt latest checkpoint or a
/// configuration mismatch (different space, EA config, or device set).
pub fn run_pareto_checkpointed(
    search: &ParetoSearch,
    objective: &mut ParetoObjective,
    rng: &mut StdRng,
    opts: &CheckpointOptions,
) -> Result<ParetoFrontier, PipelineError> {
    let generations = search.config().generations;
    let (store, latest) = open_store(Some(opts), Phase::Search, || {
        pareto_config_hash(search, objective.devices())
    })?;
    let store = store.expect("open_store returns a store when given options");
    let _span = hsconas_telemetry::span!(
        "pareto.search.checkpointed",
        generations = generations,
        devices = objective.devices().len()
    );
    let mut state = match latest {
        Some(payload) => {
            let (state, rng_state) = decode_pareto_payload(&payload)?;
            *rng = StdRng::from_state(rng_state);
            state
        }
        None => {
            let state = search.init_state(objective, rng)?;
            save_pareto_generation(&store, &state, rng)?;
            state
        }
    };
    while state.generation < generations {
        search.step_generation(&mut state, objective, rng)?;
        save_pareto_generation(&store, &state, rng)?;
    }
    Ok(search.finalize(&state, objective))
}

fn save_pareto_generation(
    store: &CheckpointStore,
    state: &ParetoState,
    rng: &StdRng,
) -> Result<(), PipelineError> {
    let payload = encode_pareto_payload(state, rng.state());
    store
        .save(state.generation as u64, &payload)
        .map_err(Into::into)
        .map(|_| ())
}

/// Pretty-prints a checkpoint file's header (the `hsconas ckpt inspect`
/// subcommand): format version, phase, cursor, config hash, payload size,
/// and checksum. Fails on a missing file, a foreign format, or a payload
/// that does not match its checksum.
///
/// # Errors
///
/// Returns a human-readable error string (CLI-facing).
pub fn inspect_checkpoint(path: &Path) -> Result<String, String> {
    let header = hsconas_ckpt::inspect(path).map_err(|e| e.to_string())?;
    let phase = header
        .phase()
        .map(|p| p.name().to_string())
        .unwrap_or_else(|| format!("unknown({})", header.phase_tag));
    Ok(format!(
        "file         : {}\n\
         format       : HSCK v{}\n\
         phase        : {phase}\n\
         cursor       : {}\n\
         config hash  : {:#018x}\n\
         payload      : {} bytes\n\
         checksum     : {:#018x} (verified)",
        path.display(),
        header.version,
        header.cursor,
        header.config_hash,
        header.payload_len,
        header.checksum,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample_state() -> SearchState {
        let space = SearchSpace::tiny(4);
        let mut rng = StdRng::seed_from_u64(7);
        let individuals: Vec<Individual> = space
            .sample_n(3, &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, arch)| Individual {
                arch,
                evaluation: Evaluation {
                    score: 1.5 - i as f64,
                    accuracy: 70.0 + i as f64,
                    latency_ms: 20.0 * (i + 1) as f64,
                },
            })
            .collect();
        SearchState {
            history: vec![GenerationStats {
                generation: 0,
                individuals,
            }],
        }
    }

    #[test]
    fn pipeline_ckpt_roundtrips() {
        let ckpt = PipelineCkpt {
            tag: TAG_EA_GEN,
            trainer: Some(TrainerCheckpoint {
                params: vec![vec![1.0, -2.5], vec![0.0]],
                velocities: vec![([1, 2, 3, 4], vec![0.25; 24])],
                steps_done: 17,
                history: vec![StepRecord {
                    step: 16,
                    loss: 0.75,
                    lr: 0.05,
                }],
            }),
            cursor: Some(TrainCursor {
                step_in_call: 9,
                arch_rng: [1, 2, 3, 4],
                data_rng_state: 42,
                data_rng_spare: Some(f64::to_bits(-0.5)),
            }),
            predictor_json: Some("{\"fake\":true}".into()),
            search_rng: Some([5, 6, 7, 8]),
            stages: Vec::new(),
            ea: Some(sample_state()),
        };
        let decoded = PipelineCkpt::decode(&ckpt.encode().unwrap()).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn minimal_ckpt_roundtrips() {
        let ckpt = PipelineCkpt {
            tag: TAG_CALIBRATED,
            trainer: None,
            cursor: None,
            predictor_json: None,
            search_rng: None,
            stages: Vec::new(),
            ea: None,
        };
        let decoded = PipelineCkpt::decode(&ckpt.encode().unwrap()).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let ckpt = PipelineCkpt {
            tag: TAG_CALIBRATED,
            trainer: None,
            cursor: None,
            predictor_json: None,
            search_rng: None,
            stages: Vec::new(),
            ea: None,
        };
        let mut payload = ckpt.encode().unwrap();
        payload.push(0);
        assert!(PipelineCkpt::decode(&payload).is_err());
    }

    #[test]
    fn search_payload_roundtrips() {
        let state = sample_state();
        let memo = vec![
            (
                3u64,
                Evaluation {
                    score: 1.0,
                    accuracy: 71.0,
                    latency_ms: 33.0,
                },
            ),
            (
                9u64,
                Evaluation {
                    score: 2.0,
                    accuracy: 72.0,
                    latency_ms: 34.0,
                },
            ),
        ];
        let payload = encode_search_payload(&state, [9, 8, 7, 6], &memo);
        let (s2, rng2, memo2) = decode_search_payload(&payload).unwrap();
        assert_eq!(s2, state);
        assert_eq!(rng2, [9, 8, 7, 6]);
        assert_eq!(memo2, memo);
    }

    #[test]
    fn pareto_payload_roundtrips() {
        let space = SearchSpace::tiny(4);
        let mut rng = StdRng::seed_from_u64(3);
        let individuals: Vec<ParetoIndividual> = space
            .sample_n(3, &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, arch)| ParetoIndividual {
                arch,
                eval: ParetoEval {
                    accuracy: 70.0 + i as f64,
                    latencies_ms: vec![10.0 + i as f64, 20.0 - i as f64],
                },
            })
            .collect();
        let state = ParetoState {
            generation: 2,
            population: individuals.clone(),
            archive: individuals[..1].to_vec(),
            evaluated: 17,
        };
        let payload = encode_pareto_payload(&state, [4, 3, 2, 1]);
        let (s2, rng2) = decode_pareto_payload(&payload).unwrap();
        assert_eq!(s2, state);
        assert_eq!(rng2, [4, 3, 2, 1]);

        let mut bad = payload.clone();
        bad.push(7);
        assert!(decode_pareto_payload(&bad).is_err(), "trailing bytes");
    }

    #[test]
    fn pareto_hash_is_sensitive_to_the_device_set() {
        let search = ParetoSearch::new(SearchSpace::tiny(4), Default::default());
        let two = ["cpu".to_string(), "edge".to_string()];
        let h = pareto_config_hash(&search, &two).unwrap();
        assert_ne!(
            h,
            pareto_config_hash(&search, &two[..1]).unwrap(),
            "device set must matter"
        );
        assert_eq!(h, pareto_config_hash(&search, &two).unwrap());
    }

    #[test]
    fn config_hash_is_sensitive_to_every_knob() {
        let base = RealPipelineConfig::smoke_test();
        let h = real_config_hash(&base, 5);
        assert_ne!(h, real_config_hash(&base, 6), "seed must matter");
        let mut warm = base.clone();
        warm.warm_steps += 1;
        assert_ne!(h, real_config_hash(&warm, 5));
        let mut evo = base.clone();
        evo.evolution.generations += 1;
        assert_ne!(h, real_config_hash(&evo, 5));
        assert_eq!(h, real_config_hash(&base.clone(), 5), "hash is stable");
    }

    #[test]
    fn surrogate_hash_distinguishes_devices_and_targets() {
        let space = SearchSpace::tiny(4);
        let config = PipelineConfig::fast_test();
        let h = surrogate_config_hash(&space, &DeviceSpec::edge_xavier(), 34.0, &config).unwrap();
        let gpu = surrogate_config_hash(&space, &DeviceSpec::gpu_gv100(), 34.0, &config).unwrap();
        let target =
            surrogate_config_hash(&space, &DeviceSpec::edge_xavier(), 24.0, &config).unwrap();
        assert_ne!(h, gpu);
        assert_ne!(h, target);
    }
}
