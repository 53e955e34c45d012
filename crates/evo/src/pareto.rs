//! Multi-device Pareto co-exploration (ROADMAP item 3).
//!
//! The paper searches one device at a time; its conclusion (and the
//! follow-on literature: HW-NAS-Bench, Jiang et al.'s hardware/software
//! co-exploration) points at searching across a *set* of devices at once.
//! This module layers NSGA-II-style non-dominated sorting and
//! crowding-distance selection onto the EA of [`crate::search`]:
//!
//! * [`ParetoObjective`] evaluates one architecture against N device
//!   descriptors at once — one inner [`Objective`] per device (typically a
//!   [`crate::MemoObjective`] over a [`crate::ParallelObjective`], so the
//!   existing memo/prefix caches and the worker pool are reused verbatim)
//!   — and merges the results into a vector: accuracy to maximize, one
//!   latency per device to minimize.
//! * [`ParetoSearch`] reuses the exact variation operators (and RNG
//!   consumption order) of [`EvolutionSearch`], but replaces scalar
//!   best-first truncation with rank + crowding selection and maintains an
//!   archive holding the non-dominated subset of *every* candidate seen.
//!
//! ## Determinism contract
//!
//! The frontier is bit-identical at any worker-thread count (candidate
//! generation consumes the RNG serially; evaluation goes through the
//! order-preserving batch path) and stable under device-list permutation
//! ([`ParetoObjective::new`] canonicalizes by sorting device names). All
//! orderings break ties on the genome encoding, never on float identity
//! or hash order.

use crate::search::{EvolutionConfig, EvolutionSearch};
use crate::{EvoError, Objective};
use hsconas_space::{Arch, SearchSpace};
use rand::Rng;

/// One vector-valued evaluation: accuracy (maximized) plus one predicted
/// latency per device (each minimized), in the objective's canonical
/// (name-sorted) device order.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoEval {
    /// Predicted accuracy (%), shared across devices.
    pub accuracy: f64,
    /// Predicted latency per device, aligned with
    /// [`ParetoObjective::devices`].
    pub latencies_ms: Vec<f64>,
}

/// One evaluated member of a Pareto population.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoIndividual {
    /// The architecture.
    pub arch: Arch,
    /// Its vector-valued evaluation.
    pub eval: ParetoEval,
}

/// Pareto dominance: `a` dominates `b` iff `a` is no worse on every
/// objective (accuracy maximized, every per-device latency minimized) and
/// strictly better on at least one.
pub fn dominates(a: &ParetoEval, b: &ParetoEval) -> bool {
    debug_assert_eq!(a.latencies_ms.len(), b.latencies_ms.len());
    if a.accuracy < b.accuracy {
        return false;
    }
    let mut strictly_better = a.accuracy > b.accuracy;
    for (la, lb) in a.latencies_ms.iter().zip(&b.latencies_ms) {
        if la > lb {
            return false;
        }
        if la < lb {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Evaluates one architecture against N devices at once.
///
/// Construction canonicalizes: devices are sorted by name, so two
/// objectives built from permutations of the same device list are
/// indistinguishable — the serve router and the frontier's
/// permutation-stability guarantee both lean on this.
pub struct ParetoObjective {
    devices: Vec<String>,
    objectives: Vec<Box<dyn Objective>>,
}

impl std::fmt::Debug for ParetoObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParetoObjective")
            .field("devices", &self.devices)
            .finish()
    }
}

impl ParetoObjective {
    /// Builds the objective from `(device name, per-device objective)`
    /// pairs. The per-device objective's `accuracy` and `latency_ms`
    /// fields feed the Pareto vector; its scalar `score` is ignored.
    /// Accuracy is read from the first device in canonical order (the
    /// oracle is device-independent).
    ///
    /// # Errors
    ///
    /// Returns [`EvoError::InvalidConfig`] on an empty device list or a
    /// duplicate device name.
    pub fn new(per_device: Vec<(String, Box<dyn Objective>)>) -> Result<Self, EvoError> {
        if per_device.is_empty() {
            return Err(EvoError::InvalidConfig {
                detail: "pareto objective needs at least one device".into(),
            });
        }
        let mut per_device = per_device;
        per_device.sort_by(|a, b| a.0.cmp(&b.0));
        for pair in per_device.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(EvoError::InvalidConfig {
                    detail: format!("duplicate device '{}' in pareto objective", pair[0].0),
                });
            }
        }
        let (devices, objectives) = per_device.into_iter().unzip();
        Ok(ParetoObjective {
            devices,
            objectives,
        })
    }

    /// The canonical (name-sorted) device list.
    pub fn devices(&self) -> &[String] {
        &self.devices
    }

    /// Evaluates a batch of architectures against every device, through
    /// each device objective's batch path (so memoization and worker-pool
    /// parallelism apply per device), merging per-arch into vectors in
    /// input order.
    ///
    /// # Errors
    ///
    /// Propagates the first device objective failure.
    pub fn evaluate_batch(&mut self, archs: &[Arch]) -> Result<Vec<ParetoEval>, EvoError> {
        let mut evals = Vec::with_capacity(archs.len());
        for arch_idx in 0..archs.len() {
            let _ = arch_idx;
            evals.push(ParetoEval {
                accuracy: 0.0,
                latencies_ms: Vec::with_capacity(self.objectives.len()),
            });
        }
        for (device_idx, objective) in self.objectives.iter_mut().enumerate() {
            let device_evals = objective.evaluate_batch(archs)?;
            debug_assert_eq!(device_evals.len(), archs.len());
            for (out, e) in evals.iter_mut().zip(device_evals) {
                if device_idx == 0 {
                    out.accuracy = e.accuracy;
                }
                out.latencies_ms.push(e.latency_ms);
            }
        }
        Ok(evals)
    }
}

/// Resumable Pareto search state. Together with the driving RNG's state
/// this is everything a checkpoint needs to continue bit-identically;
/// its file cursor is `generation`, as for a standalone scalar EA.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParetoState {
    /// Generations completed beyond the initial population.
    pub generation: usize,
    /// Current population in NSGA order (best rank, widest crowding
    /// first).
    pub population: Vec<ParetoIndividual>,
    /// The non-dominated subset of every candidate evaluated so far,
    /// sorted by genome encoding.
    pub archive: Vec<ParetoIndividual>,
    /// Total candidate evaluations performed.
    pub evaluated: u64,
}

/// A finished frontier: the archive plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFrontier {
    /// Canonical (name-sorted) device list the latencies align with.
    pub devices: Vec<String>,
    /// Mutually non-dominated points, sorted by genome encoding.
    pub points: Vec<ParetoIndividual>,
    /// Generations completed.
    pub generations: usize,
    /// Total candidate evaluations performed.
    pub evaluated: u64,
}

/// NSGA-II-flavoured evolutionary search returning a Pareto frontier.
#[derive(Debug, Clone)]
pub struct ParetoSearch {
    inner: EvolutionSearch,
}

impl ParetoSearch {
    /// Creates a search over `space` with the given EA configuration
    /// (`parents` sizes the mating pool, selected by rank + crowding).
    pub fn new(space: SearchSpace, config: EvolutionConfig) -> Self {
        ParetoSearch {
            inner: EvolutionSearch::new(space, config),
        }
    }

    /// The search space.
    pub fn space(&self) -> &SearchSpace {
        self.inner.space()
    }

    /// The search configuration.
    pub fn config(&self) -> &EvolutionConfig {
        self.inner.config()
    }

    /// Samples and scores the initial population. Exposed separately so a
    /// checkpointing driver can own the RNG between generations and
    /// persist `(state, rng state)` at each boundary.
    ///
    /// # Errors
    ///
    /// Returns [`EvoError`] on an invalid configuration or objective
    /// failure.
    pub fn init_state<R: Rng + ?Sized>(
        &self,
        objective: &mut ParetoObjective,
        rng: &mut R,
    ) -> Result<ParetoState, EvoError> {
        self.config().validate()?;
        let init = self.space().sample_n(self.config().population, rng);
        let mut span = hsconas_telemetry::span!("pareto.generation", gen = 0usize);
        span.record("evals", init.len());
        let evals = objective.evaluate_batch(&init)?;
        let mut population: Vec<ParetoIndividual> = init
            .into_iter()
            .zip(evals)
            .map(|(arch, eval)| ParetoIndividual { arch, eval })
            .collect();
        let evaluated = population.len() as u64;
        reorder(&mut population);
        let archive = merge_archive(Vec::new(), &population);
        span.record("frontier", archive.len());
        Ok(ParetoState {
            generation: 0,
            population,
            archive,
            evaluated,
        })
    }

    /// Advances the search by one generation: rank + crowding selects the
    /// mating pool, offspring are produced exactly as in the scalar EA
    /// (same RNG consumption order), evaluated in one batch, and merged
    /// into the population and the non-dominated archive.
    ///
    /// # Errors
    ///
    /// Returns [`EvoError`] if `state` is uninitialized or the objective
    /// fails.
    pub fn step_generation<R: Rng + ?Sized>(
        &self,
        state: &mut ParetoState,
        objective: &mut ParetoObjective,
        rng: &mut R,
    ) -> Result<(), EvoError> {
        if state.population.is_empty() {
            return Err(EvoError::InvalidConfig {
                detail: "step_generation on uninitialized state (call init_state)".into(),
            });
        }
        let config = *self.config();
        let generation = state.generation + 1;
        let mut span = hsconas_telemetry::span!("pareto.generation", gen = generation);
        let pool: Vec<ParetoIndividual> =
            state.population[..config.parents.min(state.population.len())].to_vec();
        let pool_archs: Vec<Arch> = pool.iter().map(|i| i.arch.clone()).collect();
        let mut next = pool;
        let mut seen: std::collections::HashSet<u64> =
            next.iter().map(|i| i.arch.fingerprint()).collect();
        let mut offspring: Vec<Arch> = Vec::with_capacity(config.population - next.len());
        while next.len() + offspring.len() < config.population {
            let mut arch = self.inner.make_offspring(&pool_archs, rng);
            for _ in 0..4 {
                if !seen.contains(&arch.fingerprint()) {
                    break;
                }
                let layer = rng.gen_range(0..arch.len());
                self.inner.mutate_gene(&mut arch, layer, rng);
            }
            seen.insert(arch.fingerprint());
            offspring.push(arch);
        }
        span.record("evals", offspring.len());
        state.evaluated += offspring.len() as u64;
        let evals = objective.evaluate_batch(&offspring)?;
        let scored: Vec<ParetoIndividual> = offspring
            .into_iter()
            .zip(evals)
            .map(|(arch, eval)| ParetoIndividual { arch, eval })
            .collect();
        state.archive = merge_archive(std::mem::take(&mut state.archive), &scored);
        next.extend(scored);
        reorder(&mut next);
        span.record("frontier", state.archive.len());
        state.population = next;
        state.generation = generation;
        Ok(())
    }

    /// Extracts the frontier from a completed — or partially completed —
    /// state.
    pub fn finalize(&self, state: &ParetoState, objective: &ParetoObjective) -> ParetoFrontier {
        ParetoFrontier {
            devices: objective.devices().to_vec(),
            points: state.archive.clone(),
            generations: state.generation,
            evaluated: state.evaluated,
        }
    }

    /// Runs the search to completion.
    ///
    /// # Errors
    ///
    /// Returns [`EvoError`] on an invalid configuration or objective
    /// failure.
    pub fn run<R: Rng + ?Sized>(
        &self,
        objective: &mut ParetoObjective,
        rng: &mut R,
    ) -> Result<ParetoFrontier, EvoError> {
        let _span = hsconas_telemetry::span!(
            "pareto.search",
            generations = self.config().generations,
            population = self.config().population,
            devices = objective.devices().len()
        );
        let mut state = self.init_state(objective, rng)?;
        while state.generation < self.config().generations {
            self.step_generation(&mut state, objective, rng)?;
        }
        Ok(self.finalize(&state, objective))
    }
}

/// Reorders a population into NSGA order: non-dominated rank first, then
/// descending crowding distance, then genome encoding (the deterministic
/// tie-break that makes selection thread- and permutation-stable).
fn reorder(population: &mut Vec<ParetoIndividual>) {
    let order = nsga_order(population);
    let mut taken: Vec<Option<ParetoIndividual>> =
        std::mem::take(population).into_iter().map(Some).collect();
    *population = order
        .into_iter()
        .map(|i| taken[i].take().expect("order is a permutation"))
        .collect();
}

fn nsga_order(pop: &[ParetoIndividual]) -> Vec<usize> {
    let fronts = nondominated_fronts(pop);
    let mut order = Vec::with_capacity(pop.len());
    for front in fronts {
        let crowd = crowding_distances(pop, &front);
        let mut ranked: Vec<(usize, f64)> = front.into_iter().zip(crowd).collect();
        ranked.sort_by(|(ia, da), (ib, db)| {
            db.partial_cmp(da)
                .expect("crowding distances are comparable")
                .then_with(|| pop[*ia].arch.encode().cmp(&pop[*ib].arch.encode()))
                .then(ia.cmp(ib))
        });
        order.extend(ranked.into_iter().map(|(i, _)| i));
    }
    order
}

/// Fast non-dominated sort (Deb et al.): returns index fronts, best first.
fn nondominated_fronts(pop: &[ParetoIndividual]) -> Vec<Vec<usize>> {
    let n = pop.len();
    let mut dominator_count = vec![0usize; n];
    let mut dominated: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if dominates(&pop[i].eval, &pop[j].eval) {
                dominated[i].push(j);
                dominator_count[j] += 1;
            } else if dominates(&pop[j].eval, &pop[i].eval) {
                dominated[j].push(i);
                dominator_count[i] += 1;
            }
        }
    }
    let mut fronts = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dominator_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated[i] {
                dominator_count[j] -= 1;
                if dominator_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        next.sort_unstable();
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Crowding distances for one front, aligned with `front` order. Boundary
/// points get `+∞`; interior points sum normalized neighbour gaps per
/// objective. Ties in objective values sort by front position, so the
/// result is deterministic.
fn crowding_distances(pop: &[ParetoIndividual], front: &[usize]) -> Vec<f64> {
    if front.len() <= 2 {
        return vec![f64::INFINITY; front.len()];
    }
    let num_objectives = 1 + pop[front[0]].eval.latencies_ms.len();
    let mut dist = vec![0.0f64; front.len()];
    for k in 0..num_objectives {
        let value = |idx: usize| -> f64 {
            let e = &pop[idx].eval;
            if k == 0 {
                e.accuracy
            } else {
                e.latencies_ms[k - 1]
            }
        };
        let mut order: Vec<usize> = (0..front.len()).collect();
        order.sort_by(|&a, &b| {
            value(front[a])
                .partial_cmp(&value(front[b]))
                .expect("objective values are comparable")
                .then(a.cmp(&b))
        });
        let first = order[0];
        let last = *order.last().expect("front is non-empty");
        dist[first] = f64::INFINITY;
        dist[last] = f64::INFINITY;
        let range = value(front[last]) - value(front[first]);
        if range <= 0.0 {
            continue;
        }
        for w in 1..order.len() - 1 {
            let gap = value(front[order[w + 1]]) - value(front[order[w - 1]]);
            if dist[order[w]].is_finite() {
                dist[order[w]] += gap / range;
            }
        }
    }
    dist
}

/// Merges freshly scored candidates into the non-dominated archive:
/// dedups by fingerprint (archive first — evaluations are deterministic,
/// so duplicates carry identical vectors), keeps exactly the mutually
/// non-dominated subset, and sorts by genome encoding.
fn merge_archive(
    archive: Vec<ParetoIndividual>,
    fresh: &[ParetoIndividual],
) -> Vec<ParetoIndividual> {
    let mut seen: std::collections::HashSet<u64> =
        archive.iter().map(|i| i.arch.fingerprint()).collect();
    let mut pool = archive;
    for candidate in fresh {
        if seen.insert(candidate.arch.fingerprint()) {
            pool.push(candidate.clone());
        }
    }
    let keep: Vec<bool> = pool
        .iter()
        .map(|a| !pool.iter().any(|b| dominates(&b.eval, &a.eval)))
        .collect();
    let mut kept: Vec<ParetoIndividual> = pool
        .into_iter()
        .zip(keep)
        .filter_map(|(ind, keep)| keep.then_some(ind))
        .collect();
    kept.sort_by_key(|a| a.arch.encode());
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Evaluation, MemoObjective, ParallelObjective};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Synthetic device: accuracy rewards width; each device weights
    /// layers differently so widening trades off differently per device.
    fn device_objective(weight: f64) -> Box<dyn Objective> {
        struct Sim {
            weight: f64,
        }
        impl Objective for Sim {
            fn evaluate(&mut self, arch: &Arch) -> Result<Evaluation, EvoError> {
                let width: f64 = arch.genes().iter().map(|g| g.scale.fraction()).sum();
                let latency_ms: f64 = arch
                    .genes()
                    .iter()
                    .enumerate()
                    .map(|(i, g)| g.scale.fraction() * (1.0 + self.weight * i as f64))
                    .sum();
                Ok(Evaluation {
                    score: -latency_ms,
                    accuracy: 50.0 + width,
                    latency_ms,
                })
            }
        }
        Box::new(Sim { weight })
    }

    fn objective_with_order(names: &[&str], weights: &[f64]) -> ParetoObjective {
        ParetoObjective::new(
            names
                .iter()
                .zip(weights)
                .map(|(n, &w)| (n.to_string(), device_objective(w)))
                .collect(),
        )
        .unwrap()
    }

    fn small_config() -> EvolutionConfig {
        EvolutionConfig {
            generations: 4,
            population: 16,
            parents: 6,
            ..Default::default()
        }
    }

    #[test]
    fn dominance_definition() {
        let a = ParetoEval {
            accuracy: 80.0,
            latencies_ms: vec![1.0, 2.0],
        };
        let worse = ParetoEval {
            accuracy: 79.0,
            latencies_ms: vec![1.0, 3.0],
        };
        let incomparable = ParetoEval {
            accuracy: 81.0,
            latencies_ms: vec![2.0, 1.0],
        };
        assert!(dominates(&a, &worse));
        assert!(!dominates(&worse, &a));
        assert!(!dominates(&a, &incomparable));
        assert!(!dominates(&incomparable, &a));
        assert!(!dominates(&a, &a), "dominance is irreflexive");
    }

    #[test]
    fn empty_and_duplicate_devices_are_typed_errors() {
        assert!(matches!(
            ParetoObjective::new(vec![]),
            Err(EvoError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ParetoObjective::new(vec![
                ("cpu".to_string(), device_objective(0.1)),
                ("cpu".to_string(), device_objective(0.2)),
            ]),
            Err(EvoError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn frontier_is_mutually_non_dominated() {
        let space = SearchSpace::tiny(8);
        let mut obj = objective_with_order(&["cpu", "edge", "gpu"], &[0.05, 0.4, 0.01]);
        let mut rng = StdRng::seed_from_u64(3);
        let frontier = ParetoSearch::new(space, small_config())
            .run(&mut obj, &mut rng)
            .unwrap();
        assert!(!frontier.points.is_empty());
        for a in &frontier.points {
            for b in &frontier.points {
                assert!(
                    !dominates(&a.eval, &b.eval),
                    "frontier point dominated by another frontier point"
                );
            }
        }
    }

    #[test]
    fn frontier_is_stable_under_device_permutation() {
        let space = SearchSpace::tiny(8);
        let run = |names: &[&str], weights: &[f64]| {
            let mut obj = objective_with_order(names, weights);
            let mut rng = StdRng::seed_from_u64(9);
            ParetoSearch::new(space.clone(), small_config())
                .run(&mut obj, &mut rng)
                .unwrap()
        };
        let sorted = run(&["cpu", "edge", "gpu"], &[0.05, 0.4, 0.01]);
        let shuffled = run(&["gpu", "cpu", "edge"], &[0.01, 0.05, 0.4]);
        assert_eq!(sorted, shuffled, "device order must not matter");
        assert_eq!(sorted.devices, vec!["cpu", "edge", "gpu"]);
    }

    #[test]
    fn frontier_is_bit_identical_across_thread_counts() {
        let space = SearchSpace::tiny(8);
        let run = |threads: usize| {
            let eval = |arch: &Arch| device_objective(0.2).evaluate(arch);
            let per_device: Vec<(String, Box<dyn Objective>)> = vec![(
                "cpu".to_string(),
                Box::new(MemoObjective::new(ParallelObjective::new(eval, threads)))
                    as Box<dyn Objective>,
            )];
            let mut obj = ParetoObjective::new(per_device).unwrap();
            let mut rng = StdRng::seed_from_u64(17);
            ParetoSearch::new(space.clone(), small_config())
                .run(&mut obj, &mut rng)
                .unwrap()
        };
        assert_eq!(run(1), run(8), "thread count must not change the frontier");
    }

    #[test]
    fn snapshot_resume_reproduces_the_frontier() {
        let space = SearchSpace::tiny(8);
        let search = ParetoSearch::new(space, small_config());
        let mut obj = objective_with_order(&["cpu", "gpu"], &[0.05, 0.3]);
        let mut rng = StdRng::seed_from_u64(21);
        let mut state = search.init_state(&mut obj, &mut rng).unwrap();
        search
            .step_generation(&mut state, &mut obj, &mut rng)
            .unwrap();
        let (snapshot, rng_state) = (state.clone(), rng.state());
        while state.generation < search.config().generations {
            search
                .step_generation(&mut state, &mut obj, &mut rng)
                .unwrap();
        }
        let full = search.finalize(&state, &obj);
        // "Kill" and resume from the persisted (state, rng) pair.
        let mut state = snapshot;
        let mut rng = StdRng::from_state(rng_state);
        let mut obj = objective_with_order(&["cpu", "gpu"], &[0.05, 0.3]);
        while state.generation < search.config().generations {
            search
                .step_generation(&mut state, &mut obj, &mut rng)
                .unwrap();
        }
        assert_eq!(full, search.finalize(&state, &obj));
    }

    #[test]
    fn uninitialized_state_is_a_typed_error() {
        let search = ParetoSearch::new(SearchSpace::tiny(4), small_config());
        let mut obj = objective_with_order(&["cpu"], &[0.1]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut state = ParetoState::default();
        assert!(matches!(
            search.step_generation(&mut state, &mut obj, &mut rng),
            Err(EvoError::InvalidConfig { .. })
        ));
    }
}
