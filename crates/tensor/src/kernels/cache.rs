//! Persistent packed-panel cache for GEMM weight operands.
//!
//! The blocked driver in [`super`] re-packs its operands into microkernel
//! panels on every call. For activations that is the right trade — they
//! change every forward — but supernet *weights* are reused across every
//! image of every batch of every candidate evaluation in a generation, and
//! steady-state population evaluation was re-packing identical panels
//! thousands of times per generation. This module caches the fully packed
//! form of tagged operands (weights on the forward `W·col` / `x·Wᵀ`
//! products and on the backward `Wᵀ·dOut` / `dy·W` products) so each
//! weight matrix is packed once per mutation generation instead of once
//! per GEMM.
//!
//! ## Keys, invalidation, and bit-identity
//!
//! Entries are keyed by everything that determines the packed bytes: the
//! tensor's unique id and slice offset ([`PackTag`]), the operand side
//! (`a` vs `b` panels), the logical dimensions, the element strides
//! (which absorb transposition), the k-blocking `kc`, and the microkernel
//! tile width (`MR`/`NR`). The tag also carries the tensor's mutation
//! `version` and a channel-mask signature; a lookup whose stored version
//! or mask signature differs repacks in place — this is how "invalidate
//! on every weight update" works without explicit hooks: every `&mut`
//! access to a tensor bumps its version ([`crate::Tensor::data_mut`] and
//! friends), so the first GEMM after an optimizer step misses and
//! repacks.
//!
//! Cached panels are produced by the same [`super::pack`] routines as the
//! per-call scratch path, over the same `MR`/`NR`-aligned row/column sets,
//! so the bytes the microkernel reads are identical with the cache on or
//! off — the determinism gates assert this bitwise. The channel-mask
//! zero-panel bitmask is preserved in cached form (one bit per `MR`-row
//! panel per k-block), so masked-channel skipping works unchanged on the
//! cached path.
//!
//! ## Clones never alias cache entries
//!
//! `Tensor::clone` deliberately takes a **fresh id** (and version 0) even
//! though the cloned bytes are bit-identical to the original's. This is
//! intended, not an oversight: an id identifies a *buffer lineage*, and
//! sharing one across clones would let a later `&mut` mutation of the
//! original serve stale panels to GEMMs on the clone (or vice versa) —
//! version bumps on one lineage cannot invalidate the other. The cost is
//! one redundant pack per cloned weight, which steady-state workloads
//! never pay (weights are cloned rarely; activations are never tagged).
//! A future "optimization" that aliases clone ids would silently break
//! the invalidation contract; `clone_takes_fresh_pack_identity` in
//! `tests/pack_cache.rs` pins the fresh-id behaviour.
//!
//! ## Memory
//!
//! The cache is process-global behind a mutex (entries are shared
//! `Arc`s; the driver resolves them before any band fan-out) and holds at
//! most [`DEFAULT_BUDGET_BYTES`] of packed data under LRU eviction —
//! like the supernet's prefix-activation cache, but for weights. Lookups
//! on the hit path perform no heap allocation, which keeps the
//! steady-state alloc-budget gate green with the cache enabled.

use super::pack::{pack_a, pack_b, Layout};
use hsconas_telemetry::Counter;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default byte budget for cached packed panels (64 MiB).
pub const DEFAULT_BUDGET_BYTES: usize = 64 * 1024 * 1024;

/// Cache identity of a GEMM operand: which tensor buffer (and offset into
/// it) the operand is, at which mutation generation, under which channel
/// mask. Obtained from [`crate::Tensor::pack_tag`] /
/// [`crate::Tensor::pack_tag_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackTag {
    /// Unique tensor id (never reused within a process).
    pub id: u64,
    /// Mutation generation at the time the tag was taken.
    pub version: u64,
    /// Element offset of the operand slice within the tensor's buffer.
    pub offset: usize,
    /// Channel-mask signature. Weights are currently never masked (the
    /// supernet masks activations), so this is `0` today; it is part of
    /// the key so a future masked-weight path invalidates correctly.
    pub mask_sig: u64,
}

/// Which operand of the product an entry packs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Side {
    /// `MR`-row a-panels (with zero-panel masks).
    A,
    /// `NR`-column b-panels.
    B,
}

/// Everything that determines the packed bytes, minus the mutation
/// version (stored in the entry and checked on lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PackKey {
    id: u64,
    offset: usize,
    side: Side,
    /// Element strides of the logical operand view (absorb transposition).
    rs: usize,
    cs: usize,
    /// k-dimension cache block the panels are grouped by.
    kc: usize,
    /// Microkernel tile size (`MR` for a-panels, `NR` for b-panels).
    tile: usize,
    /// Logical operand dimensions: `(m, k)` for side A, `(k, n)` for B.
    rows: usize,
    cols: usize,
}

/// A fully packed operand: every `kc`-block of the matrix in panel order.
///
/// Layout: k-blocks of depth `kc` (the last possibly shallower) are
/// concatenated; within a block, panels are consecutive, each
/// `block_depth × tile` in the layout [`super::pack`] documents. The
/// element base of the block starting at k-offset `pc` is
/// `panels_total · tile · pc` (each preceding block consumed
/// `panels_total · tile · depth` elements and the depths sum to `pc`).
#[derive(Debug)]
pub struct PackedMatrix {
    /// Packed panel data.
    pub(crate) data: Vec<f32>,
    /// Zero-panel bits, side A only: one bit per `MR`-row panel per
    /// k-block, `words_per_block` words per block, panel `p`'s bit at
    /// word `p / 64`, bit `p % 64`. Empty for side B.
    pub(crate) masks: Vec<u64>,
    /// Mask words per k-block.
    pub(crate) words_per_block: usize,
}

impl PackedMatrix {
    fn bytes(&self) -> usize {
        self.data.len() * 4 + self.masks.len() * 8
    }

    pub(crate) fn as_ref(&self) -> PackedRef<'_> {
        PackedRef {
            data: &self.data,
            masks: &self.masks,
            words_per_block: self.words_per_block,
        }
    }
}

/// Borrowed view of a [`PackedMatrix`] — what the driver actually reads,
/// so a one-shot full pack in scratch memory (the parallel driver's
/// shared b-panels when no cache entry applies) uses the same code path
/// as a cache hit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedRef<'s> {
    pub(crate) data: &'s [f32],
    pub(crate) masks: &'s [u64],
    pub(crate) words_per_block: usize,
}

struct Entry {
    version: u64,
    mask_sig: u64,
    tick: u64,
    packed: Arc<PackedMatrix>,
}

#[derive(Default)]
struct CacheState {
    map: HashMap<PackKey, Entry>,
    bytes: usize,
    tick: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(true);
static BUDGET: AtomicUsize = AtomicUsize::new(DEFAULT_BUDGET_BYTES);

fn state() -> &'static Mutex<CacheState> {
    static STATE: OnceLock<Mutex<CacheState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(CacheState::default()))
}

/// Hit/miss/evict/invalidate counters (`kernel.pack_cache.*`), registered
/// once like the dispatch counters in [`super`]; [`stats`] reads them.
fn counters() -> &'static [Counter; 4] {
    static CELLS: OnceLock<[Counter; 4]> = OnceLock::new();
    CELLS.get_or_init(|| {
        [
            Counter::register("kernel.pack_cache.hit"),
            Counter::register("kernel.pack_cache.miss"),
            Counter::register("kernel.pack_cache.evict"),
            Counter::register("kernel.pack_cache.invalidate"),
        ]
    })
}

const HIT: usize = 0;
const MISS: usize = 1;
const EVICT: usize = 2;
const INVALIDATE: usize = 3;

/// Enables or disables the cache process-wide. Disabling does not drop
/// existing entries (use [`clear`]); it makes every lookup a pass-through
/// so A/B runs and the differential gates can compare cached vs uncached
/// packing on the same process.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether tagged GEMM operands consult the cache.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the byte budget for cached packed data; eviction is LRU.
pub fn set_budget_bytes(budget: usize) {
    BUDGET.store(budget, Ordering::Relaxed);
}

/// Drops every entry (counters are kept; they are process totals).
pub fn clear() {
    let mut s = lock_state();
    s.map.clear();
    s.bytes = 0;
}

/// Counter snapshot of the pack cache (serve `status`, bench snapshots,
/// tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct PackCacheStats {
    /// Lookups served from a cached entry.
    pub hits: u64,
    /// Lookups that packed fresh panels (first use of a weight).
    pub misses: u64,
    /// Entries dropped by the LRU byte budget.
    pub evictions: u64,
    /// Entries repacked because the tensor's version or mask signature
    /// changed (weight updates).
    pub invalidations: u64,
    /// Live entries.
    pub entries: usize,
    /// Bytes of packed data currently held.
    pub bytes: usize,
}

impl PackCacheStats {
    /// Hits over total lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.invalidations;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Snapshot of the cache counters and occupancy.
pub fn stats() -> PackCacheStats {
    let s = lock_state();
    let c = counters();
    PackCacheStats {
        hits: c[HIT].get(),
        misses: c[MISS].get(),
        evictions: c[EVICT].get(),
        invalidations: c[INVALIDATE].get(),
        entries: s.map.len(),
        bytes: s.bytes,
    }
}

fn lock_state() -> std::sync::MutexGuard<'static, CacheState> {
    // A panic mid-insert cannot leave partial state (entries are inserted
    // whole), so a poisoned lock is safe to re-enter.
    state()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Serializes tests that flip the process-global cache configuration
/// (enabled flag, byte budget, [`clear`]) so they cannot evict or bypass
/// entries under concurrently running tests that assert on hits.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// full-matrix packing

/// Packed length of a full side-A operand: `⌈m/mr⌉·mr·k` elements.
pub(crate) fn full_a_len(m: usize, k: usize, mr: usize) -> usize {
    m.div_ceil(mr) * mr * k
}

/// Packed length of a full side-B operand: `⌈n/nr⌉·nr·k` elements.
pub(crate) fn full_b_len(k: usize, n: usize, nr: usize) -> usize {
    n.div_ceil(nr) * nr * k
}

/// Packs every `kc`-block of the full `m×k` logical `a` into `out`
/// (layout per [`PackedMatrix`]) and records the zero-panel bit of every
/// panel in `masks`. The panels are produced by [`pack_a`] over the same
/// `MR`-aligned row sets as the per-call scratch path, so the bytes are
/// identical to what an uncached call packs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_full_a(
    a: &[f32],
    la: Layout,
    m: usize,
    k: usize,
    kc: usize,
    mr: usize,
    out: &mut [f32],
    masks: &mut [u64],
) {
    let panels = m.div_ceil(mr);
    let words = panels.div_ceil(64);
    let mut pc = 0;
    let mut block = 0;
    while pc < k {
        let depth = kc.min(k - pc);
        let base = panels * mr * pc;
        // pack_a's zero-mask is a u64, so feed it ≤ 64 panels at a time;
        // chunk boundaries are 64-panel aligned so each chunk's mask lands
        // in exactly one word.
        let mut p0 = 0;
        while p0 < panels {
            let chunk = 64.min(panels - p0);
            let ic = p0 * mr;
            let mc = (chunk * mr).min(m - ic);
            let off = base + p0 * depth * mr;
            let mask = pack_a(
                a,
                la,
                ic,
                mc,
                pc,
                depth,
                mr,
                &mut out[off..off + chunk * depth * mr],
            );
            masks[block * words + p0 / 64] = mask;
            p0 += chunk;
        }
        pc += depth;
        block += 1;
    }
}

/// Packs every `kc`-block of the full `k×n` logical `b` into `out`
/// (layout per [`PackedMatrix`]).
pub(crate) fn pack_full_b(
    b: &[f32],
    lb: Layout,
    k: usize,
    n: usize,
    kc: usize,
    nr: usize,
    out: &mut [f32],
) {
    let panels = n.div_ceil(nr);
    let mut pc = 0;
    while pc < k {
        let depth = kc.min(k - pc);
        let base = panels * nr * pc;
        pack_b(
            b,
            lb,
            pc,
            depth,
            0,
            n,
            nr,
            &mut out[base..base + panels * depth * nr],
        );
        pc += depth;
    }
}

/// Extracts `count` (≤ 64) zero-panel bits starting at panel `start` from
/// one k-block's mask words.
pub(crate) fn extract_mask(words: &[u64], start: usize, count: usize) -> u64 {
    debug_assert!(count <= 64);
    if count == 0 {
        return 0;
    }
    let w = start / 64;
    let bit = start % 64;
    let mut x = words[w] >> bit;
    if bit != 0 && w + 1 < words.len() {
        x |= words[w + 1] << (64 - bit);
    }
    if count < 64 {
        x &= (1u64 << count) - 1;
    }
    x
}

// ---------------------------------------------------------------------------
// lookup

/// Cached (or freshly packed) a-panels for a tagged operand; `None` when
/// the cache is disabled.
pub(crate) fn get_or_pack_a(
    tag: PackTag,
    a: &[f32],
    la: Layout,
    m: usize,
    k: usize,
    kc: usize,
    mr: usize,
) -> Option<Arc<PackedMatrix>> {
    if !is_enabled() || m == 0 || k == 0 {
        return None;
    }
    let key = PackKey {
        id: tag.id,
        offset: tag.offset,
        side: Side::A,
        rs: la.rs,
        cs: la.cs,
        kc,
        tile: mr,
        rows: m,
        cols: k,
    };
    Some(lookup_or_insert(key, tag, || {
        let panels = m.div_ceil(mr);
        let words = panels.div_ceil(64);
        let blocks = k.div_ceil(kc);
        let mut data = vec![0.0f32; full_a_len(m, k, mr)];
        let mut masks = vec![0u64; blocks * words];
        pack_full_a(a, la, m, k, kc, mr, &mut data, &mut masks);
        PackedMatrix {
            data,
            masks,
            words_per_block: words,
        }
    }))
}

/// Cached (or freshly packed) b-panels for a tagged operand; `None` when
/// the cache is disabled.
pub(crate) fn get_or_pack_b(
    tag: PackTag,
    b: &[f32],
    lb: Layout,
    k: usize,
    n: usize,
    kc: usize,
    nr: usize,
) -> Option<Arc<PackedMatrix>> {
    if !is_enabled() || k == 0 || n == 0 {
        return None;
    }
    let key = PackKey {
        id: tag.id,
        offset: tag.offset,
        side: Side::B,
        rs: lb.rs,
        cs: lb.cs,
        kc,
        tile: nr,
        rows: k,
        cols: n,
    };
    Some(lookup_or_insert(key, tag, || {
        let mut data = vec![0.0f32; full_b_len(k, n, nr)];
        pack_full_b(b, lb, k, n, kc, nr, &mut data);
        PackedMatrix {
            data,
            masks: Vec::new(),
            words_per_block: 0,
        }
    }))
}

fn lookup_or_insert(
    key: PackKey,
    tag: PackTag,
    build: impl FnOnce() -> PackedMatrix,
) -> Arc<PackedMatrix> {
    {
        let mut s = lock_state();
        let next_tick = s.tick + 1;
        s.tick = next_tick;
        match s.map.get_mut(&key) {
            Some(e) if e.version == tag.version && e.mask_sig == tag.mask_sig => {
                e.tick = next_tick;
                counters()[HIT].incr();
                return Arc::clone(&e.packed);
            }
            Some(_) => {
                // Stale generation: the weight was updated since this was
                // packed. Drop it; the rebuild below replaces it.
                let e = s.map.remove(&key).expect("entry present");
                s.bytes -= e.packed.bytes();
                counters()[INVALIDATE].incr();
            }
            None => counters()[MISS].incr(),
        }
    }
    // Pack outside the lock: misses on distinct weights from concurrent
    // evaluation workers should not serialize on the global mutex. Two
    // racing builders produce byte-identical panels; last insert wins.
    let packed = Arc::new(build());
    let mut s = lock_state();
    s.tick += 1;
    let tick = s.tick;
    if let Some(old) = s.map.insert(
        key,
        Entry {
            version: tag.version,
            mask_sig: tag.mask_sig,
            tick,
            packed: Arc::clone(&packed),
        },
    ) {
        s.bytes -= old.packed.bytes();
    }
    s.bytes += packed.bytes();
    let budget = BUDGET.load(Ordering::Relaxed);
    while s.bytes > budget && s.map.len() > 1 {
        let lru = s
            .map
            .iter()
            .filter(|(k2, _)| **k2 != key)
            .min_by_key(|(_, e)| e.tick)
            .map(|(k2, _)| *k2);
        match lru {
            Some(victim) => {
                let e = s.map.remove(&victim).expect("victim present");
                s.bytes -= e.packed.bytes();
                counters()[EVICT].incr();
            }
            None => break,
        }
    }
    packed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(id: u64, version: u64) -> PackTag {
        PackTag {
            id,
            version,
            offset: 0,
            mask_sig: 0,
        }
    }

    /// Cached full-matrix packs must be byte-identical to the per-block
    /// scratch packs the serial driver produces, for every (jc, pc, ic)
    /// block the driver would visit.
    #[test]
    fn full_packs_match_per_block_packs() {
        let (m, k, n) = (13, 37, 29);
        let (mr, nr, kc) = (4usize, 8usize, 16usize);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32).cos()).collect();
        let la = Layout::row_major(k);
        let lb = Layout::row_major(n);

        let apanels = m.div_ceil(mr);
        let mut afull = vec![0.0; full_a_len(m, k, mr)];
        let mut masks = vec![0u64; k.div_ceil(kc) * apanels.div_ceil(64)];
        pack_full_a(&a, la, m, k, kc, mr, &mut afull, &mut masks);
        let bpanels = n.div_ceil(nr);
        let mut bfull = vec![0.0; full_b_len(k, n, nr)];
        pack_full_b(&b, lb, k, n, kc, nr, &mut bfull);

        let mut pc = 0;
        while pc < k {
            let depth = kc.min(k - pc);
            // A: per-mc blocks of 8 rows (2 panels).
            let mut ic = 0;
            while ic < m {
                let mc = 8.min(m - ic);
                let mut scratch = vec![0.0; mc.div_ceil(mr) * mr * depth];
                let mask = pack_a(&a, la, ic, mc, pc, depth, mr, &mut scratch);
                let base = apanels * mr * pc + (ic / mr) * depth * mr;
                assert_eq!(
                    &afull[base..base + scratch.len()],
                    scratch.as_slice(),
                    "a block ic={ic} pc={pc}"
                );
                let block = pc / kc;
                let words = apanels.div_ceil(64);
                let cached_mask = extract_mask(
                    &masks[block * words..(block + 1) * words],
                    ic / mr,
                    mc.div_ceil(mr),
                );
                assert_eq!(cached_mask, mask, "mask ic={ic} pc={pc}");
                ic += mc;
            }
            // B: per-nc blocks of 16 columns (2 panels).
            let mut jc = 0;
            while jc < n {
                let nc = 16.min(n - jc);
                let mut scratch = vec![0.0; nc.div_ceil(nr) * nr * depth];
                pack_b(&b, lb, pc, depth, jc, nc, nr, &mut scratch);
                let base = bpanels * nr * pc + (jc / nr) * depth * nr;
                assert_eq!(
                    &bfull[base..base + scratch.len()],
                    scratch.as_slice(),
                    "b block jc={jc} pc={pc}"
                );
                jc += nc;
            }
            pc += depth;
        }
    }

    #[test]
    fn full_a_mask_flags_zero_panels() {
        // Rows 4..8 zeroed with mr=4: panel 1 of every k-block flagged.
        let (m, k) = (12, 40);
        let mut a = vec![1.0f32; m * k];
        a[4 * k..8 * k].fill(0.0);
        let mut out = vec![0.0; full_a_len(m, k, 4)];
        let mut masks = vec![0u64; k.div_ceil(16)];
        pack_full_a(&a, Layout::row_major(k), m, k, 16, 4, &mut out, &mut masks);
        for (i, w) in masks.iter().enumerate() {
            assert_eq!(*w, 0b010, "block {i}");
        }
    }

    #[test]
    fn extract_mask_handles_word_boundaries() {
        let words = [0xFF00_0000_0000_0000u64, 0x0000_0000_0000_00FF];
        assert_eq!(extract_mask(&words, 0, 8), 0);
        assert_eq!(extract_mask(&words, 56, 8), 0xFF);
        assert_eq!(extract_mask(&words, 60, 8), 0xFF);
        assert_eq!(extract_mask(&words, 64, 8), 0xFF);
        assert_eq!(extract_mask(&words, 0, 64), 0xFF00_0000_0000_0000);
        assert_eq!(extract_mask(&words, 4, 0), 0);
    }

    #[test]
    fn lookup_hits_invalidates_and_evicts() {
        let _guard = test_lock();
        // Use synthetic ids so this test's keys cannot collide with
        // entries other tests insert (the cache is process-global); the
        // counter assertions use >= because unrelated tests may bump the
        // global counters concurrently.
        let dims = (24usize, 31usize);
        let a: Vec<f32> = (0..dims.0 * dims.1).map(|i| i as f32).collect();
        let la = Layout::row_major(dims.1);
        let base = stats();

        let t = tag(u64::MAX - 1, 1);
        let p1 = get_or_pack_a(t, &a, la, dims.0, dims.1, 16, 4).unwrap();
        let p2 = get_or_pack_a(t, &a, la, dims.0, dims.1, 16, 4).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "second lookup must hit");
        let s = stats();
        assert!(s.hits > base.hits);
        assert!(s.misses > base.misses);

        // New version: invalidation, not a hit.
        let p3 = get_or_pack_a(tag(u64::MAX - 1, 2), &a, la, dims.0, dims.1, 16, 4).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert!(stats().invalidations > base.invalidations);
        assert_eq!(p1.data, p3.data, "same bytes, new generation");

        // Different mask signature is also a repack.
        let mut t4 = tag(u64::MAX - 1, 2);
        t4.mask_sig = 9;
        get_or_pack_a(t4, &a, la, dims.0, dims.1, 16, 4).unwrap();
        assert!(stats().invalidations >= base.invalidations + 2);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        // Tiny budget: inserting a second entry evicts the first, but the
        // entry being inserted always survives.
        let _guard = test_lock();
        let saved_enabled = is_enabled();
        set_enabled(true);
        clear();
        set_budget_bytes(1024);
        let base = stats();
        let b: Vec<f32> = (0..64 * 64).map(|i| i as f32).collect();
        let lb = Layout::row_major(64);
        let first = tag(u64::MAX - 2, 1);
        get_or_pack_b(first, &b, lb, 64, 64, 32, 8).unwrap();
        let p2 = get_or_pack_b(tag(u64::MAX - 3, 1), &b, lb, 64, 64, 32, 8).unwrap();
        let s = stats();
        assert!(s.evictions > base.evictions, "budget must force eviction");
        // The newest entry always survives its own insert.
        let p2_again = get_or_pack_b(tag(u64::MAX - 3, 1), &b, lb, 64, 64, 32, 8).unwrap();
        assert!(Arc::ptr_eq(&p2, &p2_again));
        set_budget_bytes(DEFAULT_BUDGET_BYTES);
        clear();
        set_enabled(saved_enabled);
    }

    #[test]
    fn disabled_cache_returns_none() {
        let _guard = test_lock();
        let saved = is_enabled();
        set_enabled(false);
        let a = vec![1.0f32; 16];
        assert!(get_or_pack_a(tag(1, 1), &a, Layout::row_major(4), 4, 4, 4, 4).is_none());
        set_enabled(saved);
    }

    #[test]
    fn degenerate_dims_bypass_the_cache() {
        let a: Vec<f32> = vec![];
        assert!(get_or_pack_a(tag(2, 1), &a, Layout::row_major(1), 0, 4, 4, 4).is_none());
        assert!(get_or_pack_b(tag(2, 1), &a, Layout::row_major(1), 4, 0, 4, 8).is_none());
    }
}
