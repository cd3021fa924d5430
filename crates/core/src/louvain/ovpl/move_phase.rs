//! The OVPL block move phase (Section 5.2).
//!
//! Per block: walk neighbor slots `0..max_deg`. Slot `i` loads the `i`-th
//! neighbor of all 16 vertices with one aligned vector load, gathers their
//! communities, computes the interleaved affinity index
//! `community * 16 + lane`, and does gather → add → scatter. No reduce step
//! is needed: the low 4 index bits are the lane, so no two lanes ever write
//! the same accumulator — the conflict-freedom OVPL buys with its
//! preprocessing. Below `min_deg` no existence mask is computed (the paper's
//! optimization); above it, lanes whose vertex has run out of neighbors are
//! masked off via the [`SENTINEL`] compare.
//!
//! The affinity store is `16 × n` floats per worker — the "much higher
//! memory utilization than PLM" (and the reason some paper runs OOM'd).

use super::blocks::{Block, OvplLayout, SENTINEL};
use super::super::{delta_mod, LouvainConfig, MovePhaseStats, MoveState};
use crate::frontier::{run_chunked, Frontier, SweepMode};
use gp_metrics::telemetry::{NoopRecorder, Recorder};
use gp_simd::backend::Simd;
use gp_simd::vector::{Mask16, LANES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-worker OVPL buffers: interleaved affinity accumulators and per-lane
/// touched lists.
pub struct BlockBuf {
    /// `aff[c * 16 + lane]` = affinity of lane's vertex to community `c`.
    aff: Vec<f32>,
    /// Touched communities per lane (for reset and selection).
    touched: [Vec<u32>; LANES],
}

impl BlockBuf {
    /// Allocates buffers for community ids `< n`.
    pub fn new(n: usize) -> Self {
        BlockBuf {
            aff: vec![0.0; n * LANES],
            touched: std::array::from_fn(|_| Vec::with_capacity(32)),
        }
    }

    #[inline]
    fn reset(&mut self) {
        for lane in 0..LANES {
            for &c in &self.touched[lane] {
                self.aff[c as usize * LANES + lane] = 0.0;
            }
            self.touched[lane].clear();
        }
    }
}

/// Views the atomic community array as gatherable `i32`s (same benign-race
/// pattern as ONPL).
#[inline(always)]
fn zeta_view(zeta: &[std::sync::atomic::AtomicU32]) -> &[i32] {
    // SAFETY: AtomicU32 is repr(transparent) over u32.
    unsafe { std::slice::from_raw_parts(zeta.as_ptr() as *const i32, zeta.len()) }
}

/// Processes one block: vectorized affinity accumulation, then the paper's
/// "natural" per-lane move selection and application. Only *active* lanes
/// (per `fr`) select and apply moves — the affinity pass runs for every
/// lane, so both sweep modes compute identical per-lane accumulators and
/// the full/active outputs stay bit-identical. Returns moves applied.
#[allow(clippy::too_many_arguments)] // mirrors the kernel's data flow
#[inline]
fn process_block<S: Simd>(
    s: &S,
    layout: &OvplLayout,
    block: &Block,
    state: &MoveState,
    fr: &Frontier,
    buf: &mut BlockBuf,
    inv_m: f32,
    inv_2m2: f32,
) -> u64 {
    s.vectorize(|| {
        if block.is_empty() || block.max_deg == 0 {
            return 0;
        }
        let zeta = zeta_view(&state.zeta);
        let vids_v = s.from_array_i32(block.vertices);
        let valid: Mask16 = s.cmpneq_i32(vids_v, s.splat_i32(SENTINEL));
        let sentinel_v = s.splat_i32(SENTINEL);
        let lane_iota = s.from_array_i32(std::array::from_fn(|i| i as i32));

        for i in 0..block.max_deg as usize {
            let slot = block.offset + i * LANES;
            let nbrs = s.load_i32(&layout.nbrs[slot..]);
            // Existence checks only past min_deg (the paper's saving); self-loop
            // lanes are always excluded from affinity.
            let mut mask = if i < block.min_deg as usize {
                valid
            } else {
                valid.and(s.cmpneq_i32(nbrs, sentinel_v))
            };
            mask = mask.and(s.cmpneq_i32(nbrs, vids_v));
            if mask.is_empty() {
                continue;
            }
            let wts = s.load_f32(&layout.wts[slot..]);
            // SAFETY: neighbor ids < |V| (CSR invariant carried into the layout).
            let zs = unsafe { s.gather_i32(zeta, nbrs, mask, s.splat_i32(0)) };
            // Interleaved index: community * 16 + lane — per-lane disjoint, so a
            // plain gather/add/scatter is exact.
            let idx = s.or_i32(s.shl_i32::<4>(zs), lane_iota);
            // SAFETY: idx < 16 * n = buf.aff.len().
            let zero_f = s.splat_f32(0.0);
            let cur = unsafe { s.gather_f32(&buf.aff, idx, mask, zero_f) };
            // First touch per lane: the gathered accumulator is still zero —
            // keeps the per-lane touched lists duplicate-free for free.
            let fresh = s.cmpeq_f32(cur, zero_f).and(mask);
            let upd = s.mask_add_f32(cur, mask, cur, wts);
            unsafe { s.scatter_f32(&mut buf.aff, idx, upd, mask) };

            let z_arr = s.to_array_i32(zs);
            for lane in fresh.iter_set() {
                buf.touched[lane].push(z_arr[lane] as u32);
            }
        }

        // Per-lane selection and application ("done without particular
        // optimization using a natural way of performing this task").
        let mut moves = 0u64;
        for (lane, u) in block.iter_real() {
            if !fr.is_active(u) {
                continue;
            }
            let touched = &buf.touched[lane];
            if touched.is_empty() {
                continue;
            }
            let c = state.community(u);
            let vol_u = state.vertex_volume[u as usize];
            let vol_c_without_u = state.volume[c as usize].load() - vol_u;
            let aff_c = buf.aff[c as usize * LANES + lane];
            let mut best_delta = 0.0f32;
            let mut best = c;
            for &d in touched {
                if d == c {
                    continue;
                }
                let delta = delta_mod(
                    aff_c,
                    buf.aff[d as usize * LANES + lane],
                    vol_c_without_u,
                    state.volume[d as usize].load(),
                    vol_u,
                    inv_m,
                    inv_2m2,
                );
                if delta > best_delta {
                    best_delta = delta;
                    best = d;
                }
            }
            if best != c && best_delta > 0.0 {
                state.apply_move(u, c, best);
                moves += 1;
                // Wake the neighbors: walk this lane's interleaved slots (the
                // layout is the only adjacency OVPL has at hand).
                for i in 0..block.max_deg as usize {
                    let v = layout.nbrs[block.offset + i * LANES + lane];
                    if v != SENTINEL {
                        fr.activate(v as u32);
                    }
                }
            }
            if S::IS_COUNTED {
                // The per-lane selection is deliberately scalar (the paper's
                // "natural way"); charge ~4 scalar ops per candidate community.
                use gp_simd::counters::{record, OpClass};
                let k = touched.len() as u64;
                record(OpClass::ScalarRandLoad, 2 * k); // affinity + volume
                record(OpClass::ScalarAlu, 2 * k);
            }
        }
        buf.reset();
        moves
    })
}

/// One full move phase over the preprocessed layout.
pub fn move_phase_ovpl<S: Simd + Sync>(
    s: &S,
    layout: &OvplLayout,
    state: &MoveState,
    config: &LouvainConfig,
) -> MovePhaseStats {
    move_phase_ovpl_recorded(s, layout, state, config, &mut NoopRecorder)
}

/// [`move_phase_ovpl`] with per-sweep telemetry delivered to `rec`.
///
/// OVPL works off the preprocessed layout rather than the CSR graph, so
/// `quality_delta` is not computed here (it stays zero); the multilevel
/// driver still reports per-level modularity.
pub fn move_phase_ovpl_recorded<S: Simd + Sync, R: Recorder>(
    s: &S,
    layout: &OvplLayout,
    state: &MoveState,
    config: &LouvainConfig,
    rec: &mut R,
) -> MovePhaseStats {
    let n = state.len();
    let inv_m = (1.0 / state.total_weight) as f32;
    let inv_2m2 = (1.0 / (2.0 * state.total_weight * state.total_weight)) as f32;

    super::super::run_sweeps(
        config,
        n,
        |v| layout.degrees[v as usize] as u64,
        rec,
        || 0.0,
        // OVPL's blocked ELLPACK layout fixes the traversal granularity
        // itself; the locality plan does not apply, so the census is zeros.
        |_| crate::locality::BinTally::default(),
        |fr, _active_edges, rec| {
            let moved = AtomicU64::new(0);
            // Block-granularity frontier: a block is live when any of its
            // lanes holds an active vertex. Full mode walks every block (the
            // per-lane `is_active` filter inside `process_block` keeps the
            // moves identical); active mode lifts the vertex worklist to the
            // sorted, deduplicated set of live blocks.
            let ids: Vec<u32> = match config.sweep {
                SweepMode::Full => (0..layout.blocks.len() as u32).collect(),
                SweepMode::Active => {
                    let mut ids: Vec<u32> = fr
                        .worklist()
                        .iter()
                        .map(|&v| layout.vertex_block[v as usize])
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids
                }
            };
            let bailed = run_chunked(
                ids.len(),
                config.parallel,
                rec,
                || BlockBuf::new(n),
                |buf, i| {
                    let block = &layout.blocks[ids[i] as usize];
                    let m = process_block(s, layout, block, state, fr, buf, inv_m, inv_2m2);
                    moved.fetch_add(m, Ordering::Relaxed);
                },
            );
            (moved.into_inner(), bailed)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::super::super::modularity::modularity;
    use super::super::super::mplm::move_phase_mplm;
    use super::super::super::Variant;
    use super::super::prepare;
    use super::*;
    use gp_graph::csr::Csr;
    use gp_graph::generators::{clique, planted_partition, ring_lattice, triangular_mesh};
    use gp_simd::backend::Emulated;

    const S: Emulated = Emulated;

    fn run_ovpl(g: &Csr) -> Vec<u32> {
        let cfg = LouvainConfig::sequential(Variant::Ovpl);
        let layout = prepare(g, &cfg);
        let state = MoveState::singleton(g);
        move_phase_ovpl(&S, &layout, &state, &cfg);
        state.communities()
    }

    #[test]
    fn ovpl_merges_a_clique() {
        let zeta = run_ovpl(&clique(7));
        assert!(zeta.iter().all(|&c| c == zeta[0]), "{zeta:?}");
    }

    #[test]
    fn ovpl_matches_scalar_quality_on_planted_partition() {
        let g = planted_partition(4, 16, 0.7, 0.03, 19);
        let state = MoveState::singleton(&g);
        move_phase_mplm(&g, &state, &LouvainConfig::sequential(Variant::Mplm));
        let q_scalar = modularity(&g, &state.communities());
        let q_ovpl = modularity(&g, &run_ovpl(&g));
        assert!(
            (q_scalar - q_ovpl).abs() < 0.03,
            "OVPL Q = {q_ovpl}, scalar Q = {q_scalar}"
        );
    }

    #[test]
    fn ovpl_on_mesh() {
        let g = triangular_mesh(14, 14, 8);
        let q = modularity(&g, &run_ovpl(&g));
        assert!(q > 0.3, "mesh Q = {q}");
    }

    #[test]
    fn ovpl_on_regular_graph() {
        // The balanced-degree case OVPL is built for.
        let g = ring_lattice(128, 3);
        let q = modularity(&g, &run_ovpl(&g));
        assert!(q > 0.4, "ring Q = {q}");
    }

    #[test]
    fn ovpl_parallel_blocks() {
        let g = planted_partition(3, 16, 0.6, 0.04, 3);
        let cfg = LouvainConfig {
            variant: Variant::Ovpl,
            ..Default::default()
        };
        let layout = prepare(&g, &cfg);
        let state = MoveState::singleton(&g);
        move_phase_ovpl(&S, &layout, &state, &cfg);
        assert!(modularity(&g, &state.communities()) > 0.2);
    }

    #[test]
    fn ovpl_empty_graph() {
        let g = Csr::empty(5);
        let zeta = run_ovpl(&g);
        assert_eq!(zeta, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ovpl_converges_no_oscillation() {
        // The two-vertex swap graph from Section 5.1: with block-safe
        // preprocessing the pair must converge instead of swapping forever.
        let g = gp_graph::builder::from_pairs(2, [(0, 1)]);
        let cfg = LouvainConfig::sequential(Variant::Ovpl);
        let layout = prepare(&g, &cfg);
        let state = MoveState::singleton(&g);
        let stats = move_phase_ovpl(&S, &layout, &state, &cfg);
        assert!(
            stats.iterations < 25,
            "did not converge: {} iterations",
            stats.iterations
        );
        let zeta = state.communities();
        assert_eq!(zeta[0], zeta[1], "pair should merge");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn ovpl_native_matches_emulated() {
        if let Some(native) = gp_simd::backend::Avx512::new() {
            let g = planted_partition(4, 16, 0.7, 0.03, 29);
            let cfg = LouvainConfig::sequential(Variant::Ovpl);
            let layout = prepare(&g, &cfg);
            let s1 = MoveState::singleton(&g);
            move_phase_ovpl(&native, &layout, &s1, &cfg);
            let s2 = MoveState::singleton(&g);
            move_phase_ovpl(&S, &layout, &s2, &cfg);
            assert_eq!(s1.communities(), s2.communities());
        }
    }
}
