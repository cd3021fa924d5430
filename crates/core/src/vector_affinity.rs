//! The shared ONPL accumulation kernel: gather group ids of 16 neighbors,
//! reduce-scatter their edge weights into a dense accumulator, and keep a
//! duplicate-free touched list for reset and selection.
//!
//! Used by ONPL Louvain (groups = communities) and ONLP label propagation
//! (groups = labels); the [`crate::reduce_scatter`] module carries the same
//! two reduce-scatter formulations as a standalone primitive for tests and
//! the strategy ablation.

use crate::louvain::mplm::AffinityBuf;
use crate::reduce_scatter::Strategy;
use gp_simd::backend::Simd;
use gp_simd::vector::{Mask16, LANES};

/// Accumulates `buf.aff[group(v)] += w(u, v)` over all neighbors `v != u`,
/// 16 neighbors per step. `groups` is the gatherable group-id array
/// (communities or labels).
///
/// Duplicate-free touched tracking: on the vector path, a *first touch* is
/// a conflict-free lane whose gathered old affinity is still zero; on the
/// scalar paths, the MPLM-style `aff == 0` check.
#[inline(always)]
pub(crate) fn accumulate<S: Simd>(
    s: &S,
    neighbors: &[i32],
    weights: &[f32],
    exclude: u32,
    groups: &[i32],
    strategy: Strategy,
    buf: &mut AffinityBuf,
) {
    let self_v = s.splat_i32(exclude as i32);
    let zero_i = s.splat_i32(0);
    let zero_f = s.splat_f32(0.0);
    let mut off = 0;
    while off < neighbors.len() {
        let (nbrs, mask) = s.load_tail_i32(&neighbors[off..]);
        let (wts, _) = s.load_tail_f32(&weights[off..]);
        // Self-loops are excluded from ω(u, ·∖{u}).
        let mask = mask.and(s.cmpneq_i32(nbrs, self_v));
        // SAFETY: neighbor ids index `groups` (CSR invariant: ids < |V|).
        let zs = unsafe { s.gather_i32(groups, nbrs, mask, zero_i) };
        let z_arr = s.to_array_i32(zs);

        match strategy {
            Strategy::InVectorReduce => {
                // Figure 2: one masked reduce-add for the first group,
                // leftover lanes scalar (the paper's practical choice).
                let mut mask = mask;
                if let Some(first) = mask.first_set() {
                    let pivot = z_arr[first];
                    let same = s.mask_cmpeq_i32(mask, zs, s.splat_i32(pivot));
                    let sum = s.mask_reduce_add_f32(same, wts);
                    let c = pivot as usize;
                    if buf.aff[c] == 0.0 {
                        buf.touched.push(pivot as u32);
                    }
                    buf.aff[c] += sum;
                    mask = mask.and_not(same);
                }
                scalar_tail(s, buf, &z_arr, wts, mask);
            }
            _ => {
                // Figure 1: conflict detection; conflict-free lanes take the
                // gather/add/scatter path.
                let conflicts = s.and_i32(s.conflict_i32(zs), s.splat_i32(mask.0 as i32));
                let free = s.cmpeq_i32(conflicts, zero_i).and(mask);
                // Adaptive (the paper's "depending on circumstances"): when
                // most lanes are duplicates the conflict-detect round would
                // push nearly everything to the scalar tail — switch to the
                // in-vector reduction for this chunk instead.
                if matches!(strategy, Strategy::Adaptive) && free.count() * 2 < mask.count() {
                    let mut mask = mask;
                    if let Some(first) = mask.first_set() {
                        let pivot = z_arr[first];
                        let same = s.mask_cmpeq_i32(mask, zs, s.splat_i32(pivot));
                        let sum = s.mask_reduce_add_f32(same, wts);
                        let c = pivot as usize;
                        if buf.aff[c] == 0.0 {
                            buf.touched.push(pivot as u32);
                        }
                        buf.aff[c] += sum;
                        mask = mask.and_not(same);
                    }
                    scalar_tail(s, buf, &z_arr, wts, mask);
                    off += LANES;
                    continue;
                }
                // SAFETY: group ids < buf.aff.len().
                let old = unsafe { s.gather_f32(&buf.aff, zs, free, zero_f) };
                let fresh = s.cmpeq_f32(old, zero_f).and(free);
                let upd = s.add_f32(old, wts);
                unsafe { s.scatter_f32(&mut buf.aff, zs, upd, free) };
                for lane in fresh.iter_set() {
                    buf.touched.push(z_arr[lane] as u32);
                }
                scalar_tail(s, buf, &z_arr, wts, mask.and_not(free));
            }
        }
        off += LANES;
    }
}

/// Scalar accumulation of leftover lanes with first-touch dedup.
#[inline(always)]
fn scalar_tail<S: Simd>(
    s: &S,
    buf: &mut AffinityBuf,
    z_arr: &[i32; LANES],
    wts: S::F32,
    mask: Mask16,
) {
    if mask.is_empty() {
        return;
    }
    let w_arr = s.to_array_f32(wts);
    for lane in mask.iter_set() {
        let c = z_arr[lane] as usize;
        if buf.aff[c] == 0.0 {
            buf.touched.push(c as u32);
        }
        buf.aff[c] += w_arr[lane];
    }
    if S::IS_COUNTED {
        use gp_simd::counters::{record, OpClass};
        let k = mask.count() as u64;
        record(OpClass::ScalarRandLoad, k); // affinity entry
        record(OpClass::ScalarAlu, k);
        record(OpClass::ScalarStore, k);
        record(OpClass::ScalarBranch, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_simd::backend::Emulated;

    const S: Emulated = Emulated;

    fn run(
        strategy: Strategy,
        neighbors: &[i32],
        weights: &[f32],
        exclude: u32,
        groups: &[i32],
        n: usize,
    ) -> AffinityBuf {
        let mut buf = AffinityBuf::new(n);
        accumulate(&S, neighbors, weights, exclude, groups, strategy, &mut buf);
        buf
    }

    #[test]
    fn all_strategies_match_scalar_reference() {
        let groups: Vec<i32> = vec![0, 1, 2, 0, 1, 2, 3, 3, 0, 1, 4, 4, 4, 2, 0, 1, 0, 3, 2, 1];
        let neighbors: Vec<i32> = (0..20).collect();
        let weights: Vec<f32> = (0..20).map(|i| (i + 1) as f32).collect();
        // Reference
        let mut expect = [0f32; 8];
        for i in 0..20 {
            expect[groups[neighbors[i] as usize] as usize] += weights[i];
        }
        for strat in Strategy::ALL {
            let buf = run(strat, &neighbors, &weights, u32::MAX, &groups, 8);
            for (c, e) in expect.iter().enumerate() {
                assert!(
                    (buf.aff[c] - e).abs() < 1e-4,
                    "{strat:?}: group {c}: {} vs {}",
                    buf.aff[c],
                    e
                );
            }
        }
    }

    #[test]
    fn touched_is_duplicate_free() {
        // 40 neighbors mapping onto 3 groups must yield exactly 3 touched
        // entries — the dedup MPLM's selection scan relies on.
        let neighbors: Vec<i32> = (0..40).collect();
        let weights = vec![1.0f32; 40];
        let groups: Vec<i32> = (0..40).map(|i| i % 3).collect();
        for strat in [Strategy::ConflictDetect, Strategy::InVectorReduce] {
            let buf = run(strat, &neighbors, &weights, u32::MAX, &groups, 4);
            let mut touched = buf.touched.clone();
            touched.sort_unstable();
            touched.dedup();
            assert_eq!(
                touched.len(),
                buf.touched.len(),
                "{strat:?} produced duplicate touched entries: {:?}",
                buf.touched
            );
            assert_eq!(touched, vec![0, 1, 2]);
        }
    }

    #[test]
    fn excluded_vertex_is_skipped() {
        let neighbors = vec![0i32, 1, 2];
        let weights = vec![1.0f32; 3];
        let groups = vec![0i32, 0, 0];
        let buf = run(Strategy::ConflictDetect, &neighbors, &weights, 1, &groups, 2);
        assert_eq!(buf.aff[0], 2.0); // neighbor 1 (== exclude) skipped
    }

    #[test]
    fn empty_neighborhood() {
        let buf = run(Strategy::ConflictDetect, &[], &[], 0, &[0], 2);
        assert!(buf.touched.is_empty());
    }
}
