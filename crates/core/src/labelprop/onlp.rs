//! ONLP — One Neighbor Per Lane label propagation (Section 4.3).
//!
//! "For each node, it loads 16 neighbors and gathers their corresponding
//! labels at once. For each distinct label, it sums the neighbor edge weight
//! ... Then an intrinsic instruction `_mm512_reduce_max_ps` [is] applied to
//! find out the heaviest neighbor label." The weight summation is the same
//! reduce-scatter as ONPL Louvain; the heaviest-label search is a vectorized
//! max-scan over the touched labels.

use super::{run_lp_sweeps, LabelPropConfig, LabelPropResult};
use crate::coloring::onpl::as_i32;
use crate::louvain::mplm::AffinityBuf;
use crate::reduce_scatter::Strategy;
use crate::vector_affinity::accumulate;
use gp_graph::csr::Csr;
use gp_metrics::telemetry::Recorder;
#[cfg(test)]
use gp_metrics::telemetry::NoopRecorder;
use gp_simd::backend::Simd;
use gp_simd::vector::{Mask16, LANES};
use std::sync::atomic::{AtomicU32, Ordering};

/// Views the atomic label array as gatherable `i32`s (the same benign-race
/// pattern as the other optimistic kernels).
#[inline(always)]
fn labels_view(labels: &[AtomicU32]) -> &[i32] {
    // SAFETY: AtomicU32 is repr(transparent) over u32.
    unsafe { std::slice::from_raw_parts(labels.as_ptr() as *const i32, labels.len()) }
}

/// Vectorized heaviest-label selection for `u`; `None` if no non-loop
/// neighbor exists.
#[inline]
fn best_label_onlp<S: Simd>(
    s: &S,
    g: &Csr,
    labels: &[AtomicU32],
    u: u32,
    buf: &mut AffinityBuf,
) -> Option<u32> {
    s.vectorize(|| {
        let neighbors = as_i32(g.neighbors(u));
        let weights = g.weights_of(u);
        let view = labels_view(labels);

        // Label-weight accumulation: gather labels, reduce-scatter weights.
        accumulate(
            s,
            neighbors,
            weights,
            u,
            view,
            Strategy::ConflictDetect,
            buf,
        );
        if buf.touched.is_empty() {
            return None;
        }

        // Vectorized max-scan: the heaviest touched label.
        let current = labels[u as usize].load(Ordering::Relaxed);
        let mut best_w_v = s.splat_f32(0.0);
        let mut best_l_v = s.splat_i32(current as i32);
        let touched = as_i32(&buf.touched);
        let mut off = 0;
        while off < touched.len() {
            let (ls, mask) = s.load_tail_i32(&touched[off..]);
            // SAFETY: touched labels < n.
            let ws = unsafe { s.gather_f32(&buf.aff, ls, mask, s.splat_f32(0.0)) };
            let better = s.cmpgt_f32(ws, best_w_v).and(mask);
            best_w_v = s.blend_f32(better, best_w_v, ws);
            best_l_v = s.blend_i32(better, best_l_v, ls);
            off += LANES;
        }
        let best_w = s.reduce_max_f32(best_w_v);
        // Prefer the current label on ties (same rule as MPLP).
        let best = if best_w <= buf.aff[current as usize] {
            current
        } else {
            let lane = s
                .cmpeq_f32(best_w_v, s.splat_f32(best_w))
                .first_set()
                .expect("max lane must exist");
            s.extract_i32(best_l_v, lane) as u32
        };
        buf.reset();
        Some(best)
    })
}

/// Batched heaviest-label proposal for up to 16 vertices of degree ≤ 16,
/// one vertex per lane (the locality layer's low-degree bin). Returns a
/// bit mask of valid lanes (lanes whose vertex has a non-self-loop
/// neighbor — the exact `None` condition of [`best_label_onlp`]).
///
/// The layout is transposed relative to [`best_label_onlp`]: slot `j`
/// holds neighbor `j` of *each* lane's vertex, gathered through the lane's
/// CSR row start. Proposals are computed from the label state at call time
/// (the pre-batch snapshot); the caller applies them in lane order with
/// dependency repair (see `run_lp_sweeps`).
///
/// Bit-exactness with the per-vertex kernel: per lane, the affinity of a
/// label is folded in ascending neighbor order starting from `0.0` — the
/// same f32 sequence `accumulate` + its scalar duplicate remainder
/// produces for a single ≤16-neighbor chunk — and the best-label scan
/// keeps the earliest slot on ties, matching the per-vertex max-scan's
/// first-touched-lane rule; the stay rule `best_w <= aff[current]` is the
/// blend below.
fn propose16_onlp<S: Simd>(
    s: &S,
    g: &Csr,
    labels: &[AtomicU32],
    ids: &[u32],
    out: &mut [u32; 16],
) -> u16 {
    s.vectorize(|| {
        let view = labels_view(labels);
        let adj = as_i32(g.adj());
        let wgt = g.weights();
        let xadj = g.xadj();
        let lanes = Mask16::first(ids.len());

        let mut vid_a = [0i32; LANES];
        let mut row_a = [0i32; LANES];
        let mut deg_a = [0i32; LANES];
        let mut max_deg = 0usize;
        for (l, &v) in ids.iter().enumerate() {
            vid_a[l] = v as i32;
            row_a[l] = xadj[v as usize] as i32;
            let d = g.degree(v);
            deg_a[l] = d as i32;
            max_deg = max_deg.max(d);
        }
        let vids = s.from_array_i32(vid_a);
        let rows = s.from_array_i32(row_a);
        let degs = s.from_array_i32(deg_a);

        // Transposed neighborhood snapshot: slot j = neighbor j of every lane.
        let mut labs = [s.splat_i32(-1); LANES];
        let mut wts = [s.splat_f32(0.0); LANES];
        let mut ms = [Mask16::NONE; LANES];
        let mut valid = Mask16::NONE;
        for j in 0..max_deg {
            let idx = s.add_i32(rows, s.splat_i32(j as i32));
            let m = s.cmplt_i32(s.splat_i32(j as i32), degs).and(lanes);
            // SAFETY: selected lanes have j < degree, so row + j indexes the
            // lane's CSR row (and the weight array, which is adj-aligned).
            let nbr = unsafe { s.gather_i32(adj, idx, m, s.splat_i32(0)) };
            let mm = m.and(s.cmpneq_i32(nbr, vids)); // self-loops contribute nothing
            // SAFETY: gathered neighbor ids are < |V| by the CSR invariant.
            labs[j] = unsafe { s.gather_i32(view, nbr, mm, s.splat_i32(-1)) };
            wts[j] = unsafe { s.gather_f32(wgt, idx, mm, s.splat_f32(0.0)) };
            ms[j] = mm;
            valid = valid.or(mm);
        }

        // SAFETY: the batch's own vertex ids are < |V|.
        let labcur = unsafe { s.gather_i32(view, vids, lanes, s.splat_i32(0)) };
        // aff[current]: fold matching weights in ascending neighbor order.
        let mut curw = s.splat_f32(0.0);
        for j2 in 0..max_deg {
            let same = s.cmpeq_i32(labs[j2], labcur).and(ms[j2]);
            curw = s.mask_add_f32(curw, same, curw, wts[j2]);
        }
        // Best-label scan: slot j1's label scores the same ascending fold;
        // strictly-greater keeps the earliest max slot, duplicates of a label
        // recompute the identical sum and never displace it.
        let mut bestw = s.splat_f32(0.0);
        let mut bestl = labcur;
        for j1 in 0..max_deg {
            let mut wsum = s.splat_f32(0.0);
            for j2 in 0..max_deg {
                let same = s.cmpeq_i32(labs[j2], labs[j1]).and(ms[j2]);
                wsum = s.mask_add_f32(wsum, same, wsum, wts[j2]);
            }
            let better = s.cmpgt_f32(wsum, bestw).and(ms[j1]);
            bestw = s.blend_f32(better, bestw, wsum);
            bestl = s.blend_i32(better, bestl, labs[j1]);
        }
        // Stay rule: keep the current label unless the best strictly beats it.
        let change = s.cmpgt_f32(bestw, curw);
        let proposed = s.to_array_i32(s.blend_i32(change, labcur, bestl));
        for (l, slot) in out.iter_mut().enumerate().take(ids.len()) {
            *slot = proposed[l] as u32;
        }
        valid.0
    })
}

/// Runs ONLP label propagation. Test-only convenience: external callers
/// reach this as `run_kernel` with a pinned vector backend.
#[cfg(test)]
pub(crate) fn label_propagation_onlp<S: Simd + Sync>(
    s: &S,
    g: &Csr,
    config: &LabelPropConfig,
) -> LabelPropResult {
    label_propagation_onlp_recorded(s, g, config, &mut NoopRecorder)
}

/// [`label_propagation_onlp`] with per-sweep telemetry delivered to `rec`.
///
/// All sweep machinery (frontier, ordering, chunked deadline polling,
/// convergence) lives in [`run_lp_sweeps`]; this variant contributes the
/// vectorized heaviest-label kernel. Under [`SweepMode::Active`] the
/// frontier arrives as a packed `u32` worklist, so the 16-lane
/// neighbor-gather loop in [`best_label_onlp`] runs over consecutive real
/// vertices — no wasted lanes on inactive ones.
///
/// [`SweepMode::Active`]: crate::frontier::SweepMode::Active
pub(crate) fn label_propagation_onlp_recorded<S: Simd + Sync, R: Recorder>(
    s: &S,
    g: &Csr,
    config: &LabelPropConfig,
    rec: &mut R,
) -> LabelPropResult {
    run_lp_sweeps(
        g,
        config,
        rec,
        S::NAME,
        |g, labels, u, buf| best_label_onlp(s, g, labels, u, buf),
        Some(|g: &Csr, labels: &[AtomicU32], ids: &[u32], out: &mut [u32; 16]| {
            propose16_onlp(s, g, labels, ids, out)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::super::mplp::label_propagation_mplp;
    use super::*;
    use crate::louvain::modularity::modularity;
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{clique, planted_partition, preferential_attachment};
    use gp_simd::backend::Emulated;

    const S: Emulated = Emulated;

    fn run_seq(g: &Csr) -> LabelPropResult {
        label_propagation_onlp(&S, g, &LabelPropConfig::sequential())
    }

    #[test]
    fn onlp_clique_consensus() {
        let r = run_seq(&clique(10));
        assert!(r.labels.iter().all(|&l| l == r.labels[0]));
    }

    #[test]
    fn onlp_matches_mplp_quality() {
        let g = planted_partition(4, 16, 0.8, 0.01, 13);
        let scalar = label_propagation_mplp(&g, &LabelPropConfig::sequential());
        let vector = run_seq(&g);
        let q_s = modularity(&g, &scalar.labels);
        let q_v = modularity(&g, &vector.labels);
        assert!(
            (q_s - q_v).abs() < 0.05,
            "ONLP Q = {q_v} vs MPLP Q = {q_s}"
        );
    }

    #[test]
    fn onlp_exact_match_on_well_separated_graph() {
        let g = planted_partition(3, 8, 0.9, 0.0, 3);
        let scalar = label_propagation_mplp(&g, &LabelPropConfig::sequential());
        let vector = run_seq(&g);
        assert_eq!(scalar.labels, vector.labels);
    }

    #[test]
    fn onlp_hub_graph() {
        let g = preferential_attachment(300, 3, 11);
        let r = run_seq(&g);
        assert!(r.iterations < 100);
        assert_eq!(r.labels.len(), 300);
    }

    #[test]
    fn onlp_isolated_vertices() {
        let g = from_pairs(3, [(0, 1)]);
        let r = run_seq(&g);
        assert_eq!(r.labels[2], 2);
    }

    #[test]
    fn onlp_parallel() {
        let g = planted_partition(4, 12, 0.7, 0.02, 21);
        let r = label_propagation_onlp(&S, &g, &LabelPropConfig::default());
        assert!(modularity(&g, &r.labels) > 0.4);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn onlp_native_matches_emulated() {
        if let Some(native) = gp_simd::backend::Avx512::new() {
            let g = planted_partition(4, 16, 0.8, 0.01, 31);
            let cfg = LabelPropConfig::sequential();
            let a = label_propagation_onlp(&native, &g, &cfg);
            let b = label_propagation_onlp(&S, &g, &cfg);
            assert_eq!(a.labels, b.labels);
        }
    }
}
