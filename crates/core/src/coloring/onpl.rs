//! ONPL-vectorized `AssignColors` (Section 4.1).
//!
//! For each conflict vertex: load 16 neighbor ids with one vector load,
//! gather their 16 colors, and *scatter* the current stamp into the
//! FORBIDDEN array at those 16 color slots at once. Duplicate colors in the
//! vector are harmless here — every lane writes the same stamp, so this is
//! the one kernel where a plain scatter needs no reduce step (the paper's
//! observation that coloring "naturally vectorizes" given scatter support).
//! The search for the first free color is also vectorized: compare 16
//! FORBIDDEN entries against the stamp and take the first unset mask bit.

use super::greedy::{assign_one_low, run_iterative, run_iterative_with_detect};
use super::{ColoringConfig, ColoringResult};
use crate::locality::{self, Plan};
use gp_graph::csr::Csr;
use gp_metrics::telemetry::Recorder;
use gp_simd::backend::Simd;
use gp_simd::vector::{Mask16, LANES};
use std::sync::atomic::{AtomicU32, Ordering};

/// Reinterprets a `u32` slice as `i32` (identical layout); vertex ids and
/// colors stay below 2^31.
#[inline(always)]
pub(crate) fn as_i32(s: &[u32]) -> &[i32] {
    // SAFETY: u32 and i32 have identical size and alignment.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const i32, s.len()) }
}

/// Reinterprets the atomic color array as a plain `i32` slice for vector
/// gathers.
///
/// The speculative algorithm reads neighbor colors while other threads may
/// be writing them; Algorithm 1's correctness does not depend on which value
/// a racy read returns (any stale read is caught by `DetectConflicts`).
/// This is exactly the data race the original Kokkos implementation relies
/// on; we confine it to this cast.
#[inline(always)]
fn colors_as_i32(colors: &[AtomicU32]) -> &[i32] {
    // SAFETY: AtomicU32 is repr(transparent) over u32; see doc comment for
    // the benign-race argument.
    unsafe { std::slice::from_raw_parts(colors.as_ptr() as *const i32, colors.len()) }
}

/// Per-thread vector workspace.
struct VecWorkspace {
    forbidden: Vec<i32>,
    stamp: i32,
}

impl VecWorkspace {
    fn new(max_degree: usize) -> Self {
        // Colors range over 1..=max_degree+1; pad by one vector so the
        // free-color scan can always load a full 16 lanes.
        VecWorkspace {
            forbidden: vec![0; max_degree + 2 + LANES],
            stamp: 0,
        }
    }
}

/// Vectorized `AssignColors` for one vertex; returns its new color.
#[inline]
fn assign_one_onpl<S: Simd>(
    s: &S,
    g: &Csr,
    colors: &[AtomicU32],
    v: u32,
    ws: &mut VecWorkspace,
) -> u32 {
    s.vectorize(|| {
        ws.stamp = ws.stamp.wrapping_add(1);
        if ws.stamp == 0 {
            ws.forbidden.fill(0);
            ws.stamp = 1;
        }
        let stamp_v = s.splat_i32(ws.stamp);
        let self_v = s.splat_i32(v as i32);
        let colors_view = colors_as_i32(colors);

        let neighbors = as_i32(g.neighbors(v));
        let mut off = 0;
        while off < neighbors.len() {
            let chunk = &neighbors[off..];
            let (nbrs, mask) = s.load_tail_i32(chunk);
            // Self-loops never forbid a color.
            let mask = mask.and(s.cmpneq_i32(nbrs, self_v));
            // SAFETY: neighbor ids are < |V| = colors.len() (CSR invariant).
            let cols = unsafe { s.gather_i32(colors_view, nbrs, mask, s.splat_i32(0)) };
            // SAFETY: colors are < max_degree + 2 <= forbidden.len().
            unsafe { s.scatter_i32(&mut ws.forbidden, cols, stamp_v, mask) };
            off += LANES;
        }

        // Vectorized first-free-color scan starting at color 1.
        let mut base = 1usize;
        loop {
            let window = s.load_i32(&ws.forbidden[base..]);
            let taken = s.cmpeq_i32(window, stamp_v);
            if let Some(lane) = taken.not().first_set() {
                return (base + lane) as u32;
            }
            base += LANES;
            debug_assert!(
                base + LANES <= ws.forbidden.len(),
                "free-color scan overran FORBIDDEN; degree bound violated"
            );
        }
    })
}

/// One-vertex-per-lane `AssignColors` for a run of up to 16 low-degree
/// (≤16-neighbor) vertices: the transposed layout — slot `j` gathers
/// neighbor `j` of *every* lane at once, gathers those neighbors' colors,
/// and builds a per-lane forbidden *bitmask* with a variable shift
/// (`vpsllvd`) instead of a per-vertex scatter. Colors ≥ 31 clamp to bit
/// 31, exact because a ≤16-degree vertex's answer is at most 17 (see
/// [`assign_one_low`]).
///
/// All gathers read a pre-batch snapshot; results are then applied
/// lane-by-lane **in order** with dependency repair — a lane whose vertex
/// neighbors an earlier lane of the same batch may have read a stale color,
/// so it is recomputed against live state. Repaired or not, every lane
/// stores the exact smallest free color the sequential per-vertex kernel
/// would have produced.
fn assign_batch_low<S: Simd>(s: &S, g: &Csr, colors: &[AtomicU32], ids: &[u32]) {
    s.vectorize(|| {
        let view = colors_as_i32(colors);
        let adj = as_i32(g.adj());
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

        let mut forb = s.splat_i32(0);
        for j in 0..max_deg {
            let idx = s.add_i32(rows, s.splat_i32(j as i32));
            let m = s.cmplt_i32(s.splat_i32(j as i32), degs).and(lanes);
            // SAFETY: selected lanes have j < degree, so row + j stays inside
            // the lane's CSR row.
            let nbr = unsafe { s.gather_i32(adj, idx, m, s.splat_i32(0)) };
            let mm = m.and(s.cmpneq_i32(nbr, vids)); // self-loops never forbid
            // SAFETY: gathered neighbor ids are < |V| = colors.len().
            let cols = unsafe { s.gather_i32(view, nbr, mm, s.splat_i32(0)) };
            let clamped = s.blend_i32(s.cmplt_i32(cols, s.splat_i32(31)), s.splat_i32(31), cols);
            let bits = s.sllv_i32(s.splat_i32(1), clamped);
            forb = s.or_i32(forb, s.blend_i32(mm, s.splat_i32(0), bits));
        }
        let forb = s.to_array_i32(forb);

        // Cheap membership filter for the staleness scan: a neighbor can only
        // be an earlier lane if its hash bit is set, so the exact (and rare)
        // `contains` walk runs only on filter hits instead of per neighbor.
        let mut bloom = 0u64;
        for &v in ids {
            bloom |= 1 << (v & 63);
        }
        for (l, &v) in ids.iter().enumerate() {
            let stale = l > 0
                && g.neighbors(v)
                    .iter()
                    .any(|u| bloom & (1 << (u & 63)) != 0 && ids[..l].contains(u));
            let c = if stale {
                assign_one_low(g, colors, v)
            } else {
                (!(forb[l] as u32 | 1)).trailing_zeros()
            };
            colors[v as usize].store(c, Ordering::Relaxed);
        }
    })
}

/// ONPL `AssignColors` over a conflict set, routed through the locality
/// bucketer: low-degree runs take [`assign_batch_low`], everything else the
/// per-vertex scatter kernel.
pub fn assign_colors_onpl<S: Simd + Sync>(
    s: &S,
    g: &Csr,
    colors: &[AtomicU32],
    conf: &[u32],
    config: &ColoringConfig,
    plan: &Plan,
) {
    let max_degree = g.max_degree();
    locality::for_each_bucketed(
        g,
        plan,
        conf,
        config.parallel,
        || VecWorkspace::new(max_degree),
        |ws, v| {
            let c = assign_one_onpl(s, g, colors, v, ws);
            colors[v as usize].store(c, Ordering::Relaxed);
        },
        Some(|_: &mut VecWorkspace, ids: &[u32]| {
            // The transposed batch loses to the bitmask kernel on every
            // measured host (gathers vs. a sequential row stream), so it
            // stays an opt-in A/B arm.
            if plan.batch16 {
                assign_batch_low(s, g, colors, ids);
            } else {
                for &v in ids {
                    let c = assign_one_low(g, colors, v);
                    colors[v as usize].store(c, Ordering::Relaxed);
                }
            }
        }),
        Some(|v: u32| {
            for &nv in g.neighbors(v).iter().take(locality::WARM_NEIGHBOR_CAP) {
                locality::prefetch(&colors[nv as usize] as *const _);
            }
        }),
    );
}

/// Vectorized `DetectConflicts` (the paper's §4.1 remark that conflict
/// identification "vectorize[s] naturally"): load 16 neighbors, gather
/// their colors, and compare against the vertex's own color and id in two
/// lane-wise compares. A vertex is re-queued when any lane reports a
/// same-color lower-id neighbor.
pub fn detect_conflicts_onpl<S: Simd + Sync>(
    s: &S,
    g: &Csr,
    colors: &[AtomicU32],
    conf: &[u32],
    config: &ColoringConfig,
) -> Vec<u32> {
    let view = colors_as_i32(colors);
    let find = |&v: &u32| -> Option<u32> {
        s.vectorize(|| {
            let cv = colors[v as usize].load(Ordering::Relaxed) as i32;
            let cv_v = s.splat_i32(cv);
            let self_v = s.splat_i32(v as i32);
            let neighbors = as_i32(g.neighbors(v));
            let mut off = 0;
            while off < neighbors.len() {
                let (nbrs, mask) = s.load_tail_i32(&neighbors[off..]);
                // u < v (the paper's tie-break) — self-loops excluded implicitly.
                let lower = s.cmplt_i32(nbrs, self_v).and(mask);
                if !lower.is_empty() {
                    // SAFETY: neighbor ids < |V| = colors.len().
                    let cols = unsafe { s.gather_i32(view, nbrs, lower, s.splat_i32(-1)) };
                    let clash = s.cmpeq_i32(cols, cv_v).and(lower);
                    if !clash.is_empty() {
                        return Some(v);
                    }
                }
                off += LANES;
            }
            None
        })
    };
    let mut newconf: Vec<u32> = if config.parallel {
        use rayon::prelude::*;
        conf.par_iter().filter_map(find).collect()
    } else {
        conf.iter().filter_map(find).collect()
    };
    newconf.sort_unstable();
    newconf.dedup();
    newconf
}

/// Full iterative speculative coloring with the ONPL assignment kernel on
/// an explicitly pinned backend `s` — the expert entrypoint for ablations
/// that need full [`ColoringConfig`] control (e.g. `vectorized_conflicts`,
/// which `run_kernel` deliberately does not expose). Conflict detection
/// follows `config.vectorized_conflicts`: scalar (the paper's measured
/// configuration) or the vectorized extension.
pub fn color_with<S: Simd + Sync, R: Recorder>(
    s: &S,
    g: &Csr,
    config: &ColoringConfig,
    rec: &mut R,
) -> ColoringResult {
    if config.vectorized_conflicts {
        run_iterative_with_detect(
            g,
            config,
            |g, colors, conf, config, plan| assign_colors_onpl(s, g, colors, conf, config, plan),
            |g, colors, conf, config| detect_conflicts_onpl(s, g, colors, conf, config),
            rec,
            S::NAME,
        )
    } else {
        run_iterative(
            g,
            config,
            |g, colors, conf, config, plan| assign_colors_onpl(s, g, colors, conf, config, plan),
            rec,
            S::NAME,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::greedy::color_graph_scalar;
    use super::super::verify::verify_coloring;
    use super::*;
    use gp_metrics::telemetry::NoopRecorder;
    use gp_simd::backend::Emulated;
    use gp_graph::generators::{clique, cycle, erdos_renyi, path, preferential_attachment, star, triangular_mesh};

    const S: Emulated = Emulated;

    fn onpl(g: &Csr, config: &ColoringConfig) -> ColoringResult {
        color_with(&S, g, config, &mut NoopRecorder)
    }

    fn check(g: &Csr, config: &ColoringConfig) -> ColoringResult {
        let r = onpl(g, config);
        verify_coloring(g, &r.colors).expect("invalid ONPL coloring");
        r
    }

    #[test]
    fn onpl_matches_scalar_on_small_graphs() {
        // Sequential runs are deterministic and the two kernels implement
        // the same greedy rule, so results must be identical.
        for g in [path(17), cycle(20), clique(9), star(33)] {
            let cfg = ColoringConfig::sequential();
            let a = color_graph_scalar(&g, &cfg);
            let b = check(&g, &cfg);
            assert_eq!(a.colors, b.colors);
        }
    }

    #[test]
    fn onpl_matches_scalar_on_random_graph() {
        let g = erdos_renyi(300, 1500, 9);
        let cfg = ColoringConfig::sequential();
        assert_eq!(color_graph_scalar(&g, &cfg).colors, check(&g, &cfg).colors);
    }

    #[test]
    fn onpl_handles_degree_exactly_16() {
        // Full-vector path with no tail.
        let g = star(17); // hub degree 16
        let r = check(&g, &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 2);
    }

    #[test]
    fn onpl_handles_degree_above_16() {
        let g = star(40);
        let r = check(&g, &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 2);
    }

    #[test]
    fn onpl_on_hub_heavy_graph() {
        let g = preferential_attachment(400, 4, 2);
        let r = check(&g, &ColoringConfig::default());
        assert!(r.num_colors <= g.max_degree() as u32 + 1);
    }

    #[test]
    fn onpl_parallel_valid() {
        let g = triangular_mesh(25, 25, 4);
        let r = check(&g, &ColoringConfig::default());
        assert!(r.num_colors <= g.max_degree() as u32 + 1);
    }

    #[test]
    fn free_color_scan_past_first_window() {
        // A clique of 18 forces colors beyond one 16-lane window.
        let g = clique(18);
        let r = check(&g, &ColoringConfig::sequential());
        assert_eq!(r.num_colors, 18);
    }

    #[test]
    fn vectorized_conflict_detection_matches_scalar_pipeline() {
        let g = erdos_renyi(350, 2100, 31);
        let base = ColoringConfig::sequential();
        let vc = ColoringConfig {
            vectorized_conflicts: true,
            ..ColoringConfig::sequential()
        };
        let a = color_with(&S, &g, &base, &mut NoopRecorder);
        let b = color_with(&S, &g, &vc, &mut NoopRecorder);
        // Sequential speculative runs are deterministic: both pipelines must
        // converge to the same coloring in the same number of rounds.
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn vectorized_conflict_detection_flags_real_conflicts() {
        // Seed an artificial conflict and check the kernel catches exactly
        // the lower-id rule's victim.
        let g = gp_graph::builder::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let colors: Vec<AtomicU32> =
            [1u32, 1, 2, 2].into_iter().map(AtomicU32::new).collect();
        let conf: Vec<u32> = (0..4).collect();
        let cfg = ColoringConfig::sequential();
        let flagged = detect_conflicts_onpl(&S, &g, &colors, &conf, &cfg);
        // Edges (0,1) and (2,3) clash; the higher endpoint is re-queued.
        assert_eq!(flagged, vec![1, 3]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn native_backend_agrees_with_emulated() {
        if let Some(native) = gp_simd::backend::Avx512::new() {
            let g = erdos_renyi(400, 2400, 21);
            let cfg = ColoringConfig::sequential();
            let a = color_with(&native, &g, &cfg, &mut NoopRecorder);
            let b = color_with(&S, &g, &cfg, &mut NoopRecorder);
            assert_eq!(a.colors, b.colors);
        }
    }
}
