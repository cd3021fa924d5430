//! Boundary refinement: greedy gain moves under the balance constraint.
//!
//! For each boundary vertex, compute the edge weight toward every adjacent
//! part (the reduce-scatter aggregation again), and move the vertex to the
//! part with the largest gain over staying — if the move keeps the balance
//! constraint. Sweeps repeat until no move helps or the pass budget runs
//! out. This is the label-propagation-shaped relative of FM refinement that
//! multilevel partitioners use for k-way refinement, and it vectorizes with
//! exactly the paper's ONPL kernel.

use super::{parts_as_i32, PartitionConfig};
use crate::coloring::onpl::as_i32;
use crate::louvain::mplm::AffinityBuf;
use crate::reduce_scatter::Strategy;
use crate::vector_affinity::accumulate;
use gp_graph::csr::Csr;
use gp_simd::backend::Simd;

/// Shared sweep logic: `gain_of(u, buf)` returns the best target part and
/// the cut improvement.
fn sweep(
    g: &Csr,
    weights: &[f32],
    parts: &mut [u32],
    config: &PartitionConfig,
    mut best_target: impl FnMut(u32, &[u32], &mut AffinityBuf) -> Option<(u32, f32)>,
) -> usize {
    let k = config.k;
    let total: f32 = weights.iter().sum();
    let max_part = (1.0 + config.epsilon) * total / k as f32;
    let mut part_weight = vec![0.0f32; k];
    for (v, &p) in parts.iter().enumerate() {
        part_weight[p as usize] += weights[v];
    }
    let mut buf = AffinityBuf::new(k);
    let mut moves = 0usize;
    for u in 0..g.num_vertices() as u32 {
        if g.degree(u) == 0 {
            continue;
        }
        let from = parts[u as usize];
        let Some((to, gain)) = best_target(u, parts, &mut buf) else {
            continue;
        };
        if to == from || gain <= 0.0 {
            continue;
        }
        let wu = weights[u as usize];
        if part_weight[to as usize] + wu > max_part {
            continue; // would break balance
        }
        // Never empty a part entirely.
        if part_weight[from as usize] - wu <= 0.0 {
            continue;
        }
        part_weight[from as usize] -= wu;
        part_weight[to as usize] += wu;
        parts[u as usize] = to;
        moves += 1;
    }
    moves
}

/// Rebalancing pass: while any part exceeds the balance bound, move its
/// boundary vertices to the part they are most connected to among those
/// with spare capacity (falling back to the lightest part). Runs before the
/// gain sweeps so greedy refinement starts from a feasible point even when
/// the initial growing overshot a quota.
pub(crate) fn rebalance(g: &Csr, weights: &[f32], parts: &mut [u32], config: &PartitionConfig) {
    let k = config.k;
    let total: f32 = weights.iter().sum();
    let max_part = (1.0 + config.epsilon) * total / k as f32;
    let mut part_weight = vec![0.0f32; k];
    for (v, &p) in parts.iter().enumerate() {
        part_weight[p as usize] += weights[v];
    }
    let mut buf = AffinityBuf::new(k);
    for _ in 0..k {
        let Some(over) = (0..k).find(|&p| part_weight[p] > max_part) else {
            return;
        };
        // Move vertices out of `over`, best-connected target first.
        for u in 0..g.num_vertices() as u32 {
            if part_weight[over] <= max_part {
                break;
            }
            if parts[u as usize] as usize != over {
                continue;
            }
            for (v, w) in g.edges_of(u) {
                if v == u {
                    continue;
                }
                let p = parts[v as usize];
                if buf.aff[p as usize] == 0.0 {
                    buf.touched.push(p);
                }
                buf.aff[p as usize] += w;
            }
            let wu = weights[u as usize];
            let target = buf
                .touched
                .iter()
                .copied()
                .filter(|&p| p as usize != over && part_weight[p as usize] + wu <= max_part)
                .max_by(|&a, &b| {
                    buf.aff[a as usize]
                        .partial_cmp(&buf.aff[b as usize])
                        .unwrap()
                })
                .or_else(|| {
                    (0..k as u32)
                        .filter(|&p| p as usize != over && part_weight[p as usize] + wu <= max_part)
                        .min_by(|&a, &b| {
                            part_weight[a as usize]
                                .partial_cmp(&part_weight[b as usize])
                                .unwrap()
                        })
                });
            buf.reset();
            if let Some(to) = target {
                part_weight[over] -= wu;
                part_weight[to as usize] += wu;
                parts[u as usize] = to;
            }
        }
    }
}

/// Scalar refinement sweeps.
pub fn refine_scalar(g: &Csr, weights: &[f32], parts: &mut [u32], config: &PartitionConfig) {
    rebalance(g, weights, parts, config);
    for _ in 0..config.refine_passes {
        let moves = sweep(g, weights, parts, config, |u, parts, buf| {
            // Scalar aggregation of edge weight per adjacent part.
            for (v, w) in g.edges_of(u) {
                if v == u {
                    continue;
                }
                let p = parts[v as usize];
                if buf.aff[p as usize] == 0.0 {
                    buf.touched.push(p);
                }
                buf.aff[p as usize] += w;
            }
            let from = parts[u as usize];
            let internal = buf.aff[from as usize];
            let best = buf
                .touched
                .iter()
                .filter(|&&p| p != from)
                .map(|&p| (p, buf.aff[p as usize] - internal))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            buf.reset();
            best
        });
        if moves == 0 {
            break;
        }
    }
}

/// ONPL-vectorized refinement sweeps: gather the parts of 16 neighbors and
/// reduce-scatter their edge weights into the per-part accumulator.
pub fn refine<S: Simd>(
    s: &S,
    g: &Csr,
    weights: &[f32],
    parts: &mut [u32],
    config: &PartitionConfig,
) {
    rebalance(g, weights, parts, config);
    for _ in 0..config.refine_passes {
        let moves = sweep(g, weights, parts, config, |u, parts, buf| {
            s.vectorize(|| {
                accumulate(
                    s,
                    as_i32(g.neighbors(u)),
                    g.weights_of(u),
                    u,
                    parts_as_i32(parts),
                    Strategy::Adaptive,
                    buf,
                )
            });
            let from = parts[u as usize];
            let internal = buf.aff[from as usize];
            let best = buf
                .touched
                .iter()
                .filter(|&&p| p != from)
                .map(|&p| (p, buf.aff[p as usize] - internal))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            buf.reset();
            best
        });
        if moves == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::metrics::edge_cut;
    use super::*;
    use gp_graph::builder::from_pairs;
    use gp_graph::generators::{erdos_renyi, planted_partition};
    use gp_simd::backend::Emulated;

    fn bad_partition(n: usize, k: usize) -> Vec<u32> {
        // Stripes: adversarial for clustered graphs.
        (0..n as u32).map(|v| v % k as u32).collect()
    }

    #[test]
    fn refinement_reduces_cut() {
        let g = planted_partition(2, 32, 0.5, 0.02, 7);
        let weights = vec![1.0f32; 64];
        let mut parts = bad_partition(64, 2);
        let before = edge_cut(&g, &parts);
        refine_scalar(&g, &weights, &mut parts, &PartitionConfig::kway(2));
        let after = edge_cut(&g, &parts);
        assert!(after < before, "cut {before} -> {after}");
    }

    #[test]
    fn vectorized_refinement_matches_scalar() {
        let g = erdos_renyi(200, 800, 11);
        let weights = vec![1.0f32; 200];
        let cfg = PartitionConfig::kway(4);
        let mut a = bad_partition(200, 4);
        let mut b = a.clone();
        refine_scalar(&g, &weights, &mut a, &cfg);
        refine(&Emulated, &g, &weights, &mut b, &cfg);
        // Same greedy rule and sweep order; identical outcomes.
        assert_eq!(a, b);
    }

    #[test]
    fn refinement_respects_balance() {
        let g = planted_partition(2, 24, 0.6, 0.3, 5); // strong pull to merge
        let weights = vec![1.0f32; 48];
        let cfg = PartitionConfig {
            k: 2,
            epsilon: 0.05,
            ..Default::default()
        };
        let mut parts = bad_partition(48, 2);
        refine_scalar(&g, &weights, &mut parts, &cfg);
        let c0 = parts.iter().filter(|&&p| p == 0).count();
        let max_allowed = (1.05_f64 * 48.0 / 2.0).floor() as usize;
        assert!(c0 <= max_allowed && 48 - c0 <= max_allowed, "c0 = {c0}");
    }

    #[test]
    fn no_moves_on_already_optimal() {
        let g = from_pairs(4, [(0, 1), (2, 3)]);
        let weights = vec![1.0f32; 4];
        let mut parts = vec![0, 0, 1, 1];
        let before = parts.clone();
        refine_scalar(&g, &weights, &mut parts, &PartitionConfig::kway(2));
        assert_eq!(parts, before);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn native_refinement_matches_emulated() {
        if let Some(native) = gp_simd::backend::Avx512::new() {
            let g = erdos_renyi(300, 1500, 23);
            let weights = vec![1.0f32; 300];
            let cfg = PartitionConfig::kway(3);
            let mut a = bad_partition(300, 3);
            let mut b = a.clone();
            refine(&native, &g, &weights, &mut a, &cfg);
            refine(&Emulated, &g, &weights, &mut b, &cfg);
            assert_eq!(a, b);
        }
    }
}
