//! The three workloads and the inputs each one generates from its seed.
//!
//! Every workload runs the same two phases on its own inputs: the seven
//! sequential kernels over a suite of graphs, and a closed-loop read/write
//! mix against an in-process server. What differs is the graphs and how the
//! run's time is split:
//!
//! * `rmat-kernels` — R-MAT suite (skewed degrees, hubs, working set beyond
//!   L2); most of the time goes to the kernels.
//! * `mesh-kernels` — triangular-mesh suite (uniform degree ≈ 6, every
//!   vertex in the ≤16 low bin); most of the time goes to the kernels.
//! * `serve-churn` — small R-MAT and mesh graphs; most of the time goes to
//!   the serve mix, and the kernel phase times the same kernels called
//!   directly on the graphs the mix requests.
//!
//! A suite holds several graphs because the sequential kernels' work (sweeps
//! to convergence, coarsening levels) differs from one seed's graph to the
//! next; summing over the suite keeps a seed's total close to any other's.

use gp_serve::GraphSpec;

/// Graph sizes. [`Sizes::FULL`] is the benchmark; [`Sizes::TINY`] keeps
/// the tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// R-MAT suite scale (`2^scale` vertices, edge factor 8).
    pub rmat_scale: u32,
    /// Mesh suite side (`side × side` vertices).
    pub mesh_side: usize,
    /// Graphs per kernel suite.
    pub suite_len: usize,
    /// Graphs in the serve pool; the first is the session graph.
    pub pool_len: usize,
    /// Smallest R-MAT scale in the serve pool.
    pub pool_rmat_scale: u32,
    /// Smallest mesh side in the serve pool.
    pub pool_mesh_side: usize,
}

impl Sizes {
    /// An R-MAT scale-14 graph has ~230k arcs: ~1.9 MB of adjacency and
    /// weights plus per-vertex kernel state, beyond a 2 MB L2. The 224²
    /// mesh's shortest kernel (coloring) runs no shorter than the R-MAT
    /// one's. Sixteen graphs per suite keep the seed-to-seed spread of a
    /// suite's total work to a few percent.
    pub const FULL: Sizes = Sizes {
        rmat_scale: 14,
        mesh_side: 224,
        suite_len: 16,
        pool_len: 24,
        pool_rmat_scale: 10,
        pool_mesh_side: 48,
    };

    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        rmat_scale: 9,
        mesh_side: 24,
        suite_len: 2,
        pool_len: 4,
        pool_rmat_scale: 7,
        pool_mesh_side: 12,
    };
}

/// Which graphs a phase runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Rmat,
    Mesh,
    /// Alternating R-MAT and mesh.
    Mixed,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Family of the kernel suite; `None` runs the kernels on the serve pool.
    pub suite: Option<Family>,
    /// Family of the serve pool.
    pub pool: Family,
    /// Share of `--seconds` given to the kernel phase; the rest drives the
    /// serve mix.
    pub kernel_share: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rmat-kernels",
        suite: Some(Family::Rmat),
        pool: Family::Rmat,
        kernel_share: 0.8,
    },
    Workload {
        name: "mesh-kernels",
        suite: Some(Family::Mesh),
        pool: Family::Mesh,
        kernel_share: 0.8,
    },
    Workload {
        name: "serve-churn",
        suite: None,
        pool: Family::Mixed,
        kernel_share: 0.25,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: derives independent per-graph seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A graph seed small enough to read back exactly from the wire's JSON
/// numbers and compact spec strings.
fn graph_seed(seed: u64, salt: u64) -> u64 {
    mix(seed, salt) >> 32
}

impl Workload {
    /// The kernel suite's graph specs.
    pub fn suite_specs(&self, sizes: &Sizes, seed: u64) -> Vec<GraphSpec> {
        let Some(family) = self.suite else {
            return self.pool_specs(sizes, seed);
        };
        (0..sizes.suite_len as u64)
            .map(|j| {
                let seed = graph_seed(seed, j);
                match family {
                    Family::Mesh => GraphSpec::Mesh {
                        width: sizes.mesh_side,
                        height: sizes.mesh_side,
                        seed,
                    },
                    Family::Rmat | Family::Mixed => GraphSpec::Rmat {
                        scale: sizes.rmat_scale,
                        edge_factor: 8,
                        seed,
                    },
                }
            })
            .collect()
    }

    /// The serve pool: small graphs of a few sizes. Entry 0 is the session
    /// graph the update frames mutate.
    pub fn pool_specs(&self, sizes: &Sizes, seed: u64) -> Vec<GraphSpec> {
        (0..sizes.pool_len as u64)
            .map(|j| {
                let seed = graph_seed(seed, 1000 + j);
                let mesh = match self.pool {
                    Family::Rmat => false,
                    Family::Mesh => true,
                    Family::Mixed => j % 2 == 1,
                };
                if mesh {
                    let side = sizes.pool_mesh_side + 8 * (j as usize / 2 % 3);
                    GraphSpec::Mesh {
                        width: side,
                        height: side,
                        seed,
                    }
                } else {
                    GraphSpec::Rmat {
                        scale: sizes.pool_rmat_scale + (j as u32 / 2 % 2),
                        edge_factor: 8,
                        seed,
                    }
                }
            })
            .collect()
    }
}
