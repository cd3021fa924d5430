//! The graph substrate under one and two threads: R-MAT/mesh generation,
//! CSR build and Louvain coarsening, each bit-identical at any pool size.

use crate::metrics::{median, Tally};
use crate::trace::{Layer, Tracer};
use gp_graph::builder::{DedupPolicy, GraphBuilder};
use gp_graph::csr::Csr;
use gp_graph::stats::DegreeHistogram;
use gp_graph::Edge;
use gp_serve::GraphSpec;

/// Runs `f` on a pool of exactly `threads` workers (one runs inline).
pub fn on_pool<R>(tracer: &mut Tracer, threads: usize, f: impl FnOnce(&mut Tracer) -> R) -> R {
    let pool = gp_par::cached(threads);
    tracer.span(Layer::Par, "par.install", |tracer| {
        pool.install(|| f(tracer))
    })
}

/// Builds every spec on the 2-thread pool.
pub fn build_suite(specs: &[GraphSpec], tracer: &mut Tracer) -> Vec<Csr> {
    on_pool(tracer, 2, |tracer| {
        specs
            .iter()
            .map(|s| tracer.leaf(Layer::Graph, "graph.generate", || s.build()))
            .collect()
    })
}

/// Median seconds of one pass at 1 and at 2 threads, alternating which
/// pool goes first.
#[derive(Debug, Clone, Copy)]
pub struct Scaling {
    pub one: f64,
    pub two: f64,
}

impl Scaling {
    pub fn speedup(&self) -> f64 {
        self.one / self.two
    }
}

fn scaling<R: PartialEq>(
    reps: usize,
    what: &str,
    tally: &mut Tally,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> R,
) -> Scaling {
    let mut secs = [Vec::new(), Vec::new()];
    let mut reference: Option<R> = None;
    for rep in 0..reps {
        for slot in [rep % 2, 1 - rep % 2] {
            let start = std::time::Instant::now();
            let out = on_pool(tracer, slot + 1, &mut pass);
            secs[slot].push(start.elapsed().as_secs_f64());
            match &reference {
                None => reference = Some(out),
                Some(r) => tally.op(if *r == out {
                    Ok(())
                } else {
                    Err(format!("{what} output depends on the pool size"))
                }),
            }
        }
    }
    Scaling {
        one: median(&secs[0]),
        two: median(&secs[1]),
    }
}

/// Generation, CSR build and coarsening of one graph at 1 and 2 threads.
pub struct Substrate {
    pub generate: Scaling,
    pub build_csr: Scaling,
    pub coarsen: Scaling,
}

pub fn measure(
    spec: &GraphSpec,
    g: &Csr,
    communities: &[u32],
    reps: usize,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Substrate {
    let generate = scaling(reps, "generation", tally, tracer, |t| {
        t.leaf(Layer::Graph, "graph.generate", || spec.build())
    });
    let edges: Vec<Edge> = g
        .vertices()
        .flat_map(|u| {
            g.edges_of(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| Edge::new(u, v, w))
        })
        .collect();
    let build_csr = scaling(reps, "CSR build", tally, tracer, |t| {
        t.leaf(Layer::Graph, "graph.build_csr", || {
            GraphBuilder::new(g.num_vertices())
                .dedup_policy(DedupPolicy::KeepMax)
                .add_edges(edges.iter().copied())
                .build()
        })
    });
    let rebuilt = GraphBuilder::new(g.num_vertices())
        .dedup_policy(DedupPolicy::KeepMax)
        .add_edges(edges)
        .build();
    tally.op(if rebuilt == *g {
        Ok(())
    } else {
        Err("CSR rebuilt from the graph's edge list differs from the graph".to_string())
    });
    let coarsen = scaling(reps, "coarsening", tally, tracer, |t| {
        t.leaf(Layer::Core, "core.coarsen", || {
            let c = gp_core::louvain::coarsen::coarsen(g, communities);
            (c.graph, c.fine_to_coarse)
        })
    });
    Substrate {
        generate,
        build_csr,
        coarsen,
    }
}

/// Context counts of a suite: which kernel paths its graphs engage.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub arcs: u64,
    pub max_degree: u64,
    /// Vertices at or above their graph's hub threshold.
    pub hub_vertices: u64,
    /// Share of vertices in the ≤16-degree low bin.
    pub low_degree_frac: f64,
}

pub fn shape(suite: &[Csr]) -> Shape {
    let (mut arcs, mut max_degree, mut hubs, mut low, mut n) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for g in suite {
        let hub = DegreeHistogram::build(g).hub_threshold() as usize;
        for u in g.vertices() {
            let d = g.degree(u);
            hubs += u64::from(d >= hub);
            low += u64::from(d <= 16);
        }
        arcs += g.num_arcs() as u64;
        max_degree = max_degree.max(g.max_degree() as u64);
        n += g.num_vertices() as u64;
    }
    Shape {
        arcs,
        max_degree,
        hub_vertices: hubs,
        low_degree_frac: low as f64 / n.max(1) as f64,
    }
}
