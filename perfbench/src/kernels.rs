//! The kernel phase: the seven sequential kernels over a graph suite, their
//! output checks, the traced repetition and the counted runs.

use crate::calib::{Probe, PROBE_REF_S};
use crate::metrics::{median, Tally, KERNELS};
use crate::trace::{Layer, Tracer};
use gp_core::api::{run_kernel, Backend, Kernel, KernelOutput, KernelSpec, Strategy, Variant};
use gp_core::coloring::{count_colors, verify_coloring};
use gp_core::louvain::modularity;
use gp_graph::csr::Csr;
use gp_metrics::telemetry::{NoopRecorder, Trace, TraceRecorder};
use gp_simd::counters::{self, OpCounts};
use std::sync::Mutex;
use std::time::Instant;

pub const COLOR: usize = 0;
pub const COLOR_SCALAR: usize = 1;
pub const ONPL: usize = 2;
pub const MPLM: usize = 3;

/// The paper's "same modularity" band between ONPL and MPLM, as the
/// repository's suite tests state it.
pub const MODULARITY_TOLERANCE: f64 = 0.02;

/// The kernel specs in [`KERNELS`] order. All are sequential, so the work
/// and the outputs are a pure function of the graph and `seed`. The vector
/// kernels pin the best vector backend of the host (AVX-512 when present).
pub fn specs(seed: u64) -> Vec<KernelSpec> {
    let vector = Backend::best_vector();
    [
        KernelSpec::new(Kernel::Coloring).with_backend(vector),
        KernelSpec::new(Kernel::Coloring).with_backend(Backend::Scalar),
        KernelSpec::new(Kernel::Louvain(Variant::Onpl(Strategy::Adaptive))).with_backend(vector),
        KernelSpec::new(Kernel::Louvain(Variant::Mplm)),
        KernelSpec::new(Kernel::Louvain(Variant::Ovpl)).with_backend(vector),
        KernelSpec::new(Kernel::Labelprop)
            .with_backend(vector)
            .with_seed(seed),
        KernelSpec::new(Kernel::Labelprop)
            .with_backend(Backend::Scalar)
            .with_seed(seed),
    ]
    .into_iter()
    .map(KernelSpec::sequential)
    .collect()
}

/// FNV-1a digest of a kernel's output (assignment vector, plus modularity
/// for Louvain).
pub fn digest(out: &KernelOutput) -> u64 {
    let mut h = crate::FNV_OFFSET;
    let values = out.colors().or(out.communities()).unwrap_or(&[]);
    crate::fnv(&mut h, values.iter().flat_map(|v| v.to_le_bytes()));
    if let Some(l) = out.as_louvain() {
        crate::fnv(&mut h, l.modularity.to_bits().to_le_bytes());
    }
    h
}

/// Checks one output on its own: colorings are proper and count their
/// colors right, Louvain's reported modularity matches a recomputation, and
/// every assignment covers every vertex.
fn check_output(g: &Csr, out: &KernelOutput) -> Result<(), String> {
    let n = g.num_vertices();
    match out {
        KernelOutput::Coloring(r) => {
            verify_coloring(g, &r.colors).map_err(|e| format!("improper coloring: {e:?}"))?;
            if count_colors(&r.colors) != r.num_colors {
                return Err(format!("coloring reports {} colors", r.num_colors));
            }
            Ok(())
        }
        KernelOutput::Louvain(r) => {
            if r.communities.len() != n {
                return Err("Louvain assignment does not cover the graph".to_string());
            }
            let q = modularity(g, &r.communities);
            if (q - r.modularity).abs() > 1e-9 {
                return Err(format!(
                    "Louvain reports Q={} but recomputes {q}",
                    r.modularity
                ));
            }
            Ok(())
        }
        KernelOutput::Labelprop(r) => {
            if r.labels.len() == n {
                Ok(())
            } else {
                Err("label assignment does not cover the graph".to_string())
            }
        }
    }
}

/// Expected digests per (kernel, graph): the first run of each is checked
/// in full, every later run must reproduce it.
#[derive(Debug, Clone)]
pub struct Outputs {
    pub digests: Vec<Vec<Option<u64>>>,
    /// ONPL modularity per graph.
    pub modularity: Vec<f64>,
    /// Colors of the vector coloring per graph.
    pub colors: Vec<u32>,
    /// MPLM communities of the first graph (input to the coarsening probe).
    pub mplm_first: Vec<u32>,
}

impl Outputs {
    pub fn new(graphs: usize) -> Outputs {
        Outputs {
            digests: vec![vec![None; graphs]; KERNELS.len()],
            modularity: vec![0.0; graphs],
            colors: vec![0; graphs],
            mplm_first: Vec::new(),
        }
    }

    /// Checks a run of kernel `k` on graph `gi`; `first` holds the graph's
    /// outputs of this repetition for the cross-kernel checks.
    fn check(
        &mut self,
        g: &Csr,
        k: usize,
        gi: usize,
        out: KernelOutput,
        first: &mut [Option<KernelOutput>],
        tally: &mut Tally,
    ) {
        let d = digest(&out);
        let name = KERNELS[k];
        match self.digests[k][gi] {
            Some(expected) => tally.op(if expected == d {
                Ok(())
            } else {
                Err(format!(
                    "{name} on graph {gi}: sequential output changed between runs"
                ))
            }),
            None => {
                let outcome =
                    check_output(g, &out).map_err(|e| format!("{name} on graph {gi}: {e}"));
                tally.op(outcome);
                self.digests[k][gi] = Some(d);
                match k {
                    COLOR => self.colors[gi] = out.as_coloring().map_or(0, |c| c.num_colors),
                    ONPL => self.modularity[gi] = out.as_louvain().map_or(0.0, |l| l.modularity),
                    MPLM if gi == 0 => self.mplm_first = out.communities().unwrap_or(&[]).to_vec(),
                    _ => {}
                }
                first[k] = Some(out);
            }
        }
    }
}

/// Cross-kernel checks on one graph's first outputs: the vector and scalar
/// colorings agree, and ONPL's modularity is within the tolerance of MPLM's.
fn cross_check(gi: usize, first: &[Option<KernelOutput>], tally: &mut Tally) {
    if let (Some(v), Some(s)) = (&first[COLOR], &first[COLOR_SCALAR]) {
        tally.op(if v.colors() == s.colors() {
            Ok(())
        } else {
            Err(format!("graph {gi}: vector and scalar colorings differ"))
        });
    }
    if let (Some(onpl), Some(mplm)) = (&first[ONPL], &first[MPLM]) {
        let (a, b) = (
            onpl.as_louvain().map_or(0.0, |l| l.modularity),
            mplm.as_louvain().map_or(0.0, |l| l.modularity),
        );
        tally.op(if (a - b).abs() <= MODULARITY_TOLERANCE {
            Ok(())
        } else {
            Err(format!(
                "graph {gi}: ONPL Q={a} vs MPLM Q={b} beyond {MODULARITY_TOLERANCE}"
            ))
        });
    }
}

/// Timed samples of the untraced phase, each between two host-speed probes.
#[derive(Debug)]
pub struct Timed {
    /// Seconds per sample, `[kernel][graph][repetition]`.
    pub secs: Vec<Vec<Vec<f64>>>,
    /// Each sample over the mean of the probe times just before and just
    /// after it, same shape.
    pub ratio: Vec<Vec<Vec<f64>>>,
    /// Every probe time of the run, in order.
    pub probes: Vec<f64>,
    /// Wall seconds of each whole repetition (all kernels, all graphs,
    /// their checks), probes excluded.
    pub rep_secs: Vec<f64>,
    probe: Probe,
}

impl Timed {
    pub fn new(graphs: usize) -> Timed {
        Timed {
            secs: vec![vec![Vec::new(); graphs]; KERNELS.len()],
            ratio: vec![vec![Vec::new(); graphs]; KERNELS.len()],
            probes: Vec::new(),
            rep_secs: Vec::new(),
            probe: Probe::new(),
        }
    }

    /// A kernel's time over the suite, as the end-to-end metric reports it:
    /// the sum over graphs of the median sample-to-probe ratio, in seconds
    /// of a host whose probe takes [`PROBE_REF_S`].
    pub fn suite_secs(&self, k: usize) -> f64 {
        PROBE_REF_S * self.ratio[k].iter().map(|s| median(s)).sum::<f64>()
    }

    /// A kernel's wall time over the suite: the sum of its per-graph
    /// median samples, as this host ran them.
    pub fn wall_secs(&self, k: usize) -> f64 {
        self.secs[k].iter().map(|s| median(s)).sum()
    }

    fn probe(&mut self) -> f64 {
        let p = self.probe.time();
        self.probes.push(p);
        p
    }

    /// Runs every kernel once on every graph, timing each run, with a probe
    /// before the first run and after every run.
    pub fn rep(
        &mut self,
        suite: &[Csr],
        specs: &[KernelSpec],
        outputs: &mut Outputs,
        tally: &mut Tally,
    ) {
        let rep_start = Instant::now();
        let mut before = self.probe();
        let mut probe_secs = before;
        for (gi, g) in suite.iter().enumerate() {
            let mut first: Vec<Option<KernelOutput>> = vec![None; specs.len()];
            for (k, spec) in specs.iter().enumerate() {
                let start = Instant::now();
                let out = std::hint::black_box(run_kernel(
                    std::hint::black_box(g),
                    spec,
                    &mut NoopRecorder,
                ));
                let secs = start.elapsed().as_secs_f64();
                let after = self.probe();
                probe_secs += after;
                self.secs[k][gi].push(secs);
                self.ratio[k][gi].push(secs / ((before + after) / 2.0));
                before = after;
                outputs.check(g, k, gi, out, &mut first, tally);
            }
            cross_check(gi, &first, tally);
        }
        self.rep_secs
            .push(rep_start.elapsed().as_secs_f64() - probe_secs);
    }
}

/// One repetition with a span around every kernel call and a recorder
/// collecting each run's rounds and phases: `traces[kernel][graph]`.
pub fn traced_rep(
    suite: &[Csr],
    specs: &[KernelSpec],
    outputs: &mut Outputs,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Vec<Vec<Trace>> {
    let mut traces: Vec<Vec<Trace>> = vec![Vec::new(); specs.len()];
    tracer.span(Layer::Bench, "kernels.traced_rep", |tracer| {
        for (gi, g) in suite.iter().enumerate() {
            let mut first: Vec<Option<KernelOutput>> = vec![None; specs.len()];
            for (k, spec) in specs.iter().enumerate() {
                let mut rec = TraceRecorder::new(KERNELS[k]);
                let out = tracer.leaf(Layer::Core, "core.run_kernel", || {
                    run_kernel(g, spec, &mut rec)
                });
                traces[k].push(rec.into_trace());
                outputs.check(g, k, gi, out, &mut first, tally);
            }
            cross_check(gi, &first, tally);
        }
    });
    traces
}

/// Op counts are process-global; counted runs take this lock so that no two
/// overlap, and the benchmark makes them only after all timed work.
static COUNTED_RUNS: Mutex<()> = Mutex::new(());

/// Resets the counters and runs `spec` alone with op counting on.
pub fn counted(g: &Csr, spec: &KernelSpec, tracer: &mut Tracer) -> OpCounts {
    let _alone = COUNTED_RUNS.lock().expect("a counted run panicked");
    let spec = spec.counted();
    tracer.span(Layer::Simd, "simd.counted_run", |tracer| {
        counters::reset();
        tracer.leaf(Layer::Core, "core.run_kernel", || {
            run_kernel(g, &spec, &mut NoopRecorder)
        });
        counters::snapshot()
    })
}
