//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rmat-kernels|mesh-kernels|serve-churn> --seed <n> \
//!     --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! traced run and prints the per-layer metrics. The last line of standard
//! output is the result object; the lines before it are the host record and
//! a readable report. See `perfbench/README.md` for the workloads and
//! metrics.

mod calib;
mod host;
mod kernels;
mod metrics;
mod serve;
mod substrate;
mod trace;
mod workload;

use gp_metrics::telemetry::{RoundStats, Trace};
use gp_simd::counters::{OpClass, OpCounts};
use metrics::{median, percentile, Metrics, Tally, COUNTED_KERNELS, KERNELS, LOUVAIN_KERNELS};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Layer, Tracer, LAYERS};
use workload::{Sizes, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Repetitions of each 1-thread/2-thread substrate pass.
const SCALING_REPS: usize = 5;
/// Fewest kernel repetitions: each (kernel, graph) time is a median of at
/// least this many samples.
const MIN_REPS: usize = 3;
/// Fewest serve frames of each class: the read p90 then has at least 10
/// samples beyond it, the update p50 at least 20.
const MIN_READS: usize = 200;
const MIN_UPDATES: usize = 40;
/// Updates per connection in the in-process replay.
const REPLAY_PER_CONN: u64 = 64;

const USAGE: &str = "usage: perfbench --workload <rmat-kernels|mesh-kernels|serve-churn> \
                     --seed <n> --seconds <s> --trace <0|1> [--spans <file>]";

#[derive(Debug, Clone)]
struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("bad --seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value}: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {value} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// Everything one run measured.
struct Outcome {
    metrics: Metrics,
    tally: Tally,
    report: Vec<String>,
    spans: Vec<trace::Span>,
    /// Digest of the kernel suite's graphs.
    graph_digest: u64,
    /// Digest of every sequential kernel output.
    output_digest: u64,
}

/// The inputs a set-up produces, with the server it started.
struct Live {
    suite: Vec<gp_graph::csr::Csr>,
    session: gp_graph::csr::Csr,
    mix: serve::Mix,
    server: gp_serve::Server,
    addr: String,
}

fn set_up(w: &Workload, sizes: &Sizes, seed: u64, tracer: &mut Tracer) -> Result<Live, String> {
    let suite = substrate::build_suite(&w.suite_specs(sizes, seed), tracer);
    let pool = w.pool_specs(sizes, seed);
    let session = match w.suite {
        None => suite[0].clone(),
        Some(_) => tracer.leaf(Layer::Graph, "graph.generate", || pool[0].build()),
    };
    let mix = serve::Mix::new(&pool, &session, seed);
    let server = tracer.leaf(Layer::Serve, "serve.start", serve::start_server)?;
    let addr = server.local_addr().to_string();
    tracer.leaf(Layer::Serve, "serve.warm", || serve::warm(&addr, &mix))?;
    Ok(Live {
        suite,
        session,
        mix,
        server,
        addr,
    })
}

/// FNV-1a offset basis: the start value of every digest [`fnv`] extends.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends the FNV-1a digest `h` with `bytes`.
fn fnv(h: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn run(opts: &Opts, sizes: &Sizes) -> Result<Outcome, String> {
    // Kernels inside the server run on the global pool: one thread keeps
    // them deterministic whatever GP_THREADS says.
    gp_par::set_global_threads(1).map_err(|e| e.to_string())?;
    let w = opts.workload;
    let seed = opts.seed;
    let mut tracer = if opts.trace {
        Tracer::on(Instant::now())
    } else {
        Tracer::off()
    };
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut report = Vec::new();

    let mut setup_secs = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = live.take() {
            tracer.leaf(Layer::Serve, "serve.shutdown", || old.server.shutdown());
        }
        let start = Instant::now();
        live = Some(tracer.span(Layer::Bench, "setup", |t| set_up(&w, sizes, seed, t))?);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let Live {
        suite,
        session,
        mix,
        server,
        addr,
    } = live.expect("at least one set-up");
    let specs = kernels::specs(seed);

    // The untraced phases, interleaved: each kernel repetition is followed
    // by a serve segment sized to keep the workload's time split, so both
    // phases sample the host over the whole run. A traced run spends half
    // of its time here and the other half on the traced counterparts.
    let split = if opts.trace { 0.5 } else { 1.0 };
    let budget = opts.seconds * split;
    let serve_per_kernel_sec = (1.0 - w.kernel_share) / w.kernel_share;
    let mut outputs = kernels::Outputs::new(suite.len());
    let mut timed = kernels::Timed::new(suite.len());
    let mut session_state = serve::Session::default();
    let mut seg = serve::Segment::default();
    let start = Instant::now();
    loop {
        let rep_start = Instant::now();
        timed.rep(&suite, &specs, &mut outputs, &mut tally);
        let chunk = rep_start.elapsed().mul_f64(serve_per_kernel_sec);
        let done = timed.rep_secs.len() >= MIN_REPS
            && start.elapsed() + chunk >= Duration::from_secs_f64(budget);
        let min = if done {
            (
                MIN_READS.saturating_sub(seg.read_ms.len()),
                MIN_UPDATES.saturating_sub(seg.update_ms.len()),
            )
        } else {
            (0, 0)
        };
        seg.absorb(serve::segment(
            &addr,
            &mix,
            &mut session_state,
            chunk,
            min,
            &Tracer::off(),
        )?);
        if done {
            break;
        }
    }
    tally.merge(std::mem::take(&mut seg.tally));

    let (p50, p50_beyond) = percentile(&seg.read_ms, 0.5);
    let (p90, p90_beyond) = percentile(&seg.read_ms, 0.9);
    let (up50, up50_beyond) = percentile(&seg.update_ms, 0.5);
    report.push(format!(
        "kernel phase: {} repetitions over {} graphs, median repetition {:.4} s; {} probes, median {:.4} ms, fastest {:.4} ms",
        timed.rep_secs.len(),
        suite.len(),
        median(&timed.rep_secs),
        timed.probes.len(),
        1e3 * median(&timed.probes),
        1e3 * timed.probes.iter().copied().fold(f64::INFINITY, f64::min)
    ));
    let wall: Vec<String> = KERNELS
        .iter()
        .enumerate()
        .map(|(k, name)| format!("{name} {:.4}", timed.wall_secs(k)))
        .collect();
    report.push(format!(
        "kernel wall seconds (sum of per-graph medians, unscaled): {}",
        wall.join(", ")
    ));
    report.push(format!(
        "serve phase: {:.2} s, {} run frames (p50 {p50:.4} ms with {p50_beyond} beyond, p90 {p90:.4} ms with {p90_beyond} beyond), {} update frames (p50 {up50:.4} ms with {up50_beyond} beyond)",
        seg.wall_s,
        seg.read_ms.len(),
        seg.update_ms.len()
    ));
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", percentile(&seg.read_ms, f64::from(d) / 10.0).0))
        .collect();
    report.push(format!(
        "run frame latency deciles, ms: {}",
        deciles.join(" ")
    ));
    tally.op(if p90_beyond >= 10 && up50_beyond >= 10 {
        Ok(())
    } else {
        Err("too few serve samples beyond a reported percentile".to_string())
    });

    m.set("setup_s", median(&setup_secs));
    m.set("host.probe_ms", 1e3 * median(&timed.probes));
    for (k, name) in KERNELS.iter().enumerate() {
        m.set(format!("{name}_s"), timed.suite_secs(k));
    }
    m.set(
        "modularity",
        outputs.modularity.iter().sum::<f64>() / suite.len() as f64,
    );
    m.set(
        "colors",
        outputs.colors.iter().map(|&c| f64::from(c)).sum::<f64>() / suite.len() as f64,
    );
    m.set("serve_req_per_s", seg.ok as f64 / seg.wall_s);
    m.set("serve_p50_ms", p50);
    m.set("serve_p90_ms", p90);
    m.set("update_p50_ms", up50);

    if opts.trace {
        // The traced counterparts, while the server is still up.
        let traces = kernels::traced_rep(&suite, &specs, &mut outputs, &mut tally, &mut tracer);
        core_metrics(&traces, &mut m);
        // The client threads' spans stay roots of their own: the main
        // thread only waits while they run.
        let serve_budget = Duration::from_secs_f64(budget * (1.0 - w.kernel_share));
        let mut traced_seg = serve::segment(
            &addr,
            &mix,
            &mut session_state,
            serve_budget,
            (MIN_READS, MIN_UPDATES),
            &tracer,
        )?;
        tracer.absorb(std::mem::take(&mut traced_seg.spans));
        tally.merge(std::mem::take(&mut traced_seg.tally));
        serve_metrics(&traced_seg, &mut m);
        let traced_p50 = percentile(&traced_seg.read_ms, 0.5).0;
        m.set("trace.serve_overhead_frac", traced_p50 / p50 - 1.0);
    }
    let final_stats = tracer.leaf(Layer::Serve, "serve.shutdown", || server.shutdown());
    tally.op(
        match final_stats.get("errors").and_then(gp_serve::Json::as_f64) {
            Some(0.0) => Ok(()),
            other => Err(format!("server drained with errors={other:?}")),
        },
    );

    if opts.trace {
        // Work that must run alone: op counting (process-global counters),
        // thread scaling, and the in-process update replay.
        for name in COUNTED_KERNELS {
            let k = KERNELS
                .iter()
                .position(|&n| n == name)
                .expect("counted kernels are kernels");
            let first = kernels::counted(&suite[0], &specs[k], &mut tracer);
            let again = kernels::counted(&suite[0], &specs[k], &mut tracer);
            tally.op(if first == again {
                Ok(())
            } else {
                Err(format!("{name}: op counts differ between two counted runs"))
            });
            simd_metrics(name, &first, &mut m);
            report.push(format!(
                "simd.{name}: conflict per arc {:.4}, gather per arc {:.4} (graph 0, {} arcs)",
                first.get(OpClass::Conflict) as f64 / suite[0].num_arcs() as f64,
                first.get(OpClass::Gather) as f64 / suite[0].num_arcs() as f64,
                suite[0].num_arcs()
            ));
        }
        let suite_specs = w.suite_specs(sizes, seed);
        let sub = tracer.span(Layer::Bench, "substrate", |t| {
            substrate::measure(
                &suite_specs[0],
                &suite[0],
                &outputs.mplm_first,
                SCALING_REPS,
                &mut tally,
                t,
            )
        });
        m.set("graph.generate_s", sub.generate.two);
        m.set("graph.build_csr_s", sub.build_csr.two);
        m.set("par.generate_speedup_2t", sub.generate.speedup());
        m.set("par.build_csr_speedup_2t", sub.build_csr.speedup());
        m.set("par.coarsen_speedup_2t", sub.coarsen.speedup());
        let shape = substrate::shape(&suite);
        m.set("graph.arcs", shape.arcs as f64);
        m.set("graph.max_degree", shape.max_degree as f64);
        m.set("graph.hub_vertices", shape.hub_vertices as f64);
        m.set("graph.low_degree_frac", shape.low_degree_frac);

        let prepare = tracer.span(Layer::Bench, "ovpl.prepare", |t| {
            let cfg = gp_core::louvain::LouvainConfig::sequential(gp_core::api::Variant::Ovpl);
            suite
                .iter()
                .map(|g| {
                    let start = Instant::now();
                    t.leaf(Layer::Core, "core.ovpl_prepare", || {
                        std::hint::black_box(gp_core::louvain::ovpl::prepare(g, &cfg));
                    });
                    start.elapsed().as_secs_f64()
                })
                .sum::<f64>()
        });
        m.set("core.louvain_ovpl.prepare_s", prepare);

        let replay = serve::replay(&session, &mix, REPLAY_PER_CONN, &mut tally, &mut tracer);
        m.set("graph.delta_apply_ms", median(&replay.apply_ms));
        m.set("graph.compactions", replay.compactions as f64);
        m.set("core.incremental.touched", replay.touched as f64);
        m.set("core.incremental.run_ms", median(&replay.run_ms));

        reconcile(&tracer, median(&timed.rep_secs), &mut m, &mut report);
    }

    let mut graph_digest = FNV_OFFSET;
    for g in &suite {
        fnv(
            &mut graph_digest,
            g.xadj().iter().chain(g.adj()).flat_map(|x| x.to_le_bytes()),
        );
    }
    let mut output_digest = FNV_OFFSET;
    for d in outputs.digests.iter().flatten().flatten() {
        fnv(&mut output_digest, d.to_le_bytes());
    }
    Ok(Outcome {
        metrics: m,
        tally,
        report,
        spans: tracer.into_spans(),
        graph_digest,
        output_digest,
    })
}

/// `core.<kernel>.*` from the recorder traces of the traced repetition.
fn core_metrics(traces: &[Vec<Trace>], m: &mut Metrics) {
    for (k, name) in KERNELS.iter().enumerate() {
        let rounds: Vec<&RoundStats> = traces[k].iter().flat_map(|t| &t.rounds).collect();
        let secs: Vec<f64> = rounds.iter().map(|r| r.secs).collect();
        let moves: u64 = rounds.iter().map(|r| r.moves).sum();
        let active: u64 = rounds.iter().map(|r| r.active).sum();
        m.set(format!("core.{name}.rounds"), rounds.len() as f64);
        m.set(format!("core.{name}.round_s"), median(&secs));
        m.set(
            format!("core.{name}.active_edges"),
            rounds.iter().map(|r| r.active_edges).sum::<u64>() as f64,
        );
        m.set(
            format!("core.{name}.useful_frac"),
            moves as f64 / active.max(1) as f64,
        );
        if LOUVAIN_KERNELS.contains(name) {
            let phase = |p: &str| -> f64 {
                traces[k]
                    .iter()
                    .flat_map(|t| &t.phases)
                    .filter(|s| s.name == p)
                    .map(|s| s.secs)
                    .sum()
            };
            m.set(format!("core.{name}.move_s"), secs.iter().sum::<f64>());
            m.set(format!("core.{name}.coarsen_s"), phase("coarsen"));
            m.set(format!("core.{name}.project_s"), phase("project"));
        }
    }
    // The locality census of each graph's first coloring round, when every
    // vertex is active.
    let first_rounds: Vec<&RoundStats> = traces[kernels::COLOR]
        .iter()
        .filter_map(|t| t.rounds.first())
        .collect();
    m.set(
        "core.locality.bin_low",
        first_rounds.iter().map(|r| r.bin_low).sum::<u64>() as f64,
    );
    m.set(
        "core.locality.bin_mid",
        first_rounds.iter().map(|r| r.bin_mid).sum::<u64>() as f64,
    );
    m.set(
        "core.locality.bin_hub",
        first_rounds.iter().map(|r| r.bin_hub).sum::<u64>() as f64,
    );
    m.set(
        "core.locality.blocks",
        first_rounds.iter().map(|r| r.blocks).sum::<u64>() as f64,
    );
}

/// `simd.<kernel>.*` from one counted run. Bytes are computed from the
/// counts (64 per vector memory op, 4 per scalar one), not measured.
fn simd_metrics(name: &str, c: &OpCounts, m: &mut Metrics) {
    m.set(format!("simd.{name}.gather"), c.get(OpClass::Gather) as f64);
    m.set(
        format!("simd.{name}.scatter"),
        c.get(OpClass::Scatter) as f64,
    );
    m.set(
        format!("simd.{name}.conflict"),
        c.get(OpClass::Conflict) as f64,
    );
    m.set(format!("simd.{name}.reduce"), c.get(OpClass::Reduce) as f64);
    m.set(
        format!("simd.{name}.scalar_rand_load"),
        c.get(OpClass::ScalarRandLoad) as f64,
    );
    let vector = [
        OpClass::VecLoad,
        OpClass::VecStore,
        OpClass::Gather,
        OpClass::Scatter,
    ];
    let scalar = [
        OpClass::ScalarLoad,
        OpClass::ScalarRandLoad,
        OpClass::ScalarStore,
    ];
    let bytes = 64 * vector.iter().map(|&o| c.get(o)).sum::<u64>()
        + 4 * scalar.iter().map(|&o| c.get(o)).sum::<u64>();
    m.set(format!("simd.{name}.bytes_computed"), bytes as f64);
}

/// `serve.*` from the traced segment.
fn serve_metrics(seg: &serve::Segment, m: &mut Metrics) {
    let k = seg.counters;
    let rate = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    m.set("serve.exec_ms_p50", median(&seg.exec_ms));
    m.set("serve.overhead_ms_p50", median(&seg.overhead_ms));
    m.set(
        "serve.graph_cache_hit_rate",
        rate(k.graph_hits, k.graph_misses),
    );
    m.set(
        "serve.result_cache_hit_rate",
        rate(k.result_hits, k.result_misses),
    );
    m.set("serve.shed", k.shed);
    m.set("serve.timed_out", k.timed_out);
    m.set("serve.errors", k.errors);
    m.set("serve.coalesced", k.coalesced);
    m.set("serve.update_exec_ms_p50", median(&seg.update_exec_ms));
}

/// Self time per layer over every traced span, the benchmark's own share
/// as the `unattributed` row, and the traced repetition against the
/// untraced one.
fn reconcile(tracer: &Tracer, untraced_rep: f64, m: &mut Metrics, report: &mut Vec<String>) {
    let spans = tracer.spans();
    let roots: Vec<&trace::Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    let total: f64 = roots.iter().map(|s| s.secs()).sum();
    let selfs = trace::self_times(spans, None);
    report.push(format!(
        "traced spans: {} in {} root trees covering {total:.4} thread-seconds",
        spans.len(),
        roots.len()
    ));
    for (layer, secs) in LAYERS.iter().zip(selfs) {
        let row = if *layer == Layer::Bench {
            "unattributed"
        } else {
            layer.name()
        };
        report.push(format!(
            "  self {row:<13} {secs:>10.4} s {:>6.1}%",
            100.0 * secs / total.max(1e-12)
        ));
        let key = if *layer == Layer::Bench {
            "trace.unattributed_s".to_string()
        } else {
            format!("trace.{}_self_s", layer.name())
        };
        m.set(key, secs);
    }
    let traced_rep = spans
        .iter()
        .find(|s| s.name == "kernels.traced_rep")
        .map_or(0.0, |s| s.secs());
    report.push(format!(
        "kernel repetition: traced {traced_rep:.4} s, untraced median {untraced_rep:.4} s, tracing overhead {:.4} s",
        traced_rep - untraced_rep
    ));
    m.set("trace.overhead_frac", traced_rep / untraced_rep - 1.0);
}

/// Where the traced run writes its spans: `--spans`, else beside the build
/// output (`$CARGO_TARGET_DIR`, `.bench_build` by default).
fn spans_path(opts: &Opts) -> PathBuf {
    opts.spans.clone().unwrap_or_else(|| {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
        dir.join(format!(
            "perfbench-spans-{}-seed{}.json",
            opts.workload.name, opts.seed
        ))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{{\"host\":{}}}", host::record());
    let outcome = match run(&opts, &Sizes::FULL) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    println!(
        "digests: graphs {:016x}, sequential outputs {:016x}",
        outcome.graph_digest, outcome.output_digest
    );
    if opts.trace {
        let path = spans_path(&opts);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace::to_json(&outcome.spans)));
        match written {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    for problem in outcome.tally.problems.iter().take(20) {
        eprintln!("failed: {problem}");
    }
    let metrics = match outcome.metrics.to_json(opts.trace) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_serve::Json;

    fn opts(workload: &str, seed: u64, trace: bool) -> Opts {
        Opts {
            workload: workload::find(workload).unwrap(),
            seed,
            seconds: 0.0,
            trace,
            spans: None,
        }
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seed_and_the_other_flags_are_arguments() {
        let o = parse_args(&strings(&[
            "--workload",
            "mesh-kernels",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (o.workload.name, o.seed, o.seconds, o.trace),
            ("mesh-kernels", 7, 3.0, true)
        );
        assert!(parse_args(&strings(&[
            "--workload",
            "mesh-kernels",
            "--seconds",
            "3",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "3",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "serve-churn",
            "--seed",
            "1",
            "--seconds",
            "3",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn benchmark_json_names_the_registry() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = gp_serve::json::parse(&text).unwrap();
        let rows = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|i| {
                        let s = |k: &str| i.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key} list"),
            }
        };
        let expect = |trace: bool| -> Vec<(String, String)> {
            metrics::registry(trace)
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect()
        };
        assert_eq!(rows("end_to_end"), expect(false));
        assert_eq!(rows("per_layer"), expect(true));
        let names: Vec<String> = rows("workloads").into_iter().map(|(n, _)| n).collect();
        let known: Vec<String> = workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names, known);
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit_on_every_workload() {
        for w in workload::WORKLOADS {
            for trace in [false, true] {
                let out = run(&opts(w.name, 3, trace), &Sizes::TINY).unwrap();
                assert_eq!(
                    out.tally.failed, 0,
                    "{} trace={trace}: {:?}",
                    w.name, out.tally.problems
                );
                let json = out.metrics.to_json(trace).unwrap();
                let parsed = gp_serve::json::parse(&json).unwrap();
                for (name, unit) in metrics::registry(trace) {
                    let entry = parsed
                        .get(&name)
                        .unwrap_or_else(|| panic!("{} lacks {name}", w.name));
                    assert_eq!(entry.get("unit").and_then(Json::as_str), Some(unit));
                    assert!(entry.get("value").and_then(Json::as_f64).is_some());
                }
            }
        }
    }

    #[test]
    fn same_seed_repeats_graphs_and_outputs_and_another_seed_changes_them() {
        for w in ["rmat-kernels", "serve-churn"] {
            let a = run(&opts(w, 11, false), &Sizes::TINY).unwrap();
            let b = run(&opts(w, 11, false), &Sizes::TINY).unwrap();
            let c = run(&opts(w, 12, false), &Sizes::TINY).unwrap();
            assert_eq!(a.graph_digest, b.graph_digest, "{w}");
            assert_eq!(a.output_digest, b.output_digest, "{w}");
            assert_eq!(a.metrics.get("colors"), b.metrics.get("colors"));
            assert_eq!(a.metrics.get("modularity"), b.metrics.get("modularity"));
            assert_ne!(a.graph_digest, c.graph_digest, "{w}");
        }
    }

    #[test]
    fn simd_counts_repeat_exactly() {
        let w = workload::find("rmat-kernels").unwrap();
        let g = w.suite_specs(&Sizes::TINY, 5)[0].build();
        let specs = kernels::specs(5);
        for name in COUNTED_KERNELS {
            let k = KERNELS.iter().position(|&n| n == name).unwrap();
            let a = kernels::counted(&g, &specs[k], &mut Tracer::off());
            let b = kernels::counted(&g, &specs[k], &mut Tracer::off());
            assert_eq!(a, b, "{name}");
            assert!(a.total() > 0, "{name} counted nothing");
        }
    }
}
