//! The serve phase: an in-process `gp_serve::Server` (1 shard, 2 workers)
//! driven by a closed loop on two connections, each sending its next frame
//! only after the previous response arrived.
//!
//! The frame stream is a pure function of the seed and the global request
//! index:
//!
//! * every [`UPDATE_EVERY`]-th frame is a v2 `update` against the session
//!   graph (pool entry 0). Each connection owns its own list of non-edges:
//!   update `j` adds edge `j` and deletes the edge it added two updates
//!   earlier, so every echo is known in advance whatever the interleaving;
//! * [`HOT_PERCENT`]% of the `run` frames ask for one of [`HOT_KEYS`] fixed
//!   (pool graph, cheap kernel) keys, warmed in set-up: result-cache hits;
//! * [`COLD_PERCENT`]% run a cheap kernel on a graph never requested
//!   before: graph-cache and result-cache misses;
//! * the rest run a Louvain variant with a fresh kernel seed on a pool
//!   graph: graph-cache hits, result-cache misses.
//!
//! The shares place both reported percentiles inside the Louvain misses,
//! whose costs spread smoothly over the pool's graphs: the p50 near their
//! 36th percentile, the p90 near their 87th. A percentile on a boundary
//! between classes (hits at tens of µs, misses at ms) would jump with
//! small changes in the class shares.

use crate::metrics::Tally;
use crate::trace::{Layer, Span, Tracer};
use crate::workload::mix;
use gp_core::api::{run_kernel, Kernel, KernelSpec};
use gp_core::incremental::run_kernel_incremental;
use gp_graph::csr::Csr;
use gp_graph::{DeltaCsr, Edge};
use gp_metrics::telemetry::NoopRecorder;
use gp_serve::{json, GraphSpec, Json, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub const CONNECTIONS: usize = 2;
pub const UPDATE_EVERY: u64 = 8;
pub const HOT_PERCENT: u64 = 25;
pub const COLD_PERCENT: u64 = 5;
pub const HOT_KEYS: u64 = 16;
const HOT_KERNELS: [&str; 2] = ["color", "labelprop"];
const MISS_KERNELS: [&str; 2] = ["louvain-mplm", "louvain-onpl"];
/// Graph-cache capacity: the whole pool stays cached, so only the cold
/// frames miss it.
const GRAPH_CACHE: usize = 64;
/// Non-edges each connection cycles through (at least 3, so an edge is
/// always deleted before it is added again).
const EDITS_PER_CONN: usize = 64;

/// The seed-derived request stream for one serve pool.
#[derive(Debug, Clone)]
pub struct Mix {
    seed: u64,
    /// The pool; entry 0 is the session graph.
    pool: Vec<GraphSpec>,
    /// Canonical spec keys of the pool.
    pub keys: Vec<String>,
    /// Per-connection non-edges of the session graph.
    edits: [Vec<(u32, u32)>; CONNECTIONS],
}

/// What frame `i` of the stream is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    Read {
        graph: String,
        kernel: &'static str,
        seed: u64,
    },
    Update,
}

/// `spec` with its generator seed replaced.
fn reseed(spec: &GraphSpec, seed: u64) -> GraphSpec {
    let mut spec = spec.clone();
    match &mut spec {
        GraphSpec::Rmat { seed: s, .. }
        | GraphSpec::Er { seed: s, .. }
        | GraphSpec::Ba { seed: s, .. }
        | GraphSpec::Mesh { seed: s, .. }
        | GraphSpec::Road { seed: s, .. } => *s = seed,
        GraphSpec::Stencil { .. } => {}
    }
    spec
}

impl Mix {
    pub fn new(pool: &[GraphSpec], session: &Csr, seed: u64) -> Mix {
        let n = session.num_vertices() as u64;
        let mut chosen = std::collections::HashSet::new();
        let mut edits: [Vec<(u32, u32)>; CONNECTIONS] = Default::default();
        let mut draw = 0u64;
        while edits.iter().any(|e| e.len() < EDITS_PER_CONN) {
            let r = mix(seed, 1 << 40 | draw);
            draw += 1;
            let (u, v) = ((r % n) as u32, ((r >> 32) % n) as u32);
            let (u, v) = (u.min(v), u.max(v));
            if u == v || session.has_edge(u, v) || !chosen.insert((u, v)) {
                continue;
            }
            let c = (chosen.len() - 1) % CONNECTIONS;
            if edits[c].len() < EDITS_PER_CONN {
                edits[c].push((u, v));
            }
        }
        Mix {
            seed,
            pool: pool.to_vec(),
            keys: pool.iter().map(GraphSpec::canonical_key).collect(),
            edits,
        }
    }

    /// Pool graphs that `run` frames read (all but the session graph).
    fn read_graphs(&self) -> u64 {
        (self.keys.len() as u64 - 1).max(1)
    }

    fn pool_key(&self, h: u64) -> String {
        self.keys[1 + (h % self.read_graphs()) as usize].clone()
    }

    /// The `k`-th hot key.
    fn hot(&self, k: u64) -> Frame {
        Frame::Read {
            graph: self.pool_key(k),
            kernel: HOT_KERNELS[(k % HOT_KERNELS.len() as u64) as usize],
            seed: 0,
        }
    }

    pub fn frame(&self, i: u64) -> Frame {
        if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
            return Frame::Update;
        }
        let h = mix(self.seed, i);
        let class = h % 100;
        if class < HOT_PERCENT {
            return self.hot((h >> 8) % HOT_KEYS);
        }
        if class < HOT_PERCENT + COLD_PERCENT {
            // A pool-sized graph with a seed no other frame uses.
            let template = &self.pool[1 + ((h >> 8) % self.read_graphs()) as usize];
            return Frame::Read {
                graph: reseed(template, mix(self.seed, 1 << 50 | i) >> 32).canonical_key(),
                kernel: HOT_KERNELS[((h >> 24) % HOT_KERNELS.len() as u64) as usize],
                seed: 0,
            };
        }
        Frame::Read {
            graph: self.pool_key(h >> 8),
            kernel: MISS_KERNELS[((h >> 24) % MISS_KERNELS.len() as u64) as usize],
            seed: 1_000_000 + i,
        }
    }

    fn read_line(&self, id: &str, graph: &str, kernel: &str, seed: u64) -> String {
        format!(
            "{{\"v\":2,\"req\":{{\"kernel\":\"{kernel}\",\"graph\":\"{graph}\",\"seed\":{seed},\"id\":\"{id}\"}}}}"
        )
    }

    /// Connection `c`'s `j`-th update: the edge it adds and, from the third
    /// update on, the edge it deletes.
    pub fn edit(&self, c: usize, j: u64) -> ((u32, u32), Option<(u32, u32)>) {
        let list = &self.edits[c];
        let at = |j: u64| list[(j % list.len() as u64) as usize];
        (at(j), j.checked_sub(2).map(at))
    }

    fn update_line(&self, id: &str, add: &[(u32, u32)], del: &[(u32, u32)]) -> String {
        let pairs = |es: &[(u32, u32)]| {
            es.iter()
                .map(|(u, v)| format!("[{u},{v}]"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"v\":2,\"req\":{{\"kernel\":\"color\",\"graph\":\"{}\",\"update\":{{\"add\":[{}],\"del\":[{}]}},\"id\":\"{id}\"}}}}",
            self.keys[0],
            pairs(add),
            pairs(del)
        )
    }
}

pub fn start_server() -> Result<Server, String> {
    Server::start(ServeConfig {
        workers: 2,
        shards: 1,
        graph_cache: GRAPH_CACHE,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

fn connect(addr: &str) -> Result<Conn, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok(Conn { stream, reader })
}

impl Conn {
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

fn num(v: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

/// Materializes the session graph and promotes it to an update session
/// with an empty edit, loads every pool graph into the graph cache, and
/// fills the result cache with every hot key, so the timed segment starts
/// from warm caches.
pub fn warm(addr: &str, mix: &Mix) -> Result<(), String> {
    let mut conn = connect(addr)?;
    let mut lines: Vec<String> = (mix.keys.iter().enumerate())
        .map(|(g, key)| mix.read_line(&format!("warm-g{g}"), key, "color", 0))
        .collect();
    lines.push(mix.update_line("warm-promote", &[], &[]));
    for k in 0..HOT_KEYS {
        if let Frame::Read {
            graph,
            kernel,
            seed,
        } = mix.hot(k)
        {
            lines.push(mix.read_line(&format!("warm-h{k}"), &graph, kernel, seed));
        }
    }
    for line in lines {
        let response = conn.roundtrip(&line)?;
        let v = json::parse(response.trim()).map_err(|e| format!("warm-up response: {e:?}"))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("warm-up refused: {}", response.trim()));
        }
    }
    Ok(())
}

/// The stats-plane counters the phase reads, as deltas over a segment.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub received: f64,
    pub served: f64,
    pub shed: f64,
    pub rejected: f64,
    pub errors: f64,
    pub timed_out: f64,
    pub coalesced: f64,
    pub graph_hits: f64,
    pub graph_misses: f64,
    pub result_hits: f64,
    pub result_misses: f64,
    pub updates: f64,
}

impl Counters {
    fn probe(conn: &mut Conn) -> Result<Counters, String> {
        let response = conn.roundtrip("{\"v\":2,\"req\":{\"stats\":true}}")?;
        let v = json::parse(response.trim()).map_err(|e| format!("stats response: {e:?}"))?;
        let s = v.get("stats").ok_or("stats response without `stats`")?;
        let get = |path: &[&str]| {
            num(s, path).ok_or_else(|| format!("stats response without {}", path.join(".")))
        };
        Ok(Counters {
            received: get(&["received"])?,
            served: get(&["served"])?,
            shed: get(&["shed"])?,
            rejected: get(&["rejected"])?,
            errors: get(&["errors"])?,
            timed_out: get(&["timed_out"])?,
            coalesced: get(&["coalesced"])?,
            graph_hits: get(&["graph_cache", "hits"])?,
            graph_misses: get(&["graph_cache", "misses"])?,
            result_hits: get(&["result_cache", "hits"])?,
            result_misses: get(&["result_cache", "misses"])?,
            updates: get(&["updates"])?,
        })
    }

    fn zip(&self, b: &Counters, f: impl Fn(f64, f64) -> f64) -> Counters {
        Counters {
            received: f(self.received, b.received),
            served: f(self.served, b.served),
            shed: f(self.shed, b.shed),
            rejected: f(self.rejected, b.rejected),
            errors: f(self.errors, b.errors),
            timed_out: f(self.timed_out, b.timed_out),
            coalesced: f(self.coalesced, b.coalesced),
            graph_hits: f(self.graph_hits, b.graph_hits),
            graph_misses: f(self.graph_misses, b.graph_misses),
            result_hits: f(self.result_hits, b.result_hits),
            result_misses: f(self.result_misses, b.result_misses),
            updates: f(self.updates, b.updates),
        }
    }
}

/// One closed-loop segment's measurements.
#[derive(Debug, Default)]
pub struct Segment {
    /// Client round trip of every `run` frame, ms.
    pub read_ms: Vec<f64>,
    /// Client round trip of every `update` frame, ms.
    pub update_ms: Vec<f64>,
    /// `exec_ms` of the `run` responses that were not cache replays.
    pub exec_ms: Vec<f64>,
    /// Round trip minus `exec_ms` for the same responses.
    pub overhead_ms: Vec<f64>,
    /// `exec_ms` of the `update` responses.
    pub update_exec_ms: Vec<f64>,
    /// Responses with `ok:true`.
    pub ok: u64,
    pub wall_s: f64,
    pub counters: Counters,
    pub tally: Tally,
    pub spans: Vec<Span>,
}

impl Segment {
    /// Folds a later segment on the same server into this one.
    pub fn absorb(&mut self, other: Segment) {
        self.read_ms.extend(other.read_ms);
        self.update_ms.extend(other.update_ms);
        self.exec_ms.extend(other.exec_ms);
        self.overhead_ms.extend(other.overhead_ms);
        self.update_exec_ms.extend(other.update_exec_ms);
        self.ok += other.ok;
        self.wall_s += other.wall_s;
        self.counters = self.counters.zip(&other.counters, |a, b| a + b);
        self.tally.merge(other.tally);
        crate::trace::append(&mut self.spans, other.spans, None);
    }
}

/// Per-server state that outlives a segment: how many updates each
/// connection has sent, which fixes the next update's echo.
#[derive(Debug, Default)]
pub struct Session {
    updates_sent: [u64; CONNECTIONS],
}

struct Shared<'a> {
    mix: &'a Mix,
    next: AtomicU64,
    reads: AtomicUsize,
    updates: AtomicUsize,
    deadline: Instant,
    min_reads: usize,
    min_updates: usize,
}

/// Checks one response and records its timings; an `Err` is a failed
/// operation.
fn account(
    seg: &mut Segment,
    response: &str,
    rtt_ms: f64,
    id: &str,
    expect: Option<(u64, u64)>,
    graph_key: &str,
) -> Result<(), String> {
    let v = json::parse(response.trim()).map_err(|e| format!("malformed response {e:?}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("refused: {}", response.trim()));
    }
    seg.ok += 1;
    if v.get("id").and_then(Json::as_str) != Some(id) {
        return Err(format!(
            "response for {id} carries another id: {}",
            response.trim()
        ));
    }
    if v.get("graph").and_then(Json::as_str) != Some(graph_key) {
        return Err(format!("response for {id} names another graph"));
    }
    if v.get("timed_out").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{id} timed out"));
    }
    let exec = num(&v, &["exec_ms"]).ok_or_else(|| format!("{id} without exec_ms"))?;
    match expect {
        Some((add, del)) => {
            let echo = (
                v.get("applied_add").and_then(Json::as_u64),
                v.get("applied_del").and_then(Json::as_u64),
            );
            if echo != (Some(add), Some(del)) || v.get("epoch").and_then(Json::as_u64).is_none() {
                return Err(format!(
                    "{id}: update echo {echo:?}, sent add={add} del={del}"
                ));
            }
            seg.update_ms.push(rtt_ms);
            seg.update_exec_ms.push(exec);
        }
        None => {
            seg.read_ms.push(rtt_ms);
            if v.get("cached").and_then(Json::as_bool) != Some(true) {
                seg.exec_ms.push(exec);
                seg.overhead_ms.push(rtt_ms - exec);
            }
        }
    }
    Ok(())
}

fn client(
    c: usize,
    conn: &mut Conn,
    mut sent_updates: u64,
    shared: &Shared,
    mut tracer: Tracer,
) -> Result<(Segment, u64), String> {
    let mut seg = Segment::default();
    let mix = shared.mix;
    tracer.span(
        Layer::Bench,
        "serve.client",
        |tracer| -> Result<(), String> {
            loop {
                let enough = shared.reads.load(Ordering::SeqCst) >= shared.min_reads
                    && shared.updates.load(Ordering::SeqCst) >= shared.min_updates;
                if enough && Instant::now() >= shared.deadline {
                    return Ok(());
                }
                let i = shared.next.fetch_add(1, Ordering::SeqCst);
                let (line, id, expect, graph) = match mix.frame(i) {
                    Frame::Read {
                        graph,
                        kernel,
                        seed,
                    } => {
                        let id = format!("r-{i}");
                        (mix.read_line(&id, &graph, kernel, seed), id, None, graph)
                    }
                    Frame::Update => {
                        let id = format!("u-{i}");
                        let (add, del) = mix.edit(c, sent_updates);
                        let del: Vec<_> = del.into_iter().collect();
                        let line = mix.update_line(&id, &[add], &del);
                        let expect = (1, del.len() as u64);
                        sent_updates += 1;
                        (line, id, Some(expect), mix.keys[0].clone())
                    }
                };
                let start = Instant::now();
                let response = tracer.span_for(Layer::Serve, "serve.request", Some(i), |_| {
                    conn.roundtrip(&line)
                })?;
                let rtt_ms = start.elapsed().as_secs_f64() * 1e3;
                let outcome = account(&mut seg, &response, rtt_ms, &id, expect, &graph);
                seg.tally.op(outcome);
                let done = if expect.is_some() {
                    &shared.updates
                } else {
                    &shared.reads
                };
                done.fetch_add(1, Ordering::SeqCst);
            }
        },
    )?;
    seg.spans = tracer.into_spans();
    Ok((seg, sent_updates))
}

/// Drives the mix for `budget`, and on until at least `min_reads` run and
/// `min_updates` update frames are answered, then checks the stats plane
/// against what the clients saw.
pub fn segment(
    addr: &str,
    mix: &Mix,
    session: &mut Session,
    budget: Duration,
    (min_reads, min_updates): (usize, usize),
    tracer: &Tracer,
) -> Result<Segment, String> {
    let mut conns = (0..CONNECTIONS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let before = Counters::probe(&mut conns[0])?;
    let start = Instant::now();
    let shared = Shared {
        mix,
        next: AtomicU64::new(0),
        reads: AtomicUsize::new(0),
        updates: AtomicUsize::new(0),
        deadline: start + budget,
        min_reads,
        min_updates,
    };
    let results: Vec<Result<(Segment, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (shared, sent, tracer) = (&shared, session.updates_sent[c], tracer.fork());
                s.spawn(move || client(c, conn, sent, shared, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = Counters::probe(&mut conns[0])?;

    let mut seg = Segment {
        wall_s,
        counters: after.zip(&before, |a, b| a - b),
        ..Segment::default()
    };
    for (c, result) in results.into_iter().enumerate() {
        let (part, sent) = result?;
        session.updates_sent[c] = sent;
        seg.absorb(part);
    }
    let k = seg.counters;
    let sent = seg.tally.attempted as f64;
    seg.tally
        .op(if k.received == k.served + k.shed + k.rejected + k.errors {
            Ok(())
        } else {
            Err(format!("stats invariant broken: {k:?}"))
        });
    seg.tally
        .op(
            if k.received == sent
                && k.served == seg.ok as f64
                && k.updates == seg.update_ms.len() as f64
            {
                Ok(())
            } else {
                Err(format!(
                    "server counted {} received / {} served / {} updates, clients sent {sent} and got {} ok, {} updates",
                    k.received,
                    k.served,
                    k.updates,
                    seg.ok,
                    seg.update_ms.len()
                ))
            },
        );
    Ok(seg)
}

/// In-process replay of the update script through the delta graph and the
/// incremental kernel, in the canonical interleaving (connection 0's
/// update `j`, then connection 1's).
#[derive(Debug, Default)]
pub struct Replay {
    pub apply_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub touched: u64,
    pub compactions: u64,
}

pub fn replay(
    session: &Csr,
    mix: &Mix,
    per_conn: u64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Replay {
    let spec = KernelSpec::new(Kernel::Coloring).sequential();
    let mut delta = DeltaCsr::from_csr(session);
    let mut prev = run_kernel(delta.as_csr(), &spec, &mut NoopRecorder);
    let mut out = Replay::default();
    tracer.span(Layer::Bench, "replay", |tracer| {
        for j in 0..per_conn {
            for c in 0..CONNECTIONS {
                let ((u, v), del) = mix.edit(c, j);
                let del: Vec<_> = del.into_iter().collect();
                let start = Instant::now();
                let touched = tracer.leaf(Layer::Graph, "graph.delta_apply", || {
                    delta.apply_edges(&[Edge::unweighted(u, v)], &del)
                });
                out.apply_ms.push(start.elapsed().as_secs_f64() * 1e3);
                let touched = match touched {
                    Ok(t) => t,
                    Err(e) => {
                        tally.op(Err(format!("replay update {j}/{c} rejected: {e:?}")));
                        continue;
                    }
                };
                out.touched += touched.len() as u64;
                let start = Instant::now();
                let next = tracer.leaf(Layer::Core, "core.run_kernel_incremental", || {
                    run_kernel_incremental(
                        delta.as_csr(),
                        &spec,
                        &prev,
                        &touched,
                        &mut NoopRecorder,
                    )
                });
                out.run_ms.push(start.elapsed().as_secs_f64() * 1e3);
                tally.op(if next.converged() {
                    Ok(())
                } else {
                    Err(format!(
                        "replay update {j}/{c}: incremental coloring did not converge"
                    ))
                });
                prev = next;
            }
        }
    });
    out.compactions = delta.stats().compactions;
    let snapshot = delta.snapshot();
    let colors = prev.colors().unwrap_or(&[]);
    tally.op(gp_core::coloring::verify_coloring(&snapshot, colors)
        .map_err(|e| format!("replayed coloring is improper: {e:?}")));
    out
}
