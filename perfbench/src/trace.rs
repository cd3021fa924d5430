//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program itself carries no tracing: each span wraps one call the
//! benchmark makes into a crate's public functions, and is attributed to
//! that crate's layer. A span's self time is its duration minus the time
//! its child spans cover; the self time of `Bench` spans is time spent in
//! the benchmark's own code, reported as the `unattributed` row.

use std::time::Instant;

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code (phase roots, checks, bookkeeping).
    Bench,
    /// `gp_graph`: generators, CSR build, delta graphs.
    Graph,
    /// `gp_par`: pool entry around parallel substrate passes.
    Par,
    /// `gp_simd`: counted runs over the op counters.
    Simd,
    /// `gp_core`: kernels, coarsening, OVPL layout, quality checks.
    Core,
    /// `gp_serve`: server start/stop and request round trips.
    Serve,
}

pub const LAYERS: [Layer; 6] = [
    Layer::Bench,
    Layer::Graph,
    Layer::Par,
    Layer::Simd,
    Layer::Core,
    Layer::Serve,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Graph => "graph",
            Layer::Par => "par",
            Layer::Simd => "simd",
            Layer::Core => "core",
            Layer::Serve => "serve",
        }
    }
}

/// One recorded call: name, layer, start and end (ns since the tracer's
/// epoch), the span that caused it, and the serve request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store for one thread. A disabled tracer runs every
/// closure directly and records nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            epoch: Some(epoch),
            ..Tracer::off()
        }
    }

    /// A tracer for another thread sharing this one's clock.
    pub fn fork(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            ..Tracer::off()
        }
    }

    fn now_ns(&self, epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span that may open child spans.
    pub fn span<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.span_for(layer, name, None, f)
    }

    /// [`Tracer::span`] tagged with a serve request id.
    pub fn span_for<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            layer,
            start_ns: self.now_ns(epoch),
            end_ns: 0,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns(epoch);
        out
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(layer, name, |_| f())
    }

    /// Adds the spans another thread recorded, renumbering their ids; its
    /// root spans become children of the span open here, if any.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        append(&mut self.spans, spans, self.open.last().copied());
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Appends one thread's spans to `dst`, renumbering ids past the ones
/// already there and hanging its roots under `parent`.
pub fn append(dst: &mut Vec<Span>, spans: Vec<Span>, parent: Option<usize>) {
    let base = dst.len();
    dst.extend(spans.into_iter().map(|mut s| {
        s.id += base;
        s.parent = s.parent.map(|p| p + base).or(parent);
        s
    }));
}

/// Self time per layer, in [`LAYERS`] order, over the spans that descend
/// from `root` (the root included), or over all spans when `root` is None.
pub fn self_times(spans: &[Span], root: Option<usize>) -> [f64; 6] {
    let mut child_secs = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_secs[p] += s.secs();
        }
    }
    let within = |mut id: usize| -> bool {
        let Some(root) = root else { return true };
        loop {
            if id == root {
                return true;
            }
            match spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    };
    let mut out = [0.0; 6];
    for s in spans.iter().filter(|s| within(s.id)) {
        let slot = LAYERS
            .iter()
            .position(|&l| l == s.layer)
            .expect("every layer is listed");
        out[slot] += s.secs() - child_secs[s.id];
    }
    out
}

/// The spans as a JSON document.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"request\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.request.map_or("null".to_string(), |r| r.to_string()),
            )
        })
        .collect();
    format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_sum_to_the_root() {
        let mut t = Tracer::on(Instant::now());
        t.span(Layer::Bench, "root", |t| {
            t.leaf(Layer::Core, "kernel", || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            t.span(Layer::Par, "install", |t| {
                t.leaf(Layer::Graph, "build", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = t.into_spans();
        let selfs = self_times(&spans, Some(0));
        let total: f64 = selfs.iter().sum();
        assert!((total - spans[0].secs()).abs() < 1e-9);
        assert!(selfs[4] >= 0.003 && selfs[1] >= 0.002);
        assert_eq!(spans[3].parent, Some(2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.leaf(Layer::Core, "k", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
