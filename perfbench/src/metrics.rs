//! Metric registry, sample statistics and the result line.
//!
//! Every metric the benchmark can print is named here with its unit, so the
//! emitted set is checked against one list (and `BENCHMARK.json` against the
//! same list by the tests).

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("color_s", "s"),
    ("color_scalar_s", "s"),
    ("louvain_onpl_s", "s"),
    ("louvain_mplm_s", "s"),
    ("louvain_ovpl_s", "s"),
    ("labelprop_onlp_s", "s"),
    ("labelprop_mplp_s", "s"),
    ("modularity", "ratio"),
    ("colors", "count"),
    ("serve_req_per_s", "1/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p90_ms", "ms"),
    ("update_p50_ms", "ms"),
];

/// The kernels timed by the kernel phase, in run order. The names prefix
/// their end-to-end time (`<name>_s`) and their `core.<name>.*` metrics.
pub const KERNELS: [&str; 7] = [
    "color",
    "color_scalar",
    "louvain_onpl",
    "louvain_mplm",
    "louvain_ovpl",
    "labelprop_onlp",
    "labelprop_mplp",
];

/// The vector kernels whose op classes are counted (`simd.<name>.*`).
pub const COUNTED_KERNELS: [&str; 4] = ["color", "louvain_onpl", "louvain_ovpl", "labelprop_onlp"];

/// The Louvain variants whose phases are split out (`core.<name>.*`).
pub const LOUVAIN_KERNELS: [&str; 3] = ["louvain_onpl", "louvain_mplm", "louvain_ovpl"];

/// Per-layer metrics, printed by the traced run (`--trace 1`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("graph.generate_s", "s"),
        ("graph.build_csr_s", "s"),
        ("par.generate_speedup_2t", "x"),
        ("par.build_csr_speedup_2t", "x"),
        ("par.coarsen_speedup_2t", "x"),
        ("graph.arcs", "count"),
        ("graph.max_degree", "count"),
        ("graph.hub_vertices", "count"),
        ("graph.low_degree_frac", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in KERNELS {
        m.push((format!("core.{k}.rounds"), "count"));
        m.push((format!("core.{k}.round_s"), "s"));
        m.push((format!("core.{k}.active_edges"), "count"));
        m.push((format!("core.{k}.useful_frac"), "ratio"));
    }
    for k in LOUVAIN_KERNELS {
        m.push((format!("core.{k}.move_s"), "s"));
        m.push((format!("core.{k}.coarsen_s"), "s"));
        m.push((format!("core.{k}.project_s"), "s"));
    }
    m.push(("core.louvain_ovpl.prepare_s".to_string(), "s"));
    for bin in ["bin_low", "bin_mid", "bin_hub", "blocks"] {
        m.push((format!("core.locality.{bin}"), "count"));
    }
    for k in COUNTED_KERNELS {
        for class in [
            "gather",
            "scatter",
            "conflict",
            "reduce",
            "scalar_rand_load",
        ] {
            m.push((format!("simd.{k}.{class}"), "count"));
        }
        m.push((format!("simd.{k}.bytes_computed"), "bytes"));
    }
    for (n, u) in [
        ("serve.exec_ms_p50", "ms"),
        ("serve.overhead_ms_p50", "ms"),
        ("serve.graph_cache_hit_rate", "ratio"),
        ("serve.result_cache_hit_rate", "ratio"),
        ("serve.shed", "count"),
        ("serve.timed_out", "count"),
        ("serve.errors", "count"),
        ("serve.coalesced", "count"),
        ("serve.update_exec_ms_p50", "ms"),
        ("graph.delta_apply_ms", "ms"),
        ("graph.compactions", "count"),
        ("core.incremental.touched", "count"),
        ("core.incremental.run_ms", "ms"),
        ("trace.graph_self_s", "s"),
        ("trace.par_self_s", "s"),
        ("trace.simd_self_s", "s"),
        ("trace.core_self_s", "s"),
        ("trace.serve_self_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.serve_overhead_frac", "ratio"),
        ("host.probe_ms", "ms"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// The registry for one mode: end-to-end untraced, per-layer traced.
pub fn registry(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Collected metric values for one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line: exactly the registry of the
    /// mode, each with its unit. A missing or non-finite value is a bug in
    /// the benchmark and is returned as an error instead of a result.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in registry(trace) {
            let v = self
                .get(&name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Operations attempted and failed, with the reasons for the failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation; an `Err` counts it as failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// Median of the samples (mean of the middle two for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile and the number of samples above it.
pub fn percentile(samples: &[f64], q: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    (s[rank - 1], s.len() - rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), (90.0, 10));
        assert_eq!(percentile(&xs, 0.5), (50.0, 50));
    }

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        for trace in [false, true] {
            let reg = registry(trace);
            let mut names: Vec<&str> = reg.iter().map(|(n, _)| n.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), reg.len());
            for (name, unit) in &reg {
                assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
                assert!(!unit.is_empty() && unit.len() <= 16);
            }
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn missing_metric_is_an_error() {
        let m = Metrics::default();
        assert!(m.to_json(false).is_err());
    }
}
