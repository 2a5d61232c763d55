//! Metrics by name and unit, and the result line.

use std::collections::HashMap;

use atlas_serve::StatsResponse;
use serde::Value;

use crate::client::object;
use crate::setup::SetupTimes;
use crate::stats::{median, quantile};
use crate::trace::Tracer;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured and checked.
pub struct Outcome {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Sample counts behind the metrics, for the run stamp.
    pub samples: Vec<(&'static str, usize)>,
}

/// Client-observed latencies of one closed-loop run.
pub struct ClosedLoop {
    pub latency_ms: Vec<f64>,
    pub window_s: f64,
}

impl ClosedLoop {
    /// The end-to-end metrics of a closed loop.
    pub fn metrics(&self, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
        vec![
            metric("latency_p50_ms", median(&self.latency_ms), "ms"),
            metric("latency_p90_ms", quantile(&self.latency_ms, 0.9), "ms"),
            metric(
                "throughput_rps",
                self.latency_ms.len() as f64 / self.window_s,
                "req/s",
            ),
            metric("server_rss_mb", rss_mb, "MiB"),
            metric("setup_s", setup_s, "s"),
        ]
    }
}

/// Counter movement of one or more servers over the timed window.
#[derive(Default)]
pub struct StatsDelta {
    pub requests: u64,
    pub embeddings_computed: u64,
    pub hits: u64,
    pub misses: u64,
    pub design_hits: u64,
    pub design_misses: u64,
    /// Embedding-cache bytes resident at the end.
    pub bytes: usize,
}

impl StatsDelta {
    pub fn between(before: &StatsResponse, after: &StatsResponse) -> StatsDelta {
        StatsDelta {
            requests: after.requests - before.requests,
            embeddings_computed: after.embeddings_computed - before.embeddings_computed,
            hits: after.embedding_cache.hits - before.embedding_cache.hits,
            misses: after.embedding_cache.misses - before.embedding_cache.misses,
            design_hits: after.design_cache.hits - before.design_cache.hits,
            design_misses: after.design_cache.misses - before.design_cache.misses,
            bytes: after.embedding_cache.weight,
        }
    }

    pub fn add(&mut self, other: &StatsDelta) {
        self.requests += other.requests;
        self.embeddings_computed += other.embeddings_computed;
        self.hits += other.hits;
        self.misses += other.misses;
        self.design_hits += other.design_hits;
        self.design_misses += other.design_misses;
        self.bytes += other.bytes;
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-layer inputs measured outside the span recorder. Layers a
/// workload never passes through keep their zero default.
#[derive(Default)]
pub struct Layers {
    pub reused_share: f64,
    /// Reply `latency_ms` of every timed request.
    pub server_ms: Vec<f64>,
    /// Client latency minus reply `latency_ms`, per timed request.
    pub wait_ms: Vec<f64>,
    pub stats: StatsDelta,
    pub reactor_overhead_ms: f64,
    pub shard_hop_ms: f64,
    pub shard_max_share: f64,
    pub late_p99_ms: f64,
    pub backlog_max: f64,
    /// Highest ladder rate meeting the p90 limit with no growing backlog.
    pub max_rate_rps: f64,
    pub setup: SetupTimes,
    /// Median share of the in-process service latency that layer spans cover.
    pub coverage_share: f64,
    /// (traced − untraced) / untraced wall time of the replayed chains.
    pub overhead_share: f64,
    /// Heads rows (sub-modules × cycles) per replayed request id.
    pub heads_rows: HashMap<u64, usize>,
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Every per-layer metric of `BENCHMARK.json`, in its order.
pub fn per_layer(tr: &Tracer, l: &Layers) -> Vec<Metric> {
    let us_per_row: Vec<f64> = tr
        .by_request("heads.predict")
        .into_iter()
        .filter_map(|(rid, ms)| l.heads_rows.get(&rid).map(|&rows| ms * 1e3 / rows as f64))
        .collect();
    let s = &l.stats;
    vec![
        metric("model.embed_ms", tr.median_ms("model.embed"), "ms"),
        metric(
            "model.embed_delta_ms",
            tr.median_ms("model.embed_delta"),
            "ms",
        ),
        metric("delta.reused_share", l.reused_share, "fraction"),
        metric("heads.ms", tr.median_ms("heads.predict"), "ms"),
        metric("heads.us_per_row", median_or_zero(&us_per_row), "us"),
        metric("sim.simulate_ms", tr.median_ms("sim.simulate"), "ms"),
        metric(
            "designs.generate_ms",
            tr.median_ms("designs.generate"),
            "ms",
        ),
        metric("features.build_ms", tr.median_ms("features.build"), "ms"),
        metric(
            "netlist.from_verilog_ms",
            tr.median_ms("netlist.from_verilog"),
            "ms",
        ),
        metric("service.latency_ms", median_or_zero(&l.server_ms), "ms"),
        metric("service.wait_ms", median_or_zero(&l.wait_ms), "ms"),
        metric(
            "service.embeddings_computed",
            s.embeddings_computed as f64,
            "count",
        ),
        metric(
            "cache.hit_share",
            share(s.hits, s.hits + s.misses),
            "fraction",
        ),
        metric(
            "cache.design_hit_share",
            share(s.design_hits, s.design_hits + s.design_misses),
            "fraction",
        ),
        metric("cache.bytes", s.bytes as f64, "bytes"),
        metric("reactor.overhead_ms", l.reactor_overhead_ms, "ms"),
        metric(
            "protocol.parse_us",
            tr.median_ms("protocol.parse") * 1e3,
            "us",
        ),
        metric(
            "protocol.render_us",
            tr.median_ms("protocol.render") * 1e3,
            "us",
        ),
        metric("shard.hop_ms", l.shard_hop_ms, "ms"),
        metric("shard.max_share", l.shard_max_share, "fraction"),
        metric("loadgen.late_p99_ms", l.late_p99_ms, "ms"),
        metric("loadgen.backlog_max", l.backlog_max, "count"),
        metric("loadgen.max_rate_rps", l.max_rate_rps, "req/s"),
        metric("setup.train_s", l.setup.train_s, "s"),
        metric("setup.ready_s", l.setup.ready_s, "s"),
        metric("setup.prewarm_s", l.setup.prewarm_s, "s"),
        metric("trace.coverage_share", l.coverage_share, "fraction"),
        metric("trace.overhead_share", l.overhead_share, "fraction"),
    ]
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                object(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", Value::Str(m.unit.to_owned())),
                ]),
            )
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(outcome.failures.is_empty())),
        ("attempted", Value::UInt(outcome.attempted as u64)),
        ("failed", Value::UInt(outcome.failures.len() as u64)),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("result renders")
}
