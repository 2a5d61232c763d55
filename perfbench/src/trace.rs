//! The traced run's span recorder and the in-process pipeline it replays
//! requests through. Spans live in the benchmark's own code, around each
//! call into a layer's public function; they stay in memory and are
//! written out once, at exit.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use atlas_core::features::{build_submodule_data, SubmoduleData};
use atlas_core::pipeline::ExperimentConfig;
use atlas_core::{AtlasModel, Precision, PreparedEncoder};
use atlas_liberty::Library;
use atlas_netlist::Design;
use atlas_serve::ModelRegistry;

use crate::stats::median;
use crate::MODEL;

/// Root span name of one replayed request; layer metrics count only
/// spans under such a root.
pub const REQUEST: &str = "request";

pub struct Span {
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub rid: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Record nothing while `on` is false (the untraced half of the
    /// overhead measurement); `span` then only calls through.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, rid: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            rid,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn root_name(&self, mut id: usize) -> &'static str {
        while let Some(parent) = self.spans[id].parent {
            id = parent;
        }
        self.spans[id].name
    }

    /// Median duration (ms) of `name` under request roots; 0 when the
    /// workload's requests never pass through that layer.
    pub fn median_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .by_request(name)
            .into_iter()
            .map(|(_, ms)| ms)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// `(rid, duration ms)` of every span named `name` under a request.
    pub fn by_request(&self, name: &str) -> Vec<(u64, f64)> {
        self.by_request_filtered(|s| s.name == name).collect()
    }

    /// Total ms of request `rid`'s spans named in `names`.
    fn request_ms(&self, rid: u64, names: &[&str]) -> f64 {
        self.by_request_filtered(|s| s.rid == rid && names.contains(&s.name))
            .map(|(_, ms)| ms)
            .sum()
    }

    fn by_request_filtered<'a>(
        &'a self,
        keep: impl Fn(&Span) -> bool + 'a,
    ) -> impl Iterator<Item = (u64, f64)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(id, s)| keep(s) && self.root_name(*id) == REQUEST)
            .map(|(_, s)| (s.rid, s.ms()))
    }

    /// Per span name: count, total ms, and self ms (duration minus the
    /// time its child spans cover), sorted by self time.
    pub fn self_time_table(&self) -> String {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut rows: HashMap<&str, (usize, f64, f64)> = HashMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.ms();
            row.2 += s.ms() - child_ms[id];
        }
        let mut rows: Vec<_> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<24} {:>6} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms", "self_ms/call"
        );
        for (name, (count, total, own)) in rows {
            let _ = writeln!(
                out,
                "{name:<24} {count:>6} {total:>12.3} {own:>12.3} {:>12.4}",
                own / count as f64
            );
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"parent\":{parent},\"rid\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.rid, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// What a replay measures about the trace itself: the wall time of the
/// layer chains run with spans on and off, and each request's coverage.
#[derive(Default)]
pub struct Tally {
    traced_ms: f64,
    untraced_ms: f64,
    coverage: Vec<f64>,
}

impl Tally {
    /// Run one layer chain with spans on or off, timing it for that side.
    pub fn run<T>(&mut self, tr: &mut Tracer, on: bool, chain: impl FnOnce(&mut Tracer) -> T) -> T {
        tr.set_on(on);
        let t = Instant::now();
        let out = chain(tr);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.set_on(true);
        if on {
            self.traced_ms += ms;
        } else {
            self.untraced_ms += ms;
        }
        out
    }

    /// Record the share of the service's `latency_ms` for request `rid`
    /// that its spans named in `inside` (those within the service's
    /// window) cover.
    pub fn cover(&mut self, tr: &Tracer, rid: u64, inside: &[&str], service_ms: f64) {
        self.coverage.push(tr.request_ms(rid, inside) / service_ms);
    }

    /// `(median coverage share, (traced − untraced) / untraced)`.
    pub fn shares(&self) -> (f64, f64) {
        (
            median(&self.coverage),
            (self.traced_ms - self.untraced_ms) / self.untraced_ms,
        )
    }
}

/// The serving pipeline's layers, opened in-process from the same
/// registry file the servers load.
pub struct Pipeline {
    pub config: ExperimentConfig,
    pub model: AtlasModel,
    pub prepared: PreparedEncoder,
    pub lib: Library,
    designs: HashMap<String, Arc<(Design, Vec<SubmoduleData>)>>,
}

impl Pipeline {
    pub fn open(registry: &Path) -> Result<Pipeline, String> {
        let saved = ModelRegistry::open(registry)
            .and_then(|r| r.load(MODEL))
            .map_err(|e| format!("load model: {e}"))?;
        Ok(Pipeline {
            lib: saved.config.library(),
            prepared: saved.model.prepare(Precision::F64),
            model: saved.model,
            config: saved.config,
            designs: HashMap::new(),
        })
    }

    /// The preset design `name` and its sub-module data, generated on
    /// first use and kept (as the service's design cache keeps them).
    pub fn preset(
        &mut self,
        tr: &mut Tracer,
        rid: u64,
        name: &str,
    ) -> Result<Arc<(Design, Vec<SubmoduleData>)>, String> {
        if let Some(d) = self.designs.get(name) {
            return Ok(Arc::clone(d));
        }
        let cfg = self.config.try_design(name).map_err(|e| e.to_string())?;
        let gate = tr.span("designs.generate", rid, |_| cfg.generate());
        let data = tr.span("features.build", rid, |_| {
            build_submodule_data(&gate, &self.lib)
        });
        let entry = Arc::new((gate, data));
        self.designs.insert(name.to_owned(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Seed of a preset design's workloads (what the service pins).
    pub fn preset_seed(&self, name: &str) -> Result<u64, String> {
        self.config
            .try_design(name)
            .map(|c| c.seed)
            .map_err(|e| e.to_string())
    }
}
