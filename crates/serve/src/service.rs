//! The long-lived prediction service: a worker pool over a **catalog of
//! hosted models** and a server-side workload library, with per-model
//! two-level LRU caches.
//!
//! Request execution has three stages with very different costs:
//!
//! 1. **Design materialization** — generate the gate-level netlist and
//!    build its sub-module graph data. Depends only on the design name,
//!    so it is cached per design (per model, since models may be trained
//!    at different scales).
//! 2. **Trace embedding** — simulate the workload and run the encoder
//!    over every (sub-module, cycle). This stage dominates cold latency.
//! 3. **Head evaluation** — GBDT heads + memory model over the fresh
//!    embeddings, once per trace.
//!
//! Stages two and three are deterministic in (design, workload, cycles),
//! so their results are cached together under that key as one
//! [`CachedTrace`] — the embeddings plus the watts the heads made of
//! them — admitted against a **byte budget** sized from
//! [`CachedTrace::weight`]. A fully warm request is a cache lookup plus
//! rendering; no stage runs. Concurrent cold requests for the same key
//! on the same model are **single-flighted**: one request computes, the
//! rest block on the in-flight result instead of duplicating the work.
//!
//! # Multi-model routing
//!
//! One service hosts any number of named models (a [`ModelCatalog`]);
//! requests route by their optional `model` field, defaulting to the
//! catalog's default entry. Every model owns its embedding cache, design
//! cache, and single-flight map — models never share or evict each
//! other's entries, and [`AtlasService::stats`] reports occupancy per
//! model. Routing is name-only: a request answered by model `m` is
//! bit-identical whether `m` was addressed explicitly or as the default.
//!
//! # The workload library
//!
//! Clients may register a phase schedule once under a name
//! ([`AtlasService::register_workload`], wire verb `register_workload`)
//! and reference it from any later request via `workload_name`. The
//! library is shared across models; cached results are keyed by the
//! schedule's fingerprint, so re-registering a name with a different
//! schedule can never serve stale results. With
//! [`ServiceConfig::workload_file`] set, every registration is appended
//! to a JSON-lines **journal** that is replayed (fingerprint-validated)
//! at the next startup, so the library survives restarts.
//!
//! # The control plane
//!
//! The catalog is *live*: [`AtlasService::load_model`] and
//! [`AtlasService::unload_model`] (wire verbs `load_model` /
//! `unload_model`) add and remove hosted models without a restart.
//! Loading runs the full registry validation (format version + config
//! fingerprint); unloading is drain-safe — requests already routed to the
//! model complete on its still-alive state, later requests get a
//! structured `unknown_model` error, and the default model can never be
//! unloaded. Cold work is admitted through a per-model [`QuotaGate`]:
//! at most a quota's worth of workers may be tied up in one model's
//! simulate + encode pipelines, excess cold requests park (freeing the
//! worker) and re-dispatch as slots drain, and beyond the parking bound
//! they are rejected with a structured `quota_exceeded` error. One
//! model's cold storm therefore cannot starve another model's traffic.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::Instant;

use atlas_core::features::{build_submodule_data, SubmoduleData};
use atlas_core::{
    AtlasModel, DeltaStats, ExperimentConfig, Precision, PreparedEncoder, TraceEmbeddings,
};
use atlas_liberty::{Library, PowerGroup};
use atlas_netlist::Design;
use atlas_power::PowerTrace;
use atlas_sim::{schedule_fingerprint, simulate, PhasedWorkload, WorkloadPhase};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, LruCache};
use crate::error::ServeError;
use crate::protocol::{
    delta_response, summarize, PredictDeltaRequest, PredictDeltaResponse, PredictRequest,
    PredictResponse, StatsResponse,
};
use crate::quota::{Admission, QuotaGate};
use crate::registry::{ModelCatalog, ModelRegistry, RegistryError, SavedModel};

/// Per-model capacity (entries) of the design → netlist + sub-module
/// data cache.
const DESIGN_CACHE_ENTRIES: usize = 16;

/// Upper bound on phases per schedule — inline or registered.
const MAX_PHASES: usize = 64;

/// Tuning knobs of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads answering requests concurrently (shared by every
    /// hosted model).
    pub workers: usize,
    /// Per-model byte budget of the (design, workload, cycles) →
    /// [`CachedTrace`] cache, accounted with [`CachedTrace::weight`]. An
    /// entry larger than the whole budget is served but never cached.
    pub embedding_cache_bytes: usize,
    /// Upper bound on `cycles` per request (backpressure against
    /// accidental million-cycle requests).
    pub max_cycles: usize,
    /// Upper bound on schedules in the server-side workload library.
    pub max_registered_workloads: usize,
    /// Upper bound on the byte size of one `load_design` upload body
    /// (the structural-Verilog text). Oversize uploads are refused with
    /// a structured `invalid_request` before parsing.
    pub max_design_bytes: usize,
    /// Upper bound on designs in the server-side design library.
    pub max_designs: usize,
    /// Explicit per-model cold-compute quotas (serving name → max workers
    /// concurrently tied up in that model's cold pipelines; clamped to
    /// ≥ 1). Models without an entry get the fair default share
    /// `workers / hosted models` (≥ 1), recomputed live as models are
    /// loaded and unloaded.
    pub model_quotas: HashMap<String, usize>,
    /// Upper bound on cold requests parked per model while its quota is
    /// saturated; beyond it requests are rejected with a structured
    /// `quota_exceeded` error instead of queueing without bound.
    pub max_queued_per_model: usize,
    /// JSON-lines journal of the workload library. Registrations append
    /// to it and are replayed (fingerprint-validated) at startup, so the
    /// library survives restarts. `None` keeps the library in-memory
    /// only.
    pub workload_file: Option<PathBuf>,
    /// Storage precision of cached embedding rows (applies to every
    /// hosted model). The encoder always computes in f64;
    /// [`Precision::F32`] narrows each row once, halving each cached
    /// embedding row's bytes — so more traces fit
    /// `embedding_cache_bytes` — at one f32 rounding of accuracy (bounded by
    /// [`atlas_core::F32_EMBED_TOLERANCE`]) instead of bit parity with
    /// f64. Warm hits and deltas stay bit-identical to a cold reply at
    /// either precision.
    pub precision: Precision,
    /// Identity of this process in a shard fleet (`None` when serving
    /// unsharded). Purely attributive: it is echoed by `stats` and
    /// stamped into cache snapshots so journals and dashboards stay
    /// per-shard attributable — request routing itself lives in the
    /// shard front door, not here.
    pub shard_id: Option<u32>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            embedding_cache_bytes: 256 << 20,
            max_cycles: 4096,
            max_registered_workloads: 1024,
            max_design_bytes: 2 << 20,
            max_designs: 64,
            model_quotas: HashMap::new(),
            max_queued_per_model: 1024,
            workload_file: None,
            precision: Precision::F64,
            shard_id: None,
        }
    }
}

/// Cache key of stage two. `schedule_fp` is 0 for preset workloads and a
/// fingerprint of the phase schedule (inline or registered) otherwise, so
/// two schedule-driven requests share an entry exactly when their
/// schedules match. Model identity is not part of the key: each model
/// owns a separate cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
struct TraceKey {
    design: String,
    workload: String,
    cycles: usize,
    schedule_fp: u64,
}

/// Bytes of one (sub-module × cycle) row of cached watts: four f64 group
/// watts.
const WATT_ROW_BYTES: usize = PowerGroup::ALL.len() * std::mem::size_of::<f64>();

/// Embedding-cache value: one trace's embeddings and the watts this
/// model's heads predicted from them. Both are pure functions of the
/// model and the trace, and each model owns its cache, so the watts never
/// go stale; a hit answers from `watts` and a delta donates from both.
pub struct CachedTrace {
    /// Stage-one output: per-(sub-module × cycle) embeddings and side
    /// features.
    pub embeddings: TraceEmbeddings,
    /// Stage-two output over `embeddings`.
    pub watts: PowerTrace,
}

impl CachedTrace {
    /// Cache weight in bytes of the entry `embeddings` makes:
    /// [`TraceEmbeddings::approx_bytes`] plus 32 bytes of watts per
    /// (sub-module × cycle) row. Known before the watts are computed, so
    /// a snapshot restore can budget entries before running their heads.
    pub fn weight(embeddings: &TraceEmbeddings) -> usize {
        embeddings.approx_bytes()
            + embeddings.cycles() * embeddings.submodule_count() * WATT_ROW_BYTES
    }
}

/// Stage-one cache value: the materialized design.
struct DesignArtifacts {
    gate: Design,
    data: Vec<SubmoduleData>,
}

/// Identity of one hosted model, as reported by the `models` verb.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Serving name (the `model` field of requests routed to it).
    pub name: String,
    /// On-disk format version of the loaded model file.
    pub format_version: u32,
    /// FNV-1a fingerprint of the model's training configuration.
    pub config_fingerprint: u64,
}

/// One registered schedule of the workload library, as reported by the
/// `workloads` and `register_workload` verbs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisteredWorkload {
    /// Library name (the `workload_name` field of requests using it).
    pub name: String,
    /// Number of phases in the stored schedule.
    pub phases: usize,
    /// Schedule fingerprint — the cache-key component, so clients can
    /// correlate registry state with cache behavior.
    pub fingerprint: u64,
}

/// One uploaded design of the design library, as reported by the
/// `load_design` verb.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DesignInfo {
    /// Library name (the `design` field of requests using it).
    pub name: String,
    /// Cell instances in the stored netlist.
    pub cells: usize,
    /// Nets in the stored netlist.
    pub nets: usize,
    /// FNV-1a fingerprint of the netlist's canonical structural-Verilog
    /// rendering — identical whether the design arrived over the wire or
    /// was loaded in-process, and used as the workload seed so the two
    /// routes predict bit-identically.
    pub fingerprint: u64,
}

/// Per-model slice of [`StatsResponse`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ModelStats {
    /// Serving name of the model these counters belong to.
    pub model: String,
    /// Storage precision of this model's cached embeddings (`"f64"` or
    /// `"f32"`; f32 embeddings cost half the cache bytes).
    pub precision: String,
    /// Requests routed to this model (including errors).
    pub requests: u64,
    /// Requests routed to this model that returned an error.
    pub errors: u64,
    /// Cold embeddings this model computed.
    pub embeddings_computed: u64,
    /// Requests that waited on this model's in-flight computations.
    pub coalesced_requests: u64,
    /// (sub-module × cycle) rows this model ran through its heads while
    /// answering requests: once per computed trace, never on a hit.
    pub head_rows_evaluated: u64,
    /// (sub-module × cycle) rows whose watts a `predict_delta` copied
    /// from its cached base instead of evaluating.
    pub head_rows_reused: u64,
    /// Effective cold-compute quota at snapshot time: the explicit
    /// [`ServiceConfig::model_quotas`] entry, else the fair share
    /// `workers / hosted models` (≥ 1).
    pub quota: usize,
    /// Cold requests parked behind this model's saturated quota
    /// (monotone total, not current occupancy).
    pub queued: u64,
    /// Cold requests rejected because quota *and* parking queue were
    /// full (monotone total).
    pub rejected_quota: u64,
    /// This model's embedding-cache counters (`weight`/`budget` bytes).
    pub embedding_cache: CacheStats,
    /// This model's design-cache counters (`weight`/`budget` entries).
    pub design_cache: CacheStats,
}

/// Sum two cache-counter snapshots (used for the cross-model aggregate).
fn add_cache_stats(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        len: a.len + b.len,
        weight: a.weight + b.weight,
        budget: a.budget + b.budget,
    }
}

/// The in-flight slot of one cold (design, workload, cycles) computation.
/// The leader fills `result` and notifies; followers wait on `done`.
struct Flight {
    result: Mutex<Option<Result<Arc<CachedTrace>, ServeError>>>,
    done: Condvar,
}

/// Everything one hosted model owns: weights, experiment config, caches,
/// the single-flight map, the cold-work admission gate, and its counters.
struct ModelState {
    name: String,
    format_version: u32,
    config_fingerprint: u64,
    model: AtlasModel,
    /// The f64 inference encoder, tagged with the service's storage
    /// precision, built **once** here at load and reused by every
    /// embedding this model computes.
    prepared: PreparedEncoder,
    experiment: ExperimentConfig,
    lib: Library,
    embeddings: LruCache<TraceKey, CachedTrace>,
    designs: LruCache<String, DesignArtifacts>,
    inflight: Mutex<HashMap<TraceKey, Arc<Flight>>>,
    /// Explicit quota from [`ServiceConfig::model_quotas`]; `None` means
    /// the fair share, recomputed live from the hosted-model count.
    quota: Option<usize>,
    /// Admission gate for cold work (parked payloads are whole jobs, so
    /// a saturated model frees its worker thread immediately).
    gate: QuotaGate<Job>,
    requests: AtomicU64,
    errors: AtomicU64,
    embeds_computed: AtomicU64,
    coalesced: AtomicU64,
    head_rows_evaluated: AtomicU64,
    head_rows_reused: AtomicU64,
}

impl ModelState {
    fn new(name: String, saved: SavedModel, cfg: &ServiceConfig) -> ModelState {
        let lib = saved.config.library();
        let quota = cfg.model_quotas.get(&name).copied();
        let prepared = saved.model.prepare(cfg.precision);
        ModelState {
            name,
            format_version: saved.header.format_version,
            config_fingerprint: saved.header.config_fingerprint,
            model: saved.model,
            prepared,
            experiment: saved.config,
            lib,
            embeddings: LruCache::with_budget(cfg.embedding_cache_bytes),
            designs: LruCache::new(DESIGN_CACHE_ENTRIES),
            inflight: Mutex::new(HashMap::new()),
            quota,
            gate: QuotaGate::new(cfg.max_queued_per_model),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            embeds_computed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            head_rows_evaluated: AtomicU64::new(0),
            head_rows_reused: AtomicU64::new(0),
        }
    }

    /// Effective cold-compute quota given the current hosted-model count.
    fn effective_quota(&self, cfg: &ServiceConfig, hosted_models: usize) -> usize {
        self.quota
            .unwrap_or_else(|| cfg.workers.max(1) / hosted_models.max(1))
            .max(1)
    }

    fn stats(&self, effective_quota: usize) -> ModelStats {
        ModelStats {
            model: self.name.clone(),
            precision: self.prepared.precision().label().to_owned(),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            embeddings_computed: self.embeds_computed.load(Ordering::Relaxed),
            coalesced_requests: self.coalesced.load(Ordering::Relaxed),
            head_rows_evaluated: self.head_rows_evaluated.load(Ordering::Relaxed),
            head_rows_reused: self.head_rows_reused.load(Ordering::Relaxed),
            quota: effective_quota,
            queued: self.gate.queued_total(),
            rejected_quota: self.gate.rejected_total(),
            embedding_cache: self.embeddings.stats(),
            design_cache: self.designs.stats(),
        }
    }
}

/// A schedule stored in the workload library.
struct StoredWorkload {
    phases: Vec<WorkloadPhase>,
    fingerprint: u64,
}

/// A netlist stored in the design library (the `load_design` verb).
struct UploadedDesign {
    design: Design,
    fingerprint: u64,
}

/// Stable FNV-1a over arbitrary bytes — the fingerprint primitive shared
/// by design identities, cache-snapshot entries, and the shard ring.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable FNV-1a fingerprint of a design's canonical structural-Verilog
/// rendering. Computed from `to_verilog` (not the uploaded bytes), so an
/// upload and an in-process load of the same netlist always agree.
fn design_fingerprint(design: &Design) -> u64 {
    fnv1a(design.to_verilog().bytes())
}

/// Format version of cache-snapshot files, revised independently of the
/// model registry's. Version 2 marks f32 rows narrowed from the f64
/// encoder; version-1 f32 rows came from a separate f32 encoder, would
/// differ from a cold recompute, and so must never be restored.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 2;

/// First line of a cache-snapshot file: the framing that must match the
/// restoring service before any entry is considered.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SnapshotHeader {
    format_version: u32,
    precision: String,
    shard_id: Option<u32>,
}

/// The fingerprinted payload of one snapshot entry: a cached embedding
/// with enough identity (model name + config fingerprint) for a restore
/// to refuse entries that no longer match the hosting service.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SnapshotRecord {
    model: String,
    config_fingerprint: u64,
    key: TraceKey,
    embeddings: TraceEmbeddings,
}

/// One entry line of a cache snapshot (every line after the header).
/// `fingerprint` is FNV-1a over the record's canonical JSON rendering;
/// a restore re-derives it from the parsed record, so any bit flipped in
/// the payload — or in the fingerprint itself — disqualifies the entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SnapshotEntry {
    fingerprint: u64,
    record: SnapshotRecord,
}

/// Outcome of [`AtlasService::restore_cache`]. Restoring is never fatal:
/// a missing, truncated, tampered, or mismatched snapshot degrades to a
/// cold (or partially warm) start, and this report says how far it got.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotRestoreReport {
    /// Entries validated and re-admitted into a model's embedding cache.
    pub restored: usize,
    /// Entries (or, for an unusable header, whole files) dropped:
    /// unparsable, fingerprint-mismatched, addressed to a model this
    /// service does not host (or hosts with different weights), or too
    /// large for the cache budget.
    pub skipped: usize,
}

/// One line of the workload journal ([`ServiceConfig::workload_file`]):
/// a registered schedule with its fingerprint, so replay can detect a
/// journal whose schedule bytes were edited after the fact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadJournalEntry {
    /// Library name the schedule was registered under.
    pub name: String,
    /// The schedule itself.
    pub phases: Vec<WorkloadPhase>,
    /// `schedule_fingerprint(&phases)` at registration time; replay
    /// recomputes and refuses a mismatch.
    pub fingerprint: u64,
}

/// Render one journal line (no trailing newline).
pub fn render_journal_entry(entry: &WorkloadJournalEntry) -> String {
    serde_json::to_string(entry).unwrap_or_else(|e| format!(r#"{{"error":"render failure: {e}"}}"#))
}

/// Parse a whole workload journal: one JSON entry per non-empty line,
/// each fingerprint-validated against its schedule. Later entries for a
/// name supersede earlier ones at replay (the journal is append-only).
///
/// # Errors
///
/// [`ServeError::Registry`] on a malformed line or a fingerprint that
/// does not match the recomputed one.
pub fn parse_workload_journal(text: &str) -> Result<Vec<WorkloadJournalEntry>, ServeError> {
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry: WorkloadJournalEntry = serde_json::from_str(line).map_err(|e| {
            ServeError::Registry(format!("workload journal line {}: {e}", lineno + 1))
        })?;
        let actual = schedule_fingerprint(&entry.phases);
        if actual != entry.fingerprint {
            return Err(ServeError::Registry(format!(
                "workload journal line {}: `{}` claims fingerprint {:#018x} but its schedule \
                 hashes to {actual:#018x}",
                lineno + 1,
                entry.name,
                entry.fingerprint
            )));
        }
        entries.push(entry);
    }
    Ok(entries)
}

struct Shared {
    /// The live model catalog: `load_model`/`unload_model` mutate it at
    /// runtime, so every route takes a (brief) read lock and clones the
    /// `Arc` — in-flight requests keep an unloaded model's state alive
    /// until they finish.
    models: RwLock<HashMap<String, Arc<ModelState>>>,
    default_model: String,
    /// The default model's state, pinned separately: it can never be
    /// unloaded, so borrowing its config out of the service is safe.
    default_state: Arc<ModelState>,
    workloads: Mutex<HashMap<String, StoredWorkload>>,
    /// The design library: netlists uploaded via `load_design`,
    /// referenceable from any request's `design` field (presets win on a
    /// name collision, but uploads shadowing a preset are rejected at
    /// load time, so a collision cannot occur).
    designs: Mutex<HashMap<String, Arc<UploadedDesign>>>,
    /// Open append handle of the workload journal, when configured.
    journal: Mutex<Option<std::fs::File>>,
    cfg: ServiceConfig,
    requests: AtomicU64,
    errors: AtomicU64,
}

/// The reply type of one request: the response, or the echoed request id
/// plus the typed error.
pub type Reply = Result<PredictResponse, (Option<u64>, ServeError)>;

/// The reply type of one `predict_delta` request (see
/// [`AtlasService::submit_delta_with`]).
pub type DeltaReply = Result<PredictDeltaResponse, (Option<u64>, ServeError)>;

/// What a worker produced for one finished job: the predict summary every
/// path shares, plus — populated only on the delta path — the reuse
/// accounting a `predict_delta` reply carries on top of it.
struct Outcome {
    response: PredictResponse,
    base_hit: bool,
    stats: DeltaStats,
}

impl Outcome {
    /// A plain-predict outcome: no base, nothing reused.
    fn predict(response: PredictResponse) -> Outcome {
        Outcome {
            response,
            base_hit: false,
            stats: DeltaStats::default(),
        }
    }
}

/// What a worker hands a job's reply callback: the [`Outcome`], or the
/// echoed request id plus the typed error.
type Finished = Result<Outcome, (Option<u64>, ServeError)>;

/// What one job computes: a plain prediction, or a delta prediction that
/// may reuse (sub-module × cycle) items from a cached base trace.
enum Work {
    Predict,
    Delta {
        /// The fully-defaulted base request naming the cache entry whose
        /// items may be reused (same model as the target by
        /// construction).
        base: PredictRequest,
        /// Advisory client hint; range-validated against the target
        /// design, never trusted for reuse decisions.
        changed_submodules: Option<Vec<usize>>,
    },
}

struct Job {
    request: PredictRequest,
    work: Work,
    /// Called exactly once with the job's result: by the worker that
    /// finishes it, or with [`ServeError::Shutdown`] when the service
    /// stops first. Each submit entry point maps the outcome to its own
    /// reply type inside this closure.
    reply: Box<dyn FnOnce(Finished) + Send>,
}

impl Job {
    /// Answer the job with `error`, echoing its request id.
    fn fail(self, error: ServeError) {
        (self.reply)(Err((self.request.id, error)));
    }
}

#[derive(Default)]
struct QueueState {
    jobs: std::collections::VecDeque<Job>,
    shutdown: bool,
}

struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

/// A running prediction service. Cloneable handles are obtained by
/// wrapping it in an `Arc`; dropping the last handle shuts the workers
/// down.
pub struct AtlasService {
    shared: Arc<Shared>,
    queue: Arc<Queue>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl AtlasService {
    /// Start a single-model service from a registry-loaded model, served
    /// under its registry name (which is also the default model). A file
    /// whose header carries a name the catalog would reject (possible
    /// via `ModelRegistry::load_file`, which accepts files from outside
    /// any registry) is served under `default` instead.
    ///
    /// # Panics
    ///
    /// When [`AtlasService::start_catalog`] fails — with a one-model
    /// catalog that means a [`ServiceConfig::workload_file`] journal
    /// that cannot be replayed or opened (the panic message carries the
    /// underlying error). Use `start_catalog` directly to handle that
    /// as a `Result`.
    pub fn start(saved: SavedModel, cfg: ServiceConfig) -> AtlasService {
        let mut catalog = ModelCatalog::new();
        let name = if ModelCatalog::valid_name(&saved.header.name) {
            saved.header.name.clone()
        } else {
            "default".to_owned()
        };
        catalog
            .insert(name, saved)
            .expect("a validated or fallback name inserts into an empty catalog");
        AtlasService::start_catalog(catalog, cfg)
            .unwrap_or_else(|e| panic!("failed to start single-model service: {e}"))
    }

    /// Start a single-model service from an in-memory model and its
    /// training config, served under the name `default`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`AtlasService::start`].
    pub fn start_with(
        model: AtlasModel,
        experiment: ExperimentConfig,
        cfg: ServiceConfig,
    ) -> AtlasService {
        let mut catalog = ModelCatalog::new();
        catalog
            .insert_model("default", model, experiment)
            .expect("`default` is a valid catalog name");
        AtlasService::start_catalog(catalog, cfg)
            .unwrap_or_else(|e| panic!("failed to start single-model service: {e}"))
    }

    /// Start a service hosting every model of `catalog` behind one
    /// worker pool. Each model gets its own embedding/design caches and
    /// single-flight map, sized by `cfg`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] when the catalog is empty, or when the
    /// configured [`ServiceConfig::workload_file`] cannot be replayed
    /// (corrupt/tampered entries) or opened for appending.
    pub fn start_catalog(
        catalog: ModelCatalog,
        cfg: ServiceConfig,
    ) -> Result<AtlasService, ServeError> {
        let (default_model, entries) = catalog
            .into_entries()
            .ok_or_else(|| ServeError::Registry("cannot serve an empty model catalog".into()))?;
        let models: HashMap<String, Arc<ModelState>> = entries
            .into_iter()
            .map(|(name, saved)| {
                let state = Arc::new(ModelState::new(name.clone(), saved, &cfg));
                (name, state)
            })
            .collect();
        let default_state = Arc::clone(
            models
                .get(&default_model)
                .expect("the catalog default names one of its entries"),
        );
        let (workloads, journal) = match &cfg.workload_file {
            Some(path) => {
                let library = replay_workload_library(path, &cfg)?;
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| {
                        ServeError::Registry(format!(
                            "open workload journal {}: {e}",
                            path.display()
                        ))
                    })?;
                (library, Some(file))
            }
            None => (HashMap::new(), None),
        };
        let shared = Arc::new(Shared {
            models: RwLock::new(models),
            default_model,
            default_state,
            workloads: Mutex::new(workloads),
            designs: Mutex::new(HashMap::new()),
            journal: Mutex::new(journal),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cfg,
        });
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let queue = Arc::clone(&queue);
                thread::spawn(move || worker_loop(&shared, &queue))
            })
            .collect();
        Ok(AtlasService {
            shared,
            queue,
            workers,
        })
    }

    fn enqueue(
        &self,
        request: PredictRequest,
        work: Work,
        reply: impl FnOnce(Finished) + Send + 'static,
    ) {
        requeue(
            &self.queue,
            Job {
                request,
                work,
                reply: Box::new(reply),
            },
        );
    }

    /// Enqueue a request; the returned channel yields the reply.
    pub fn submit(&self, request: PredictRequest) -> mpsc::Receiver<Reply> {
        let (tx, rx) = mpsc::channel();
        // A disconnected receiver just means the client went away.
        self.submit_with(request, move |reply| {
            let _ = tx.send(reply);
        });
        rx
    }

    /// Enqueue a request whose reply is delivered to `callback` on the
    /// worker thread — the non-blocking submission path the event-loop
    /// front door uses. The callback must be cheap and must not block
    /// (it runs inside the worker pool).
    pub fn submit_with(
        &self,
        request: PredictRequest,
        callback: impl FnOnce(Reply) + Send + 'static,
    ) {
        self.enqueue(request, Work::Predict, move |finished| {
            callback(finished.map(|o| o.response));
        });
    }

    /// Enqueue a `predict_delta` request whose reply is delivered to
    /// `callback` on the worker thread — the delta sibling of
    /// [`AtlasService::submit_with`]. The response is bit-identical to a
    /// full `predict` of the target; the base only decides how much of
    /// the embedding work is *reused* rather than recomputed.
    pub fn submit_delta_with(
        &self,
        request: PredictDeltaRequest,
        callback: impl FnOnce(DeltaReply) + Send + 'static,
    ) {
        let work = Work::Delta {
            base: request.base_request(),
            changed_submodules: request.changed_submodules.clone(),
        };
        self.enqueue(request.target(), work, move |finished| {
            callback(finished.map(|o| delta_response(o.response, o.base_hit, &o.stats)));
        });
    }

    /// Answer one `predict_delta` request, blocking until a worker
    /// finishes it.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] the request produced.
    pub fn call_delta(
        &self,
        request: PredictDeltaRequest,
    ) -> Result<PredictDeltaResponse, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.submit_delta_with(request, move |reply| {
            let _ = tx.send(reply);
        });
        recv(&rx)
    }

    /// Answer one request, blocking until a worker finishes it.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] the request produced.
    pub fn call(&self, request: PredictRequest) -> Result<PredictResponse, ServeError> {
        recv(&self.submit(request))
    }

    /// Aggregate counters plus the per-model breakdown, as the `stats`
    /// verb's reply with no request id and the reactor fields empty
    /// (`reactor_threads: 0`, no `reactors`).
    pub fn stats(&self) -> StatsResponse {
        let mut models: Vec<ModelStats> = {
            let map = self.shared.models.read().expect("models lock");
            let hosted = map.len();
            map.values()
                .map(|m| m.stats(m.effective_quota(&self.shared.cfg, hosted)))
                .collect()
        };
        models.sort_by(|a, b| a.model.cmp(&b.model));
        let mut stats = StatsResponse {
            verb: "stats".to_owned(),
            requests: self.shared.requests.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            shard_id: self.shared.cfg.shard_id,
            ..StatsResponse::default()
        };
        for m in &models {
            stats.embeddings_computed += m.embeddings_computed;
            stats.coalesced_requests += m.coalesced_requests;
            stats.head_rows_evaluated += m.head_rows_evaluated;
            stats.head_rows_reused += m.head_rows_reused;
            stats.embedding_cache = add_cache_stats(stats.embedding_cache, m.embedding_cache);
            stats.design_cache = add_cache_stats(stats.design_cache, m.design_cache);
        }
        stats.models = models;
        stats
    }

    /// Identity of every hosted model, sorted by serving name.
    pub fn models(&self) -> Vec<ModelInfo> {
        let mut infos: Vec<ModelInfo> = self
            .shared
            .models
            .read()
            .expect("models lock")
            .values()
            .map(|m| ModelInfo {
                name: m.name.clone(),
                format_version: m.format_version,
                config_fingerprint: m.config_fingerprint,
            })
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Add `saved` to the live catalog under `name`, without a restart.
    /// The model is routable (and visible to `models`/`stats`) the moment
    /// this returns.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for a name the catalog would
    /// reject; [`ServeError::Registry`] when the name is already hosted.
    pub fn load_model(&self, name: &str, saved: SavedModel) -> Result<ModelInfo, ServeError> {
        if !ModelCatalog::valid_name(name) {
            return Err(ServeError::InvalidRequest(format!(
                "invalid model name `{name}`"
            )));
        }
        // Build the state (library materialization etc.) outside the
        // write lock: routing stays unblocked until the map insert.
        let state = Arc::new(ModelState::new(name.to_owned(), saved, &self.shared.cfg));
        let info = ModelInfo {
            name: state.name.clone(),
            format_version: state.format_version,
            config_fingerprint: state.config_fingerprint,
        };
        let mut models = self.shared.models.write().expect("models lock");
        if models.contains_key(name) {
            return Err(RegistryError::Duplicate(name.to_owned()).into());
        }
        models.insert(name.to_owned(), state);
        Ok(info)
    }

    /// [`AtlasService::load_model`] from a model file on disk, validated
    /// exactly like a catalog entry (format version + config
    /// fingerprint) via [`ModelRegistry::load_file`] — the wire verb
    /// `load_model`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] for unreadable, corrupt,
    /// wrong-format-version, or fingerprint-mismatched files, plus every
    /// [`AtlasService::load_model`] error.
    pub fn load_model_file(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<ModelInfo, ServeError> {
        let saved = ModelRegistry::load_file(path)?;
        self.load_model(name, saved)
    }

    /// Remove a hosted model from the live catalog — the wire verb
    /// `unload_model`. Drain-safe: requests already routed keep the
    /// model's state alive (via its `Arc`) and complete normally; cold
    /// requests parked behind its quota re-enter the shared queue and
    /// re-route (typically to a structured `unknown_model` error; to the
    /// replacement model if one was loaded under the same name first);
    /// requests arriving after removal get `unknown_model`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for the default model (it can
    /// never be unloaded); [`ServeError::UnknownModel`] when no hosted
    /// model has this name.
    pub fn unload_model(&self, name: &str) -> Result<(), ServeError> {
        if name == self.shared.default_model {
            return Err(ServeError::InvalidRequest(format!(
                "the default model `{name}` cannot be unloaded"
            )));
        }
        let removed = self
            .shared
            .models
            .write()
            .expect("models lock")
            .remove(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_owned()))?;
        for job in removed.gate.drain_parked() {
            requeue(&self.queue, job);
        }
        Ok(())
    }

    /// Serving name of the default model (requests without a `model`
    /// field route here).
    pub fn default_model(&self) -> &str {
        &self.shared.default_model
    }

    /// Store `phases` in the workload library under `name`, making it
    /// referenceable from any later request's `workload_name` field.
    /// Returns the stored summary and whether an existing schedule was
    /// replaced (safe: cache entries are keyed by schedule fingerprint,
    /// so a replaced schedule can never serve stale results). With a
    /// [`ServiceConfig::workload_file`], the registration is journaled
    /// before it becomes visible, so a restart replays it.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for a bad name (empty, too long,
    /// non `[A-Za-z0-9._-]`, or shadowing a preset), a bad schedule
    /// (empty, over 64 phases, or failing
    /// [`PhasedWorkload::try_new`] validation), or a full library;
    /// [`ServeError::Registry`] when the journal append fails (the
    /// registration is not applied).
    pub fn register_workload(
        &self,
        name: &str,
        phases: Vec<WorkloadPhase>,
    ) -> Result<(RegisteredWorkload, bool), ServeError> {
        validate_workload(name, &phases)?;
        let fingerprint = schedule_fingerprint(&phases);
        let mut library = self.shared.workloads.lock().expect("workload lock");
        if !library.contains_key(name) && library.len() >= self.shared.cfg.max_registered_workloads
        {
            return Err(ServeError::InvalidRequest(format!(
                "workload library is full ({} schedules)",
                library.len()
            )));
        }
        // Journal-then-apply while holding the library lock, so the
        // journal's line order matches the order registrations became
        // visible — replay (last entry wins) then reproduces this exact
        // library. A failed append registers nothing.
        if let Some(file) = self.shared.journal.lock().expect("journal lock").as_mut() {
            let line = render_journal_entry(&WorkloadJournalEntry {
                name: name.to_owned(),
                phases: phases.clone(),
                fingerprint,
            });
            writeln!(file, "{line}")
                .and_then(|()| file.flush())
                .map_err(|e| ServeError::Registry(format!("append workload journal: {e}")))?;
        }
        let summary = RegisteredWorkload {
            name: name.to_owned(),
            phases: phases.len(),
            fingerprint,
        };
        let replaced = library
            .insert(
                name.to_owned(),
                StoredWorkload {
                    phases,
                    fingerprint,
                },
            )
            .is_some();
        Ok((summary, replaced))
    }

    /// Every registered schedule, sorted by name.
    pub fn workloads(&self) -> Vec<RegisteredWorkload> {
        let library = self.shared.workloads.lock().expect("workload lock");
        let mut all: Vec<RegisteredWorkload> = library
            .iter()
            .map(|(name, w)| RegisteredWorkload {
                name: name.clone(),
                phases: w.phases.len(),
                fingerprint: w.fingerprint,
            })
            .collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Parse a structural-Verilog body with the hardened
    /// [`Design::from_verilog`] reader and store it in the design
    /// library under `name`, making it referenceable from any later
    /// predict request's `design` field — the wire verb `load_design`.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for a bad name (empty, too long,
    /// non `[A-Za-z0-9._-]`, starting with `.`, or shadowing a preset
    /// design), a body over [`ServiceConfig::max_design_bytes`], a full
    /// library, or a name already loaded (uploads are never replaced:
    /// per-model design caches are keyed by name, so replacement could
    /// serve stale artifacts); [`ServeError::ParseError`] when the body
    /// fails to parse (the message carries the reader's typed
    /// diagnostic).
    pub fn load_design(&self, name: &str, verilog: &str) -> Result<DesignInfo, ServeError> {
        if verilog.len() > self.shared.cfg.max_design_bytes {
            return Err(ServeError::InvalidRequest(format!(
                "design body of {} bytes exceeds the service limit {}",
                verilog.len(),
                self.shared.cfg.max_design_bytes
            )));
        }
        let design =
            Design::from_verilog(verilog).map_err(|e| ServeError::ParseError(e.to_string()))?;
        self.load_design_parsed(name, design)
    }

    /// Store an already-built [`Design`] in the design library under
    /// `name` — the in-process twin of [`AtlasService::load_design`].
    /// The stored fingerprint (and therefore the workload seed) is
    /// computed from the design's canonical `to_verilog` rendering, so
    /// predictions are bit-identical whichever route loaded it.
    ///
    /// # Errors
    ///
    /// The same name/library errors as [`AtlasService::load_design`].
    pub fn load_design_parsed(&self, name: &str, design: Design) -> Result<DesignInfo, ServeError> {
        let bad = |msg: String| ServeError::InvalidRequest(msg);
        check_library_name("design", name)?;
        if self
            .shared
            .default_state
            .experiment
            .try_design(name)
            .is_ok()
        {
            return Err(bad(format!(
                "design name `{name}` shadows a built-in preset"
            )));
        }
        let info = DesignInfo {
            name: name.to_owned(),
            cells: design.cell_count(),
            nets: design.net_count(),
            fingerprint: design_fingerprint(&design),
        };
        let mut library = self.shared.designs.lock().expect("design lock");
        if library.contains_key(name) {
            return Err(bad(format!("design `{name}` is already loaded")));
        }
        if library.len() >= self.shared.cfg.max_designs {
            return Err(bad(format!(
                "design library is full ({} designs)",
                library.len()
            )));
        }
        library.insert(
            name.to_owned(),
            Arc::new(UploadedDesign {
                design,
                fingerprint: info.fingerprint,
            }),
        );
        Ok(info)
    }

    /// Every uploaded design, sorted by name.
    pub fn designs(&self) -> Vec<DesignInfo> {
        let library = self.shared.designs.lock().expect("design lock");
        let mut all: Vec<DesignInfo> = library
            .iter()
            .map(|(name, d)| DesignInfo {
                name: name.clone(),
                cells: d.design.cell_count(),
                nets: d.design.net_count(),
                fingerprint: d.fingerprint,
            })
            .collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// The experiment configuration the **default** model was trained
    /// under.
    pub fn experiment(&self) -> &ExperimentConfig {
        &self.shared.default_state.experiment
    }

    /// This process's shard identity ([`ServiceConfig::shard_id`];
    /// `None` when serving unsharded).
    pub fn shard_id(&self) -> Option<u32> {
        self.shared.cfg.shard_id
    }

    /// Serialize every hosted model's resident embedding cache to
    /// `path` — the warm-start snapshot a restarted shard reloads with
    /// [`AtlasService::restore_cache`]. JSON lines: one header carrying
    /// the snapshot format version, precision, and shard id, then one
    /// fingerprinted entry per cached embedding, oldest-first per model
    /// (so a restore reproduces eviction priority). Written to a
    /// sibling temporary and renamed into place, so a crash mid-write
    /// never leaves a truncated file under `path`. Returns the number
    /// of entries written.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] when serialization or the filesystem
    /// write fails.
    pub fn snapshot_cache(&self, path: impl AsRef<std::path::Path>) -> Result<usize, ServeError> {
        let path = path.as_ref();
        let fail = |what: &str, e: &dyn std::fmt::Display| {
            ServeError::Registry(format!("{what} cache snapshot {}: {e}", path.display()))
        };
        let header = SnapshotHeader {
            format_version: SNAPSHOT_FORMAT_VERSION,
            precision: self.shared.cfg.precision.label().to_owned(),
            shard_id: self.shared.cfg.shard_id,
        };
        let mut out = serde_json::to_string(&header).map_err(|e| fail("render", &e))?;
        out.push('\n');
        let mut models: Vec<Arc<ModelState>> = self
            .shared
            .models
            .read()
            .expect("models lock")
            .values()
            .cloned()
            .collect();
        models.sort_by(|a, b| a.name.cmp(&b.name));
        let mut written = 0usize;
        for state in models {
            for (key, cached, _weight) in state.embeddings.export() {
                let entry = SnapshotEntry {
                    fingerprint: 0,
                    record: SnapshotRecord {
                        model: state.name.clone(),
                        config_fingerprint: state.config_fingerprint,
                        key,
                        embeddings: cached.embeddings.clone(),
                    },
                };
                let body = serde_json::to_string(&entry.record).map_err(|e| fail("render", &e))?;
                let entry = SnapshotEntry {
                    fingerprint: fnv1a(body.bytes()),
                    ..entry
                };
                out.push_str(&serde_json::to_string(&entry).map_err(|e| fail("render", &e))?);
                out.push('\n');
                written += 1;
            }
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, out.as_bytes()).map_err(|e| fail("write", &e))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            fail("rename", &e)
        })?;
        Ok(written)
    }

    /// Re-admit a [`AtlasService::snapshot_cache`] file into the hosted
    /// models' embedding caches — the warm-start path of a restarted
    /// shard. Never fatal: a missing or unreadable file, a header whose
    /// format version or precision does not match this service, and any
    /// entry that is unparsable, fingerprint-mismatched, addressed to an
    /// unhosted model (or one hosted with a different config
    /// fingerprint), internally inconsistent, or too large for the cache
    /// budget are all *skipped*, degrading to a cold start for exactly
    /// those keys. Snapshots carry no watts: each admitted entry's watts
    /// are recomputed by the live heads *before* admission, so a restored
    /// entry is never stale and its first hit is as fast as any other.
    /// Restored entries count as neither computed embeddings, evaluated
    /// head rows, nor cache traffic: a warm-started shard answering its
    /// first request reports `embeddings_computed == 0` with a cache hit.
    pub fn restore_cache(&self, path: impl AsRef<std::path::Path>) -> SnapshotRestoreReport {
        let mut report = SnapshotRestoreReport::default();
        let Ok(text) = std::fs::read_to_string(path.as_ref()) else {
            return report;
        };
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header: Option<SnapshotHeader> =
            lines.next().and_then(|l| serde_json::from_str(l).ok());
        let header_ok = header.is_some_and(|h| {
            h.format_version == SNAPSHOT_FORMAT_VERSION
                && h.precision == self.shared.cfg.precision.label()
        });
        if !header_ok {
            report.skipped = lines.count();
            return report;
        }
        // Validate in file order first (oldest-first per model), then
        // decide admission from the NEWEST end against each model's
        // *live* budget: a snapshot taken under a larger `--cache-mb`
        // must never churn the restored cache (restoring oldest-first
        // would admit old entries only to evict them lines later).
        struct Candidate {
            state: Arc<ModelState>,
            key: TraceKey,
            embeddings: TraceEmbeddings,
            weight: usize,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        for line in lines {
            let Ok(entry) = serde_json::from_str::<SnapshotEntry>(line) else {
                report.skipped += 1;
                continue;
            };
            // Re-derive the fingerprint from the *parsed* record: the
            // canonical rendering is a fixed point of parse-then-render,
            // so any corrupted bit — payload or fingerprint — mismatches.
            let authentic = serde_json::to_string(&entry.record)
                .is_ok_and(|body| fnv1a(body.bytes()) == entry.fingerprint);
            let state = self
                .shared
                .models
                .read()
                .expect("models lock")
                .get(&entry.record.model)
                .cloned();
            let admissible = authentic
                && state
                    .as_ref()
                    .is_some_and(|s| s.config_fingerprint == entry.record.config_fingerprint)
                && entry.record.embeddings.precision() == self.shared.cfg.precision
                && entry.record.embeddings.cycles() == entry.record.key.cycles;
            match (admissible, state) {
                (true, Some(state)) if state.model.can_predict(&entry.record.embeddings) => {
                    let weight = CachedTrace::weight(&entry.record.embeddings);
                    candidates.push(Candidate {
                        state,
                        key: entry.record.key,
                        embeddings: entry.record.embeddings,
                        weight,
                    });
                }
                _ => report.skipped += 1,
            }
        }
        // Newest-first budget walk, stopping per model at the first entry
        // that no longer fits — strict recency order, so an older entry
        // is never admitted at the expense of a newer one.
        let mut spent: HashMap<String, (usize, bool)> = HashMap::new();
        let mut keep = vec![false; candidates.len()];
        for (i, c) in candidates.iter().enumerate().rev() {
            let budget = c.state.embeddings.budget();
            let (used, full) = spent.entry(c.state.name.clone()).or_insert((0, false));
            if !*full && *used + c.weight <= budget {
                *used += c.weight;
                keep[i] = true;
            } else {
                *full = true;
            }
        }
        // Insert the kept set in file order (oldest-first), reproducing
        // the snapshot's relative recency inside the live cache.
        for (c, keep) in candidates.into_iter().zip(keep) {
            let restored = keep && {
                let watts = c.state.model.predict_from_embeddings(&c.embeddings);
                let cached = CachedTrace {
                    embeddings: c.embeddings,
                    watts,
                };
                c.state
                    .embeddings
                    .insert_weighted(c.key, Arc::new(cached), c.weight)
            };
            if restored {
                report.restored += 1;
            } else {
                report.skipped += 1;
            }
        }
        report
    }
}

/// Block on one reply channel of [`AtlasService::call`] or
/// [`AtlasService::call_delta`]; a reply dropped unanswered reads as
/// [`ServeError::Shutdown`].
fn recv<T>(rx: &mpsc::Receiver<Result<T, (Option<u64>, ServeError)>>) -> Result<T, ServeError> {
    rx.recv()
        .map_err(|_| ServeError::Shutdown)?
        .map_err(|(_, error)| error)
}

impl Drop for AtlasService {
    fn drop(&mut self) {
        let drained = {
            let mut state = self.queue.state.lock().expect("queue lock");
            state.shutdown = true;
            // Pending jobs get a shutdown error rather than a hang.
            std::mem::take(&mut state.jobs)
        };
        for job in drained {
            job.fail(ServeError::Shutdown);
        }
        self.queue.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // With the workers joined nothing can park anymore; jobs still
        // parked behind a saturated quota (their would-be releasers were
        // themselves answered with Shutdown) get the same typed error
        // instead of a silent drop.
        let models: Vec<Arc<ModelState>> = self
            .shared
            .models
            .read()
            .expect("models lock")
            .values()
            .cloned()
            .collect();
        for state in models {
            for job in state.gate.drain_parked() {
                job.fail(ServeError::Shutdown);
            }
        }
    }
}

/// Push a job onto the shared worker queue, or answer it with
/// [`ServeError::Shutdown`] if the service is stopping. Used by fresh
/// submissions and by quota releases re-dispatching parked jobs.
fn requeue(queue: &Queue, job: Job) {
    let mut state = queue.state.lock().expect("queue lock");
    if state.shutdown {
        drop(state);
        job.fail(ServeError::Shutdown);
    } else {
        state.jobs.push_back(job);
        drop(state);
        queue.ready.notify_one();
    }
}

/// The naming rule of the design and workload libraries: 1-64 chars of
/// `[A-Za-z0-9._-]`, not starting with `.`. `noun` names the library in
/// the error.
fn check_library_name(noun: &str, name: &str) -> Result<(), ServeError> {
    let name_ok = !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if name_ok {
        Ok(())
    } else {
        Err(ServeError::InvalidRequest(format!(
            "bad {noun} name `{name}`: 1-64 chars of [A-Za-z0-9._-], not starting with `.`"
        )))
    }
}

/// Shared name/schedule validation of `register_workload` and journal
/// replay.
fn validate_workload(name: &str, phases: &[WorkloadPhase]) -> Result<(), ServeError> {
    let bad = |msg: String| ServeError::InvalidRequest(msg);
    check_library_name("workload", name)?;
    if PhasedWorkload::preset(name, 0).is_some() {
        return Err(bad(format!(
            "workload name `{name}` shadows a built-in preset"
        )));
    }
    if phases.len() > MAX_PHASES {
        return Err(bad(format!(
            "schedule has {} phases, limit is {MAX_PHASES}",
            phases.len(),
        )));
    }
    // Validate the schedule exactly like an inline `phases` field.
    PhasedWorkload::try_new(name, phases.to_vec(), 0)
        .map_err(|e| bad(format!("bad schedule: {e}")))?;
    Ok(())
}

/// Rebuild the workload library from its journal (missing file = empty
/// library). Entries are validated like live registrations and the last
/// entry for a name wins, mirroring append order.
fn replay_workload_library(
    path: &std::path::Path,
    cfg: &ServiceConfig,
) -> Result<HashMap<String, StoredWorkload>, ServeError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => {
            return Err(ServeError::Registry(format!(
                "read workload journal {}: {e}",
                path.display()
            )))
        }
    };
    let mut library = HashMap::new();
    for entry in parse_workload_journal(&text)? {
        validate_workload(&entry.name, &entry.phases).map_err(|e| {
            ServeError::Registry(format!("workload journal entry `{}`: {e}", entry.name))
        })?;
        library.insert(
            entry.name,
            StoredWorkload {
                phases: entry.phases,
                fingerprint: entry.fingerprint,
            },
        );
        if library.len() > cfg.max_registered_workloads {
            return Err(ServeError::Registry(format!(
                "workload journal {} holds more than {} schedules",
                path.display(),
                cfg.max_registered_workloads
            )));
        }
    }
    Ok(library)
}

fn worker_loop(shared: &Shared, queue: &Queue) {
    loop {
        let job = {
            let mut state = queue.state.lock().expect("queue lock");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = queue.ready.wait(state).expect("queue lock");
            }
        };
        process_job(shared, queue, job);
    }
}

/// Answer one job, attributing the outcome to the service counters and —
/// when routing got that far — the model's. Every job is finished
/// exactly once; parked jobs are finished by the worker that picks them
/// back up after a quota release.
fn finish(
    shared: &Shared,
    state: Option<&ModelState>,
    job: Job,
    result: Result<Outcome, ServeError>,
) {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    if result.is_err() {
        shared.errors.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(state) = state {
        state.requests.fetch_add(1, Ordering::Relaxed);
        if result.is_err() {
            state.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    let id = job.request.id;
    (job.reply)(result.map_err(|e| (id, e)));
}

/// Releases one cold-compute slot on drop (panic-safe), re-dispatching
/// the next job parked behind the quota — if any — through the shared
/// worker queue.
struct SlotGuard<'a> {
    gate: &'a QuotaGate<Job>,
    queue: &'a Queue,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        if let Some(job) = self.gate.release() {
            requeue(self.queue, job);
        }
    }
}

/// Validate, route, and answer (or park) one job.
fn process_job(shared: &Shared, queue: &Queue, job: Job) {
    // Service-level validation needs no model.
    let cycles = job.request.cycles;
    if cycles == 0 {
        let err = ServeError::InvalidRequest("cycles must be positive".into());
        return finish(shared, None, job, Err(err));
    }
    if cycles > shared.cfg.max_cycles {
        let err = ServeError::InvalidRequest(format!(
            "cycles {cycles} exceeds the service limit {}",
            shared.cfg.max_cycles
        ));
        return finish(shared, None, job, Err(err));
    }
    // Route to a live model. Cloning the `Arc` out of the read-locked
    // map keeps the model alive for this whole request even if it is
    // unloaded mid-flight — that is what makes unloads drain-safe. The
    // hosted-model count is captured from the same snapshot so the
    // fair-share quota below is consistent with the catalog this
    // request was routed under.
    let name = job
        .request
        .model
        .as_deref()
        .unwrap_or(&shared.default_model);
    let (routed, hosted) = {
        let map = shared.models.read().expect("models lock");
        (map.get(name).cloned(), map.len())
    };
    let Some(state) = routed else {
        let err = ServeError::UnknownModel(name.to_owned());
        return finish(shared, None, job, Err(err));
    };
    let started = Instant::now();
    // Resolve names before touching any cache so error paths are uniform
    // regardless of cache state (and need no quota slot).
    let resolved = resolve_design(shared, &state, &job.request.design)
        .and_then(|source| Ok((source, resolve_workload(shared, &job.request)?)));
    let (source, spec) = match resolved {
        Ok(r) => r,
        Err(e) => return finish(shared, Some(&state), job, Err(e)),
    };
    let key = TraceKey {
        design: job.request.design.clone(),
        workload: spec.label().to_owned(),
        cycles,
        schedule_fp: spec.fingerprint(),
    };
    // Resolve a delta job's base to its cache key up front: a malformed
    // edit description (e.g. a base naming both `phases` and
    // `workload_name`) is a typed error regardless of cache state, just
    // like the target's own validation above. The base itself is only a
    // lookup key — an unknown base design or evicted entry is not an
    // error, it just means nothing can be reused.
    let delta = match &job.work {
        Work::Predict => None,
        Work::Delta {
            base,
            changed_submodules,
        } => match resolve_workload(shared, base) {
            Ok(base_spec) => Some(DeltaPlan {
                base_key: TraceKey {
                    design: base.design.clone(),
                    workload: base_spec.label().to_owned(),
                    cycles: base.cycles,
                    schedule_fp: base_spec.fingerprint(),
                },
                changed_submodules: changed_submodules.clone(),
            }),
            Err(e) => return finish(shared, Some(&state), job, Err(e)),
        },
    };
    // Fully warm: every stage skipped, no admission. A key is only
    // cached after its workload built, so a hit needs no re-validation.
    if let Some(cached) = state.embeddings.get(&key) {
        let response = respond(&job.request, &state, &spec, &cached, true, true, started);
        return finish(shared, Some(&state), job, Ok(Outcome::predict(response)));
    }
    // Cold work goes through the model's admission gate, so one model's
    // cold storm can tie up at most its quota's worth of workers.
    let quota = state.effective_quota(&shared.cfg, hosted);
    match state.gate.admit(quota, job) {
        Admission::Granted(job) => {
            let _slot = SlotGuard {
                gate: &state.gate,
                queue,
            };
            let result = cold_predict(
                &state,
                &job.request,
                &spec,
                &source,
                &key,
                delta.as_ref(),
                started,
            );
            finish(shared, Some(&state), job, result);
        }
        // The job now lives in the gate; this worker is free for other
        // models' requests. A quota release re-dispatches it.
        Admission::Parked => {}
        Admission::Rejected(job) => {
            let err = ServeError::QuotaExceeded(state.name.clone());
            finish(shared, Some(&state), job, Err(err));
        }
    }
}

/// Summarize a resolved trace's watts into a reply: the tail every
/// request path shares.
fn respond(
    request: &PredictRequest,
    state: &ModelState,
    spec: &WorkloadSpec,
    cached: &CachedTrace,
    cache_hit: bool,
    design_cache_hit: bool,
    started: Instant,
) -> PredictResponse {
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    summarize(
        request,
        &state.name,
        spec.label(),
        &cached.watts,
        cache_hit,
        design_cache_hit,
        latency_ms,
    )
}

/// The request's workload, resolved to either a preset name or a concrete
/// phase schedule (inline or from the library) before any cache is
/// touched — so error paths are uniform regardless of cache state, and an
/// unknown `workload_name` is a structured [`ServeError::UnknownWorkload`]
/// (with the request id preserved by the reply plumbing), never a generic
/// parse error.
enum WorkloadSpec {
    Preset(String),
    Schedule {
        label: String,
        phases: Vec<WorkloadPhase>,
        fingerprint: u64,
    },
}

impl WorkloadSpec {
    fn label(&self) -> &str {
        match self {
            WorkloadSpec::Preset(name) => name,
            WorkloadSpec::Schedule { label, .. } => label,
        }
    }

    fn fingerprint(&self) -> u64 {
        match self {
            WorkloadSpec::Preset(_) => 0,
            WorkloadSpec::Schedule { fingerprint, .. } => *fingerprint,
        }
    }
}

/// The request's design, resolved to either a preset generator config or
/// an uploaded netlist from the design library. Presets are checked
/// first (uploads can never shadow them — `load_design` rejects preset
/// names), then the library; an unknown name is a structured
/// [`ServeError::UnknownDesign`].
enum DesignSource {
    Preset(atlas_designs::DesignConfig),
    Uploaded(Arc<UploadedDesign>),
}

/// The workload seed every uploaded design pins. A constant, not the
/// upload's content fingerprint: editing a netlist and re-uploading it
/// must keep the stimulus identical, or `predict_delta` could never
/// reuse anything (every design edit would also reshuffle every toggle
/// pattern). Both load routes (wire upload, in-process) trivially agree.
const UPLOADED_DESIGN_SEED: u64 = 0x0041_544c_4153;

impl DesignSource {
    /// The workload seed this design pins: the preset's configured seed,
    /// or [`UPLOADED_DESIGN_SEED`] for uploads.
    fn seed(&self) -> u64 {
        match self {
            DesignSource::Preset(cfg) => cfg.seed,
            DesignSource::Uploaded(_) => UPLOADED_DESIGN_SEED,
        }
    }
}

fn resolve_design(
    shared: &Shared,
    state: &ModelState,
    name: &str,
) -> Result<DesignSource, ServeError> {
    if let Ok(cfg) = state.experiment.try_design(name) {
        return Ok(DesignSource::Preset(cfg));
    }
    shared
        .designs
        .lock()
        .expect("design lock")
        .get(name)
        .cloned()
        .map(DesignSource::Uploaded)
        .ok_or_else(|| ServeError::UnknownDesign(name.to_owned()))
}

fn resolve_workload(shared: &Shared, request: &PredictRequest) -> Result<WorkloadSpec, ServeError> {
    let bad = |msg: &str| ServeError::InvalidRequest(msg.to_owned());
    match (&request.phases, &request.workload_name) {
        (Some(_), Some(_)) => Err(bad(
            "a request cannot carry both `phases` and `workload_name`",
        )),
        (Some(phases), None) => {
            if phases.len() > MAX_PHASES {
                return Err(ServeError::InvalidRequest(format!(
                    "inline schedule has {} phases, limit is {MAX_PHASES}",
                    phases.len(),
                )));
            }
            let label = request
                .workload
                .clone()
                .ok_or_else(|| bad("an inline schedule needs a `workload` label"))?;
            let fingerprint = schedule_fingerprint(phases);
            Ok(WorkloadSpec::Schedule {
                label,
                phases: phases.clone(),
                fingerprint,
            })
        }
        (None, Some(name)) => {
            let library = shared.workloads.lock().expect("workload lock");
            match library.get(name) {
                Some(stored) => Ok(WorkloadSpec::Schedule {
                    label: name.clone(),
                    phases: stored.phases.clone(),
                    fingerprint: stored.fingerprint,
                }),
                None => Err(ServeError::UnknownWorkload(name.clone())),
            }
        }
        (None, None) => match &request.workload {
            Some(name) => Ok(WorkloadSpec::Preset(name.clone())),
            None => Err(bad(
                "a request must name a `workload`, a `workload_name`, or carry `phases`",
            )),
        },
    }
}

/// Build the simulation stimulus for a resolved workload.
fn build_workload(
    state: &ModelState,
    spec: &WorkloadSpec,
    seed: u64,
) -> Result<PhasedWorkload, ServeError> {
    match spec {
        WorkloadSpec::Preset(name) => Ok(state.experiment.try_workload(name, seed)?),
        WorkloadSpec::Schedule { label, phases, .. } => {
            PhasedWorkload::try_new(label.clone(), phases.clone(), seed)
                .map_err(|e| ServeError::InvalidRequest(format!("bad inline schedule: {e}")))
        }
    }
}

/// A validated delta job, resolved to the base cache key it may reuse
/// from plus the client's (advisory) edit hint.
struct DeltaPlan {
    base_key: TraceKey,
    changed_submodules: Option<Vec<usize>>,
}

/// Role of one cold request in the single-flight protocol.
enum FlightRole {
    Leader(Arc<Flight>),
    Follower(Arc<Flight>),
}

/// Resolves the leader's flight slot on drop, so followers are never
/// stranded — even if the leader's computation panics, they observe a
/// typed error instead of hanging.
struct FlightGuard<'a> {
    state: &'a ModelState,
    key: &'a TraceKey,
    flight: &'a Arc<Flight>,
    resolved: bool,
}

impl FlightGuard<'_> {
    fn resolve(mut self, outcome: Result<Arc<CachedTrace>, ServeError>) {
        self.publish(outcome);
        self.resolved = true;
    }

    fn publish(&self, outcome: Result<Arc<CachedTrace>, ServeError>) {
        self.state
            .inflight
            .lock()
            .expect("inflight lock")
            .remove(self.key);
        let mut slot = self.flight.result.lock().expect("flight lock");
        *slot = Some(outcome);
        drop(slot);
        self.flight.done.notify_all();
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.resolved {
            self.publish(Err(ServeError::Shutdown));
        }
    }
}

/// The cold path, run under a granted quota slot: single-flight the
/// (design, workload, cycles) computation per key. The first cold
/// request for a key computes; concurrent duplicates wait on its
/// in-flight slot. NOTE: a follower occupies its worker thread (and its
/// quota slot) while waiting, but can never deadlock the pool — a
/// leader only exists once it is already running on a worker, so it
/// always makes progress.
fn cold_predict(
    state: &ModelState,
    request: &PredictRequest,
    spec: &WorkloadSpec,
    source: &DesignSource,
    key: &TraceKey,
    delta: Option<&DeltaPlan>,
    started: Instant,
) -> Result<Outcome, ServeError> {
    let role = {
        let mut inflight = state.inflight.lock().expect("inflight lock");
        match inflight.get(key) {
            Some(flight) => FlightRole::Follower(Arc::clone(flight)),
            None => {
                let flight = Arc::new(Flight {
                    result: Mutex::new(None),
                    done: Condvar::new(),
                });
                inflight.insert(key.clone(), Arc::clone(&flight));
                FlightRole::Leader(flight)
            }
        }
    };
    match role {
        FlightRole::Follower(flight) => {
            state.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut slot = flight.result.lock().expect("flight lock");
            while slot.is_none() {
                slot = flight.done.wait(slot).expect("flight lock");
            }
            let cached = slot.clone().expect("checked Some")?;
            // The work was shared, not redone: report it as a cache hit
            // (the follower paid only the wait). A delta follower likewise
            // reused everything through the flight, so its delta
            // accounting stays zero.
            let response = respond(request, state, spec, &cached, true, true, started);
            Ok(Outcome::predict(response))
        }
        FlightRole::Leader(flight) => {
            let guard = FlightGuard {
                state,
                key,
                flight: &flight,
                resolved: false,
            };
            // Re-check the cache: between the miss and leadership
            // another leader may have finished and populated it.
            if let Some(cached) = state.embeddings.get(key) {
                guard.resolve(Ok(Arc::clone(&cached)));
                let response = respond(request, state, spec, &cached, true, true, started);
                Ok(Outcome::predict(response))
            } else {
                let outcome = compute_embeddings(state, request, spec, source, key, delta);
                match outcome {
                    Ok(computed) => {
                        guard.resolve(Ok(Arc::clone(&computed.cached)));
                        Ok(Outcome {
                            response: respond(
                                request,
                                state,
                                spec,
                                &computed.cached,
                                false,
                                computed.design_cache_hit,
                                started,
                            ),
                            base_hit: computed.base_hit,
                            stats: computed.stats,
                        })
                    }
                    Err(e) => {
                        guard.resolve(Err(e.clone()));
                        Err(e)
                    }
                }
            }
        }
    }
}

/// What [`compute_embeddings`] produced: the (cached) trace plus the
/// cache/delta accounting the reply reports.
struct Computed {
    cached: Arc<CachedTrace>,
    design_cache_hit: bool,
    base_hit: bool,
    stats: DeltaStats,
}

/// The cold path: materialize the design (cached), simulate the workload,
/// run the encoder and then the heads — reusing base items on the delta
/// path — and admit the result against the byte budget.
fn compute_embeddings(
    state: &ModelState,
    request: &PredictRequest,
    spec: &WorkloadSpec,
    source: &DesignSource,
    key: &TraceKey,
    delta: Option<&DeltaPlan>,
) -> Result<Computed, ServeError> {
    let mut workload = build_workload(state, spec, source.seed())?;
    let (artifacts, design_cache_hit) = match state.designs.get(&request.design) {
        Some(artifacts) => (artifacts, true),
        None => {
            let gate = match source {
                DesignSource::Preset(cfg) => cfg.generate(),
                DesignSource::Uploaded(d) => d.design.clone(),
            };
            let data = build_submodule_data(&gate, &state.lib);
            let artifacts = Arc::new(DesignArtifacts { gate, data });
            state
                .designs
                .insert(request.design.clone(), Arc::clone(&artifacts));
            (artifacts, false)
        }
    };
    // The edit hint is advisory for reuse but still validated, so a typo
    // surfaces as a typed error instead of silently degrading to a full
    // recompute forever.
    if let Some(changed) = delta.and_then(|d| d.changed_submodules.as_ref()) {
        let count = artifacts.data.len();
        if let Some(&bad) = changed.iter().find(|&&i| i >= count) {
            return Err(ServeError::InvalidRequest(format!(
                "changed_submodules index {bad} out of range: design `{}` has {count} sub-modules",
                request.design
            )));
        }
    }
    let trace = simulate(&artifacts.gate, &mut workload, request.cycles)
        .map_err(|e| ServeError::Simulation(e.to_string()))?;
    // A delta whose base nobody has cached embeds in full, like a plain
    // predict: the core then counts every item as recomputed.
    let base = delta.and_then(|d| state.embeddings.get(&d.base_key));
    let (embeddings, stats) = state.prepared.embed(
        &artifacts.gate,
        &state.lib,
        &artifacts.data,
        &trace,
        // One thread inside the embed: concurrency comes from the
        // worker pool.
        1,
        base.as_deref().map(|b| &b.embeddings),
    );
    state.embeds_computed.fetch_add(1, Ordering::Relaxed);
    // The heads run once per trace, here, over the stored-precision rows;
    // a delta copies the watts of rows its cached base provably shares.
    let donor = base.as_deref().map(|b| (&b.embeddings, &b.watts));
    let (watts, reused) = state.model.predict_reusing(&embeddings, donor);
    let evaluated = embeddings.rows() - reused;
    state
        .head_rows_evaluated
        .fetch_add(evaluated as u64, Ordering::Relaxed);
    state
        .head_rows_reused
        .fetch_add(reused as u64, Ordering::Relaxed);
    // An entry bigger than the whole budget is rejected by the cache
    // (served once, never resident); everything else evicts LRU entries
    // until it fits.
    let weight = CachedTrace::weight(&embeddings);
    let cached = Arc::new(CachedTrace { embeddings, watts });
    let _ = state
        .embeddings
        .insert_weighted(key.clone(), Arc::clone(&cached), weight);
    Ok(Computed {
        cached,
        design_cache_hit,
        base_hit: base.is_some(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use atlas_core::pipeline::train_atlas;
    use atlas_sim::WorkloadPhase;

    use super::*;
    use crate::protocol::DeltaBase;

    /// A configuration small enough to train inside a unit test.
    fn micro_config() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick();
        cfg.cycles = 12;
        cfg.scale = 0.12;
        cfg.pretrain.steps = 10;
        cfg.pretrain.hidden_dim = 12;
        cfg.finetune.cycles_per_design = 4;
        cfg.finetune.gbdt.n_estimators = 12;
        cfg
    }

    #[test]
    fn serves_and_caches() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model.clone(),
            cfg.clone(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );

        let request = PredictRequest::new("C2", "W1", 8);
        let cold = service.call(request.clone()).expect("cold request");
        assert!(!cold.cache_hit);
        assert!(!cold.design_cache_hit);
        assert_eq!(cold.cycles, 8);
        assert_eq!(cold.model, "default");
        assert_eq!(cold.per_cycle_total_w.len(), 8);
        assert!(cold.mean_total_w > 0.0);

        // Same key: embeddings cache hit, bit-identical numbers.
        let warm = service.call(request.clone()).expect("warm request");
        assert!(warm.cache_hit);
        assert!(warm.design_cache_hit);
        assert_eq!(warm.per_cycle_total_w, cold.per_cycle_total_w);
        assert_eq!(warm.mean_total_w, cold.mean_total_w);

        // Same design, different workload: design cache hit only.
        let other = service
            .call(PredictRequest::new("C2", "W2", 8))
            .expect("second workload");
        assert!(!other.cache_hit);
        assert!(other.design_cache_hit);

        // Parity with the direct model path.
        let lib = cfg.library();
        let dcfg = cfg.try_design("C2").expect("design");
        let gate = dcfg.generate();
        let mut w = cfg.try_workload("W1", dcfg.seed).expect("workload");
        let trace = simulate(&gate, &mut w, 8).expect("simulates");
        let direct = trained.model.predict(&gate, &lib, &trace);
        assert_eq!(direct.total_series(), cold.per_cycle_total_w);

        let stats = service.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.embedding_cache.hits, 1);
        assert_eq!(stats.design_cache.hits, 1);
        assert_eq!(stats.embeddings_computed, 2);
        assert_eq!(stats.coalesced_requests, 0);
        // Byte accounting: two embeddings resident, occupancy within budget.
        assert_eq!(stats.embedding_cache.len, 2);
        assert!(stats.embedding_cache.weight > 0);
        assert!(stats.embedding_cache.weight <= stats.embedding_cache.budget);
        // Single model: the per-model slice equals the aggregate.
        assert_eq!(stats.models.len(), 1);
        assert_eq!(stats.models[0].model, "default");
        assert_eq!(stats.models[0].requests, 3);
        assert_eq!(stats.models[0].embedding_cache, stats.embedding_cache);
    }

    #[test]
    fn predict_delta_reuses_the_base_and_stays_bit_identical() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let start = || {
            AtlasService::start_with(
                trained.model.clone(),
                cfg.clone(),
                ServiceConfig {
                    workers: 2,
                    ..ServiceConfig::default()
                },
            )
        };
        let service = start();

        // Warm the base trace, then ask for the same schedule at more
        // cycles as a delta against it.
        let base = service
            .call(PredictRequest::new("C2", "W1", 8))
            .expect("base predict");
        assert!(!base.cache_hit);
        let delta_request = PredictDeltaRequest {
            id: Some(7),
            model: None,
            design: "C2".to_owned(),
            workload: Some("W1".to_owned()),
            workload_name: None,
            cycles: 12,
            phases: None,
            base: Some(DeltaBase {
                design: None,
                workload: None,
                workload_name: None,
                cycles: Some(8),
                phases: None,
            }),
            changed_submodules: None,
        };
        let delta = service
            .call_delta(delta_request.clone())
            .expect("delta predict");
        assert_eq!(delta.id, Some(7));
        assert_eq!(delta.verb, "predict_delta");
        assert!(delta.base_hit, "the 8-cycle base trace is cached");
        assert!(!delta.cache_hit);
        assert!(
            delta.reused_cycles > 0,
            "appended-cycles edit must reuse clean items"
        );
        assert_eq!(delta.per_cycle_total_w.len(), 12);

        // Bit-identity: a fresh service computing the target cold
        // produces exactly the same series.
        let fresh = start()
            .call(PredictRequest::new("C2", "W1", 12))
            .expect("full recompute");
        assert_eq!(delta.per_cycle_total_w, fresh.per_cycle_total_w);
        assert_eq!(delta.mean_total_w, fresh.mean_total_w);
        assert_eq!(delta.peak_total_w, fresh.peak_total_w);

        // The delta result lands in the cache under the target key like
        // any other predict.
        let warm = service
            .call(PredictRequest::new("C2", "W1", 12))
            .expect("warm target");
        assert!(warm.cache_hit);
        assert_eq!(warm.per_cycle_total_w, delta.per_cycle_total_w);

        // Re-issuing the delta now short-circuits on the warm target.
        let again = service.call_delta(delta_request).expect("warm delta");
        assert!(again.cache_hit);
        assert_eq!(again.reused_cycles, 0);
        assert_eq!(again.per_cycle_total_w, delta.per_cycle_total_w);
    }

    #[test]
    fn predict_delta_handles_cold_bases_and_bad_edit_specs() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model.clone(),
            cfg.clone(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );

        // A base nobody ever computed is not an error — the request
        // degenerates to a full cold predict with `base_hit: false`.
        let cold = service
            .call_delta(PredictDeltaRequest {
                id: None,
                model: None,
                design: "C2".to_owned(),
                workload: Some("W1".to_owned()),
                workload_name: None,
                cycles: 8,
                phases: None,
                base: Some(DeltaBase {
                    design: None,
                    workload: Some("W2".to_owned()),
                    workload_name: None,
                    cycles: None,
                    phases: None,
                }),
                changed_submodules: None,
            })
            .expect("cold-base delta");
        assert!(!cold.base_hit);
        assert!(!cold.cache_hit);
        // Every unique pattern ran the encoder, and every (sub-module ×
        // cycle) item was answered from a fresh row.
        let submodules = build_submodule_data(&cfg.design("C2").generate(), &cfg.library()).len();
        assert_eq!(cold.reused_patterns, 0);
        assert!(cold.recomputed_patterns > 0);
        assert_eq!(cold.reused_cycles, 0);
        assert_eq!(cold.recomputed_cycles, submodules * 8);
        let reference = AtlasService::start_with(
            trained.model.clone(),
            cfg.clone(),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        )
        .call(PredictRequest::new("C2", "W1", 8))
        .expect("reference");
        assert_eq!(cold.per_cycle_total_w, reference.per_cycle_total_w);

        // An out-of-range `changed_submodules` hint on a cold target is a
        // typed invalid_request, not a panic and not a silent ignore. (A
        // warm target never consults the hint — nothing recomputes.)
        let bad_hint = service.call_delta(PredictDeltaRequest {
            id: Some(3),
            model: None,
            design: "C2".to_owned(),
            workload: Some("W1".to_owned()),
            workload_name: None,
            cycles: 10,
            phases: None,
            base: None,
            changed_submodules: Some(vec![0, 9999]),
        });
        assert!(matches!(bad_hint, Err(ServeError::InvalidRequest(_))));

        // A base spec that is self-contradictory gets the same typed
        // error a predict carrying it would.
        let bad_base = service.call_delta(PredictDeltaRequest {
            id: Some(4),
            model: None,
            design: "C2".to_owned(),
            workload: Some("W1".to_owned()),
            workload_name: None,
            cycles: 8,
            phases: None,
            base: Some(DeltaBase {
                design: None,
                workload: None,
                workload_name: Some("lib".to_owned()),
                cycles: None,
                phases: Some(vec![WorkloadPhase {
                    activity: 0.2,
                    min_len: 2,
                    max_len: 4,
                }]),
            }),
            changed_submodules: None,
        });
        assert!(matches!(bad_base, Err(ServeError::InvalidRequest(_))));
    }

    #[test]
    fn f32_precision_serves_and_shrinks_cache_weight() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let start = |precision| {
            AtlasService::start_with(
                trained.model.clone(),
                cfg.clone(),
                ServiceConfig {
                    workers: 1,
                    precision,
                    ..ServiceConfig::default()
                },
            )
        };
        let f64_service = start(Precision::F64);
        let f32_service = start(Precision::F32);

        let request = PredictRequest::new("C2", "W1", 8);
        let wide = f64_service.call(request.clone()).expect("f64 request");
        let narrow = f32_service.call(request.clone()).expect("f32 request");

        // The f32 rows trade bit parity with f64 for bytes, so no
        // cross-precision equality here (the row-level accuracy contract
        // is pinned in `atlas_core::model`).
        assert_eq!(narrow.cycles, wide.cycles);
        assert_eq!(narrow.per_cycle_total_w.len(), wide.per_cycle_total_w.len());
        assert!(narrow.mean_total_w > 0.0);
        assert!(narrow.per_cycle_total_w.iter().all(|w| w.is_finite()));

        // Within f32 mode the cached rows are the cold reply's rows: a
        // repeat is a cache hit with bit-identical watts.
        let warm = f32_service.call(request).expect("f32 repeat");
        assert!(!narrow.cache_hit);
        assert!(warm.cache_hit, "the repeat is answered from the cache");
        assert_eq!(warm.per_cycle_total_w, narrow.per_cycle_total_w);
        assert_eq!(warm.mean_total_w, narrow.mean_total_w);
        assert_eq!(warm.peak_total_w, narrow.peak_total_w);

        // Cached embeddings cost fewer bytes at f32: the same trace weighs
        // less, so a byte-budgeted cache holds more traces.
        let wide_stats = f64_service.stats();
        let narrow_stats = f32_service.stats();
        assert!(narrow_stats.embedding_cache.weight > 0);
        assert!(narrow_stats.embedding_cache.weight < wide_stats.embedding_cache.weight);
        assert_eq!(wide_stats.models[0].precision, "f64");
        assert_eq!(narrow_stats.models[0].precision, "f32");
    }

    #[test]
    fn single_flight_collapses_concurrent_cold_requests() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let clients = 4;
        let (trained_model, cfg_copy) = (trained.model.clone(), cfg.clone());
        let service = AtlasService::start_with(
            trained.model,
            cfg,
            ServiceConfig {
                workers: clients,
                ..ServiceConfig::default()
            },
        );
        let barrier = std::sync::Barrier::new(clients);
        let responses: Vec<PredictResponse> = thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let service = &service;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        service
                            .call(PredictRequest::new("C2", "W1", 8))
                            .expect("request succeeds")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });

        // All four answers are bit-identical.
        for resp in &responses[1..] {
            assert_eq!(resp.per_cycle_total_w, responses[0].per_cycle_total_w);
        }
        let stats = service.stats();
        assert_eq!(stats.requests, clients as u64);
        assert_eq!(stats.errors, 0);
        assert_eq!(
            stats.embeddings_computed, 1,
            "N concurrent cold requests for one key must compute exactly one embedding"
        );
        // Everyone who did not compute either coalesced onto the flight
        // or arrived after completion and hit the cache.
        assert_eq!(
            stats.coalesced_requests + stats.embedding_cache.hits,
            clients as u64 - 1
        );
        // Followers and hits answered from the leader's watts: the heads
        // ran over exactly one trace's rows.
        let rows = stats.head_rows_evaluated;
        assert!(
            rows > 0 && rows.is_multiple_of(8),
            "{rows} rows for one 8-cycle trace"
        );
        assert_eq!(stats.head_rows_reused, 0);
        let solo = AtlasService::start_with(
            trained_model,
            cfg_copy,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        solo.call(PredictRequest::new("C2", "W1", 8))
            .expect("solo request");
        assert_eq!(solo.stats().head_rows_evaluated, rows);
    }

    #[test]
    fn heads_run_once_per_trace_and_never_on_a_hit() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model.clone(),
            cfg.clone(),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let counters = || {
            let s = service.stats();
            assert_eq!(s.models[0].head_rows_evaluated, s.head_rows_evaluated);
            assert_eq!(s.models[0].head_rows_reused, s.head_rows_reused);
            (s.head_rows_evaluated, s.head_rows_reused)
        };
        let lib = cfg.library();
        let dcfg = cfg.try_design("C2").expect("design");
        let gate = dcfg.generate();
        let data = build_submodule_data(&gate, &lib);
        let embed = |cycles| {
            let mut w = cfg.try_workload("W1", dcfg.seed).expect("workload");
            let trace = simulate(&gate, &mut w, cycles).expect("simulates");
            trained.model.embed_trace(&gate, &lib, &data, &trace, 1)
        };
        let (base, target) = (embed(8), embed(12));

        // A cold predict evaluates every row of its trace once, and the
        // entry's weight counts the watts cached beside the embeddings.
        let cold = service
            .call(PredictRequest::new("C2", "W1", 8))
            .expect("cold request");
        assert_eq!(counters(), (base.rows() as u64, 0));
        assert_eq!(base.rows(), 8 * base.submodule_count());
        let weight = service.stats().embedding_cache.weight;
        assert_eq!(weight, CachedTrace::weight(&base));
        assert_eq!(weight, base.approx_bytes() + base.rows() * 32);

        // A warm hit moves neither counter.
        let warm = service
            .call(PredictRequest::new("C2", "W1", 8))
            .expect("warm request");
        assert!(warm.cache_hit);
        assert_eq!(warm.per_cycle_total_w, cold.per_cycle_total_w);
        assert_eq!(counters(), (base.rows() as u64, 0));

        // A delta against the cached base copies the watts of the rows
        // it provably shares and evaluates the rest.
        let delta_request = PredictDeltaRequest {
            id: None,
            model: None,
            design: "C2".to_owned(),
            workload: Some("W1".to_owned()),
            workload_name: None,
            cycles: 12,
            phases: None,
            base: Some(DeltaBase {
                design: None,
                workload: None,
                workload_name: None,
                cycles: Some(8),
                phases: None,
            }),
            changed_submodules: None,
        };
        let delta = service
            .call_delta(delta_request.clone())
            .expect("delta request");
        assert!(delta.base_hit);
        let (evaluated, reused) = counters();
        let delta_evaluated = evaluated - base.rows() as u64;
        assert!(reused > 0, "the shared prefix donates watts");
        assert!(reused <= delta.reused_cycles as u64);
        assert_eq!(delta_evaluated + reused, target.rows() as u64);
        assert_eq!(
            delta.per_cycle_total_w,
            trained
                .model
                .predict_from_embeddings(&target)
                .total_series()
        );

        // Re-issuing the delta is a warm hit on the target: no heads.
        let again = service.call_delta(delta_request).expect("warm delta");
        assert!(again.cache_hit);
        assert_eq!(counters(), (evaluated, reused));
    }

    #[test]
    fn warm_cache_keeps_typed_errors_for_bad_workloads() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let start = || {
            AtlasService::start_with(
                trained.model.clone(),
                cfg.clone(),
                ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
            )
        };
        let phases = vec![WorkloadPhase {
            activity: 0.3,
            min_len: 2,
            max_len: 5,
        }];
        let warm = start();
        for request in [
            PredictRequest::new("C2", "W1", 8),
            PredictRequest::with_phases("C2", "custom", 8, phases.clone()),
        ] {
            warm.call(request.clone()).expect("warms");
            assert!(warm.call(request).expect("hits").cache_hit);
        }
        let cold = start();
        let mut bad_phases = phases;
        bad_phases[0].activity = 2.0;
        for request in [
            PredictRequest::with_phases("C2", "custom", 8, bad_phases),
            PredictRequest::new("C2", "W9", 8),
        ] {
            let want = cold.call(request.clone());
            assert!(
                matches!(
                    want,
                    Err(ServeError::InvalidRequest(_) | ServeError::UnknownWorkload(_))
                ),
                "{want:?}"
            );
            assert_eq!(warm.call(request), want);
        }
    }

    #[test]
    fn inline_schedules_predict_and_cache_by_fingerprint() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model,
            cfg,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let phases = vec![
            WorkloadPhase {
                activity: 0.4,
                min_len: 2,
                max_len: 6,
            },
            WorkloadPhase {
                activity: 0.05,
                min_len: 4,
                max_len: 10,
            },
        ];
        let req = PredictRequest::with_phases("C2", "custom", 8, phases.clone());
        let cold = service.call(req.clone()).expect("inline request");
        assert!(!cold.cache_hit);
        assert_eq!(cold.workload, "custom");
        assert!(cold.mean_total_w > 0.0);

        // Same schedule again: a cache hit with identical numbers.
        let warm = service.call(req.clone()).expect("inline repeat");
        assert!(warm.cache_hit);
        assert_eq!(warm.per_cycle_total_w, cold.per_cycle_total_w);

        // Same label, different schedule: distinct cache entry.
        let mut other_phases = phases.clone();
        other_phases[0].activity = 0.9;
        let other = service
            .call(PredictRequest::with_phases("C2", "custom", 8, other_phases))
            .expect("different schedule");
        assert!(!other.cache_hit);
        assert_ne!(other.per_cycle_total_w, cold.per_cycle_total_w);

        // An inline schedule must not shadow the preset of the same name:
        // "W1"-labelled inline ≠ preset W1 cache entry.
        let preset = service
            .call(PredictRequest::new("C2", "W1", 8))
            .expect("preset");
        assert!(!preset.cache_hit);
        let inline_w1 = service
            .call(PredictRequest::with_phases("C2", "W1", 8, phases))
            .expect("inline W1 label");
        assert!(!inline_w1.cache_hit);

        // Bad schedules are typed errors.
        let empty = service.call(PredictRequest::with_phases("C2", "x", 8, vec![]));
        assert!(matches!(empty, Err(ServeError::InvalidRequest(_))));
        let bad = service.call(PredictRequest::with_phases(
            "C2",
            "x",
            8,
            vec![WorkloadPhase {
                activity: 2.0,
                min_len: 1,
                max_len: 2,
            }],
        ));
        assert!(matches!(bad, Err(ServeError::InvalidRequest(_))));
        let too_many = service.call(PredictRequest::with_phases(
            "C2",
            "x",
            8,
            vec![
                WorkloadPhase {
                    activity: 0.1,
                    min_len: 1,
                    max_len: 2,
                };
                65
            ],
        ));
        assert!(matches!(too_many, Err(ServeError::InvalidRequest(_))));
        // An inline schedule without a label is a typed error too.
        let mut unlabelled = PredictRequest::with_phases(
            "C2",
            "x",
            8,
            vec![WorkloadPhase {
                activity: 0.1,
                min_len: 1,
                max_len: 2,
            }],
        );
        unlabelled.workload = None;
        assert!(matches!(
            service.call(unlabelled),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn registered_workloads_serve_by_name_with_cache_hits() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model,
            cfg,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let phases = vec![
            WorkloadPhase {
                activity: 0.5,
                min_len: 2,
                max_len: 5,
            },
            WorkloadPhase {
                activity: 0.02,
                min_len: 3,
                max_len: 9,
            },
        ];

        // Register once...
        let (info, replaced) = service
            .register_workload("bursty", phases.clone())
            .expect("registers");
        assert!(!replaced);
        assert_eq!(info.name, "bursty");
        assert_eq!(info.phases, 2);
        assert_eq!(info.fingerprint, schedule_fingerprint(&phases));
        assert_eq!(service.workloads(), vec![info.clone()]);

        // ...then reference it by name across requests: first cold, then
        // a cache hit.
        let req = PredictRequest::with_workload_name("C2", "bursty", 8);
        let cold = service.call(req.clone()).expect("registered request");
        assert!(!cold.cache_hit);
        assert_eq!(cold.workload, "bursty");
        let warm = service.call(req).expect("registered repeat");
        assert!(warm.cache_hit, "second use of a registered name must hit");
        assert_eq!(warm.per_cycle_total_w, cold.per_cycle_total_w);

        // A registered schedule and the identical inline schedule share a
        // cache entry only when labels match; here the labels differ
        // ("bursty" vs "inline-label"), so the entry is distinct, but the
        // same label + schedule does share.
        let inline_same = service
            .call(PredictRequest::with_phases(
                "C2",
                "bursty",
                8,
                phases.clone(),
            ))
            .expect("inline twin");
        assert!(
            inline_same.cache_hit,
            "inline schedule identical to the registered one (same label) shares the entry"
        );

        // Replacing the schedule under the same name is allowed, flagged,
        // and can never serve stale results (different fingerprint).
        let mut phases2 = phases.clone();
        phases2[0].activity = 0.9;
        let (info2, replaced) = service
            .register_workload("bursty", phases2)
            .expect("re-registers");
        assert!(replaced);
        assert_ne!(info2.fingerprint, info.fingerprint);
        let after = service
            .call(PredictRequest::with_workload_name("C2", "bursty", 8))
            .expect("post-replacement request");
        assert!(
            !after.cache_hit,
            "replaced schedule must not reuse old entry"
        );
        assert_ne!(after.per_cycle_total_w, cold.per_cycle_total_w);

        // Validation: bad names, preset shadowing, bad schedules, both
        // phases and workload_name at once.
        assert!(matches!(
            service.register_workload("", vec![]),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            service.register_workload("W1", phases.clone()),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            service.register_workload("x/y", phases.clone()),
            Err(ServeError::InvalidRequest(_))
        ));
        // Names are capped at 64 chars: 65 is refused, 64 registers.
        let err = service
            .register_workload(&"w".repeat(65), phases.clone())
            .expect_err("65-char name");
        assert!(err.to_string().contains("bad workload name"), "got: {err}");
        service
            .register_workload(&"w".repeat(64), phases.clone())
            .expect("64-char name registers");
        assert!(matches!(
            service.register_workload("bad", vec![]),
            Err(ServeError::InvalidRequest(_))
        ));
        let mut both = PredictRequest::with_workload_name("C2", "bursty", 8);
        both.phases = Some(phases);
        assert!(matches!(
            service.call(both),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn unknown_workload_name_is_structured_and_preserves_the_id() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model,
            cfg,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        // Direct call: a typed UnknownWorkload, not a parse error.
        let mut req = PredictRequest::with_workload_name("C2", "never-registered", 8);
        req.id = Some(42);
        assert_eq!(
            service.call(req.clone()),
            Err(ServeError::UnknownWorkload("never-registered".into()))
        );
        // Through the submit path the reply tuple carries the id, so the
        // wire layer can echo it.
        let reply = service.submit(req).recv().expect("reply");
        assert_eq!(
            reply,
            Err((
                Some(42),
                ServeError::UnknownWorkload("never-registered".into())
            ))
        );
        // Unknown preset names keep their id the same way.
        let mut preset = PredictRequest::new("C2", "W9", 8);
        preset.id = Some(43);
        let reply = service.submit(preset).recv().expect("reply");
        assert_eq!(
            reply,
            Err((Some(43), ServeError::UnknownWorkload("W9".into())))
        );
    }

    #[test]
    fn workload_library_is_bounded() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model,
            cfg,
            ServiceConfig {
                workers: 1,
                max_registered_workloads: 2,
                ..ServiceConfig::default()
            },
        );
        let phase = vec![WorkloadPhase {
            activity: 0.2,
            min_len: 1,
            max_len: 2,
        }];
        service.register_workload("a", phase.clone()).expect("a");
        service.register_workload("b", phase.clone()).expect("b");
        assert!(matches!(
            service.register_workload("c", phase.clone()),
            Err(ServeError::InvalidRequest(_))
        ));
        // Replacing an existing name still works at the cap.
        let (_, replaced) = service.register_workload("a", phase).expect("replace");
        assert!(replaced);
        assert_eq!(service.workloads().len(), 2);
    }

    #[test]
    fn multi_model_routing_is_isolated_and_parity_holds() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let mut catalog = ModelCatalog::new();
        catalog
            .insert_model("alpha", trained.model.clone(), cfg.clone())
            .expect("alpha");
        catalog
            .insert_model("beta", trained.model.clone(), cfg.clone())
            .expect("beta");
        let service = AtlasService::start_catalog(
            catalog,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )
        .expect("catalog serves");
        assert_eq!(service.default_model(), "alpha");
        let models = service.models();
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].name, "alpha");
        assert_eq!(models[1].name, "beta");
        assert_eq!(models[0].config_fingerprint, models[1].config_fingerprint);

        // Parity: the same request is bit-identical whether the model is
        // addressed as the default or by name.
        let implicit = service
            .call(PredictRequest::new("C2", "W1", 8))
            .expect("default-addressed");
        assert_eq!(implicit.model, "alpha");
        let explicit = service
            .call(PredictRequest::new("C2", "W1", 8).on_model("alpha"))
            .expect("name-addressed");
        assert_eq!(explicit.model, "alpha");
        assert_eq!(explicit.per_cycle_total_w, implicit.per_cycle_total_w);
        assert!(explicit.cache_hit, "both routes share the model's cache");

        // The second model computes its own embedding (no cross-model
        // cache sharing) but produces identical numbers for identical
        // weights.
        let beta = service
            .call(PredictRequest::new("C2", "W1", 8).on_model("beta"))
            .expect("beta-addressed");
        assert_eq!(beta.model, "beta");
        assert!(!beta.cache_hit, "models do not share cache entries");
        assert_eq!(beta.per_cycle_total_w, implicit.per_cycle_total_w);

        // Per-model accounting: each model holds exactly its own entry.
        let stats = service.stats();
        assert_eq!(stats.models.len(), 2);
        let alpha = &stats.models[0];
        let beta_stats = &stats.models[1];
        assert_eq!(alpha.model, "alpha");
        assert_eq!(alpha.requests, 2);
        assert_eq!(alpha.embeddings_computed, 1);
        assert_eq!(alpha.embedding_cache.len, 1);
        assert_eq!(beta_stats.model, "beta");
        assert_eq!(beta_stats.requests, 1);
        assert_eq!(beta_stats.embeddings_computed, 1);
        assert_eq!(beta_stats.embedding_cache.len, 1);
        // Aggregates are the sums.
        assert_eq!(stats.embeddings_computed, 2);
        assert_eq!(stats.embedding_cache.len, 2);
        assert_eq!(
            stats.embedding_cache.weight,
            alpha.embedding_cache.weight + beta_stats.embedding_cache.weight
        );

        // Unknown model: typed error with the id preserved.
        let mut req = PredictRequest::new("C2", "W1", 8).on_model("gamma");
        req.id = Some(7);
        let reply = service.submit(req).recv().expect("reply");
        assert_eq!(
            reply,
            Err((Some(7), ServeError::UnknownModel("gamma".into())))
        );
    }

    #[test]
    fn tiny_embedding_budget_serves_but_does_not_cache() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model,
            cfg,
            ServiceConfig {
                workers: 1,
                embedding_cache_bytes: 1, // every embedding is oversized
                ..ServiceConfig::default()
            },
        );
        let req = PredictRequest::new("C2", "W1", 6);
        let first = service.call(req.clone()).expect("first");
        assert!(!first.cache_hit);
        let second = service.call(req).expect("second");
        assert!(!second.cache_hit, "oversized embeddings are never cached");
        let stats = service.stats();
        assert_eq!(stats.embeddings_computed, 2);
        assert_eq!(stats.embedding_cache.len, 0);
        assert_eq!(stats.embedding_cache.weight, 0);
        // Identical numbers either way.
        assert_eq!(first.per_cycle_total_w, second.per_cycle_total_w);
    }

    #[test]
    fn callback_submission_delivers_on_worker() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model,
            cfg,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let (tx, rx) = mpsc::channel();
        service.submit_with(PredictRequest::new("C2", "W1", 6), move |reply| {
            tx.send(reply).expect("test channel");
        });
        let reply = rx.recv().expect("callback ran");
        let resp = reply.expect("request succeeds");
        assert_eq!(resp.cycles, 6);

        let (tx, rx) = mpsc::channel();
        service.submit_with(PredictRequest::new("C9", "W1", 6), move |reply| {
            tx.send(reply).expect("test channel");
        });
        let reply = rx.recv().expect("callback ran");
        assert_eq!(
            reply.expect_err("unknown design").1,
            ServeError::UnknownDesign("C9".into())
        );
    }

    #[test]
    fn hot_load_and_unload_mutate_the_live_catalog() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model.clone(),
            cfg.clone(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        // Persist a model file for the hot load.
        let dir = std::env::temp_dir().join(format!("atlas-hotload-{}", std::process::id()));
        let registry = crate::registry::ModelRegistry::open(&dir).expect("registry opens");
        let path = registry
            .save("canary", &trained.model, &cfg)
            .expect("saves");

        // Warm the default model, then load the second one.
        let base = service
            .call(PredictRequest::new("C2", "W1", 8))
            .expect("default-model request");
        let info = service
            .load_model_file("canary", &path)
            .expect("hot load succeeds");
        assert_eq!(info.name, "canary");
        let models = service.models();
        assert_eq!(models.len(), 2, "the catalog reflects the load immediately");
        assert_eq!(models[0].name, "canary");

        // The loaded model answers (bit-identical weights → bit-identical
        // numbers) and accounts separately.
        let canary = service
            .call(PredictRequest::new("C2", "W1", 8).on_model("canary"))
            .expect("canary request");
        assert_eq!(canary.model, "canary");
        assert!(!canary.cache_hit, "a fresh model starts with empty caches");
        assert_eq!(canary.per_cycle_total_w, base.per_cycle_total_w);
        let stats = service.stats();
        assert_eq!(stats.models.len(), 2);
        assert_eq!(stats.models[0].model, "canary");
        assert_eq!(stats.models[0].requests, 1);

        // Duplicate and invalid names are typed errors.
        assert!(matches!(
            service.load_model_file("canary", &path),
            Err(ServeError::Registry(_))
        ));
        assert!(matches!(
            service.load_model_file("bad/name", &path),
            Err(ServeError::InvalidRequest(_))
        ));

        // Unload: gone from the catalog, requests get unknown_model, the
        // default model is not unloadable, unknown names are typed.
        service.unload_model("canary").expect("unload succeeds");
        assert_eq!(service.models().len(), 1);
        assert_eq!(
            service.call(PredictRequest::new("C2", "W1", 8).on_model("canary")),
            Err(ServeError::UnknownModel("canary".into()))
        );
        assert!(matches!(
            service.unload_model("default"),
            Err(ServeError::InvalidRequest(_))
        ));
        assert_eq!(
            service.unload_model("canary"),
            Err(ServeError::UnknownModel("canary".into()))
        );

        // A fresh load under the reclaimed name works (reload cycle).
        service
            .load_model_file("canary", &path)
            .expect("reload under the same name");
        let again = service
            .call(PredictRequest::new("C2", "W1", 8).on_model("canary"))
            .expect("post-reload request");
        assert_eq!(again.per_cycle_total_w, base.per_cycle_total_w);

        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quota_saturation_parks_then_rejects() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model,
            cfg,
            ServiceConfig {
                workers: 4,
                model_quotas: [("default".to_owned(), 1)].into_iter().collect(),
                max_queued_per_model: 1,
                ..ServiceConfig::default()
            },
        );
        // Three concurrent cold requests with distinct keys: the quota
        // admits one, parks one (answered after the slot drains), and
        // rejects the third with a structured error.
        let receivers: Vec<_> = (0..3)
            .map(|i| service.submit(PredictRequest::new("C2", "W1", 32 + i)))
            .collect();
        let replies: Vec<Reply> = receivers
            .into_iter()
            .map(|rx| rx.recv().expect("reply arrives"))
            .collect();
        let ok = replies.iter().filter(|r| r.is_ok()).count();
        let rejected = replies
            .iter()
            .filter(|r| matches!(r, Err((_, ServeError::QuotaExceeded(m))) if m == "default"))
            .count();
        assert_eq!(
            (ok, rejected),
            (2, 1),
            "expected grant + park + reject, got {replies:?}"
        );
        let stats = service.stats();
        assert_eq!(stats.models[0].quota, 1);
        assert_eq!(stats.models[0].queued, 1);
        assert_eq!(stats.models[0].rejected_quota, 1);
        assert_eq!(stats.embeddings_computed, 2);
        // Warm requests bypass the gate entirely: re-ask a computed key.
        let warm_key = replies
            .iter()
            .find_map(|r| r.as_ref().ok())
            .expect("one succeeded")
            .cycles;
        let warm = service
            .call(PredictRequest::new("C2", "W1", warm_key))
            .expect("warm request");
        assert!(warm.cache_hit);
        assert_eq!(service.stats().models[0].queued, 1, "warm never queues");
    }

    #[test]
    fn workload_journal_replays_across_restarts() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let path = std::env::temp_dir().join(format!("atlas-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let spiky = vec![WorkloadPhase {
            activity: 0.6,
            min_len: 1,
            max_len: 3,
        }];
        let calm = vec![WorkloadPhase {
            activity: 0.05,
            min_len: 4,
            max_len: 9,
        }];
        let service_cfg = |workload_file| ServiceConfig {
            workers: 1,
            workload_file: Some(workload_file),
            ..ServiceConfig::default()
        };
        let before = {
            let service = AtlasService::start_with(
                trained.model.clone(),
                cfg.clone(),
                service_cfg(path.clone()),
            );
            service
                .register_workload("spiky", spiky.clone())
                .expect("registers");
            service
                .register_workload("calm", calm.clone())
                .expect("registers");
            // Replacement journals too; replay takes the last entry.
            let (_, replaced) = service
                .register_workload("spiky", calm.clone())
                .expect("replaces");
            assert!(replaced);
            service.workloads()
        };
        // A fresh service over the same journal reproduces the library
        // (same names, same fingerprints) and serves by name.
        let service = AtlasService::start_with(
            trained.model.clone(),
            cfg.clone(),
            service_cfg(path.clone()),
        );
        assert_eq!(service.workloads(), before);
        let resp = service
            .call(PredictRequest::with_workload_name("C2", "spiky", 8))
            .expect("replayed workload serves");
        assert_eq!(resp.workload, "spiky");
        // Registrations after a replay keep appending.
        service.register_workload("late", spiky).expect("registers");
        drop(service);
        let service = AtlasService::start_with(
            trained.model.clone(),
            cfg.clone(),
            service_cfg(path.clone()),
        );
        assert_eq!(service.workloads().len(), 3);
        drop(service);

        // A tampered journal (fingerprint no longer matches the schedule)
        // refuses to replay rather than silently serving a wrong library.
        let text = std::fs::read_to_string(&path).expect("journal readable");
        std::fs::write(
            &path,
            text.replace("\"activity\":0.05", "\"activity\":0.25"),
        )
        .expect("writable");
        let mut catalog = ModelCatalog::new();
        catalog
            .insert_model("default", trained.model, cfg)
            .expect("catalog");
        assert!(matches!(
            AtlasService::start_catalog(catalog, service_cfg(path.clone())),
            Err(ServeError::Registry(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn error_paths_are_typed() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model,
            cfg,
            ServiceConfig {
                workers: 1,
                max_cycles: 64,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(
            service.call(PredictRequest::new("C9", "W1", 8)),
            Err(ServeError::UnknownDesign("C9".into()))
        );
        assert_eq!(
            service.call(PredictRequest::new("C2", "W9", 8)),
            Err(ServeError::UnknownWorkload("W9".into()))
        );
        assert!(matches!(
            service.call(PredictRequest::new("C2", "W1", 0)),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            service.call(PredictRequest::new("C2", "W1", 65)),
            Err(ServeError::InvalidRequest(_))
        ));
        let stats = service.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.errors, 4);
    }

    /// A small uploadable design built from library cells only.
    fn uploadable_design() -> Design {
        use atlas_liberty::{CellClass, Drive};
        use atlas_netlist::NetlistBuilder;
        let mut b = NetlistBuilder::new("uploaded");
        let sm = b.add_submodule("top.u0", "top");
        let a = b.add_input();
        let c = b.add_input();
        let x = b
            .add_cell(CellClass::Nand2, Drive::X1, &[a, c], sm)
            .expect("ok");
        let y = b
            .add_cell(CellClass::Xor2, Drive::X1, &[x, c], sm)
            .expect("ok");
        let q = b.add_dff(y, sm).expect("ok");
        b.mark_output(q);
        b.finish().expect("valid")
    }

    #[test]
    fn uploaded_designs_serve_with_route_parity() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model,
            cfg,
            ServiceConfig {
                workers: 1,
                max_design_bytes: 4096,
                max_designs: 2,
                ..ServiceConfig::default()
            },
        );
        let design = uploadable_design();
        let verilog = design.to_verilog();

        // Upload path (the wire verb's backing API) and the in-process
        // path must agree on the fingerprint exactly.
        let up = service.load_design("up", &verilog).expect("upload loads");
        let local = service
            .load_design_parsed("local", design.clone())
            .expect("in-process loads");
        assert_eq!(up.fingerprint, local.fingerprint);
        assert_eq!(up.cells, design.cell_count());
        assert_eq!(up.nets, design.net_count());
        assert_eq!(service.designs().len(), 2);

        // ... and both routes must predict bit-identically.
        let a = service
            .call(PredictRequest::new("up", "W1", 6))
            .expect("uploaded design predicts");
        let b = service
            .call(PredictRequest::new("local", "W1", 6))
            .expect("in-process design predicts");
        assert!(a.mean_total_w > 0.0);
        assert_eq!(a.per_cycle_total_w, b.per_cycle_total_w);
        assert_eq!(a.mean_total_w, b.mean_total_w);

        // Warm repeat of an uploaded design hits the embedding cache.
        let warm = service
            .call(PredictRequest::new("up", "W1", 6))
            .expect("warm");
        assert!(warm.cache_hit);
        assert_eq!(warm.per_cycle_total_w, a.per_cycle_total_w);
    }

    #[test]
    fn bad_uploads_are_typed_errors() {
        let cfg = micro_config();
        let trained = train_atlas(&cfg);
        let service = AtlasService::start_with(
            trained.model,
            cfg,
            ServiceConfig {
                workers: 1,
                max_design_bytes: 512,
                max_designs: 1,
                ..ServiceConfig::default()
            },
        );
        // A malformed body is a parse_error carrying the reader's
        // diagnostic; a preset-shadowing or malformed name, an oversize
        // body, a duplicate, and a full library are invalid_request.
        let err = service
            .load_design("junk", "not a netlist")
            .expect_err("malformed");
        assert_eq!(err.kind(), "parse_error");
        let verilog = uploadable_design().to_verilog();
        assert!(verilog.len() <= 512, "test design must fit the cap");
        for (name, body) in [
            ("C2", verilog.as_str()),
            (".dot", verilog.as_str()),
            ("", verilog.as_str()),
            ("spaced name", verilog.as_str()),
        ] {
            let err = service.load_design(name, body).expect_err(name);
            assert_eq!(err.kind(), "invalid_request", "{name}");
        }
        // Names are capped at 64 chars: 65 is refused, 64 is accepted below.
        let err = service
            .load_design(&"d".repeat(65), &verilog)
            .expect_err("65-char name");
        assert_eq!(err.kind(), "invalid_request");
        assert!(err.to_string().contains("bad design name"), "got: {err}");
        let oversize = format!("{verilog}{}", "/".repeat(513));
        let err = service.load_design("big", &oversize).expect_err("oversize");
        assert_eq!(err.kind(), "invalid_request");
        assert!(err.to_string().contains("bytes"), "got: {err}");

        let ok = "d".repeat(64);
        service.load_design(&ok, &verilog).expect("fits");
        let err = service.load_design(&ok, &verilog).expect_err("duplicate");
        assert_eq!(err.kind(), "invalid_request");
        assert!(err.to_string().contains("already loaded"), "got: {err}");
        let err = service.load_design("two", &verilog).expect_err("full");
        assert!(err.to_string().contains("full"), "got: {err}");

        // Predicting an unknown name is still a structured unknown_design.
        assert_eq!(
            service.call(PredictRequest::new("nope", "W1", 4)),
            Err(ServeError::UnknownDesign("nope".into()))
        );
    }
}
