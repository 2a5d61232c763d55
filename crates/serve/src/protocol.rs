//! The JSON-lines wire protocol of the prediction service.
//!
//! One request per line in, one response per line out, over stdin/stdout
//! or a TCP stream. A response object either carries prediction fields or
//! an `error`/`kind` pair — never both. The full reference — every verb,
//! field, and error string, with copy-pasteable examples — lives in
//! `docs/PROTOCOL.md`.
//!
//! ```text
//! → {"id":1,"design":"C2","workload":"W1","cycles":64}
//! ← {"id":1,"model":"default","design":"C2","workload":"W1",...}
//! → {"id":2,"design":"C9","workload":"W1","cycles":64}
//! ← {"id":2,"error":"unknown design `C9`","kind":"unknown_design"}
//! → {"id":3,"verb":"stats"}
//! ← {"id":3,"verb":"stats","requests":2,...,"models":[{...}]}
//! ```
//!
//! A line with a `verb` field is dispatched by verb (`"predict"`,
//! `"predict_delta"`, `"sweep"`, `"stats"`, `"models"`, `"load_model"`,
//! `"unload_model"`, `"register_workload"`, `"workloads"`,
//! `"load_design"`, `"shard_map"`); a line without one is a predict
//! request. Predict requests may address a
//! specific hosted model via [`PredictRequest::model`] and may carry
//! their workload three ways: a preset name in `workload`, an inline
//! phase schedule in `phases`, or the name of a server-registered
//! schedule in `workload_name`. `predict_delta` and `sweep` reuse the
//! same spellings; `sweep` replies stream as multiple bounded frames
//! (`start` → `item`/`series`/`error`… → `end`) instead of one line.

use atlas_liberty::PowerGroup;
use atlas_power::PowerTrace;
use atlas_sim::WorkloadPhase;
use serde::{Deserialize, Serialize, Value};

use crate::cache::CacheStats;
use crate::error::ServeError;
use crate::reactor::ReactorStats;
use crate::service::{DesignInfo, ModelInfo, ModelStats, RegisteredWorkload};

/// One prediction request: which design, under which workload, for how
/// many cycles — and optionally on which hosted model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Hosted-model serving name; absent means the service's default
    /// model. Routing is by name only — results are bit-identical whether
    /// a model is addressed explicitly or as the default.
    pub model: Option<String>,
    /// Design preset name (`C1`..`C6`, `TINY`).
    pub design: String,
    /// Workload name: a preset (`W1`/`W2`) when `phases` and
    /// `workload_name` are absent, else a client-chosen label for the
    /// inline schedule. May be omitted when `workload_name` is used.
    pub workload: Option<String>,
    /// Name of a schedule previously stored via the `register_workload`
    /// verb. Mutually exclusive with `phases`; the registered name
    /// becomes the response's `workload` echo and the cache-key label.
    pub workload_name: Option<String>,
    /// Cycles to simulate and predict.
    pub cycles: usize,
    /// Inline phase schedule (the `PhasedWorkload::new` surface). When
    /// present, the service builds the workload from these phases instead
    /// of looking `workload` up in the preset vocabulary, and caches the
    /// result under a fingerprint of the schedule.
    pub phases: Option<Vec<WorkloadPhase>>,
}

impl PredictRequest {
    /// Convenience constructor without a correlation id.
    pub fn new(design: impl Into<String>, workload: impl Into<String>, cycles: usize) -> Self {
        PredictRequest {
            id: None,
            model: None,
            design: design.into(),
            workload: Some(workload.into()),
            workload_name: None,
            cycles,
            phases: None,
        }
    }

    /// Constructor for an inline-schedule request; `workload` becomes the
    /// label the response echoes.
    pub fn with_phases(
        design: impl Into<String>,
        workload: impl Into<String>,
        cycles: usize,
        phases: Vec<WorkloadPhase>,
    ) -> Self {
        PredictRequest {
            phases: Some(phases),
            ..PredictRequest::new(design, workload, cycles)
        }
    }

    /// Constructor for a request that references a server-registered
    /// workload by name (see the `register_workload` verb).
    pub fn with_workload_name(
        design: impl Into<String>,
        workload_name: impl Into<String>,
        cycles: usize,
    ) -> Self {
        PredictRequest {
            id: None,
            model: None,
            design: design.into(),
            workload: None,
            workload_name: Some(workload_name.into()),
            cycles,
            phases: None,
        }
    }

    /// Address this request to a specific hosted model (builder-style).
    #[must_use]
    pub fn on_model(mut self, model: impl Into<String>) -> Self {
        self.model = Some(model.into());
        self
    }
}

/// The `base` object of a `predict_delta` request: which cached trace to
/// reuse items from. Every field defaults to the target request's own
/// value, so an appended-cycles edit only states `cycles` and a design
/// edit only states `design`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaBase {
    /// Base design name; defaults to the target's `design`.
    pub design: Option<String>,
    /// Base workload label; defaults like the target's `workload`.
    pub workload: Option<String>,
    /// Base registered-workload name; defaults to the target's.
    pub workload_name: Option<String>,
    /// Base cycle count; defaults to the target's `cycles`.
    pub cycles: Option<usize>,
    /// Base inline schedule; defaults to the target's `phases`.
    pub phases: Option<Vec<WorkloadPhase>>,
}

/// The `predict_delta` verb body: a normal prediction plus an edit
/// description — the base trace whose cached (sub-module × cycle) items
/// may be reused, and optionally which sub-modules the client believes
/// changed. The hint is advisory only: the service re-derives dirtiness
/// from content digests, so a wrong hint can never corrupt the result
/// (results are bit-identical to a full `predict` either way).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictDeltaRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Hosted-model serving name; absent means the default model.
    pub model: Option<String>,
    /// Target design name (preset or uploaded).
    pub design: String,
    /// Target workload label (see [`PredictRequest::workload`]).
    pub workload: Option<String>,
    /// Target registered-workload name.
    pub workload_name: Option<String>,
    /// Target cycle count.
    pub cycles: usize,
    /// Target inline phase schedule.
    pub phases: Option<Vec<WorkloadPhase>>,
    /// Which cached trace to reuse from; absent means "the target's own
    /// key" (useful to cheaply re-materialize an evicted entry from an
    /// equal sibling — rarely what clients want, but well-defined).
    pub base: Option<DeltaBase>,
    /// Advisory edit hint: indices of sub-modules the client changed.
    /// Validated (each must be in range for the target design) but not
    /// trusted — reuse is gated on content digests, not on this list.
    pub changed_submodules: Option<Vec<usize>>,
}

impl PredictDeltaRequest {
    /// The target as a plain [`PredictRequest`] (what the reply must be
    /// bit-identical to).
    pub fn target(&self) -> PredictRequest {
        PredictRequest {
            id: self.id,
            model: self.model.clone(),
            design: self.design.clone(),
            workload: self.workload.clone(),
            workload_name: self.workload_name.clone(),
            cycles: self.cycles,
            phases: self.phases.clone(),
        }
    }

    /// The base as a plain [`PredictRequest`], with every unset base
    /// field defaulted from the target.
    pub fn base_request(&self) -> PredictRequest {
        let base = self.base.clone().unwrap_or(DeltaBase {
            design: None,
            workload: None,
            workload_name: None,
            cycles: None,
            phases: None,
        });
        // A base that states any workload field replaces the whole
        // workload spec (mixing the target's `phases` with the base's
        // `workload_name` would name a trace nobody ever computed).
        let workload_stated =
            base.workload.is_some() || base.workload_name.is_some() || base.phases.is_some();
        let (workload, workload_name, phases) = if workload_stated {
            (base.workload, base.workload_name, base.phases)
        } else {
            (
                self.workload.clone(),
                self.workload_name.clone(),
                self.phases.clone(),
            )
        };
        PredictRequest {
            id: self.id,
            model: self.model.clone(),
            design: base.design.unwrap_or_else(|| self.design.clone()),
            workload,
            workload_name,
            cycles: base.cycles.unwrap_or(self.cycles),
            phases,
        }
    }
}

/// One schedule of a `sweep` request: exactly one of `workload`
/// (preset), `workload_name` (registered), or `phases` + `workload`
/// (inline schedule + label) — the same three spellings a predict
/// request accepts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepItem {
    /// Preset name or inline-schedule label.
    pub workload: Option<String>,
    /// Registered-workload name.
    pub workload_name: Option<String>,
    /// Inline phase schedule.
    pub phases: Option<Vec<WorkloadPhase>>,
}

/// The `sweep` verb body: evaluate one design under K schedules, sharing
/// all design-side work (netlist, sub-module data, per-design caches) and
/// streaming the results back as chunked frames instead of one giant
/// line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRequest {
    /// Client-chosen correlation id, echoed in every frame.
    pub id: Option<u64>,
    /// Hosted-model serving name; absent means the default model.
    pub model: Option<String>,
    /// Design name (preset or uploaded), shared by every item.
    pub design: String,
    /// Cycles to simulate and predict, shared by every item.
    pub cycles: usize,
    /// The schedules to evaluate, in reply order (`item` indexes this).
    pub items: Vec<SweepItem>,
    /// Per-cycle values per `series` frame (default
    /// [`DEFAULT_SERIES_CHUNK`], clamped to
    /// [`MAX_SERIES_CHUNK`]) — the knob bounding frame size.
    pub chunk_cycles: Option<usize>,
}

/// Default per-cycle values per `series` frame.
pub const DEFAULT_SERIES_CHUNK: usize = 1024;
/// Hard cap on per-cycle values per `series` frame.
pub const MAX_SERIES_CHUNK: usize = 4096;
/// Hard cap on schedules per `sweep` request.
pub const MAX_SWEEP_ITEMS: usize = 64;

/// The `register_workload` verb body: store `phases` server-side under
/// `name`, making it referenceable from any later request's
/// `workload_name` — by any client, on any hosted model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegisterWorkloadRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Library name to store the schedule under.
    pub name: String,
    /// The schedule itself, validated exactly like an inline `phases`
    /// field (`PhasedWorkload::try_new`).
    pub phases: Vec<WorkloadPhase>,
}

/// The `load_design` verb body: upload a structural-Verilog netlist and
/// store it server-side under `name`, making it referenceable from any
/// later predict request's `design` field — by any client, on any
/// hosted model. The body is parsed by the hardened
/// `Design::from_verilog` reader under explicit size caps; a body that
/// fails to parse yields a structured `parse_error` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadDesignRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Library name to store the design under. Must not shadow a preset
    /// design name.
    pub name: String,
    /// The netlist body: the structural-Verilog subset
    /// `Design::to_verilog` emits.
    pub verilog: String,
}

/// The `load_model` verb body: add a model file to the live catalog
/// under a serving name, without restarting the service. The file is
/// validated exactly like a startup `--model` spec (format version +
/// config fingerprint via `ModelRegistry::load_file`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadModelRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Serving name to host the model under (the `model` field of later
    /// predict requests).
    pub name: String,
    /// Path of the `.atlas.json` model file, resolved on the server.
    pub path: String,
}

/// The `unload_model` verb body: remove a hosted model from the live
/// catalog. In-flight requests on it drain cleanly; the default model
/// cannot be unloaded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnloadModelRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Serving name of the model to unload.
    pub name: String,
}

/// One parsed protocol line, dispatched by verb.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestLine {
    /// A prediction request (no `verb`, or `"verb":"predict"`).
    Predict(PredictRequest),
    /// An incremental prediction request (`"verb":"predict_delta"`).
    PredictDelta(PredictDeltaRequest),
    /// A multi-schedule sweep request (`"verb":"sweep"`).
    Sweep(SweepRequest),
    /// A service-counter snapshot request (`"verb":"stats"`).
    Stats {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// A hosted-model listing request (`"verb":"models"`).
    Models {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// A hot model load (`"verb":"load_model"`).
    LoadModel(LoadModelRequest),
    /// A hot model unload (`"verb":"unload_model"`).
    UnloadModel(UnloadModelRequest),
    /// A workload registration (`"verb":"register_workload"`).
    RegisterWorkload(RegisterWorkloadRequest),
    /// A netlist upload (`"verb":"load_design"`).
    LoadDesign(LoadDesignRequest),
    /// A workload-library listing request (`"verb":"workloads"`).
    Workloads {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
    },
    /// A shard-topology request (`"verb":"shard_map"`). A plain serve
    /// process answers with its own shard id and an empty ring; the
    /// `atlas-shard` proxy answers with every backend shard.
    ShardMap {
        /// Client-chosen correlation id, echoed in the response.
        id: Option<u64>,
    },
}

/// The reply to a `stats` verb: aggregate service counters, including
/// each cache's occupancy and admission budget (bytes for the embedding
/// cache, entries for the design cache), plus the same breakdown for
/// every hosted model.
///
/// [`AtlasService::stats`](crate::service::AtlasService::stats) builds it
/// with the reactor fields empty — the service knows nothing about the
/// I/O plane; each [`Frontend`](crate::reactor::Frontend) sets `id` and
/// the reactor fields before rendering.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"stats"`, so clients can discriminate response lines.
    pub verb: String,
    /// Requests answered (including errors), across all models.
    pub requests: u64,
    /// Requests that returned an error, across all models.
    pub errors: u64,
    /// Cold embeddings actually computed (each counts one full
    /// simulate + encode pipeline), across all models.
    pub embeddings_computed: u64,
    /// Requests that coalesced onto another request's in-flight
    /// computation instead of recomputing (single-flight), across all
    /// models.
    pub coalesced_requests: u64,
    /// (sub-module × cycle) rows run through the GBDT heads, across all
    /// models. Each computed trace evaluates its rows once; cache hits
    /// and single-flight followers evaluate none.
    pub head_rows_evaluated: u64,
    /// (sub-module × cycle) rows whose watts a `predict_delta` copied
    /// from its cached base instead of evaluating, across all models.
    pub head_rows_reused: u64,
    /// Aggregate embedding-cache counters; `weight`/`budget` are
    /// **bytes**, summed over models (each model has its own cache).
    pub embedding_cache: CacheStats,
    /// Aggregate design-cache counters; `weight`/`budget` are
    /// **entries**, summed over models.
    pub design_cache: CacheStats,
    /// Per-model breakdown: every hosted model's request counters and
    /// cache occupancy, sorted by serving name.
    pub models: Vec<ModelStats>,
    /// This process's shard id (`--shard-id`), absent when unsharded —
    /// lets operators attribute stats lines in a scale-out deployment.
    pub shard_id: Option<u32>,
    /// Reactor threads serving the listen address. `0` over stdio
    /// (there is no reactor).
    pub reactor_threads: usize,
    /// Per-reactor connection and back-pressure counters, in reactor
    /// order — accept-skew across reactors at a glance. Empty over
    /// stdio.
    pub reactors: Vec<ReactorStats>,
}

/// One shard of a scale-out deployment, as reported by `shard_map`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardInfo {
    /// Shard id (the backend's `--shard-id`).
    pub id: u32,
    /// Backend address the proxy routes this shard's keys to.
    pub addr: String,
    /// Virtual nodes this shard occupies on the hash ring.
    pub vnodes: usize,
}

/// The reply to a `shard_map` verb: the process's place in (or view of)
/// the shard topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMapResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"shard_map"`.
    pub verb: String,
    /// This process's shard id, when it is a shard (`--shard-id`).
    /// Absent on the proxy and on unsharded serve processes.
    pub shard_id: Option<u32>,
    /// The routing ring: every backend shard, sorted by id. Empty on a
    /// plain serve process (it routes nothing).
    pub shards: Vec<ShardInfo>,
}

/// The reply to a `models` verb: every hosted model and the default.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelsResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"models"`.
    pub verb: String,
    /// Serving name requests without a `model` field route to.
    pub default_model: String,
    /// Every hosted model, sorted by serving name.
    pub models: Vec<ModelInfo>,
}

/// Build the `models` verb reply.
pub fn models_response(
    id: Option<u64>,
    default_model: impl Into<String>,
    models: Vec<ModelInfo>,
) -> ModelsResponse {
    ModelsResponse {
        id,
        verb: "models".to_owned(),
        default_model: default_model.into(),
        models,
    }
}

/// The reply to a successful `load_model` verb: the freshly hosted
/// model, already routable and visible to `models`/`stats`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadModelResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"load_model"`.
    pub verb: String,
    /// The loaded model's identity (serving name, format version,
    /// config fingerprint).
    pub model: ModelInfo,
    /// The (unchanged) default serving name, for client convenience.
    pub default_model: String,
}

/// The reply to a successful `unload_model` verb.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnloadModelResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"unload_model"`.
    pub verb: String,
    /// Serving name that was unloaded (no longer routable).
    pub name: String,
}

/// The reply to a successful `register_workload` verb.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterWorkloadResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"register_workload"`.
    pub verb: String,
    /// The stored schedule: name, phase count, fingerprint.
    pub workload: RegisteredWorkload,
    /// Whether an existing schedule under this name was replaced.
    /// Replacement is safe: results are cached under the schedule
    /// fingerprint, so entries for the old schedule can never answer
    /// requests for the new one.
    pub replaced: bool,
}

/// The reply to a successful `load_design` verb.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadDesignResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"load_design"`.
    pub verb: String,
    /// The stored design: name, size, and content fingerprint.
    pub design: DesignInfo,
}

/// The reply to a `workloads` verb: the preset vocabulary plus every
/// server-registered schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadsResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"workloads"`.
    pub verb: String,
    /// Built-in preset names (usable in the `workload` field).
    pub presets: Vec<String>,
    /// Registered schedules (usable in the `workload_name` field),
    /// sorted by name.
    pub workloads: Vec<RegisteredWorkload>,
}

/// Build the `workloads` verb reply.
pub fn workloads_response(
    id: Option<u64>,
    workloads: Vec<RegisteredWorkload>,
) -> WorkloadsResponse {
    WorkloadsResponse {
        id,
        verb: "workloads".to_owned(),
        presets: atlas_sim::PhasedWorkload::preset_names()
            .iter()
            .map(|&s| s.to_owned())
            .collect(),
        workloads,
    }
}

/// Per-group rollup of a predicted trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSummary {
    /// Power group name (`combinational`, `register`, `clock_tree`,
    /// `memory`).
    pub group: String,
    /// Mean watts over the trace.
    pub mean_w: f64,
    /// Peak single-cycle watts.
    pub peak_w: f64,
}

/// A successful prediction, summarized per power group plus the per-cycle
/// total series (the quantity peak-power / `L·di/dt` analyses need).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Serving name of the model that answered — the request's `model`
    /// field when present, else the service's default model.
    pub model: String,
    /// Echo of the design name.
    pub design: String,
    /// Workload label: the preset name, the inline schedule's `workload`
    /// label, or the `workload_name` the request referenced.
    pub workload: String,
    /// Echo of the cycle count.
    pub cycles: usize,
    /// Whether the (design, workload, cycles) embeddings were served from
    /// cache (stage one skipped entirely).
    pub cache_hit: bool,
    /// Whether the design's netlist + sub-module data came from cache
    /// (relevant when `cache_hit` is false: same design, new workload).
    pub design_cache_hit: bool,
    /// Server-side latency of this request in milliseconds.
    pub latency_ms: f64,
    /// Mean total watts over the trace.
    pub mean_total_w: f64,
    /// Peak single-cycle total watts.
    pub peak_total_w: f64,
    /// Per-group rollups, in `PowerGroup::ALL` order.
    pub groups: Vec<GroupSummary>,
    /// Per-cycle design-total watts (all groups).
    pub per_cycle_total_w: Vec<f64>,
}

/// The reply to a `predict_delta` verb: the same prediction a full
/// `predict` of the target would return (bit-identical), plus the reuse
/// accounting of the delta path. Kept flat — no nested objects — so the
/// shard proxy's id rewriting sees exactly one `id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictDeltaResponse {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"predict_delta"`.
    pub verb: String,
    /// Serving name of the model that answered.
    pub model: String,
    /// Echo of the target design name.
    pub design: String,
    /// Effective target workload label.
    pub workload: String,
    /// Echo of the target cycle count.
    pub cycles: usize,
    /// Whether the base trace's embeddings were found in cache. `false`
    /// means the edit description pointed at nothing cached and the
    /// request degenerated to a full cold `predict` (still correct).
    pub base_hit: bool,
    /// Whether the *target* key itself was already cached (the delta
    /// machinery was skipped entirely — nothing to recompute).
    pub cache_hit: bool,
    /// Whether the design's netlist + sub-module data came from cache.
    pub design_cache_hit: bool,
    /// Server-side latency of this request in milliseconds.
    pub latency_ms: f64,
    /// Unique toggle patterns copied from the base (see
    /// [`atlas_core::DeltaStats`]). Zero when `base_hit` is false or
    /// `cache_hit` is true.
    pub reused_patterns: usize,
    /// Unique toggle patterns that ran the encoder.
    pub recomputed_patterns: usize,
    /// (sub-module × cycle) items answered from reused rows.
    pub reused_cycles: usize,
    /// (sub-module × cycle) items freshly encoded.
    pub recomputed_cycles: usize,
    /// Mean total watts over the trace.
    pub mean_total_w: f64,
    /// Peak single-cycle total watts.
    pub peak_total_w: f64,
    /// Per-group rollups, in `PowerGroup::ALL` order.
    pub groups: Vec<GroupSummary>,
    /// Per-cycle design-total watts (all groups).
    pub per_cycle_total_w: Vec<f64>,
}

/// Assemble a `predict_delta` reply from the equivalent full-predict
/// summary plus the delta path's accounting.
pub fn delta_response(
    prediction: PredictResponse,
    base_hit: bool,
    stats: &atlas_core::DeltaStats,
) -> PredictDeltaResponse {
    PredictDeltaResponse {
        id: prediction.id,
        verb: "predict_delta".to_owned(),
        model: prediction.model,
        design: prediction.design,
        workload: prediction.workload,
        cycles: prediction.cycles,
        base_hit,
        cache_hit: prediction.cache_hit,
        design_cache_hit: prediction.design_cache_hit,
        latency_ms: prediction.latency_ms,
        reused_patterns: stats.reused_patterns,
        recomputed_patterns: stats.recomputed_patterns,
        reused_cycles: stats.reused_cycles,
        recomputed_cycles: stats.recomputed_cycles,
        mean_total_w: prediction.mean_total_w,
        peak_total_w: prediction.peak_total_w,
        groups: prediction.groups,
        per_cycle_total_w: prediction.per_cycle_total_w,
    }
}

/// Render one `predict_delta` response line (no trailing newline).
pub fn render_delta_result(
    result: &Result<PredictDeltaResponse, (Option<u64>, ServeError)>,
) -> String {
    render_reply(result)
}

/// First frame of a `sweep` reply: announces how many `item` results
/// will follow. Every sweep frame carries the request `id`, the verb,
/// and a `frame` discriminator, so interleaved frames of concurrent
/// sweeps on one connection always correlate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStartFrame {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"sweep"`.
    pub verb: String,
    /// Always `"start"`.
    pub frame: String,
    /// Number of schedules that will be evaluated.
    pub items: usize,
}

/// Per-schedule summary frame of a `sweep` reply (everything of a
/// predict reply except the per-cycle series, which streams separately
/// in bounded `series` frames).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepItemFrame {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"sweep"`.
    pub verb: String,
    /// Always `"item"`.
    pub frame: String,
    /// Index into the request's `items`.
    pub item: usize,
    /// Effective workload label of this item.
    pub workload: String,
    /// Whether this item's embeddings were served from cache.
    pub cache_hit: bool,
    /// Whether the design came from cache (shared across items).
    pub design_cache_hit: bool,
    /// Mean total watts over the trace.
    pub mean_total_w: f64,
    /// Peak single-cycle total watts.
    pub peak_total_w: f64,
    /// Per-group rollups, in `PowerGroup::ALL` order.
    pub groups: Vec<GroupSummary>,
}

/// One bounded chunk of an item's per-cycle total series. Chunks arrive
/// in offset order within an item; items may interleave.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSeriesFrame {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"sweep"`.
    pub verb: String,
    /// Always `"series"`.
    pub frame: String,
    /// Index into the request's `items`.
    pub item: usize,
    /// Cycle offset of the first value in this chunk.
    pub offset: usize,
    /// Total cycles of the item's series (same every chunk).
    pub total_cycles: usize,
    /// The chunk's per-cycle design-total watts.
    pub per_cycle_total_w: Vec<f64>,
}

/// Per-item failure frame of a `sweep` reply: one bad schedule fails
/// alone; the sweep continues and still ends with an `end` frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepErrorFrame {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"sweep"`.
    pub verb: String,
    /// Always `"error"`.
    pub frame: String,
    /// Index into the request's `items`.
    pub item: usize,
    /// Human-readable description.
    pub error: String,
    /// Stable machine-readable class ([`ServeError::kind`]).
    pub kind: String,
}

/// Final frame of a `sweep` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepEndFrame {
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Always `"sweep"`.
    pub verb: String,
    /// Always `"end"`.
    pub frame: String,
    /// Number of schedules evaluated (successes + failures).
    pub items: usize,
    /// How many items failed (each got an `error` frame).
    pub errors: usize,
    /// Server-side latency of the whole sweep in milliseconds.
    pub latency_ms: f64,
}

/// The error half of the wire protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Echo of the request id, when the request parsed far enough.
    pub id: Option<u64>,
    /// Human-readable description.
    pub error: String,
    /// Stable machine-readable class ([`ServeError::kind`]).
    pub kind: String,
}

/// Wire name of a power group.
pub fn group_name(group: PowerGroup) -> &'static str {
    match group {
        PowerGroup::Combinational => "combinational",
        PowerGroup::Register => "register",
        PowerGroup::ClockTree => "clock_tree",
        PowerGroup::Memory => "memory",
    }
}

/// Summarize a predicted trace into a response body. `model` is the
/// resolved serving name and `workload` the effective workload label
/// (which differs from `req.workload` for `workload_name` requests).
pub fn summarize(
    req: &PredictRequest,
    model: &str,
    workload: &str,
    trace: &PowerTrace,
    cache_hit: bool,
    design_cache_hit: bool,
    latency_ms: f64,
) -> PredictResponse {
    let totals = trace.total_series();
    let mean_total_w = mean(&totals);
    let peak_total_w = totals.iter().fold(0.0f64, |a, &b| a.max(b));
    let groups = PowerGroup::ALL
        .iter()
        .map(|&g| {
            let series = trace.group_series(g);
            GroupSummary {
                group: group_name(g).to_owned(),
                mean_w: mean(&series),
                peak_w: series.iter().fold(0.0f64, |a, &b| a.max(b)),
            }
        })
        .collect();
    PredictResponse {
        id: req.id,
        model: model.to_owned(),
        design: req.design.clone(),
        workload: workload.to_owned(),
        cycles: trace.cycles(),
        cache_hit,
        design_cache_hit,
        latency_ms,
        mean_total_w,
        peak_total_w,
        groups,
        per_cycle_total_w: totals,
    }
}

fn mean(series: &[f64]) -> f64 {
    if series.is_empty() {
        0.0
    } else {
        series.iter().sum::<f64>() / series.len() as f64
    }
}

/// Parse one request line.
///
/// # Errors
///
/// [`ServeError::InvalidRequest`] on malformed JSON or a structural
/// mismatch.
pub fn parse_request(line: &str) -> Result<PredictRequest, ServeError> {
    serde_json::from_str(line.trim())
        .map_err(|e| ServeError::InvalidRequest(format!("bad request line: {e}")))
}

/// Parse one protocol line, dispatching on the optional `verb` field.
///
/// # Errors
///
/// [`ServeError::InvalidRequest`] on malformed JSON, an unknown verb, or
/// a structural mismatch.
pub fn parse_line(line: &str) -> Result<RequestLine, ServeError> {
    let bad = |msg: String| ServeError::InvalidRequest(msg);
    let value = serde_json::from_str_value(line.trim())
        .map_err(|e| bad(format!("bad request line: {e}")))?;
    let Some(map) = value.as_map() else {
        return Err(bad(format!(
            "request line must be a JSON object, found {}",
            value.kind()
        )));
    };
    let verb = match map.iter().find(|(k, _)| k == "verb") {
        None => None,
        Some((_, v)) => Some(
            v.as_str()
                .ok_or_else(|| bad(format!("`verb` must be a string, found {}", v.kind())))?,
        ),
    };
    let id_of = |verb: &str| {
        serde::de::field::<Option<u64>>(map, "id", verb)
            .map_err(|e| bad(format!("bad {verb} line: {e}")))
    };
    match verb {
        None | Some("predict") => PredictRequest::from_value(&value)
            .map(RequestLine::Predict)
            .map_err(|e| bad(format!("bad request line: {e}"))),
        Some("predict_delta") => PredictDeltaRequest::from_value(&value)
            .map(RequestLine::PredictDelta)
            .map_err(|e| bad(format!("bad predict_delta line: {e}"))),
        Some("sweep") => SweepRequest::from_value(&value)
            .map(RequestLine::Sweep)
            .map_err(|e| bad(format!("bad sweep line: {e}"))),
        Some("stats") => Ok(RequestLine::Stats {
            id: id_of("stats")?,
        }),
        Some("models") => Ok(RequestLine::Models {
            id: id_of("models")?,
        }),
        Some("load_model") => LoadModelRequest::from_value(&value)
            .map(RequestLine::LoadModel)
            .map_err(|e| bad(format!("bad load_model line: {e}"))),
        Some("unload_model") => UnloadModelRequest::from_value(&value)
            .map(RequestLine::UnloadModel)
            .map_err(|e| bad(format!("bad unload_model line: {e}"))),
        Some("workloads") => Ok(RequestLine::Workloads {
            id: id_of("workloads")?,
        }),
        Some("shard_map") => Ok(RequestLine::ShardMap {
            id: id_of("shard_map")?,
        }),
        Some("register_workload") => RegisterWorkloadRequest::from_value(&value)
            .map(RequestLine::RegisterWorkload)
            .map_err(|e| bad(format!("bad register_workload line: {e}"))),
        Some("load_design") => LoadDesignRequest::from_value(&value)
            .map(RequestLine::LoadDesign)
            .map_err(|e| bad(format!("bad load_design line: {e}"))),
        Some(other) => Err(bad(format!("unknown verb `{other}`"))),
    }
}

/// Best-effort extraction of the `id` field from a request line that
/// failed to parse, so even error responses correlate when possible.
pub fn salvage_id(line: &str) -> Option<u64> {
    let value = serde_json::from_str_value(line.trim()).ok()?;
    let map = value.as_map()?;
    serde::de::field::<Option<u64>>(map, "id", "request").ok()?
}

/// Render one verb-response line (no trailing newline) — the `stats`,
/// `models`, `register_workload`, and `workloads` replies all go through
/// here.
pub fn render_line<T: Serialize>(response: &T) -> String {
    serde_json::to_string(response)
        .unwrap_or_else(|e| format!(r#"{{"error":"render failure: {e}","kind":"internal"}}"#))
}

/// Render one response line (no trailing newline).
pub fn render_result(result: &Result<PredictResponse, (Option<u64>, ServeError)>) -> String {
    render_reply(result)
}

/// Render a response, or its typed error echoing the request id.
pub(crate) fn render_reply<T: Serialize>(result: &Result<T, (Option<u64>, ServeError)>) -> String {
    let rendered = match result {
        Ok(response) => serde_json::to_string(response),
        Err((id, error)) => serde_json::to_string(&ErrorResponse {
            id: *id,
            error: error.to_string(),
            kind: error.kind().to_owned(),
        }),
    };
    rendered.unwrap_or_else(|e| format!(r#"{{"error":"render failure: {e}","kind":"internal"}}"#))
}

/// Re-render a request line with `id` as its id: how the shard proxy
/// tags a request with its own internal id on the way to a shard. `None`
/// unless the line is a JSON object.
pub fn rewrite_id(line: &str, id: u64) -> Option<String> {
    let value: Value = serde_json::from_str(line.trim()).ok()?;
    value.as_map().is_some().then(|| with_id(value, Some(id)))
}

/// A shard's reply line as the shard proxy relays it: its JSON, the
/// proxy-internal id it carries, and whether it ends its request (it is
/// anything but an intermediate frame: a `frame` other than `end`).
pub fn parse_relayed(line: &str) -> Option<(Value, u64, bool)> {
    let value: Value = serde_json::from_str(line.trim()).ok()?;
    let field = |name: &str| {
        value
            .as_map()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    };
    let id = match field("id")? {
        Value::UInt(n) => *n,
        Value::Int(n) if *n >= 0 => *n as u64,
        _ => return None,
    };
    let last = !matches!(field("frame"), Some(Value::Str(frame)) if frame != "end");
    Some((value, id, last))
}

/// Render `value` with `id` (`null` for none) as the `id` of an object,
/// inserted first when absent.
pub fn with_id(mut value: Value, id: Option<u64>) -> String {
    if let Value::Map(entries) = &mut value {
        let id = id.map_or(Value::Null, Value::UInt);
        match entries.iter_mut().find(|(k, _)| k == "id") {
            Some(slot) => slot.1 = id,
            None => entries.insert(0, ("id".to_owned(), id)),
        }
    }
    render_line(&value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = PredictRequest {
            id: Some(7),
            model: Some("atlas-v2".into()),
            design: "C2".into(),
            workload: Some("W1".into()),
            workload_name: None,
            cycles: 64,
            phases: None,
        };
        let line = serde_json::to_string(&req).expect("serializes");
        assert_eq!(parse_request(&line).expect("parses"), req);
        // The builder spells the same thing.
        let mut built = PredictRequest::new("C2", "W1", 64).on_model("atlas-v2");
        built.id = Some(7);
        assert_eq!(built, req);
    }

    #[test]
    fn workload_name_requests_parse_without_a_workload_field() {
        // The shape clients send: no `workload`, just `workload_name`.
        let hand = r#"{"id":9,"design":"C4","workload_name":"bursty","cycles":32}"#;
        let parsed = parse_request(hand).expect("parses");
        assert_eq!(parsed.workload, None);
        assert_eq!(parsed.workload_name.as_deref(), Some("bursty"));
        assert_eq!(parsed.model, None);
        assert_eq!(parsed, {
            let mut req = PredictRequest::with_workload_name("C4", "bursty", 32);
            req.id = Some(9);
            req
        });
        // Model-addressed, hand-written.
        let hand = r#"{"design":"C2","workload":"W1","cycles":8,"model":"beta"}"#;
        assert_eq!(
            parse_request(hand).expect("parses").model.as_deref(),
            Some("beta")
        );
    }

    #[test]
    fn inline_schedule_roundtrip() {
        let req = PredictRequest::with_phases(
            "C2",
            "bursty",
            32,
            vec![
                WorkloadPhase {
                    activity: 0.45,
                    min_len: 3,
                    max_len: 9,
                },
                WorkloadPhase {
                    activity: 0.05,
                    min_len: 10,
                    max_len: 20,
                },
            ],
        );
        let line = serde_json::to_string(&req).expect("serializes");
        assert_eq!(parse_request(&line).expect("parses"), req);
        // Through the verb dispatcher too.
        assert_eq!(
            parse_line(&line).expect("parses"),
            RequestLine::Predict(req.clone())
        );
        // And from hand-written JSON, the shape clients will send.
        let hand = r#"{"design":"C2","workload":"bursty","cycles":32,
            "phases":[{"activity":0.45,"min_len":3,"max_len":9},
                      {"activity":0.05,"min_len":10,"max_len":20}]}"#;
        let parsed = parse_request(hand).expect("parses");
        assert_eq!(parsed.phases, req.phases);
    }

    #[test]
    fn verb_dispatch() {
        // No verb: predict.
        assert!(matches!(
            parse_line(r#"{"design":"C2","workload":"W1","cycles":8}"#),
            Ok(RequestLine::Predict(_))
        ));
        // Explicit predict verb.
        assert!(matches!(
            parse_line(r#"{"verb":"predict","design":"C2","workload":"W1","cycles":8}"#),
            Ok(RequestLine::Predict(_))
        ));
        // Stats verb, with and without id.
        assert_eq!(
            parse_line(r#"{"verb":"stats","id":9}"#),
            Ok(RequestLine::Stats { id: Some(9) })
        );
        assert_eq!(
            parse_line(r#"{"verb":"stats"}"#),
            Ok(RequestLine::Stats { id: None })
        );
        // Catalog and workload-library verbs.
        assert_eq!(
            parse_line(r#"{"verb":"models","id":4}"#),
            Ok(RequestLine::Models { id: Some(4) })
        );
        assert_eq!(
            parse_line(r#"{"verb":"workloads"}"#),
            Ok(RequestLine::Workloads { id: None })
        );
        assert_eq!(
            parse_line(r#"{"verb":"shard_map","id":11}"#),
            Ok(RequestLine::ShardMap { id: Some(11) })
        );
        assert_eq!(
            parse_line(
                r#"{"verb":"register_workload","id":5,"name":"bursty",
                    "phases":[{"activity":0.5,"min_len":2,"max_len":4}]}"#
            ),
            Ok(RequestLine::RegisterWorkload(RegisterWorkloadRequest {
                id: Some(5),
                name: "bursty".into(),
                phases: vec![WorkloadPhase {
                    activity: 0.5,
                    min_len: 2,
                    max_len: 4,
                }],
            }))
        );
        // A registration without a name or phases is a typed error.
        assert!(matches!(
            parse_line(r#"{"verb":"register_workload","id":5}"#),
            Err(ServeError::InvalidRequest(_))
        ));
        // Unknown verb and non-string verb are typed errors.
        assert!(matches!(
            parse_line(r#"{"verb":"flush"}"#),
            Err(ServeError::InvalidRequest(msg)) if msg.contains("unknown verb")
        ));
        assert!(matches!(
            parse_line(r#"{"verb":3}"#),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            parse_line("[1,2]"),
            Err(ServeError::InvalidRequest(_))
        ));
        // Error responses can still correlate when the id parsed.
        assert_eq!(salvage_id(r#"{"id":6,"verb":"flush"}"#), Some(6));
        assert_eq!(salvage_id(r#"{"verb":"flush"}"#), None);
        assert_eq!(salvage_id("not json"), None);
    }

    #[test]
    fn predict_delta_lines_parse_and_default_their_base() {
        // Appended-cycles edit: base differs only in cycles.
        let line = r#"{"verb":"predict_delta","id":3,"design":"C2","workload":"W1",
            "cycles":64,"base":{"cycles":48}}"#;
        let Ok(RequestLine::PredictDelta(req)) = parse_line(line) else {
            panic!("predict_delta must parse");
        };
        assert_eq!(req.target(), {
            let mut t = PredictRequest::new("C2", "W1", 64);
            t.id = Some(3);
            t
        });
        let base = req.base_request();
        assert_eq!(base.design, "C2");
        assert_eq!(base.cycles, 48);
        assert_eq!(base.workload.as_deref(), Some("W1"));
        // Design edit: base differs only in design; workload inherited.
        let line = r#"{"verb":"predict_delta","design":"v2","workload_name":"nightly",
            "cycles":32,"base":{"design":"v1"},"changed_submodules":[1]}"#;
        let Ok(RequestLine::PredictDelta(req)) = parse_line(line) else {
            panic!("predict_delta must parse");
        };
        assert_eq!(req.changed_submodules, Some(vec![1]));
        let base = req.base_request();
        assert_eq!(base.design, "v1");
        assert_eq!(base.workload_name.as_deref(), Some("nightly"));
        assert_eq!(base.cycles, 32);
        // No base at all: the target's own key.
        let line = r#"{"verb":"predict_delta","design":"C2","workload":"W1","cycles":8}"#;
        let Ok(RequestLine::PredictDelta(req)) = parse_line(line) else {
            panic!("predict_delta must parse");
        };
        assert_eq!(req.base_request(), req.target());
        // A base that states any workload field replaces the whole spec.
        let line = r#"{"verb":"predict_delta","design":"C2","workload_name":"new",
            "cycles":8,"base":{"workload_name":"old"}}"#;
        let Ok(RequestLine::PredictDelta(req)) = parse_line(line) else {
            panic!("predict_delta must parse");
        };
        assert_eq!(req.base_request().workload_name.as_deref(), Some("old"));
        assert_eq!(req.base_request().workload, None);
        // Malformed: missing cycles is a typed error.
        assert!(matches!(
            parse_line(r#"{"verb":"predict_delta","design":"C2","workload":"W1"}"#),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn sweep_lines_parse() {
        let line = r#"{"verb":"sweep","id":4,"design":"C2","cycles":16,
            "items":[{"workload":"W1"},
                     {"workload_name":"nightly"},
                     {"workload":"burst","phases":[{"activity":0.4,"min_len":2,"max_len":5}]}],
            "chunk_cycles":8}"#;
        let Ok(RequestLine::Sweep(req)) = parse_line(line) else {
            panic!("sweep must parse");
        };
        assert_eq!(req.items.len(), 3);
        assert_eq!(req.items[0].workload.as_deref(), Some("W1"));
        assert_eq!(req.items[1].workload_name.as_deref(), Some("nightly"));
        assert_eq!(req.items[2].phases.as_ref().map(Vec::len), Some(1));
        assert_eq!(req.chunk_cycles, Some(8));
        // Missing items is a typed error.
        assert!(matches!(
            parse_line(r#"{"verb":"sweep","design":"C2","cycles":16}"#),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn delta_and_sweep_frames_roundtrip() {
        let stats = atlas_core::DeltaStats {
            reused_patterns: 10,
            recomputed_patterns: 2,
            reused_cycles: 50,
            recomputed_cycles: 14,
        };
        let mut trace = PowerTrace::new("d".into(), "w".into(), 2, 1);
        trace.add(0, 0, PowerGroup::Combinational.index(), 1.0);
        let req = PredictRequest::new("d", "w", 2);
        let pred = summarize(&req, "default", "w", &trace, false, true, 1.5);
        let resp = delta_response(pred, true, &stats);
        assert_eq!(resp.verb, "predict_delta");
        assert!(resp.base_hit);
        assert_eq!(resp.reused_patterns, 10);
        assert_eq!(resp.recomputed_cycles, 14);
        let line = render_delta_result(&Ok(resp.clone()));
        let back: PredictDeltaResponse = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, resp);
        // Error rendering preserves the id and kind.
        let line = render_delta_result(&Err((Some(8), ServeError::UnknownDesign("v9".into()))));
        let err: ErrorResponse = serde_json::from_str(&line).expect("parses");
        assert_eq!(err.id, Some(8));
        assert_eq!(err.kind, "unknown_design");

        let start = SweepStartFrame {
            id: Some(4),
            verb: "sweep".into(),
            frame: "start".into(),
            items: 3,
        };
        let back: SweepStartFrame = serde_json::from_str(&render_line(&start)).expect("parses");
        assert_eq!(back, start);
        let series = SweepSeriesFrame {
            id: Some(4),
            verb: "sweep".into(),
            frame: "series".into(),
            item: 1,
            offset: 8,
            total_cycles: 16,
            per_cycle_total_w: vec![1.0, 2.0],
        };
        let back: SweepSeriesFrame = serde_json::from_str(&render_line(&series)).expect("parses");
        assert_eq!(back, series);
        let end = SweepEndFrame {
            id: Some(4),
            verb: "sweep".into(),
            frame: "end".into(),
            items: 3,
            errors: 1,
            latency_ms: 2.5,
        };
        let back: SweepEndFrame = serde_json::from_str(&render_line(&end)).expect("parses");
        assert_eq!(back, end);
    }

    #[test]
    fn load_design_lines_parse() {
        assert_eq!(
            parse_line(
                r#"{"verb":"load_design","id":9,"name":"up","verilog":"module x (n0);\n  input n0;\nendmodule\n"}"#
            ),
            Ok(RequestLine::LoadDesign(LoadDesignRequest {
                id: Some(9),
                name: "up".into(),
                verilog: "module x (n0);\n  input n0;\nendmodule\n".into(),
            }))
        );
        // An upload without a name or body is a typed error.
        assert!(matches!(
            parse_line(r#"{"verb":"load_design","id":9}"#),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn stats_response_roundtrip() {
        let embedding_cache = CacheStats {
            hits: 6,
            misses: 5,
            len: 2,
            weight: 123_456,
            budget: 1_000_000,
        };
        let design_cache = CacheStats {
            hits: 7,
            misses: 1,
            len: 1,
            weight: 1,
            budget: 16,
        };
        let resp = StatsResponse {
            id: Some(9),
            verb: "stats".into(),
            requests: 11,
            errors: 2,
            embeddings_computed: 3,
            coalesced_requests: 4,
            head_rows_evaluated: 40,
            head_rows_reused: 24,
            embedding_cache,
            design_cache,
            shard_id: Some(3),
            models: vec![ModelStats {
                model: "alpha".into(),
                precision: "f64".into(),
                requests: 11,
                errors: 2,
                embeddings_computed: 3,
                coalesced_requests: 4,
                head_rows_evaluated: 40,
                head_rows_reused: 24,
                quota: 4,
                queued: 9,
                rejected_quota: 1,
                embedding_cache,
                design_cache,
            }],
            reactor_threads: 0,
            reactors: Vec::new(),
        };
        assert_eq!(resp.verb, "stats");
        assert_eq!(resp.shard_id, Some(3));
        assert_eq!(resp.reactor_threads, 0);
        assert!(resp.reactors.is_empty());
        assert_eq!(resp.embedding_cache.budget, 1_000_000);
        assert_eq!((resp.head_rows_evaluated, resp.head_rows_reused), (40, 24));
        assert_eq!(resp.models.len(), 1);
        assert_eq!(resp.models[0].model, "alpha");
        assert_eq!(resp.models[0].quota, 4);
        assert_eq!(resp.models[0].queued, 9);
        assert_eq!(resp.models[0].rejected_quota, 1);
        let line = render_line(&resp);
        let back: StatsResponse = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, resp);
    }

    #[test]
    fn control_plane_verbs_parse_and_roundtrip() {
        // The hot-reload verbs parse with their ids.
        assert_eq!(
            parse_line(r#"{"verb":"load_model","id":7,"name":"canary","path":"/m/v2.atlas.json"}"#),
            Ok(RequestLine::LoadModel(LoadModelRequest {
                id: Some(7),
                name: "canary".into(),
                path: "/m/v2.atlas.json".into(),
            }))
        );
        assert_eq!(
            parse_line(r#"{"verb":"unload_model","name":"canary"}"#),
            Ok(RequestLine::UnloadModel(UnloadModelRequest {
                id: None,
                name: "canary".into(),
            }))
        );
        // Missing required fields are typed errors.
        assert!(matches!(
            parse_line(r#"{"verb":"load_model","id":7,"name":"canary"}"#),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            parse_line(r#"{"verb":"unload_model","id":8}"#),
            Err(ServeError::InvalidRequest(_))
        ));

        // The responses render and parse back.
        let loaded = LoadModelResponse {
            id: Some(7),
            verb: "load_model".into(),
            model: ModelInfo {
                name: "canary".into(),
                format_version: 1,
                config_fingerprint: 0xFEED,
            },
            default_model: "stable".into(),
        };
        let line = render_line(&loaded);
        let back: LoadModelResponse = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, loaded);
        let unloaded = UnloadModelResponse {
            id: None,
            verb: "unload_model".into(),
            name: "canary".into(),
        };
        let line = render_line(&unloaded);
        let back: UnloadModelResponse = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, unloaded);
    }

    #[test]
    fn catalog_and_workload_responses_roundtrip() {
        let models = models_response(
            Some(2),
            "alpha",
            vec![
                ModelInfo {
                    name: "alpha".into(),
                    format_version: 1,
                    config_fingerprint: 0xDEAD,
                },
                ModelInfo {
                    name: "beta".into(),
                    format_version: 1,
                    config_fingerprint: 0xBEEF,
                },
            ],
        );
        assert_eq!(models.verb, "models");
        assert_eq!(models.default_model, "alpha");
        let line = render_line(&models);
        let back: ModelsResponse = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, models);

        let workloads = workloads_response(
            None,
            vec![RegisteredWorkload {
                name: "bursty".into(),
                phases: 2,
                fingerprint: 99,
            }],
        );
        assert_eq!(workloads.verb, "workloads");
        assert_eq!(workloads.presets, vec!["W1".to_owned(), "W2".to_owned()]);
        let line = render_line(&workloads);
        let back: WorkloadsResponse = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, workloads);

        let registered = RegisterWorkloadResponse {
            id: Some(3),
            verb: "register_workload".into(),
            workload: RegisteredWorkload {
                name: "bursty".into(),
                phases: 2,
                fingerprint: 99,
            },
            replaced: true,
        };
        let line = render_line(&registered);
        let back: RegisterWorkloadResponse = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, registered);
    }

    #[test]
    fn request_without_id_parses() {
        let req =
            parse_request(r#"{"id":null,"design":"C4","workload":"W2","cycles":16}"#).expect("ok");
        assert_eq!(req.id, None);
        assert_eq!(req.design, "C4");
        // The id field may be omitted entirely (it is optional).
        let req = parse_request(r#"{"design":"C2","workload":"W1","cycles":8}"#).expect("ok");
        assert_eq!(req.id, None);
        assert_eq!(req.cycles, 8);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(matches!(
            parse_request("not json"),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            parse_request(r#"{"design":"C2"}"#),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn summaries_roll_up_the_trace() {
        let mut trace = PowerTrace::new("d".into(), "w".into(), 2, 1);
        trace.add(0, 0, PowerGroup::Combinational.index(), 1.0);
        trace.add(1, 0, PowerGroup::ClockTree.index(), 3.0);
        let req = PredictRequest::new("d", "w", 2);
        let resp = summarize(&req, "default", "w", &trace, true, true, 0.5);
        assert_eq!(resp.model, "default");
        assert_eq!(resp.workload, "w");
        assert_eq!(resp.per_cycle_total_w, vec![1.0, 3.0]);
        assert_eq!(resp.mean_total_w, 2.0);
        assert_eq!(resp.peak_total_w, 3.0);
        assert_eq!(resp.groups.len(), PowerGroup::ALL.len());
        let ct = resp
            .groups
            .iter()
            .find(|g| g.group == "clock_tree")
            .expect("ct");
        assert_eq!(ct.peak_w, 3.0);
        // The response line parses back.
        let line = render_result(&Ok(resp.clone()));
        let back: PredictResponse = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, resp);
    }

    #[test]
    fn error_lines_carry_kind() {
        let line = render_result(&Err((Some(3), ServeError::UnknownDesign("C9".into()))));
        let err: ErrorResponse = serde_json::from_str(&line).expect("parses");
        assert_eq!(err.id, Some(3));
        assert_eq!(err.kind, "unknown_design");
        assert!(err.error.contains("C9"));
    }

    #[test]
    fn reply_ids_are_restored() {
        let line = r#"{"id":4294967297,"verb":"predict","cycles":8}"#;
        let (reply, id, last) = parse_relayed(line).expect("parses");
        assert_eq!((id, last), (4294967297, true));
        let restored = parse_relayed(&with_id(reply, Some(7))).expect("round-trips");
        assert_eq!(restored.1, 7);
        // A client that sent no id gets `null` back, like talking to a
        // shard directly.
        let (reply, ..) = parse_relayed(r#"{"id":99,"verb":"stats"}"#).expect("parses");
        let restored = with_id(reply, None);
        assert!(restored.contains(r#""id":null"#), "got: {restored}");
        // Only a sweep's `end` frame ends a streamed reply.
        for (frame, last) in [("start", false), ("series", false), ("end", true)] {
            let line = format!(r#"{{"id":5,"verb":"sweep","frame":"{frame}"}}"#);
            assert_eq!(parse_relayed(&line).expect("parses").2, last);
        }
        // The way out: the internal id replaces the client's, or leads.
        let tagged = rewrite_id(r#"{"id":3,"verb":"stats"}"#, 9).expect("an object");
        assert_eq!(tagged, r#"{"id":9,"verb":"stats"}"#);
        let tagged = rewrite_id(r#"{"verb":"stats"}"#, 9).expect("an object");
        assert_eq!(tagged, r#"{"id":9,"verb":"stats"}"#);
        assert_eq!(rewrite_id("[1]", 9), None);
    }
}
