//! `atlas-serve` — the ATLAS model as a long-lived prediction service.
//!
//! The paper's value proposition is replacing an hours-long P&R +
//! simulation flow with a fast inference call; this crate packages that
//! call as an always-on, multi-model service instead of a one-shot
//! driver:
//!
//! * [`registry`] — versioned on-disk persistence for trained models
//!   (format version + config fingerprint headers, so a service refuses
//!   incompatible files instead of mis-loading them), and the
//!   [`ModelCatalog`] assembling several loaded models for serving;
//! * [`service`] — a std-thread worker pool routing requests across the
//!   catalog's named models, each with its own two-level LRU [`cache`]
//!   (design artifacts, then per-(design, workload, cycles) encoder
//!   embeddings under a **byte budget**), so repeat requests skip
//!   netlist generation, feature construction, and all encoder forwards;
//!   concurrent cold requests for one key are **single-flighted** into
//!   one computation and admitted through per-model **cold-compute
//!   quotas** ([`quota`]) so one model's cold storm cannot starve the
//!   rest; plus the server-side **workload library** (register a phase
//!   schedule once, reference it by name forever — optionally journaled
//!   to disk and replayed at startup), and the live control plane
//!   (`load_model`/`unload_model` mutate the hosted catalog without a
//!   restart);
//! * [`reactor`] — the non-blocking TCP front door: N epoll reactor
//!   threads (one by default), each with its own `SO_REUSEPORT`
//!   listener, connection table, and wakeup, multiplex thousands of
//!   connections with per-connection back-pressure, so idle clients
//!   cost buffers instead of threads; any [`reactor::Frontend`] can sit
//!   behind it, and [`reactor::serve_lines`] drives the same
//!   `Frontend` over a blocking line stream (the `serve` binary's stdio
//!   mode), so every verb has one dispatcher whichever transport
//!   carries it;
//! * [`shard`] — horizontal scale-out: a consistent-hash ring routing
//!   trace keys across N serve processes, and the [`shard::ShardProxy`]
//!   frontend the `atlas-shard` binary serves (warm-start cache
//!   snapshots live in [`service`]:
//!   [`AtlasService::snapshot_cache`](service::AtlasService::snapshot_cache) /
//!   [`AtlasService::restore_cache`](service::AtlasService::restore_cache));
//! * [`protocol`] — the JSON-lines request/response wire format spoken
//!   over stdin/stdout or TCP by the `serve` binary: the `predict`,
//!   `predict_delta`, `sweep`, `stats`, `models`, `load_model`,
//!   `unload_model`, `register_workload`, `workloads`, `load_design`,
//!   and `shard_map` verbs (full reference in `docs/PROTOCOL.md`);
//! * [`error`] — typed errors ([`ServeError`]) replacing the panics of
//!   the batch drivers.
//!
//! The architecture document `docs/ARCHITECTURE.md` walks one request
//! through every layer listed above.
//!
//! # Quick start
//!
//! ```no_run
//! use atlas_core::pipeline::{train_atlas, ExperimentConfig};
//! use atlas_serve::{AtlasService, ModelRegistry, PredictRequest, ServiceConfig};
//!
//! let cfg = ExperimentConfig::quick();
//! let trained = train_atlas(&cfg);
//!
//! // Persist, reload, serve.
//! let registry = ModelRegistry::open("target/registry").unwrap();
//! registry.save("quick", &trained.model, &cfg).unwrap();
//! let saved = registry.load("quick").unwrap();
//! let service = AtlasService::start(saved, ServiceConfig::default());
//!
//! let response = service.call(PredictRequest::new("C2", "W1", 64)).unwrap();
//! println!("mean total: {:.3} W (cache hit: {})", response.mean_total_w, response.cache_hit);
//! ```
//!
//! # Hosting several models
//!
//! ```no_run
//! use atlas_serve::{AtlasService, ModelCatalog, ModelRegistry, PredictRequest, ServiceConfig};
//!
//! let registry = ModelRegistry::open("target/registry").unwrap();
//! let mut catalog = ModelCatalog::new();
//! catalog.load_spec(&registry, "stable=quick").unwrap();
//! catalog.load_spec(&registry, "canary=quick-v2").unwrap();
//! let service = AtlasService::start_catalog(catalog, ServiceConfig::default()).unwrap();
//!
//! // Requests route by name; without one they go to the default model.
//! let canary = service
//!     .call(PredictRequest::new("C2", "W1", 64).on_model("canary"))
//!     .unwrap();
//! assert_eq!(canary.model, "canary");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod protocol;
pub mod quota;
pub mod reactor;
pub mod registry;
pub mod service;
pub mod shard;

pub use cache::{CacheStats, LruCache};
pub use error::ServeError;
pub use protocol::{
    DeltaBase, ErrorResponse, GroupSummary, LoadDesignRequest, LoadDesignResponse,
    LoadModelRequest, LoadModelResponse, ModelsResponse, PredictDeltaRequest, PredictDeltaResponse,
    PredictRequest, PredictResponse, RegisterWorkloadRequest, RegisterWorkloadResponse,
    RequestLine, ShardInfo, ShardMapResponse, StatsResponse, SweepItem, SweepRequest,
    UnloadModelRequest, UnloadModelResponse, WorkloadsResponse,
};
pub use quota::{Admission, QuotaGate};
pub use reactor::{Frontend, ReactorConfig, ReactorPool, ReactorStats};
pub use registry::{ModelCatalog, ModelRegistry, RegistryError, SavedModel, FORMAT_VERSION};
pub use service::{
    parse_workload_journal, render_journal_entry, AtlasService, DeltaReply, DesignInfo, ModelInfo,
    ModelStats, RegisteredWorkload, Reply, ServiceConfig, SnapshotRestoreReport,
    WorkloadJournalEntry, SNAPSHOT_FORMAT_VERSION,
};
pub use shard::{trace_route_key, ShardProxy, ShardRing};
