//! Load generator for the prediction service: measures cold-start vs
//! cache-hit latency, warm throughput, reactor behavior under idle
//! connections, and single-flight deduplication, writing
//! `BENCH_serve.json`.
//!
//! ```text
//! serve_bench [--out PATH] [--scale F] [--train-cycles N] [--cycles N]
//!             [--clients N] [--repeat N] [--idle-conns N] [--dup-clients N]
//!             [--storm-clients N]
//! ```
//!
//! The bench trains a small model, starts an in-process service, then
//! runs nine scenarios:
//!
//! * **cold** — every (design, workload) pair of the unseen test designs
//!   on an empty cache (each request pays design generation, simulation,
//!   encoder forwards and the GBDT heads), repeated over
//!   `COLD_TRIALS` fresh services so the rollup's median, min and max
//!   come from 20 samples, not 4;
//! * **warm** — `--repeat` rounds fired from `--clients` concurrent
//!   client threads (every request is a cache hit: a lookup of the
//!   cached watts plus rendering);
//! * **idle** — an epoll reactor serving the same service over TCP with
//!   `--idle-conns` parked connections; warm requests through one active
//!   connection measure whether idle sockets tax the serving path, and
//!   the process thread count is sampled to prove they cost no threads;
//! * **dupkey** — `--dup-clients` concurrent cold requests for one
//!   never-seen key; single-flight must collapse them into exactly one
//!   embedding computation;
//! * **regwl** — a schedule registered once via the workload library,
//!   then referenced by name for `--repeat` requests; all but the first
//!   must be cache hits;
//! * **multimodel** — one model hosted under two serving names; a
//!   name-addressed request must answer bit-identically to the
//!   default-addressed one, and each model must account its cache
//!   occupancy separately;
//! * **reload** — a model file hot-loaded and unloaded in a loop while
//!   warm traffic runs on the default model; the churn must answer zero
//!   errors on the stable model, the loaded copy must answer
//!   bit-identically, and the unloaded name must yield a structured
//!   `unknown_model` error;
//! * **quota-storm** — `--storm-clients` clients hammer distinct cold
//!   keys on a quota-1 model while another model's warm p50 is measured;
//!   the victim's p50 must stay within 3x of its idle p50 (gated here
//!   and in `scripts/check_bench.rs`);
//! * **shard-scaleout** — a working set sized to thrash one shard's
//!   embedding-cache budget is served through the consistent-hash shard
//!   proxy against one, then two, shard processes of the shipped
//!   `serve` binary (found next to this one, so build it first).
//!   Routing by trace key makes the per-shard caches additive, so the
//!   two-shard fleet turns the single shard's recompute churn into cache
//!   hits and must clear ≥1.6x its throughput. One shard is then drained
//!   by SIGTERM (it writes its cache snapshot and must exit 0) and
//!   restarted from the snapshot; its first warm round must be all cache
//!   hits with **zero** embeddings recomputed and bit-identical answers,
//!   and its restored warm p50 must stay within 2x of the steady warm
//!   p50 (gated here and in `scripts/check_bench.rs --shard`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use atlas_core::pipeline::{train_atlas, ExperimentConfig};
use atlas_serve::reactor::{ReactorConfig, ReactorPool};
use atlas_serve::shard::{trace_route_key, ShardProxy, ShardRing};
use atlas_serve::{
    AtlasService, DeltaBase, ModelCatalog, ModelRegistry, PredictDeltaRequest, PredictRequest,
    PredictResponse, ServeError, ServiceConfig, ShardInfo, StatsResponse,
};
use atlas_sim::WorkloadPhase;
use serde::Serialize;

struct Args {
    out: String,
    scale: f64,
    train_cycles: usize,
    cycles: usize,
    clients: usize,
    repeat: usize,
    idle_conns: usize,
    dup_clients: usize,
    storm_clients: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_serve.json".into(),
        scale: 0.2,
        train_cycles: 48,
        cycles: 32,
        clients: 4,
        repeat: 8,
        idle_conns: 512,
        dup_clients: 8,
        storm_clients: 6,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--out" => args.out = value("--out")?,
            "--scale" => args.scale = value("--scale")?.parse().map_err(|e| format!("{e}"))?,
            "--train-cycles" => {
                args.train_cycles = value("--train-cycles")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--cycles" => args.cycles = value("--cycles")?.parse().map_err(|e| format!("{e}"))?,
            "--clients" => {
                args.clients = value("--clients")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--repeat" => args.repeat = value("--repeat")?.parse().map_err(|e| format!("{e}"))?,
            "--idle-conns" => {
                args.idle_conns = value("--idle-conns")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--dup-clients" => {
                args.dup_clients = value("--dup-clients")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--storm-clients" => {
                args.storm_clients = value("--storm-clients")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.clients == 0 || args.repeat == 0 || args.cycles == 0 || args.dup_clients == 0 {
        return Err("--clients, --repeat, --cycles, and --dup-clients must be positive".into());
    }
    Ok(args)
}

/// Cold passes over every key, each on a fresh service, pooled into the
/// `cold` rollup: with 4 keys a single pass would make its p95 its max.
const COLD_TRIALS: usize = 5;

/// Latency rollup of one phase, milliseconds.
#[derive(Debug, Clone, Serialize)]
struct Phase {
    requests: usize,
    mean_ms: f64,
    min_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    max_ms: f64,
    wall_s: f64,
    throughput_rps: f64,
}

fn phase(mut latencies_ms: Vec<f64>, wall_s: f64) -> Phase {
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let n = latencies_ms.len();
    assert!(n > 0, "phase() needs at least one latency sample");
    let pct = |p: f64| latencies_ms[((n as f64 * p) as usize).min(n - 1)];
    Phase {
        requests: n,
        mean_ms: latencies_ms.iter().sum::<f64>() / n as f64,
        min_ms: latencies_ms[0],
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        max_ms: latencies_ms[n - 1],
        wall_s,
        throughput_rps: n as f64 / wall_s.max(1e-9),
    }
}

/// The idle-connection scenario: reactor behavior with parked sockets.
#[derive(Debug, Serialize)]
struct IdleScenario {
    /// Idle connections parked on the reactor for the whole phase.
    connections: usize,
    /// OS threads this process gained while those connections were open
    /// (must be 0: connections cost buffers, not threads).
    thread_delta: i64,
    /// Round-trip latency of warm requests through one active
    /// connection while every idle connection stayed parked.
    active: Phase,
}

/// The duplicate-key scenario: single-flight under concurrent cold load.
#[derive(Debug, Serialize)]
struct DupKeyScenario {
    /// Concurrent clients all requesting the same cold key.
    clients: usize,
    /// Embeddings actually computed (single-flight target: exactly 1).
    embeddings_computed: u64,
    /// Requests that waited on the in-flight computation.
    coalesced: u64,
    /// Requests that arrived after completion and hit the cache.
    cache_hits: u64,
    /// Per-request latency (leader pays the pipeline; followers the wait).
    latency: Phase,
}

/// The registered-workload scenario: one `register_workload`, many
/// `workload_name` uses.
#[derive(Debug, Serialize)]
struct RegisteredWorkloadScenario {
    /// Requests referencing the registered name.
    requests: usize,
    /// Cold pipelines run for them (target: exactly 1).
    embeddings_computed: u64,
    /// Requests answered from the embedding cache.
    cache_hits: u64,
    /// Per-request latency (first request pays the pipeline).
    latency: Phase,
}

/// One model's cache occupancy in the multi-model scenario.
#[derive(Debug, Serialize)]
struct ModelOccupancy {
    model: String,
    requests: u64,
    embeddings_computed: u64,
    embedding_cache_len: usize,
    embedding_cache_bytes: usize,
}

/// The multi-model scenario: one trained model hosted under two names.
#[derive(Debug, Serialize)]
struct MultiModelScenario {
    /// Hosted models.
    models: usize,
    /// Whether the name-addressed answer was bit-identical to the
    /// default-addressed one (must be true).
    name_addressed_parity: bool,
    /// Whether addressing the default model by name hit the cache the
    /// default-addressed request populated (must be true: one cache per
    /// model, shared across both addressing modes).
    named_route_shares_cache: bool,
    /// Per-model cache accounting after the scenario.
    per_model: Vec<ModelOccupancy>,
}

/// The hot-reload scenario: load/unload churn under live traffic.
#[derive(Debug, Serialize)]
struct ReloadScenario {
    /// Load → unload cycles completed while traffic ran.
    reload_cycles: u64,
    /// Warm requests answered on the default model during the churn.
    requests_during_churn: usize,
    /// Errors among them (gate: must be 0 — reloads never disturb other
    /// models' traffic).
    errors_during_churn: usize,
    /// Whether a hot-loaded copy of the same weights answered
    /// bit-identically to the default model (gate: must be true).
    loaded_model_parity: bool,
    /// Whether predicting on the unloaded name produced a structured
    /// `unknown_model` error (gate: must be true).
    unknown_after_unload: bool,
    /// Latency of the default-model warm traffic during the churn.
    during_churn: Phase,
}

/// The quota-storm scenario: one model's cold storm must not starve
/// another model's warm traffic.
#[derive(Debug, Serialize)]
struct QuotaStormScenario {
    /// Workers of the dedicated two-model service.
    workers: usize,
    /// Explicit cold-compute quota of the storm model.
    storm_quota: usize,
    /// Concurrent storm clients issuing distinct cold keys.
    storm_clients: usize,
    /// Victim warm p50 with no storm running (client-observed,
    /// includes queue wait).
    victim_idle_p50_ms: f64,
    /// Victim warm p50 while the storm saturates its quota.
    victim_storm_p50_ms: f64,
    /// `victim_storm_p50_ms / victim_idle_p50_ms` — gated ≤ 3x by
    /// `scripts/check_bench.rs`.
    p50_ratio: f64,
    /// Storm requests parked behind the saturated quota (must be > 0:
    /// proof the storm actually saturated).
    storm_queued: u64,
    /// Storm requests rejected at the parking bound.
    storm_rejected: u64,
    /// Cold pipelines the storm model ran.
    storm_embeddings_computed: u64,
}

/// Minimum `full p50 / delta p50` ratio the edit-loop scenario must
/// deliver. Mirrored by `DELTA_SPEEDUP_FLOOR` in `scripts/check_bench.rs`.
const DELTA_SPEEDUP_FLOOR: f64 = 2.0;

/// The edit-loop scenario: an interactive what-if session editing one
/// sub-module of an uploaded design. Every revision is predicted twice —
/// as a cold full `predict` and as a `predict_delta` against the
/// unedited base — and the incremental path must be bit-identical and at
/// least [`DELTA_SPEEDUP_FLOOR`]x faster at p50.
#[derive(Debug, Serialize)]
struct EditLoopScenario {
    /// Sub-modules in the uploaded design (the edit dirties exactly one).
    submodules: usize,
    /// Edited revisions measured on each path.
    edits: usize,
    /// Cold full-recompute `predict` per revision.
    full: Phase,
    /// `predict_delta` per revision, base = the unedited design's trace.
    delta: Phase,
    /// `full.p50_ms / delta.p50_ms` — gated ≥ [`DELTA_SPEEDUP_FLOOR`]
    /// here and in `scripts/check_bench.rs`.
    delta_speedup: f64,
    /// Every delta found its base trace warm.
    base_hit: bool,
    /// (sub-module × cycle) items donated by the base across all deltas.
    reused_cycles: u64,
    /// Items recomputed across all deltas (the edited sub-module).
    recomputed_cycles: u64,
    /// Every delta answer was bit-identical to the full recompute of the
    /// same revision.
    parity: bool,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    /// ISA features detected on the machine that produced this report
    /// (e.g. `avx2+fma`), for reading baselines across machine classes.
    isa: String,
    /// Matmul kernel variant the f64 path dispatched to (`avx2`/`scalar`).
    kernel: String,
    scale: f64,
    cycles: usize,
    clients: usize,
    train_s: f64,
    /// Fresh-service cold passes pooled into `cold`.
    cold_trials: usize,
    cold: Phase,
    warm: Phase,
    cold_over_warm_speedup: f64,
    cache_hit_latency_below_cold: bool,
    embedding_cache_hits: u64,
    embedding_cache_misses: u64,
    embedding_cache_bytes: usize,
    embedding_cache_budget_bytes: usize,
    idle: IdleScenario,
    dupkey: DupKeyScenario,
    regwl: RegisteredWorkloadScenario,
    multimodel: MultiModelScenario,
    reload: ReloadScenario,
    quota_storm: QuotaStormScenario,
    edit_loop: EditLoopScenario,
    shard_scaleout: ShardScaleoutScenario,
}

/// Current thread count of this process, from /proc (Linux).
fn os_threads() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Send one request line over TCP and wait for its response line.
fn roundtrip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &PredictRequest,
) -> Result<PredictResponse, String> {
    let mut line = serde_json::to_string(request).map_err(|e| e.to_string())?;
    line.push('\n');
    writer
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    serde_json::from_str(&reply).map_err(|e| format!("bad response `{}`: {e}", reply.trim()))
}

fn run_idle_scenario(
    service: &Arc<AtlasService>,
    keys: &[PredictRequest],
    idle_conns: usize,
    repeat: usize,
) -> Result<IdleScenario, String> {
    let frontend: Arc<AtlasService> = Arc::clone(service);
    let reactor = ReactorPool::spawn(
        frontend,
        "127.0.0.1:0",
        ReactorConfig {
            max_connections: idle_conns + 16,
            ..ReactorConfig::default()
        },
        1,
    )
    .map_err(|e| format!("spawn reactor: {e}"))?;
    let addr = reactor.addr();

    // The reactor thread is up; every thread from here on would be a bug.
    let threads_before = os_threads().unwrap_or(0);
    let idle: Vec<TcpStream> = (0..idle_conns)
        .map(|_| TcpStream::connect(addr))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("idle connect: {e}"))?;
    // Wait until the reactor has admitted them all.
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while (reactor.stats().active as usize) < idle_conns {
        if Instant::now() > deadline {
            return Err(format!(
                "reactor admitted only {} of {idle_conns} idle connections",
                reactor.stats().active
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let threads_after = os_threads().unwrap_or(0);

    // Warm requests through one active connection while all the idle
    // connections stay parked.
    let mut writer = TcpStream::connect(addr).map_err(|e| format!("active connect: {e}"))?;
    let _ = writer.set_nodelay(true);
    let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
    let t0 = Instant::now();
    let mut lat = Vec::new();
    for round in 0..repeat.max(1) {
        for (k, key) in keys.iter().enumerate() {
            let t = Instant::now();
            let resp = roundtrip(&mut writer, &mut reader, key)?;
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            if round == 0 && k == 0 && !resp.cache_hit {
                return Err("idle scenario expects a pre-warmed cache".into());
            }
        }
    }
    let active = phase(lat, t0.elapsed().as_secs_f64());

    drop(idle);
    reactor.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(IdleScenario {
        connections: idle_conns,
        thread_delta: threads_after - threads_before,
        active,
    })
}

fn run_dupkey_scenario(
    service: &Arc<AtlasService>,
    cycles: usize,
    clients: usize,
) -> Result<DupKeyScenario, String> {
    // C6 is a training design never touched by the cold/warm passes, so
    // this key is guaranteed cold.
    let request = PredictRequest::new("C6", "W1", cycles);
    let before = service.stats();
    let barrier = Barrier::new(clients);
    let t0 = Instant::now();
    let lat: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let service = Arc::clone(service);
                let barrier = &barrier;
                let request = request.clone();
                scope.spawn(move || {
                    barrier.wait();
                    let t = Instant::now();
                    service
                        .call(request)
                        .map(|_| t.elapsed().as_secs_f64() * 1e3)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("dupkey client"))
            .collect::<Result<_, _>>()
    })
    .map_err(|e| format!("dupkey request failed: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    let after = service.stats();
    Ok(DupKeyScenario {
        clients,
        embeddings_computed: after.embeddings_computed - before.embeddings_computed,
        coalesced: after.coalesced_requests - before.coalesced_requests,
        cache_hits: after.embedding_cache.hits - before.embedding_cache.hits,
        latency: phase(lat, wall),
    })
}

/// The registered-workload scenario: register a schedule once, then
/// reference it by name; every use after the first must hit the cache.
fn run_regwl_scenario(
    service: &Arc<AtlasService>,
    cycles: usize,
    repeat: usize,
) -> Result<RegisteredWorkloadScenario, String> {
    let phases = vec![
        WorkloadPhase {
            activity: 0.55,
            min_len: 3,
            max_len: 9,
        },
        WorkloadPhase {
            activity: 0.04,
            min_len: 8,
            max_len: 20,
        },
    ];
    service
        .register_workload("bench-bursty", phases)
        .map_err(|e| format!("register_workload: {e}"))?;
    let before = service.stats();
    let requests = repeat.max(2);
    let mut lat = Vec::new();
    let t0 = Instant::now();
    for i in 0..requests {
        // C4 keeps this key disjoint from the dupkey scenario's C6.
        let resp = service
            .call(PredictRequest::with_workload_name(
                "C4",
                "bench-bursty",
                cycles,
            ))
            .map_err(|e| format!("registered request: {e}"))?;
        lat.push(resp.latency_ms);
        if i > 0 && !resp.cache_hit {
            return Err(format!(
                "request {i} for a registered name missed the cache"
            ));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let after = service.stats();
    Ok(RegisteredWorkloadScenario {
        requests,
        embeddings_computed: after.embeddings_computed - before.embeddings_computed,
        cache_hits: after.embedding_cache.hits - before.embedding_cache.hits,
        latency: phase(lat, wall),
    })
}

/// The multi-model scenario: the same weights hosted under two serving
/// names; routing must be bit-identical and cache accounting per-model.
fn run_multimodel_scenario(
    model: &atlas_core::AtlasModel,
    cfg: &ExperimentConfig,
    cycles: usize,
) -> Result<MultiModelScenario, String> {
    let mut catalog = ModelCatalog::new();
    catalog
        .insert_model("stable", model.clone(), cfg.clone())
        .map_err(|e| format!("catalog: {e}"))?;
    catalog
        .insert_model("canary", model.clone(), cfg.clone())
        .map_err(|e| format!("catalog: {e}"))?;
    let service = AtlasService::start_catalog(
        catalog,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| format!("start_catalog: {e}"))?;

    let req = PredictRequest::new("C2", "W1", cycles);
    let implicit = service
        .call(req.clone())
        .map_err(|e| format!("default-addressed: {e}"))?;
    let explicit = service
        .call(req.clone().on_model("stable"))
        .map_err(|e| format!("name-addressed: {e}"))?;
    let canary = service
        .call(req.on_model("canary"))
        .map_err(|e| format!("canary-addressed: {e}"))?;

    let stats = service.stats();
    Ok(MultiModelScenario {
        models: stats.models.len(),
        name_addressed_parity: explicit.per_cycle_total_w == implicit.per_cycle_total_w
            && canary.per_cycle_total_w == implicit.per_cycle_total_w,
        named_route_shares_cache: explicit.cache_hit && !canary.cache_hit,
        per_model: stats
            .models
            .iter()
            .map(|m| ModelOccupancy {
                model: m.model.clone(),
                requests: m.requests,
                embeddings_computed: m.embeddings_computed,
                embedding_cache_len: m.embedding_cache.len,
                embedding_cache_bytes: m.embedding_cache.weight,
            })
            .collect(),
    })
}

/// The hot-reload scenario: a model file is loaded and unloaded in a
/// tight loop while warm traffic runs on the default model; reload churn
/// must never disturb it, and the control-plane semantics (parity,
/// structured unknown_model after unload) must hold.
fn run_reload_scenario(
    service: &Arc<AtlasService>,
    model: &atlas_core::AtlasModel,
    cfg: &ExperimentConfig,
    cycles: usize,
    repeat: usize,
) -> Result<ReloadScenario, String> {
    let dir = std::env::temp_dir().join(format!("atlas-serve-bench-{}", std::process::id()));
    let registry = ModelRegistry::open(&dir).map_err(|e| format!("bench registry: {e}"))?;
    let path = registry
        .save("bench-hot", model, cfg)
        .map_err(|e| format!("save bench model: {e}"))?;

    // Semantics first: load, check parity against the (warm) default
    // model, unload, check the structured error.
    service
        .load_model_file("bench-hot", &path)
        .map_err(|e| format!("hot load: {e}"))?;
    let base = service
        .call(PredictRequest::new("C2", "W1", cycles))
        .map_err(|e| format!("default-model request: {e}"))?;
    let hot = service
        .call(PredictRequest::new("C2", "W1", cycles).on_model("bench-hot"))
        .map_err(|e| format!("loaded-model request: {e}"))?;
    let loaded_model_parity = hot.per_cycle_total_w == base.per_cycle_total_w;
    service
        .unload_model("bench-hot")
        .map_err(|e| format!("unload: {e}"))?;
    let unknown_after_unload = matches!(
        service.call(PredictRequest::new("C2", "W1", cycles).on_model("bench-hot")),
        Err(ServeError::UnknownModel(_))
    );

    // Churn while measuring the default model's warm traffic.
    let stop = AtomicBool::new(false);
    let requests = (repeat * 8).max(64);
    let (reload_cycles, errors, lat, wall_s) = std::thread::scope(|scope| {
        let churner = {
            let service = Arc::clone(service);
            let stop = &stop;
            let path = path.clone();
            scope.spawn(move || {
                let mut cycles = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if service.load_model_file("bench-hot", &path).is_ok()
                        && service.unload_model("bench-hot").is_ok()
                    {
                        cycles += 1;
                    }
                }
                cycles
            })
        };
        let mut lat = Vec::with_capacity(requests);
        let mut errors = 0usize;
        let t0 = Instant::now();
        for _ in 0..requests {
            let t = Instant::now();
            match service.call(PredictRequest::new("C2", "W1", cycles)) {
                Ok(_) => lat.push(t.elapsed().as_secs_f64() * 1e3),
                Err(_) => errors += 1,
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let reload_cycles = churner.join().expect("churn thread");
        (reload_cycles, errors, lat, wall_s)
    });

    let _ = std::fs::remove_dir_all(&dir);
    Ok(ReloadScenario {
        reload_cycles,
        requests_during_churn: requests,
        errors_during_churn: errors,
        loaded_model_parity,
        unknown_after_unload,
        during_churn: phase(lat, wall_s),
    })
}

/// The quota-storm scenario: a dedicated two-model service where storm
/// clients hammer distinct cold keys on one model (quota 1) while the
/// victim model's warm p50 is measured; the quota must keep it near its
/// idle latency.
fn run_quota_storm_scenario(
    model: &atlas_core::AtlasModel,
    cfg: &ExperimentConfig,
    cycles: usize,
    storm_clients: usize,
) -> Result<QuotaStormScenario, String> {
    let workers = 4;
    let storm_quota = 1;
    let mut catalog = ModelCatalog::new();
    catalog
        .insert_model("victim", model.clone(), cfg.clone())
        .map_err(|e| format!("catalog: {e}"))?;
    catalog
        .insert_model("storm", model.clone(), cfg.clone())
        .map_err(|e| format!("catalog: {e}"))?;
    let service = Arc::new(
        AtlasService::start_catalog(
            catalog,
            ServiceConfig {
                workers,
                model_quotas: [("storm".to_owned(), storm_quota)].into_iter().collect(),
                ..ServiceConfig::default()
            },
        )
        .map_err(|e| format!("start_catalog: {e}"))?,
    );

    // Client-observed latency (includes queue wait — exactly what a
    // starved victim would pay; the server-side latency_ms field does
    // not see the queue).
    let victim_req = PredictRequest::new("C2", "W1", cycles).on_model("victim");
    let p50 = |service: &AtlasService, n: usize| -> Result<f64, String> {
        let mut lat = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            service
                .call(victim_req.clone())
                .map_err(|e| format!("victim request: {e}"))?;
            lat.push(t.elapsed().as_secs_f64() * 1e3);
        }
        lat.sort_by(|a, b| a.total_cmp(b));
        Ok(lat[lat.len() / 2])
    };
    service
        .call(victim_req.clone())
        .map_err(|e| format!("victim warm-up: {e}"))?;
    let victim_idle_p50_ms = p50(&service, 100)?;

    let stop = AtomicBool::new(false);
    let victim_storm_p50_ms = std::thread::scope(|scope| -> Result<f64, String> {
        for client in 0..storm_clients as u64 {
            let service = Arc::clone(&service);
            let stop = &stop;
            let clients = storm_clients as u64;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Distinct cycles per (client, iteration): every
                    // request is a fresh cold key, nothing coalesces.
                    let storm_cycles = 16 + ((client + clients * i) % 256) as usize;
                    let reply = service
                        .call(PredictRequest::new("C4", "W2", storm_cycles).on_model("storm"));
                    assert!(
                        matches!(reply, Ok(_) | Err(ServeError::QuotaExceeded(_))),
                        "storm replies must be completions or quota rejections: {reply:?}"
                    );
                    i += 1;
                }
            });
        }
        // Wait until the storm has actually saturated its quota.
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let stats = service.stats();
            let storm = stats
                .models
                .iter()
                .find(|m| m.model == "storm")
                .expect("storm model stats");
            if storm.queued > 0 {
                break;
            }
            if Instant::now() > deadline {
                stop.store(true, Ordering::Relaxed);
                return Err("storm never saturated its quota".into());
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let p50 = p50(&service, 200);
        stop.store(true, Ordering::Relaxed);
        p50
    })?;

    let stats = service.stats();
    let storm = stats
        .models
        .iter()
        .find(|m| m.model == "storm")
        .expect("storm model stats");
    Ok(QuotaStormScenario {
        workers,
        storm_quota,
        storm_clients,
        victim_idle_p50_ms,
        victim_storm_p50_ms,
        p50_ratio: victim_storm_p50_ms / victim_idle_p50_ms.max(1e-9),
        storm_queued: storm.queued,
        storm_rejected: storm.rejected_quota,
        storm_embeddings_computed: storm.embeddings_computed,
    })
}

/// An uploaded design shaped like an edit loop's subject: `submodules`
/// identical blocks fed only from shared primary inputs — no
/// inter-submodule wiring, so editing one block can never dirty another
/// block's toggle patterns. `variant` 0 is the base; `variant` v > 0
/// appends a v-cell inverter tail inside the LAST block only, i.e. a
/// 1-sub-module edit with every other block provably unchanged.
fn build_edit_design(submodules: usize, variant: usize) -> Result<atlas_netlist::Design, String> {
    use atlas_liberty::{CellClass, Drive};
    let fail = |e: atlas_netlist::BuildError| format!("edit design: {e}");
    let mut b = atlas_netlist::NetlistBuilder::new("editloop");
    let pis = b.add_inputs(8);
    for s in 0..submodules {
        let sm = b.add_submodule(format!("top.u{s}"), "block");
        // A register rank mixing the shared PIs...
        let mut regs = Vec::new();
        for (i, &pi) in pis.iter().enumerate() {
            let class = if i % 2 == 0 {
                CellClass::Xor2
            } else {
                CellClass::Nand2
            };
            let mixed = b
                .add_cell(class, Drive::X1, &[pi, pis[(i + 1) % pis.len()]], sm)
                .map_err(fail)?;
            regs.push(b.add_dff(mixed, sm).map_err(fail)?);
        }
        // ...fanned out three ways per register so each block carries
        // enough cells for the encoder forward to dominate its cost...
        let mut layer = Vec::new();
        for (i, &q) in regs.iter().enumerate() {
            let peer = regs[(i + 3) % regs.len()];
            layer.push(
                b.add_cell(CellClass::And2, Drive::X1, &[q, peer], sm)
                    .map_err(fail)?,
            );
            layer.push(
                b.add_cell(CellClass::Or2, Drive::X1, &[q, peer], sm)
                    .map_err(fail)?,
            );
            layer.push(
                b.add_cell(CellClass::Xor2, Drive::X1, &[q, peer], sm)
                    .map_err(fail)?,
            );
        }
        // ...reduced to one output by alternating-class pair trees.
        let mut depth = 0;
        while layer.len() > 1 {
            let class = match depth % 3 {
                0 => CellClass::Nand2,
                1 => CellClass::Nor2,
                _ => CellClass::Xnor2,
            };
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    b.add_cell(class, Drive::X1, &[pair[0], pair[1]], sm)
                        .map_err(fail)?
                } else {
                    pair[0]
                });
            }
            layer = next;
            depth += 1;
        }
        let mut out = layer[0];
        if variant > 0 && s == submodules - 1 {
            for _ in 0..variant {
                out = b
                    .add_cell(CellClass::Inv, Drive::X1, &[out], sm)
                    .map_err(fail)?;
            }
        }
        b.mark_output(out);
    }
    b.finish().map_err(|e| format!("edit design: {e}"))
}

/// The edit-loop scenario: upload a base design, warm its trace once,
/// then predict a stream of 1-sub-module revisions both ways — cold full
/// `predict` vs `predict_delta` reusing the base's clean items.
fn run_edit_loop_scenario(
    model: &atlas_core::AtlasModel,
    cfg: &ExperimentConfig,
    cycles: usize,
    edits: usize,
) -> Result<EditLoopScenario, String> {
    const SUBMODULES: usize = 8;
    let edits = edits.max(2);
    let service = AtlasService::start_with(
        model.clone(),
        cfg.clone(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let upload = |name: &str, variant: usize| -> Result<(), String> {
        let design = build_edit_design(SUBMODULES, variant)?;
        service
            .load_design(name, &design.to_verilog())
            .map_err(|e| format!("load_design {name}: {e}"))?;
        Ok(())
    };
    // Each revision is uploaded twice under distinct names so the full
    // pass and the delta pass each see a cold trace key for identical
    // content; ingestion happens up front because it is not what this
    // scenario measures.
    upload("edit-v0", 0)?;
    for r in 1..=edits {
        upload(&format!("edit-full-{r}"), r)?;
        upload(&format!("edit-delta-{r}"), r)?;
    }
    // Warm the base trace the whole loop will reuse (not timed).
    service
        .call(PredictRequest::new("edit-v0", "W1", cycles))
        .map_err(|e| format!("base predict: {e}"))?;

    // Full-recompute path: a cold `predict` per revision.
    let mut full_lat = Vec::new();
    let mut references = Vec::new();
    let t0 = Instant::now();
    for r in 1..=edits {
        let resp = service
            .call(PredictRequest::new(format!("edit-full-{r}"), "W1", cycles))
            .map_err(|e| format!("full predict {r}: {e}"))?;
        if resp.cache_hit {
            return Err(format!("full predict {r} unexpectedly hit the cache"));
        }
        full_lat.push(resp.latency_ms);
        references.push(resp);
    }
    let full = phase(full_lat, t0.elapsed().as_secs_f64());

    // Incremental path: `predict_delta` against the v0 base.
    let mut delta_lat = Vec::new();
    let mut base_hit = true;
    let mut parity = true;
    let mut reused_cycles = 0u64;
    let mut recomputed_cycles = 0u64;
    let t1 = Instant::now();
    for r in 1..=edits {
        let resp = service
            .call_delta(PredictDeltaRequest {
                id: None,
                model: None,
                design: format!("edit-delta-{r}"),
                workload: Some("W1".to_owned()),
                workload_name: None,
                cycles,
                phases: None,
                base: Some(DeltaBase {
                    design: Some("edit-v0".to_owned()),
                    workload: None,
                    workload_name: None,
                    cycles: None,
                    phases: None,
                }),
                changed_submodules: Some(vec![SUBMODULES - 1]),
            })
            .map_err(|e| format!("delta predict {r}: {e}"))?;
        if resp.cache_hit {
            return Err(format!("delta predict {r} unexpectedly hit the cache"));
        }
        base_hit &= resp.base_hit;
        reused_cycles += resp.reused_cycles as u64;
        recomputed_cycles += resp.recomputed_cycles as u64;
        let reference = &references[r - 1];
        parity &= resp.per_cycle_total_w == reference.per_cycle_total_w
            && resp.mean_total_w == reference.mean_total_w
            && resp.peak_total_w == reference.peak_total_w;
        delta_lat.push(resp.latency_ms);
    }
    let delta = phase(delta_lat, t1.elapsed().as_secs_f64());
    Ok(EditLoopScenario {
        submodules: SUBMODULES,
        edits,
        delta_speedup: full.p50_ms / delta.p50_ms.max(1e-9),
        full,
        delta,
        base_hit,
        reused_cycles,
        recomputed_cycles,
        parity,
    })
}

/// The shard-scaleout scenario: serving a cache-thrashing working set
/// through the consistent-hash proxy, one shard vs two, then a
/// drain-snapshot-restart round trip on one shard.
#[derive(Debug, Serialize)]
struct ShardScaleoutScenario {
    /// Shard processes in the scaled-out fleet.
    shards: usize,
    /// Distinct trace keys in the working set.
    keys: usize,
    /// Embedding-cache byte budget of each shard process: one key more
    /// than the larger per-shard subset, so each shard fits its share
    /// of the ring but one shard cannot fit the whole working set.
    cache_budget_bytes_per_shard: usize,
    /// Exact bytes of all working-set embeddings together.
    working_set_bytes: usize,
    /// The whole working set through the proxy over one shard (its LRU
    /// thrashes: most requests recompute).
    single_shard: Phase,
    /// The same traffic through the proxy over two shards (each holds
    /// its ring share: requests hit).
    dual_shard: Phase,
    /// `dual_shard.throughput_rps / single_shard.throughput_rps` —
    /// gated ≥ 1.6x by `scripts/check_bench.rs --shard`.
    scaleout: f64,
    /// Entries the drained shard wrote to its cache snapshot (must equal
    /// its share of the working set).
    snapshot_entries: usize,
    /// Whether every first-round request to the restarted shard hit the
    /// restored cache (gate: must be true).
    restored_first_round_all_hits: bool,
    /// Cold pipelines the restarted shard ran for that first warm round
    /// (gate: must be 0 — the snapshot made it warm).
    restored_embeddings_computed: u64,
    /// Shard id the restarted process reports in its own `stats` verb.
    restored_shard_id: Option<u32>,
    /// Whether the restarted shard's answers were bit-identical to the
    /// pre-restart answers (gate: must be true).
    restored_parity: bool,
    /// Warm p50 of the drained shard's keys before the restart.
    steady_warm_p50_ms: f64,
    /// Warm p50 of the same keys after restarting from the snapshot.
    restored_warm_p50_ms: f64,
    /// `restored_warm_p50_ms / steady_warm_p50_ms` — gated ≤ 2x by
    /// `scripts/check_bench.rs --shard`.
    restored_p50_ratio: f64,
}

/// One shard: a child process of the shipped `serve` binary and its
/// listen address.
struct ShardChild {
    child: Child,
    /// The rest of the shard's stderr, relayed at shutdown.
    log: BufReader<ChildStderr>,
    info: ShardInfo,
}

impl ShardChild {
    /// Send the shard SIGTERM and wait for it to drain, write its cache
    /// snapshot and exit 0.
    fn shutdown(mut self) -> Result<(), String> {
        // SAFETY: the pid is our own unreaped child, so it cannot have
        // been recycled.
        unsafe { kill(self.child.id() as i32, SIGTERM) };
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait shard {}: {e}", self.info.id))?;
        let mut log = String::new();
        let _ = self.log.read_to_string(&mut log);
        for line in log.lines() {
            eprintln!("shard {}: {line}", self.info.id);
        }
        if !status.success() {
            return Err(format!("shard {} exited with {status}", self.info.id));
        }
        Ok(())
    }
}

impl Drop for ShardChild {
    fn drop(&mut self) {
        // Already-reaped children make both of these no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// Start the `serve` binary that sits next to this one as shard
/// `shard_id` (two reactors, four workers, a cache budget of
/// `embed_cache_bytes`, warm-started from `snapshot`) and wait for its
/// `listening on ADDR` line.
fn spawn_shard(
    registry_dir: &Path,
    model: &str,
    shard_id: u32,
    embed_cache_bytes: usize,
    snapshot: &Path,
) -> Result<ShardChild, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("current_exe: {e}"))?
        .with_file_name("serve");
    // `bytes / 2^20` is exact in an f64, and `to_string` prints a form
    // that parses back to the same bits, so the shard's budget is
    // `embed_cache_bytes` to the byte.
    let cache_mb = embed_cache_bytes as f64 / (1u64 << 20) as f64;
    let mut child = Command::new(&exe)
        .args(["--tcp", "127.0.0.1:0", "--reactor-threads", "2"])
        .arg("--registry")
        .arg(registry_dir)
        .args(["--model", model])
        .args(["--shard-id", &shard_id.to_string()])
        .args(["--workers", "4"])
        .args(["--cache-mb", &cache_mb.to_string()])
        .arg("--cache-snapshot")
        .arg(snapshot)
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {} (build the `serve` bin first): {e}", exe.display()))?;
    let mut log = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        match log.read_line(&mut line) {
            Ok(0) | Err(_) => return Err(format!("shard {shard_id} exited before listening")),
            Ok(_) => eprint!("shard {shard_id}: {line}"),
        }
        if let Some((_, rest)) = line.split_once("listening on ") {
            break rest
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_owned();
        }
    };
    Ok(ShardChild {
        child,
        log,
        info: ShardInfo {
            id: shard_id,
            addr,
            vnodes: 0,
        },
    })
}

/// Serve a [`ShardProxy`] over the fleet on an ephemeral port, behind a
/// two-thread reactor pool (the same front door `atlas-shard` runs).
fn spawn_proxy(shards: Vec<ShardInfo>) -> Result<ReactorPool, String> {
    let proxy = Arc::new(ShardProxy::new(shards).map_err(|e| format!("proxy: {e}"))?);
    ReactorPool::spawn(proxy, "127.0.0.1:0", ReactorConfig::default(), 2)
        .map_err(|e| format!("spawn proxy: {e}"))
}

/// One `stats` round trip against a serve process's own port.
fn tcp_stats(addr: &str) -> Result<StatsResponse, String> {
    let mut writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    writer
        .write_all(b"{\"verb\":\"stats\"}\n")
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    serde_json::from_str(&line).map_err(|e| format!("bad stats `{}`: {e}", line.trim()))
}

/// Fire the working set at `addr` from `clients` concurrent connections
/// for `rounds` staggered rounds, measuring client-observed latency.
fn hammer(
    addr: &str,
    keys: &[PredictRequest],
    clients: usize,
    rounds: usize,
) -> Result<Phase, String> {
    let barrier = Barrier::new(clients);
    let t0 = Instant::now();
    let lat: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || -> Result<Vec<f64>, String> {
                    let mut writer =
                        TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let _ = writer.set_nodelay(true);
                    let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
                    barrier.wait();
                    let mut lat = Vec::with_capacity(rounds * keys.len());
                    for round in 0..rounds {
                        for k in 0..keys.len() {
                            // Stagger offsets so clients spread over keys.
                            let req = &keys[(k + c + round) % keys.len()];
                            let t = Instant::now();
                            roundtrip(&mut writer, &mut reader, req)?;
                            lat.push(t.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    Ok(lat)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hammer client"))
            .collect::<Result<Vec<_>, _>>()
            .map(|all| all.into_iter().flatten().collect())
    })?;
    Ok(phase(lat, t0.elapsed().as_secs_f64()))
}

/// The shard-scaleout scenario. See the module docs for the storyline;
/// the short version: same traffic, one shard thrashes, two shards are
/// warm, and a drained shard restarts warm from its snapshot.
fn run_shard_scaleout_scenario(
    model: &atlas_core::AtlasModel,
    cfg: &ExperimentConfig,
    cycles: usize,
) -> Result<ShardScaleoutScenario, String> {
    // Plan the working set against the ring the real fleet will use
    // (ring geometry depends only on shard ids and vnode counts, so the
    // planning ring with placeholder addresses routes identically).
    let planning_ring = ShardRing::new(vec![
        ShardInfo {
            id: 0,
            addr: String::new(),
            vnodes: 0,
        },
        ShardInfo {
            id: 1,
            addr: String::new(),
            vnodes: 0,
        },
    ])
    .map_err(|e| format!("planning ring: {e}"))?;
    let mut keys: Vec<PredictRequest> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    'grow: for extra in 0..4usize {
        for design in ["C1", "C2", "C3", "C4", "C5", "C6"] {
            for workload in ["W1", "W2"] {
                let key_cycles = cycles + extra;
                owners.push(
                    planning_ring.route_index(trace_route_key(None, design, workload, key_cycles)),
                );
                keys.push(PredictRequest::new(design, workload, key_cycles));
                let on_a = owners.iter().filter(|&&o| o == 0).count();
                let on_b = owners.len() - on_a;
                if keys.len() >= 12 && on_a >= 4 && on_b >= 4 {
                    break 'grow;
                }
            }
        }
    }
    let shard_b_keys: Vec<PredictRequest> = keys
        .iter()
        .zip(&owners)
        .filter(|(_, &owner)| owner == 1)
        .map(|(key, _)| key.clone())
        .collect();
    if shard_b_keys.len() < 4 || keys.len() - shard_b_keys.len() < 4 {
        return Err(format!(
            "degenerate ring split: {} of {} keys on shard 1",
            shard_b_keys.len(),
            keys.len()
        ));
    }

    // Measure every key's exact embedding weight on a throwaway
    // in-process service with an effectively unbounded cache, then size
    // the per-shard budget to hold either shard's subset but not both.
    let meter = AtlasService::start_with(
        model.clone(),
        cfg.clone(),
        ServiceConfig {
            workers: 1,
            embedding_cache_bytes: 1 << 30,
            ..ServiceConfig::default()
        },
    );
    let mut weights = Vec::with_capacity(keys.len());
    for key in &keys {
        let before = meter.stats().embedding_cache.weight;
        meter
            .call(key.clone())
            .map_err(|e| format!("weight probe {}/{:?}: {e}", key.design, key.workload))?;
        let weight = meter.stats().embedding_cache.weight - before;
        if weight == 0 {
            return Err(format!(
                "weight probe {}/{:?} cached nothing",
                key.design, key.workload
            ));
        }
        weights.push(weight);
    }
    drop(meter);
    let bytes_on = |owner: usize| -> usize {
        weights
            .iter()
            .zip(&owners)
            .filter(|(_, &o)| o == owner)
            .map(|(w, _)| w)
            .sum()
    };
    let (bytes_a, bytes_b) = (bytes_on(0), bytes_on(1));
    let working_set_bytes = bytes_a + bytes_b;
    let budget = bytes_a.max(bytes_b) + 1;

    let dir = std::env::temp_dir().join(format!("atlas-shard-bench-{}", std::process::id()));
    let scenario = (|| -> Result<ShardScaleoutScenario, String> {
        let registry_dir = dir.join("registry");
        let registry = ModelRegistry::open(&registry_dir).map_err(|e| format!("registry: {e}"))?;
        registry
            .save("bench-shard", model, cfg)
            .map_err(|e| format!("save bench-shard: {e}"))?;
        let snapshot_a = dir.join("shard0.snapshot");
        let snapshot_b = dir.join("shard1.snapshot");

        // Phase 1: the whole working set against one shard whose cache
        // budget cannot hold it — the LRU sheds keys just before their
        // next use, so throughput is recompute-bound.
        let shard_a = spawn_shard(&registry_dir, "bench-shard", 0, budget, &snapshot_a)?;
        let single_proxy = spawn_proxy(vec![shard_a.info.clone()])?;
        let single_addr = single_proxy.addr().to_string();
        for key in &keys {
            let mut writer =
                TcpStream::connect(&single_addr).map_err(|e| format!("prewarm connect: {e}"))?;
            let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
            roundtrip(&mut writer, &mut reader, key)?;
        }
        let single_shard = hammer(&single_addr, &keys, 4, 2)?;
        single_proxy
            .shutdown()
            .map_err(|e| format!("single proxy shutdown: {e}"))?;

        // Phase 2: the same traffic with a second shard. Each shard now
        // holds its ring share, so the fleet serves from cache.
        let shard_b = spawn_shard(&registry_dir, "bench-shard", 1, budget, &snapshot_b)?;
        let dual_proxy = spawn_proxy(vec![shard_a.info.clone(), shard_b.info.clone()])?;
        let dual_addr = dual_proxy.addr().to_string();
        let mut writer =
            TcpStream::connect(&dual_addr).map_err(|e| format!("dual connect: {e}"))?;
        let _ = writer.set_nodelay(true);
        let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        for key in &keys {
            roundtrip(&mut writer, &mut reader, key)?;
        }
        let dual_shard = hammer(&dual_addr, &keys, 4, 4)?;

        // Steady-state sample of shard B's keys: replies recorded for
        // the post-restart parity check, latencies for the steady p50.
        let mut steady_lat = Vec::new();
        let mut steady_replies = Vec::new();
        for round in 0..3 {
            for key in &shard_b_keys {
                let t = Instant::now();
                let reply = roundtrip(&mut writer, &mut reader, key)?;
                steady_lat.push(t.elapsed().as_secs_f64() * 1e3);
                if !reply.cache_hit {
                    return Err(format!(
                        "steady round {round} missed the cache on {}/{:?}",
                        key.design, key.workload
                    ));
                }
                if round == 0 {
                    steady_replies.push(reply);
                }
            }
        }
        dual_proxy
            .shutdown()
            .map_err(|e| format!("dual proxy shutdown: {e}"))?;

        // Drain shard B (it writes its snapshot on the way out), then
        // restart it from that snapshot and re-run its keys.
        shard_b.shutdown()?;
        let snapshot_entries = std::fs::read_to_string(&snapshot_b)
            .map_err(|e| format!("read snapshot: {e}"))?
            .lines()
            .filter(|line| !line.trim().is_empty())
            .count()
            .saturating_sub(1); // header line
        let shard_b = spawn_shard(&registry_dir, "bench-shard", 1, budget, &snapshot_b)?;
        let restored_proxy = spawn_proxy(vec![shard_a.info.clone(), shard_b.info.clone()])?;
        let restored_addr = restored_proxy.addr().to_string();
        let mut writer =
            TcpStream::connect(&restored_addr).map_err(|e| format!("restored connect: {e}"))?;
        let _ = writer.set_nodelay(true);
        let mut reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        let mut restored_lat = Vec::new();
        let mut restored_first_round_all_hits = true;
        let mut restored_parity = true;
        for round in 0..3 {
            for (key, steady) in shard_b_keys.iter().zip(&steady_replies) {
                let t = Instant::now();
                let reply = roundtrip(&mut writer, &mut reader, key)?;
                restored_lat.push(t.elapsed().as_secs_f64() * 1e3);
                if round == 0 {
                    restored_first_round_all_hits &= reply.cache_hit;
                    restored_parity &= reply.per_cycle_total_w == steady.per_cycle_total_w;
                }
            }
        }
        let stats = tcp_stats(&shard_b.info.addr)?;
        if stats.embedding_cache.budget != budget {
            return Err(format!(
                "shard 1 runs a {} B cache budget, not {budget} B",
                stats.embedding_cache.budget
            ));
        }
        restored_proxy
            .shutdown()
            .map_err(|e| format!("restored proxy shutdown: {e}"))?;
        shard_b.shutdown()?;
        shard_a.shutdown()?;

        let p50 = |lat: &mut Vec<f64>| {
            lat.sort_by(|a, b| a.total_cmp(b));
            lat[lat.len() / 2]
        };
        let steady_warm_p50_ms = p50(&mut steady_lat);
        let restored_warm_p50_ms = p50(&mut restored_lat);
        Ok(ShardScaleoutScenario {
            shards: 2,
            keys: keys.len(),
            cache_budget_bytes_per_shard: budget,
            working_set_bytes,
            scaleout: dual_shard.throughput_rps / single_shard.throughput_rps.max(1e-9),
            single_shard,
            dual_shard,
            snapshot_entries,
            restored_first_round_all_hits,
            restored_embeddings_computed: stats.embeddings_computed,
            restored_shard_id: stats.shard_id,
            restored_parity,
            steady_warm_p50_ms,
            restored_warm_p50_ms,
            restored_p50_ratio: restored_warm_p50_ms / steady_warm_p50_ms.max(1e-9),
        })
    })();
    let _ = std::fs::remove_dir_all(&dir);
    scenario
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = ExperimentConfig::quick();
    cfg.scale = args.scale;
    cfg.cycles = args.train_cycles;
    println!(
        "training ATLAS at scale {} ({} cycles) for the serve bench...",
        cfg.scale, cfg.cycles
    );
    let t0 = Instant::now();
    let trained = train_atlas(&cfg);
    let train_s = t0.elapsed().as_secs_f64();
    println!("trained in {train_s:.1}s");
    println!(
        "isa {} — f64 kernel {}",
        atlas_nn::simd::isa_label(),
        atlas_nn::simd::kernel_label(atlas_nn::simd::active_kernel())
    );

    let start_service = || {
        AtlasService::start_with(
            trained.model.clone(),
            cfg.clone(),
            ServiceConfig {
                workers: args.clients.max(args.dup_clients).max(1),
                ..ServiceConfig::default()
            },
        )
    };
    let service = Arc::new(start_service());

    // The paper's unseen test designs under both workload presets.
    let keys: Vec<PredictRequest> = ["C2", "C4"]
        .iter()
        .flat_map(|d| {
            ["W1", "W2"]
                .iter()
                .map(|w| PredictRequest::new(*d, *w, args.cycles))
                .collect::<Vec<_>>()
        })
        .collect();

    // Cold passes: empty caches, serial so each request's latency is the
    // full design + simulation + embedding + heads pipeline. Every trial
    // but the last runs on a throwaway service; the last one warms the
    // service the later scenarios use.
    let mut cold_lat = Vec::new();
    let mut cold_wall_s = 0.0;
    for trial in 0..COLD_TRIALS {
        let throwaway = (trial + 1 < COLD_TRIALS).then(&start_service);
        let target = throwaway.as_ref().unwrap_or(&service);
        let t1 = Instant::now();
        for req in &keys {
            match target.call(req.clone()) {
                Ok(resp) => {
                    assert!(!resp.cache_hit, "cold pass must miss the cache");
                    cold_lat.push(resp.latency_ms);
                }
                Err(e) => {
                    eprintln!("error: cold request failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        cold_wall_s += t1.elapsed().as_secs_f64();
    }
    let cold = phase(cold_lat, cold_wall_s);
    println!(
        "cold: {} requests over {COLD_TRIALS} trials, median {:.1} ms (min {:.1}, max {:.1})",
        cold.requests, cold.p50_ms, cold.min_ms, cold.max_ms
    );

    // Warm pass: every key repeated from concurrent clients; all hits.
    let t2 = Instant::now();
    let warm_lat: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let service = Arc::clone(&service);
                let keys = &keys;
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    for round in 0..args.repeat {
                        for k in 0..keys.len() {
                            // Stagger start offsets so clients collide on
                            // the same cache entries.
                            let req = &keys[(k + c + round) % keys.len()];
                            match service.call(req.clone()) {
                                Ok(resp) => {
                                    assert!(resp.cache_hit, "warm pass must hit the cache");
                                    lat.push(resp.latency_ms);
                                }
                                Err(e) => panic!("warm request failed: {e}"),
                            }
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let warm = phase(warm_lat, t2.elapsed().as_secs_f64());
    println!(
        "warm: {} requests, mean {:.2} ms, p95 {:.2} ms, {:.0} req/s",
        warm.requests, warm.mean_ms, warm.p95_ms, warm.throughput_rps
    );

    // Idle-connection pass: the reactor front door with parked sockets.
    let idle = match run_idle_scenario(&service, &keys, args.idle_conns, args.repeat) {
        Ok(idle) => idle,
        Err(e) => {
            eprintln!("error: idle scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "idle: {} parked connections (+{} threads), active p50 {:.2} ms, {:.0} req/s",
        idle.connections, idle.thread_delta, idle.active.p50_ms, idle.active.throughput_rps
    );

    // Duplicate-key pass: single-flight under concurrent cold demand.
    let dupkey = match run_dupkey_scenario(&service, args.cycles, args.dup_clients) {
        Ok(dupkey) => dupkey,
        Err(e) => {
            eprintln!("error: dupkey scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "dupkey: {} clients -> {} embedding computed, {} coalesced, {} cache hits",
        dupkey.clients, dupkey.embeddings_computed, dupkey.coalesced, dupkey.cache_hits
    );

    // Registered-workload pass: one registration, many by-name uses.
    let regwl = match run_regwl_scenario(&service, args.cycles, args.repeat) {
        Ok(regwl) => regwl,
        Err(e) => {
            eprintln!("error: regwl scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "regwl: {} by-name requests -> {} computed, {} cache hits, p50 {:.2} ms",
        regwl.requests, regwl.embeddings_computed, regwl.cache_hits, regwl.latency.p50_ms
    );

    // Multi-model pass: two serving names over one set of weights.
    let multimodel = match run_multimodel_scenario(&trained.model, &cfg, args.cycles) {
        Ok(multimodel) => multimodel,
        Err(e) => {
            eprintln!("error: multimodel scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "multimodel: {} models, parity {}, per-model caches {:?}",
        multimodel.models,
        multimodel.name_addressed_parity,
        multimodel
            .per_model
            .iter()
            .map(|m| (m.model.as_str(), m.embedding_cache_len))
            .collect::<Vec<_>>()
    );

    // Hot-reload pass: control-plane churn under live traffic.
    let reload = match run_reload_scenario(&service, &trained.model, &cfg, args.cycles, args.repeat)
    {
        Ok(reload) => reload,
        Err(e) => {
            eprintln!("error: reload scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "reload: {} load/unload cycles under {} warm requests ({} errors), p50 {:.2} ms",
        reload.reload_cycles,
        reload.requests_during_churn,
        reload.errors_during_churn,
        reload.during_churn.p50_ms
    );

    // Quota-storm pass: per-model quotas under a cold storm.
    let quota_storm = match run_quota_storm_scenario(
        &trained.model,
        &cfg,
        args.cycles,
        args.storm_clients.max(1),
    ) {
        Ok(quota_storm) => quota_storm,
        Err(e) => {
            eprintln!("error: quota-storm scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "quota-storm: victim p50 {:.2} ms under storm vs {:.2} ms idle ({:.2}x), \
         storm queued {} / rejected {} / computed {}",
        quota_storm.victim_storm_p50_ms,
        quota_storm.victim_idle_p50_ms,
        quota_storm.p50_ratio,
        quota_storm.storm_queued,
        quota_storm.storm_rejected,
        quota_storm.storm_embeddings_computed
    );

    // Edit-loop pass: incremental `predict_delta` on a 1-sub-module edit
    // vs a cold full recompute of the same revision.
    let edit_loop = match run_edit_loop_scenario(&trained.model, &cfg, args.cycles, args.repeat) {
        Ok(edit_loop) => edit_loop,
        Err(e) => {
            eprintln!("error: edit-loop scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "edit-loop: {} edits of 1/{} sub-modules, delta p50 {:.2} ms vs full {:.2} ms \
         ({:.2}x), reused {} / recomputed {} cycle-items, parity {}",
        edit_loop.edits,
        edit_loop.submodules,
        edit_loop.delta.p50_ms,
        edit_loop.full.p50_ms,
        edit_loop.delta_speedup,
        edit_loop.reused_cycles,
        edit_loop.recomputed_cycles,
        edit_loop.parity
    );

    // Shard-scaleout pass: 1 vs 2 shard processes behind the proxy,
    // then a drain/snapshot/restart round trip.
    let shard_scaleout = match run_shard_scaleout_scenario(&trained.model, &cfg, args.cycles) {
        Ok(shard_scaleout) => shard_scaleout,
        Err(e) => {
            eprintln!("error: shard-scaleout scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "shard-scaleout: {:.0} req/s on 1 shard -> {:.0} req/s on 2 ({:.2}x); \
         restored shard recomputed {} (p50 {:.2} ms vs steady {:.2} ms)",
        shard_scaleout.single_shard.throughput_rps,
        shard_scaleout.dual_shard.throughput_rps,
        shard_scaleout.scaleout,
        shard_scaleout.restored_embeddings_computed,
        shard_scaleout.restored_warm_p50_ms,
        shard_scaleout.steady_warm_p50_ms
    );

    let stats = service.stats();
    let report = BenchReport {
        isa: atlas_nn::simd::isa_label().to_owned(),
        kernel: atlas_nn::simd::kernel_label(atlas_nn::simd::active_kernel()).to_owned(),
        scale: args.scale,
        cycles: args.cycles,
        clients: args.clients,
        train_s,
        cold_trials: COLD_TRIALS,
        cold_over_warm_speedup: cold.mean_ms / warm.mean_ms.max(1e-9),
        cache_hit_latency_below_cold: warm.mean_ms < cold.mean_ms,
        embedding_cache_hits: stats.embedding_cache.hits,
        embedding_cache_misses: stats.embedding_cache.misses,
        embedding_cache_bytes: stats.embedding_cache.weight,
        embedding_cache_budget_bytes: stats.embedding_cache.budget,
        cold,
        warm,
        idle,
        dupkey,
        regwl,
        multimodel,
        reload,
        quota_storm,
        edit_loop,
        shard_scaleout,
    };
    println!(
        "cache-hit speedup over cold: {:.1}x (hit latency below cold: {})",
        report.cold_over_warm_speedup, report.cache_hit_latency_below_cold
    );

    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&args.out, json) {
                eprintln!("error: write {}: {e}", args.out);
                return ExitCode::FAILURE;
            }
            println!("(wrote {})", args.out);
        }
        Err(e) => {
            eprintln!("error: serialize report: {e}");
            return ExitCode::FAILURE;
        }
    }
    if !report.cache_hit_latency_below_cold {
        eprintln!("error: cache-hit latency was not below cold latency");
        return ExitCode::FAILURE;
    }
    if report.idle.thread_delta != 0 {
        eprintln!(
            "error: {} idle connections grew the process by {} threads",
            report.idle.connections, report.idle.thread_delta
        );
        return ExitCode::FAILURE;
    }
    if report.dupkey.embeddings_computed != 1 {
        eprintln!(
            "error: single-flight computed {} embeddings for one key",
            report.dupkey.embeddings_computed
        );
        return ExitCode::FAILURE;
    }
    if report.regwl.embeddings_computed != 1 {
        eprintln!(
            "error: a registered workload computed {} embeddings for one key",
            report.regwl.embeddings_computed
        );
        return ExitCode::FAILURE;
    }
    if !report.multimodel.name_addressed_parity || !report.multimodel.named_route_shares_cache {
        eprintln!("error: multi-model routing broke parity or cache sharing");
        return ExitCode::FAILURE;
    }
    if report.reload.errors_during_churn != 0
        || !report.reload.loaded_model_parity
        || !report.reload.unknown_after_unload
        || report.reload.reload_cycles == 0
    {
        eprintln!(
            "error: reload scenario failed ({} errors during churn, parity {}, \
             unknown-after-unload {}, {} cycles)",
            report.reload.errors_during_churn,
            report.reload.loaded_model_parity,
            report.reload.unknown_after_unload,
            report.reload.reload_cycles
        );
        return ExitCode::FAILURE;
    }
    if report.quota_storm.storm_queued == 0 {
        eprintln!("error: quota-storm scenario never saturated the storm quota");
        return ExitCode::FAILURE;
    }
    if report.quota_storm.p50_ratio > 3.0 {
        eprintln!(
            "error: victim p50 under storm regressed {:.2}x over idle (> 3x allowed)",
            report.quota_storm.p50_ratio
        );
        return ExitCode::FAILURE;
    }
    if !report.edit_loop.parity || !report.edit_loop.base_hit || report.edit_loop.reused_cycles == 0
    {
        eprintln!(
            "error: edit-loop deltas broke correctness (parity {}, base hit {}, \
             {} reused cycle-items)",
            report.edit_loop.parity, report.edit_loop.base_hit, report.edit_loop.reused_cycles
        );
        return ExitCode::FAILURE;
    }
    if report.edit_loop.delta_speedup < DELTA_SPEEDUP_FLOOR {
        eprintln!(
            "error: delta p50 was only {:.2}x faster than a full recompute \
             (>= {DELTA_SPEEDUP_FLOOR}x required)",
            report.edit_loop.delta_speedup
        );
        return ExitCode::FAILURE;
    }
    if report.shard_scaleout.scaleout < 1.6 {
        eprintln!(
            "error: two shards scaled warm throughput only {:.2}x over one (>= 1.6x required)",
            report.shard_scaleout.scaleout
        );
        return ExitCode::FAILURE;
    }
    if report.shard_scaleout.restored_embeddings_computed != 0
        || !report.shard_scaleout.restored_first_round_all_hits
        || !report.shard_scaleout.restored_parity
    {
        eprintln!(
            "error: restarting from a snapshot was not warm ({} recomputes, all hits {}, \
             parity {})",
            report.shard_scaleout.restored_embeddings_computed,
            report.shard_scaleout.restored_first_round_all_hits,
            report.shard_scaleout.restored_parity
        );
        return ExitCode::FAILURE;
    }
    if report.shard_scaleout.restored_p50_ratio > 2.0 {
        eprintln!(
            "error: restored warm p50 regressed {:.2}x over steady (> 2x allowed)",
            report.shard_scaleout.restored_p50_ratio
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
