//! Cross-crate property-based tests: invariants that must hold for *any*
//! design the generator can produce, any workload, and any flow
//! configuration in a sane range.

use atlas_designs::DesignConfig;
use atlas_layout::{run_layout, LayoutConfig};
use atlas_liberty::{Library, PowerGroup};
use atlas_power::compute_power;
use atlas_sim::{simulate, ConstantWorkload, PhasedWorkload};
use proptest::prelude::*;

/// A small random design configuration.
fn arb_design() -> impl Strategy<Value = DesignConfig> {
    (0u64..1000, 6usize..10, 1usize..3, 1usize..4).prop_map(|(seed, width, fe, core)| {
        DesignConfig {
            name: format!("P{seed}"),
            seed,
            scale: 1.0,
            width,
            pi_count: 16,
            frontend_units: fe,
            core_units: core,
            lsu_units: 1,
            dcache_units: 1,
            ptw_units: 1,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8, // each case runs a full mini-flow; keep the count low
        .. ProptestConfig::default()
    })]

    /// Any generated design is structurally valid, levelizable, and its
    /// sub-module graphs partition the cells exactly.
    #[test]
    fn generated_designs_are_well_formed(cfg in arb_design()) {
        let d = cfg.generate();
        prop_assert!(d.validate().is_empty());
        prop_assert!(atlas_netlist::topo::levelize(&d).is_ok());
        let total: usize = d.submodule_graphs().iter().map(|g| g.node_count()).sum();
        prop_assert_eq!(total, d.cell_count());
    }

    /// The layout flow preserves primary-output behaviour and only adds
    /// cells, for any generated design.
    #[test]
    fn layout_preserves_function_and_grows(cfg in arb_design()) {
        let lib = Library::synthetic_40nm();
        let gate = cfg.generate();
        let result = run_layout(&gate, &lib, &LayoutConfig::default());
        prop_assert!(result.design.validate().is_empty());
        prop_assert!(result.design.cell_count() > gate.cell_count());

        let mut sim_a = atlas_sim::Simulator::new(&gate).expect("levelizes");
        let mut sim_b = atlas_sim::Simulator::new(&result.design).expect("levelizes");
        let mut stim_a = PhasedWorkload::w1(cfg.seed);
        let mut stim_b = PhasedWorkload::w1(cfg.seed);
        for _ in 0..24 {
            sim_a.step(&mut stim_a);
            sim_b.step(&mut stim_b);
            for (&pa, &pb) in gate.primary_outputs().iter().zip(result.design.primary_outputs()) {
                prop_assert_eq!(sim_a.net_value(pa), sim_b.net_value(pb));
            }
        }
    }

    /// Power is non-negative, finite, and additive over sub-modules for
    /// any design and activity level.
    #[test]
    fn power_is_sane(cfg in arb_design(), activity in 0.0f64..0.5) {
        let lib = Library::synthetic_40nm();
        let d = cfg.generate();
        let trace = simulate(&d, &mut ConstantWorkload::new(activity, cfg.seed), 16)
            .expect("simulates");
        let p = compute_power(&d, &lib, &trace);
        for t in 0..16 {
            let total = p.total(t);
            prop_assert!(total.is_finite() && total > 0.0);
            let by_sm: f64 = d
                .submodule_ids()
                .map(|sm| p.submodule_total(t, sm))
                .sum();
            prop_assert!((by_sm - total).abs() <= total * 1e-9);
            // Gate level has no clock tree.
            prop_assert_eq!(p.group_total(t, PowerGroup::ClockTree), 0.0);
        }
    }

    /// More input activity never decreases mean combinational power.
    #[test]
    fn power_is_monotone_in_activity(cfg in arb_design()) {
        let lib = Library::synthetic_40nm();
        let d = cfg.generate();
        let cold = simulate(&d, &mut ConstantWorkload::new(0.01, 1), 48).expect("simulates");
        let hot = simulate(&d, &mut ConstantWorkload::new(0.45, 1), 48).expect("simulates");
        let pc = compute_power(&d, &lib, &cold);
        let ph = compute_power(&d, &lib, &hot);
        prop_assert!(
            ph.mean_group(PowerGroup::Combinational)
                >= pc.mean_group(PowerGroup::Combinational)
        );
    }

    /// Restructuring at any intensity keeps the design valid and the
    /// sequential-cell population identical.
    #[test]
    fn restructure_invariants(cfg in arb_design(), intensity in 0.0f64..1.0, seed in 0u64..100) {
        let gate = cfg.generate();
        let plus = atlas_layout::restructure::restructure(&gate, seed, intensity);
        prop_assert!(plus.validate().is_empty());
        prop_assert!(plus.cell_count() >= gate.cell_count());
        let gs = gate.stats();
        let ps = plus.stats();
        prop_assert_eq!(gs.group_count(PowerGroup::Register), ps.group_count(PowerGroup::Register));
        prop_assert_eq!(gs.group_count(PowerGroup::Memory), ps.group_count(PowerGroup::Memory));
    }
}

// ---- byte-budget LRU cache invariants (atlas-serve) --------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128, // pure in-memory ops; cheap enough for a wide sweep
        .. ProptestConfig::default()
    })]

    /// For any interleaving of weighted inserts and recency-refreshing
    /// gets: occupancy never exceeds the budget, an admitted entry is
    /// immediately resident (its own insert never evicts it), and a
    /// single oversized entry is rejected outright, leaving the cache
    /// untouched rather than looping eviction.
    #[test]
    fn byte_budget_cache_invariants(
        budget in 1usize..64,
        ops in proptest::collection::vec((0u8..12, 0usize..96, 0u8..2), 1..80),
    ) {
        use std::sync::Arc;
        let cache: atlas_serve::LruCache<u8, usize> = atlas_serve::LruCache::with_budget(budget);
        for &(key, weight, probe) in &ops {
            if probe == 1 {
                // Recency refreshes must never break the accounting.
                let _ = cache.get(&key);
            }
            let before = cache.stats();
            let admitted = cache.insert_weighted(key, Arc::new(weight), weight);
            let after = cache.stats();

            prop_assert!(after.weight <= budget, "occupancy {} > budget {budget}", after.weight);
            prop_assert_eq!(after.budget, budget);
            prop_assert_eq!(admitted, weight <= budget, "admission must be weight <= budget");
            if admitted {
                let got = cache.get(&key);
                prop_assert!(got.is_some(), "an admitted entry must be resident");
                prop_assert_eq!(*got.expect("checked"), weight, "value reflects last insert");
            } else {
                // A rejected oversized insert changes nothing.
                prop_assert_eq!(after.len, before.len);
                prop_assert_eq!(after.weight, before.weight);
            }
        }
    }

    /// Unit-weight inserts recover the classic count-bounded LRU: len and
    /// weight track together and never exceed the capacity.
    #[test]
    fn unit_weight_cache_is_count_bounded(
        capacity in 1usize..8,
        keys in proptest::collection::vec(0u8..16, 1..60),
    ) {
        use std::sync::Arc;
        let cache: atlas_serve::LruCache<u8, u8> = atlas_serve::LruCache::new(capacity);
        for &k in &keys {
            cache.insert(k, Arc::new(k));
            let stats = cache.stats();
            prop_assert!(stats.len <= capacity);
            prop_assert_eq!(stats.weight, stats.len);
            prop_assert!(cache.get(&k).is_some());
        }
    }
}

// ---- per-model quota-gate invariants (atlas-serve) ---------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 192, // pure in-memory ops; cheap enough for a wide sweep
        .. ProptestConfig::default()
    })]

    /// For any interleaving of admissions and completions: granted slots
    /// never exceed the quota, the parking queue never exceeds its bound,
    /// the `queued`/`rejected` counters are monotone and exact, and every
    /// submitted item is eventually either granted (and completed) or
    /// rejected — no item is ever lost in the gate.
    #[test]
    fn quota_gate_accounting_invariants(
        quota in 1usize..4,
        max_parked in 0usize..6,
        items in 1usize..32,
        interleave in proptest::collection::vec(0u8..2, 0..96),
    ) {
        use atlas_serve::{Admission, QuotaGate};

        let gate: QuotaGate<usize> = QuotaGate::new(max_parked);
        // The reference scheduler the service implements: fresh and
        // re-dispatched items go through `admit`; a completion calls
        // `release` and re-dispatches whatever it pops.
        let mut to_submit: Vec<usize> = (0..items).collect();
        let mut redispatch: Vec<usize> = Vec::new();
        let mut running: Vec<usize> = Vec::new();
        let mut completed: Vec<usize> = Vec::new();
        let mut rejected: Vec<usize> = Vec::new();
        let mut parks_seen = 0u64;
        let mut ops = interleave.into_iter();
        loop {
            let submit = ops.next().unwrap_or(0) == 0;
            if submit && !(redispatch.is_empty() && to_submit.is_empty()) {
                let item = if let Some(item) = redispatch.pop() {
                    item
                } else {
                    to_submit.pop().expect("checked nonempty")
                };
                match gate.admit(quota, item) {
                    Admission::Granted(i) => running.push(i),
                    Admission::Parked => parks_seen += 1,
                    Admission::Rejected(i) => rejected.push(i),
                }
            } else if let Some(i) = running.pop() {
                completed.push(i);
                if let Some(parked) = gate.release() {
                    redispatch.push(parked);
                }
            } else if redispatch.is_empty() && to_submit.is_empty() {
                break;
            }
            // Step invariants.
            prop_assert!(gate.running() <= quota, "running {} > quota {quota}", gate.running());
            prop_assert_eq!(gate.running(), running.len(), "gate and scheduler agree on running");
            prop_assert!(gate.parked_len() <= max_parked);
            prop_assert_eq!(gate.queued_total(), parks_seen, "queued counter is exact");
            prop_assert_eq!(gate.rejected_total() as usize, rejected.len());
        }
        // Quiescence: nothing runs, nothing is parked, and every item is
        // accounted for exactly once (completed or rejected).
        prop_assert_eq!(gate.running(), 0);
        prop_assert_eq!(gate.parked_len(), 0, "no item may be lost in the gate");
        completed.sort_unstable();
        completed.dedup();
        prop_assert_eq!(completed.len() + rejected.len(), items);
    }
}

// ---- workload-journal round-trip (atlas-serve) -------------------------

/// A random phase schedule valid under `PhasedWorkload::try_new`.
fn arb_schedule() -> impl Strategy<Value = Vec<atlas_sim::WorkloadPhase>> {
    proptest::collection::vec(
        (0.0f64..1.0, 1usize..10, 0usize..10).prop_map(|(activity, min_len, extra)| {
            atlas_sim::WorkloadPhase {
                activity,
                min_len,
                max_len: min_len + extra,
            }
        }),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        .. ProptestConfig::default()
    })]

    /// Rendering any workload library to journal lines and parsing them
    /// back reproduces the exact entries — names, schedules, and
    /// fingerprints — while any single corrupted fingerprint is refused.
    #[test]
    fn workload_journal_roundtrip_reproduces_fingerprints(
        schedules in proptest::collection::vec((0u32..10_000, arb_schedule()), 1..8),
        corrupt_at in 0usize..8,
    ) {
        use atlas_serve::{parse_workload_journal, render_journal_entry, WorkloadJournalEntry};

        let entries: Vec<WorkloadJournalEntry> = schedules
            .into_iter()
            .map(|(tag, phases)| WorkloadJournalEntry {
                name: format!("wl-{tag}"),
                fingerprint: atlas_sim::schedule_fingerprint(&phases),
                phases,
            })
            .collect();
        let text: String = entries
            .iter()
            .map(|e| format!("{}\n", render_journal_entry(e)))
            .collect();
        let parsed = parse_workload_journal(&text).expect("a rendered journal parses");
        prop_assert_eq!(&parsed, &entries, "replay must reproduce identical entries");
        // Fingerprints survive the text round-trip bit-exactly.
        for (parsed, original) in parsed.iter().zip(&entries) {
            prop_assert_eq!(
                parsed.fingerprint,
                atlas_sim::schedule_fingerprint(&original.phases)
            );
        }
        // Blank lines are tolerated (append crashes mid-line are not
        // silently accepted, but trailing newlines are).
        let padded = format!("\n{text}\n");
        prop_assert_eq!(parse_workload_journal(&padded).expect("padding parses"), entries.clone());
        // Corrupting one fingerprint fails the whole replay loudly.
        let mut tampered = entries;
        let at = corrupt_at % tampered.len();
        tampered[at].fingerprint ^= 1;
        let text: String = tampered
            .iter()
            .map(|e| format!("{}\n", render_journal_entry(e)))
            .collect();
        prop_assert!(parse_workload_journal(&text).is_err());
    }
}

// ---- item-granular delta reuse (atlas-serve) ---------------------------

/// One micro model shared by every delta/restore test below (training
/// per proptest case would dominate the whole suite).
fn delta_fixture() -> &'static (
    atlas_core::AtlasModel,
    atlas_core::pipeline::ExperimentConfig,
) {
    use atlas_core::pipeline::{train_atlas, ExperimentConfig};
    static FIXTURE: std::sync::OnceLock<(
        atlas_core::AtlasModel,
        atlas_core::pipeline::ExperimentConfig,
    )> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut cfg = ExperimentConfig::quick();
        cfg.cycles = 12;
        cfg.scale = 0.12;
        cfg.pretrain.steps = 10;
        cfg.pretrain.hidden_dim = 12;
        cfg.finetune.cycles_per_design = 4;
        cfg.finetune.gbdt.n_estimators = 12;
        let trained = train_atlas(&cfg);
        (trained.model, cfg)
    })
}

/// Every number of a prediction reply, by bit pattern: the per-cycle
/// series, the mean and peak totals, and each group's mean and peak.
/// Unlike `==` on f64, equal bits also rule out a `0.0`/`-0.0` swap.
fn watt_bits(
    per_cycle: &[f64],
    mean: f64,
    peak: f64,
    groups: &[atlas_serve::GroupSummary],
) -> (Vec<u64>, u64, u64, Vec<(String, u64, u64)>) {
    (
        per_cycle.iter().map(|w| w.to_bits()).collect(),
        mean.to_bits(),
        peak.to_bits(),
        groups
            .iter()
            .map(|g| (g.group.clone(), g.mean_w.to_bits(), g.peak_w.to_bits()))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs a chain of predictions on four services
        .. ProptestConfig::default()
    })]

    /// Over any chain of edits — schedule swaps and cycle-count changes
    /// landing on and off the encoder's internal chunk boundaries —
    /// `predict_delta` against the previous step's trace is bit-identical
    /// to a full recompute of the same target, at every step and at both
    /// storage precisions: per-cycle series, totals and group rollups.
    /// Each target then answers again from the chained service's cache,
    /// where the watts are the ones the delta stored (copied from its
    /// base or evaluated), and must still match. Reuse is an
    /// optimization only: it must never be observable in the numbers.
    #[test]
    fn predict_delta_chains_are_bit_identical_to_full_recompute(
        steps in proptest::collection::vec((0u8..3, 1usize..20), 1..5),
    ) {
        use atlas_serve::{
            AtlasService, DeltaBase, PredictDeltaRequest, PredictRequest, ServiceConfig,
        };

        let (model, cfg) = delta_fixture();
        let schedule = |tag: u8| match tag {
            0 => (Some("W1".to_owned()), None),
            1 => (Some("W2".to_owned()), None),
            _ => (
                Some("edit".to_owned()),
                Some(vec![atlas_sim::WorkloadPhase {
                    activity: 0.35,
                    min_len: 2,
                    max_len: 5,
                }]),
            ),
        };
        for precision in [atlas_core::Precision::F64, atlas_core::Precision::F32] {
            let start = || {
                AtlasService::start_with(
                    model.clone(),
                    cfg.clone(),
                    ServiceConfig { workers: 2, precision, ..ServiceConfig::default() },
                )
            };
            // One service answers the chain via deltas; a second
            // recomputes every target from scratch as the reference.
            let chained = start();
            let reference = start();
            let mut base: Option<DeltaBase> = None;
            for &(tag, cycles) in &steps {
                let (workload, phases) = schedule(tag);
                let target = PredictRequest {
                    id: None,
                    model: None,
                    design: "C2".to_owned(),
                    workload: workload.clone(),
                    workload_name: None,
                    cycles,
                    phases: phases.clone(),
                };
                let delta = chained
                    .call_delta(PredictDeltaRequest {
                        id: None,
                        model: None,
                        design: "C2".to_owned(),
                        workload: workload.clone(),
                        workload_name: None,
                        cycles,
                        phases: phases.clone(),
                        base: base.clone(),
                        changed_submodules: None,
                    })
                    .expect("delta predicts");
                let full = reference.call(target.clone()).expect("full predicts");
                let want = watt_bits(
                    &full.per_cycle_total_w,
                    full.mean_total_w,
                    full.peak_total_w,
                    &full.groups,
                );
                prop_assert_eq!(
                    &watt_bits(
                        &delta.per_cycle_total_w,
                        delta.mean_total_w,
                        delta.peak_total_w,
                        &delta.groups,
                    ),
                    &want,
                    "every step of the {} edit chain must be bit-identical",
                    precision
                );
                let warm = chained.call(target).expect("warm predicts");
                prop_assert!(warm.cache_hit, "the delta's target is cached");
                prop_assert_eq!(
                    &watt_bits(
                        &warm.per_cycle_total_w,
                        warm.mean_total_w,
                        warm.peak_total_w,
                        &warm.groups,
                    ),
                    &want,
                    "a warm hit on a delta's target must be bit-identical at {}",
                    precision
                );
                base = Some(DeltaBase {
                    design: None,
                    workload,
                    workload_name: None,
                    cycles: Some(cycles),
                    phases,
                });
            }
        }
    }
}

/// The restore side of the warm-start contract under a *shrunk* budget:
/// a snapshot taken under a large `--cache-mb` restored into a service
/// with a smaller one must keep the most recent entries that fit, count
/// the rest as skipped, and never exceed the live budget.
#[test]
fn restore_respects_the_live_cache_budget() {
    use atlas_serve::{AtlasService, PredictRequest, ServiceConfig};

    let (model, cfg) = delta_fixture();
    let big = AtlasService::start_with(
        model.clone(),
        cfg.clone(),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    // Four keys, computed oldest → newest, recording each entry's weight.
    let keys = [("C1", 8), ("C2", 8), ("C3", 8), ("C2", 12)];
    let mut weights = Vec::new();
    let mut last = 0usize;
    let mut originals = Vec::new();
    for &(design, cycles) in &keys {
        originals.push(
            big.call(PredictRequest::new(design, "W1", cycles))
                .expect("predicts"),
        );
        let now = big.stats().embedding_cache.weight;
        weights.push(now - last);
        last = now;
    }
    let snap = std::env::temp_dir().join(format!(
        "atlas-budget-restore-{}.snapshot",
        std::process::id()
    ));
    assert_eq!(big.snapshot_cache(&snap).expect("snapshots"), keys.len());
    drop(big);

    // A fresh process whose budget only fits the two newest entries.
    let budget = weights[2] + weights[3];
    let small = AtlasService::start_with(
        model.clone(),
        cfg.clone(),
        ServiceConfig {
            workers: 2,
            embedding_cache_bytes: budget,
            ..ServiceConfig::default()
        },
    );
    let report = small.restore_cache(&snap);
    assert_eq!(
        report.restored, 2,
        "only the newest entries that fit restore"
    );
    assert_eq!(report.skipped, 2, "the older entries count as skipped");
    let stats = small.stats();
    assert!(
        stats.embedding_cache.weight <= budget,
        "restore must never exceed the live budget: {} > {budget}",
        stats.embedding_cache.weight
    );

    // The kept entries are exactly the two most recent — warm and
    // bit-identical...
    for (original, &(design, cycles)) in originals.iter().zip(&keys).skip(2) {
        let resp = small
            .call(PredictRequest::new(design, "W1", cycles))
            .expect("predicts");
        assert!(resp.cache_hit, "{design}/{cycles} must restore warm");
        assert_eq!(resp.per_cycle_total_w, original.per_cycle_total_w);
    }
    assert_eq!(small.stats().embeddings_computed, 0);
    // ...and a dropped one recomputes rather than erroring.
    let evicted = small
        .call(PredictRequest::new("C1", "W1", 8))
        .expect("predicts");
    assert!(!evicted.cache_hit);
    assert_eq!(evicted.per_cycle_total_w, originals[0].per_cycle_total_w);

    let _ = std::fs::remove_file(&snap);
}

// ---- warm-start cache-snapshot round-trip (atlas-serve) ----------------

/// The warm-start contract, end to end: a drained service's cache
/// snapshot, restored into a fresh process over the same model, answers
/// every snapshotted key bit-identically as a cache hit with **zero**
/// embeddings recomputed — and a single-bit-corrupted entry is skipped
/// non-fatally (that key recomputes; every other key stays warm).
///
/// One deterministic test rather than a proptest: it trains a (micro)
/// model, which is far too expensive per proptest case.
#[test]
fn cache_snapshot_roundtrip_is_bit_identical_and_corruption_is_skipped() {
    use atlas_core::pipeline::{train_atlas, ExperimentConfig};
    use atlas_serve::{
        AtlasService, ModelRegistry, PredictRequest, ServiceConfig, SNAPSHOT_FORMAT_VERSION,
    };

    let mut cfg = ExperimentConfig::quick();
    cfg.cycles = 16;
    cfg.scale = 0.12;
    cfg.pretrain.steps = 14;
    cfg.pretrain.hidden_dim = 12;
    cfg.finetune.cycles_per_design = 6;
    cfg.finetune.gbdt.n_estimators = 16;
    let trained = train_atlas(&cfg);

    let dir = std::env::temp_dir().join(format!("atlas-snapshot-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let registry = ModelRegistry::open(dir.join("registry")).expect("registry opens");
    registry.save("snap", &trained.model, &cfg).expect("saves");
    let svc_cfg = || ServiceConfig {
        workers: 2,
        shard_id: Some(7),
        ..ServiceConfig::default()
    };

    // A first service computes four distinct embeddings, then drains
    // (no requests in flight) and snapshots.
    let keys = [
        ("C1", "W1", 8),
        ("C2", "W1", 8),
        ("C2", "W2", 12),
        ("C3", "W2", 8),
    ];
    let first = AtlasService::start(registry.load("snap").expect("loads"), svc_cfg());
    let originals: Vec<_> = keys
        .iter()
        .map(|&(d, w, c)| first.call(PredictRequest::new(d, w, c)).expect("predicts"))
        .collect();
    assert_eq!(first.stats().embeddings_computed, keys.len() as u64);
    let snap = dir.join("cache.snapshot");
    let entries = first.snapshot_cache(&snap).expect("snapshots");
    assert_eq!(entries, keys.len(), "one snapshot entry per cached key");
    drop(first);

    // The file is the version-2 format: a header, then one fingerprinted
    // record per entry carrying embeddings only — the watts cached beside
    // them are recomputed on restore, never serialized.
    assert_eq!(SNAPSHOT_FORMAT_VERSION, 2);
    let text = std::fs::read_to_string(&snap).expect("snapshot reads");
    for line in text.lines().skip(1) {
        assert!(line.starts_with("{\"fingerprint\":"), "{line:.40}");
        for field in [
            "\"record\":{\"model\":",
            "\"config_fingerprint\":",
            "\"key\":{",
            "\"embeddings\":{",
        ] {
            assert!(line.contains(field), "entry lacks {field}");
        }
        assert!(!line.contains("\"watts\""), "watts are never serialized");
    }

    // A fresh process restores every entry and answers bit-identically
    // without recomputing anything: no embeddings, and no head rows —
    // the restore computed each entry's watts before admitting it.
    let second = AtlasService::start(registry.load("snap").expect("loads"), svc_cfg());
    let report = second.restore_cache(&snap);
    assert_eq!(report.restored, keys.len());
    assert_eq!(report.skipped, 0);
    for (&(d, w, c), original) in keys.iter().zip(&originals) {
        let warm = second.call(PredictRequest::new(d, w, c)).expect("predicts");
        assert!(warm.cache_hit, "restored {d}/{w}/{c} must be a cache hit");
        assert_eq!(
            watt_bits(
                &warm.per_cycle_total_w,
                warm.mean_total_w,
                warm.peak_total_w,
                &warm.groups
            ),
            watt_bits(
                &original.per_cycle_total_w,
                original.mean_total_w,
                original.peak_total_w,
                &original.groups
            ),
            "restored {d}/{w}/{c} must be bit-identical"
        );
    }
    let stats = second.stats();
    assert_eq!(
        stats.embeddings_computed, 0,
        "a restored shard must answer its warm keys without recomputing"
    );
    assert_eq!(
        (stats.head_rows_evaluated, stats.head_rows_reused),
        (0, 0),
        "a restored entry's first hit runs no heads"
    );
    drop(second);

    // Flip one bit in the middle of the last entry line (bit 0, so the
    // file stays ASCII): whether that breaks the JSON or just the
    // fingerprint, the entry must be skipped — never fatal — and every
    // intact entry still restores.
    let mut lines: Vec<Vec<u8>> = text.lines().map(|l| l.as_bytes().to_vec()).collect();
    assert_eq!(lines.len(), 1 + keys.len(), "header + one line per entry");
    let last = lines.len() - 1;
    let mid = lines[last].len() / 2;
    lines[last][mid] ^= 1;
    let tampered_text: Vec<u8> = lines
        .into_iter()
        .flat_map(|mut l| {
            l.push(b'\n');
            l
        })
        .collect();
    let tampered = dir.join("tampered.snapshot");
    std::fs::write(&tampered, tampered_text).expect("tampered writes");

    let third = AtlasService::start(registry.load("snap").expect("loads"), svc_cfg());
    let report = third.restore_cache(&tampered);
    assert_eq!(
        report.restored,
        keys.len() - 1,
        "intact entries still restore"
    );
    assert_eq!(
        report.skipped, 1,
        "the corrupted entry is skipped, not fatal"
    );
    // Every key still answers; only the corrupted one recomputes.
    for &(d, w, c) in &keys {
        let resp = third
            .call(PredictRequest::new(d, w, c))
            .expect("still answers");
        assert!(resp.mean_total_w > 0.0);
    }
    assert_eq!(
        third.stats().embeddings_computed,
        1,
        "exactly the corrupted entry's key recomputes"
    );

    // A snapshot from the previous format version (whose f32 rows came
    // from a since-removed f32 encoder) is never served: every entry is
    // skipped and every key recomputes cold.
    let current = format!("\"format_version\":{SNAPSHOT_FORMAT_VERSION}");
    let older = format!("\"format_version\":{}", SNAPSHOT_FORMAT_VERSION - 1);
    let (header, body) = text.split_once('\n').expect("header line");
    assert!(
        header.contains(&current),
        "header carries the snapshot version"
    );
    let stale = dir.join("stale.snapshot");
    std::fs::write(
        &stale,
        format!("{}\n{body}", header.replace(&current, &older)),
    )
    .expect("stale writes");
    let fourth = AtlasService::start(registry.load("snap").expect("loads"), svc_cfg());
    let report = fourth.restore_cache(&stale);
    assert_eq!(
        report.restored, 0,
        "an old-version snapshot restores nothing"
    );
    assert_eq!(report.skipped, keys.len(), "every entry is skipped");
    let &(d, w, c) = &keys[0];
    let resp = fourth.call(PredictRequest::new(d, w, c)).expect("predicts");
    assert!(!resp.cache_hit, "a skipped entry recomputes cold");
    assert_eq!(resp.per_cycle_total_w, originals[0].per_cycle_total_w);

    let _ = std::fs::remove_dir_all(&dir);
}
