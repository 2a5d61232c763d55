//! CI perf-regression gates over the committed bench baselines.
//!
//! Deliberately dependency-free (compiled with bare `rustc` in CI, no
//! cargo/registry), so the JSON "parsing" is a targeted scan for numbers
//! inside named objects.
//!
//! ```text
//! rustc -O scripts/check_bench.rs -o check_bench
//! # serve gate: warm (cache-hit) p50 must not regress past MAX_RATIO,
//! # the fresh quota-storm scenario must keep the victim model's p50
//! # within 3x of its idle p50, and the fresh edit-loop scenario must
//! # show predict_delta at least 2x faster at p50 than a full recompute
//! ./check_bench BENCH_serve.json BENCH_serve.ci.json 2.0
//! # embed gate: batched embed throughput must not regress past
//! # MAX_RATIO; the fresh batched-vs-per-cycle speedup must stay above
//! # a floor; when the fresh run dispatched a SIMD kernel, its in-run
//! # SIMD-over-scalar speedup must clear SIMD_SPEEDUP_FLOOR; and the
//! # f32-storage rows' accuracy delta must stay within its tolerance; and
//! # the compiled GBDT heads must match the reference walk bit for bit
//! # and beat it by HEADS_SPEEDUP_FLOOR in the same run
//! ./check_bench --infer BENCH_infer.json BENCH_infer.ci.json 2.0
//! # shard gate: two shards behind the proxy must clear the scale-out
//! # floor over one, a shard restarted from its cache snapshot must not
//! # recompute anything, and its restored warm p50 must stay within 2x
//! # of the steady warm p50 (all measured inside the fresh run)
//! ./check_bench --shard BENCH_serve.json BENCH_serve.ci.json 2.0
//! ```
//!
//! Exits non-zero on a regression beyond the allowed factor, and on
//! malformed reports, so a bench that silently stopped emitting a
//! scenario cannot pass.
//!
//! # Baseline-refresh rule
//!
//! The committed `BENCH_*.json` baselines are **machine-class
//! artifacts**: refresh them (re-run the bench on a release build and
//! commit the new file) whenever a change intentionally moves
//! performance, and note the machine's `isa`/`kernel` fields when
//! comparing across runners — a baseline recorded on an AVX2 machine is
//! not a fair throughput bar for a scalar-only runner, which is why the
//! cross-run gates are loose ratios while the strict floors
//! (`speedup`, `simd_speedup`, `f32_max_rel_delta`, `heads.speedup`) compare numbers
//! measured *inside one fresh run*. Never "fix" a gate failure by
//! refreshing the baseline without understanding the regression; the
//! refresh is for deliberate perf changes, not drift.

use std::process::ExitCode;

/// Minimum batched-over-per-cycle speedup a fresh `infer_bench` report
/// must show at its gate scale. The committed baseline demonstrates
/// >2x on the reference machine; CI runners vary, so the floor only
/// guards against the batched path losing its advantage outright.
const INFER_SPEEDUP_FLOOR: f64 = 1.2;

/// Minimum SIMD-over-forced-scalar embed speedup a fresh `infer_bench`
/// report must show at its gate scale — but only when the fresh run
/// actually dispatched a SIMD kernel (`gate.simd_active` ≥ 1). Both
/// arms run inside the same process on the same machine, so the ratio
/// is runner-class independent; a scalar-only runner skips the gate
/// (its dispatch *is* the scalar kernel — nothing to compare).
const SIMD_SPEEDUP_FLOOR: f64 = 1.5;

/// Minimum aggregate-throughput scale-out a fresh `serve_bench` report
/// must show for two shard processes over one, both serving the same
/// cache-thrashing working set through the consistent-hash proxy inside
/// one run — runner-class independent, like the other in-run ratios.
const SHARD_SCALEOUT_FLOOR: f64 = 1.6;

/// Maximum warm-p50 inflation a shard restarted from its cache snapshot
/// may show over the steady warm p50 measured just before it drained.
/// A restore that silently failed would answer cold (tens of ms vs
/// single-digit), blowing far past this.
const SHARD_RESTORE_MAX_RATIO: f64 = 2.0;

/// Minimum `full p50 / delta p50` speedup the edit-loop scenario must
/// show for a 1-sub-module edit: `predict_delta` reusing the base
/// trace's clean (sub-module × cycle) items must answer at least this
/// much faster at p50 than a cold full `predict` of the same revision.
/// Both arms are measured inside the fresh run (same machine, same
/// process), so the ratio is runner-class independent. Mirrored by
/// `DELTA_SPEEDUP_FLOOR` in `crates/serve/src/bin/serve_bench.rs`.
const DELTA_SPEEDUP_FLOOR: f64 = 2.0;

/// Minimum compiled-forest-over-reference-walk speedup the GBDT heads
/// must show in a fresh `infer_bench` report (`heads.speedup`). Both
/// arms evaluate the same rows in the same process, so the ratio is
/// runner-class independent; the reference machine measures 2–3x.
const HEADS_SPEEDUP_FLOOR: f64 = 1.5;

/// Maximum victim-model p50 inflation the quota-storm scenario may show:
/// while one model's cold storm saturates its quota, another model's
/// warm p50 must stay within this factor of its no-storm p50. Both
/// numbers come from the *fresh* report (same machine, same run), so the
/// ratio is runner-class independent.
const QUOTA_STORM_MAX_RATIO: f64 = 3.0;

/// The text right after `"field":` inside the top-level `object` of a
/// serde-style pretty-printed JSON report.
fn field_text<'a>(json: &'a str, object: &str, field: &str) -> Result<&'a str, String> {
    let obj_key = format!("\"{object}\"");
    let start = json
        .find(&obj_key)
        .ok_or_else(|| format!("no `{object}` object in report"))?;
    let body = &json[start..];
    let open = body
        .find('{')
        .ok_or_else(|| format!("`{object}` is not an object"))?;
    // Scope the field search to this object (up to its closing brace).
    let mut depth = 0usize;
    let mut end = body.len();
    for (i, c) in body[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    let scope = &body[open..end];
    let field_key = format!("\"{field}\"");
    let at = scope
        .find(&field_key)
        .ok_or_else(|| format!("no `{field}` in `{object}`"))?;
    let after = &scope[at + field_key.len()..];
    let colon = after
        .find(':')
        .ok_or_else(|| format!("malformed `{field}`"))?;
    Ok(after[colon + 1..].trim_start())
}

/// Extract the number `field` from inside the top-level `object`.
fn extract(json: &str, object: &str, field: &str) -> Result<f64, String> {
    let rest = field_text(json, object, field)?;
    let number: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    number
        .parse()
        .map_err(|e| format!("bad `{object}.{field}` number `{number}`: {e}"))
}

/// Extract the boolean `field` from inside the top-level `object`.
fn extract_bool(json: &str, object: &str, field: &str) -> Result<bool, String> {
    let rest = field_text(json, object, field)?;
    if rest.starts_with("true") {
        Ok(true)
    } else if rest.starts_with("false") {
        Ok(false)
    } else {
        Err(format!("`{object}.{field}` is not a boolean"))
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let mut first = args
        .next()
        .ok_or("usage: check_bench [--infer|--shard] BASELINE.json NEW.json [MAX_RATIO]")?;
    let infer_mode = first == "--infer";
    let shard_mode = first == "--shard";
    if infer_mode || shard_mode {
        first = args
            .next()
            .ok_or_else(|| format!("{} requires BASELINE.json", if infer_mode { "--infer" } else { "--shard" }))?;
    }
    let baseline_path = first;
    let new_path = args
        .next()
        .ok_or("usage: check_bench [--infer|--shard] BASELINE.json NEW.json [MAX_RATIO]")?;
    let max_ratio: f64 = match args.next() {
        Some(r) => r.parse().map_err(|e| format!("bad MAX_RATIO: {e}"))?,
        None => 2.0,
    };
    let baseline = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("read {baseline_path}: {e}"))?;
    let fresh =
        std::fs::read_to_string(&new_path).map_err(|e| format!("read {new_path}: {e}"))?;

    if infer_mode {
        // Embed gate: fresh batched throughput may not fall more than
        // max_ratio below the committed baseline, and the fresh in-run
        // speedup over the per-cycle path must stay above the floor.
        let base_cps = extract(&baseline, "gate", "batched_cycles_per_s")?;
        let new_cps = extract(&fresh, "gate", "batched_cycles_per_s")?;
        let speedup = extract(&fresh, "gate", "speedup")?;
        if !(base_cps > 0.0) {
            return Err(format!("baseline embed throughput not positive: {base_cps}"));
        }
        let ratio = base_cps / new_cps.max(1e-9);
        println!(
            "embed throughput: baseline {base_cps:.1} cyc/s, new {new_cps:.1} cyc/s \
             ({ratio:.2}x slower, limit {max_ratio:.2}x); fresh speedup {speedup:.2}x \
             (floor {INFER_SPEEDUP_FLOOR:.2}x)"
        );
        if ratio > max_ratio {
            return Err(format!(
                "batched embed throughput regressed {ratio:.2}x (> {max_ratio:.2}x allowed)"
            ));
        }
        if speedup < INFER_SPEEDUP_FLOOR {
            return Err(format!(
                "batched-over-per-cycle speedup fell to {speedup:.2}x \
                 (< {INFER_SPEEDUP_FLOOR:.2}x floor)"
            ));
        }

        // SIMD gate: when the fresh run dispatched a SIMD kernel, its
        // in-run SIMD-over-scalar speedup (both arms measured in the
        // same process) must clear the floor. Scalar-only runners have
        // nothing to compare and skip it.
        let simd_active = extract(&fresh, "gate", "simd_active")?;
        let simd_speedup = extract(&fresh, "gate", "simd_speedup")?;
        if simd_active >= 1.0 {
            println!(
                "simd embed speedup over forced scalar: {simd_speedup:.2}x \
                 (floor {SIMD_SPEEDUP_FLOOR:.2}x)"
            );
            if simd_speedup < SIMD_SPEEDUP_FLOOR {
                return Err(format!(
                    "simd-over-scalar embed speedup fell to {simd_speedup:.2}x \
                     (< {SIMD_SPEEDUP_FLOOR:.2}x floor)"
                ));
            }
        } else {
            println!(
                "simd kernel not dispatched on this runner (scalar only) — \
                 skipping the {SIMD_SPEEDUP_FLOOR:.2}x simd gate"
            );
        }

        // f32 accuracy gate: the f32-storage rows' worst relative delta
        // against the f64 reference must stay within the tolerance the
        // report itself declares (shared with the core model tests).
        let f32_delta = extract(&fresh, "gate", "f32_max_rel_delta")?;
        let f32_tolerance = extract(&fresh, "gate", "f32_tolerance")?;
        println!(
            "f32 embed accuracy: max rel delta {f32_delta:.2e} \
             (tolerance {f32_tolerance:.2e})"
        );
        if !(f32_tolerance > 0.0) {
            return Err(format!("f32 tolerance not positive: {f32_tolerance}"));
        }
        if f32_delta > f32_tolerance {
            return Err(format!(
                "f32 embed accuracy delta {f32_delta:.2e} exceeded its \
                 tolerance {f32_tolerance:.2e}"
            ));
        }

        // Heads gate: the compiled GBDT forest must stay bit-identical to
        // the reference tree walk and keep its in-run speedup.
        let heads_parity = extract_bool(&fresh, "heads", "parity")?;
        let heads_speedup = extract(&fresh, "heads", "speedup")?;
        println!(
            "gbdt heads: compiled over reference {heads_speedup:.2}x \
             (floor {HEADS_SPEEDUP_FLOOR:.2}x), parity {heads_parity}"
        );
        if !heads_parity {
            return Err("compiled GBDT heads diverged from the reference walk".into());
        }
        if heads_speedup < HEADS_SPEEDUP_FLOOR {
            return Err(format!(
                "compiled GBDT heads speedup fell to {heads_speedup:.2}x \
                 (< {HEADS_SPEEDUP_FLOOR:.2}x floor)"
            ));
        }
        return Ok(());
    }

    if shard_mode {
        // Cross-run gate: fresh dual-shard aggregate throughput may not
        // fall more than max_ratio below the committed baseline's.
        let base_rps = extract(&baseline, "dual_shard", "throughput_rps")?;
        let new_rps = extract(&fresh, "dual_shard", "throughput_rps")?;
        if !(base_rps > 0.0) {
            return Err(format!(
                "baseline dual-shard throughput not positive: {base_rps}"
            ));
        }
        let ratio = base_rps / new_rps.max(1e-9);
        println!(
            "dual-shard throughput: baseline {base_rps:.1} req/s, new {new_rps:.1} req/s \
             ({ratio:.2}x slower, limit {max_ratio:.2}x)"
        );
        if ratio > max_ratio {
            return Err(format!(
                "dual-shard throughput regressed {ratio:.2}x (> {max_ratio:.2}x allowed)"
            ));
        }

        // In-run gates, all runner-class independent.
        let scaleout = extract(&fresh, "shard_scaleout", "scaleout")?;
        println!("shard scale-out at 2 shards: {scaleout:.2}x (floor {SHARD_SCALEOUT_FLOOR:.2}x)");
        if scaleout < SHARD_SCALEOUT_FLOOR {
            return Err(format!(
                "two shards scaled throughput only {scaleout:.2}x over one \
                 (< {SHARD_SCALEOUT_FLOOR:.2}x floor)"
            ));
        }
        let recomputed = extract(&fresh, "shard_scaleout", "restored_embeddings_computed")?;
        if recomputed != 0.0 {
            return Err(format!(
                "a shard restarted from its snapshot recomputed {recomputed} embeddings \
                 (must be 0)"
            ));
        }
        let steady_p50 = extract(&fresh, "shard_scaleout", "steady_warm_p50_ms")?;
        let restored_p50 = extract(&fresh, "shard_scaleout", "restored_warm_p50_ms")?;
        if !(steady_p50 > 0.0) {
            return Err(format!("steady warm p50 is not positive: {steady_p50}"));
        }
        let restore_ratio = restored_p50 / steady_p50;
        println!(
            "snapshot-restored warm p50: steady {steady_p50:.3} ms, restored {restored_p50:.3} ms \
             ({restore_ratio:.2}x, limit {SHARD_RESTORE_MAX_RATIO:.2}x)"
        );
        if restore_ratio > SHARD_RESTORE_MAX_RATIO {
            return Err(format!(
                "restored warm p50 inflated {restore_ratio:.2}x over steady \
                 (> {SHARD_RESTORE_MAX_RATIO:.2}x allowed)"
            ));
        }
        return Ok(());
    }

    let base_p50 = extract(&baseline, "warm", "p50_ms")?;
    let new_p50 = extract(&fresh, "warm", "p50_ms")?;
    if !(base_p50 > 0.0) {
        return Err(format!("baseline warm p50 is not positive: {base_p50}"));
    }
    let ratio = new_p50 / base_p50;
    println!(
        "warm (cache-hit) p50: baseline {base_p50:.3} ms, new {new_p50:.3} ms \
         ({ratio:.2}x, limit {max_ratio:.2}x)"
    );
    if ratio > max_ratio {
        return Err(format!(
            "cache-hit p50 regressed {ratio:.2}x (> {max_ratio:.2}x allowed)"
        ));
    }

    // Quota-storm gate: the victim model's p50 while another model's
    // cold storm saturates its quota must stay within the allowed factor
    // of its idle p50 — both measured inside the fresh run. A report
    // missing the scenario fails, so the bench cannot silently stop
    // emitting it.
    let idle_p50 = extract(&fresh, "quota_storm", "victim_idle_p50_ms")?;
    let storm_p50 = extract(&fresh, "quota_storm", "victim_storm_p50_ms")?;
    if !(idle_p50 > 0.0) {
        return Err(format!("quota-storm idle p50 is not positive: {idle_p50}"));
    }
    let storm_ratio = storm_p50 / idle_p50;
    println!(
        "quota-storm victim p50: idle {idle_p50:.3} ms, under storm {storm_p50:.3} ms \
         ({storm_ratio:.2}x, limit {QUOTA_STORM_MAX_RATIO:.2}x)"
    );
    if storm_ratio > QUOTA_STORM_MAX_RATIO {
        return Err(format!(
            "victim p50 under a quota storm inflated {storm_ratio:.2}x \
             (> {QUOTA_STORM_MAX_RATIO:.2}x allowed)"
        ));
    }

    // Edit-loop gate: `predict_delta` on a 1-sub-module edit must beat a
    // cold full recompute of the same revision by the floor, and must
    // actually have reused base items (a delta that silently recomputed
    // everything could still "win" on noise alone). In-run numbers, so
    // runner-class independent; a report missing the scenario fails.
    let delta_speedup = extract(&fresh, "edit_loop", "delta_speedup")?;
    let reused_cycles = extract(&fresh, "edit_loop", "reused_cycles")?;
    println!(
        "edit-loop delta speedup over full recompute: {delta_speedup:.2}x \
         (floor {DELTA_SPEEDUP_FLOOR:.2}x), {reused_cycles} cycle-items reused"
    );
    if reused_cycles < 1.0 {
        return Err("edit-loop deltas reused no base items — the cache reuse path is dead".into());
    }
    if delta_speedup < DELTA_SPEEDUP_FLOOR {
        return Err(format!(
            "edit-loop delta p50 was only {delta_speedup:.2}x faster than a full \
             recompute (< {DELTA_SPEEDUP_FLOOR:.2}x floor)"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("check_bench: {msg}");
            ExitCode::FAILURE
        }
    }
}
