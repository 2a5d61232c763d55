//! Embed-path benchmark: per-cycle vs cross-cycle layer-batched encoder
//! forwards over real designs, writing `BENCH_infer.json`.
//!
//! ```text
//! infer_bench [--out PATH] [--cycles N] [--threads N] [--reps N]
//!             [--scales F,F,..] [--gate-scale F]
//! ```
//!
//! For each design scale the bench builds C1 at that scale, simulates a
//! W1 toggle trace, and times three embeds of the whole trace:
//!
//! * **per_cycle** — the seed hot path, reproduced verbatim in
//!   [`seed_path`]: the scalar zero-skipping matmul kernel, one forward
//!   (with per-operation allocations) per (sub-module, cycle),
//!   sub-modules chunked across threads *by count*, plus per-cycle side
//!   features;
//! * **batched** — [`AtlasModel::embed_trace`] as shipped: the blocked
//!   register-tiled SIMD kernels, work-balanced work items, whole-trace
//!   toggle-pattern dedup, and the cycle-blocked forward (one fused
//!   matmul per layer per chunk);
//! * **scalar_batched** — the same batched path with the kernel dispatch
//!   pinned to the scalar fallback, isolating the SIMD micro-kernels'
//!   contribution as `simd_speedup` (an in-run ratio, so the CI gate
//!   compares like with like on whatever machine runs it).
//!
//! The arms produce bit-identical embeddings (checked, reported as
//! `parity`/`scalar_parity` — seed, batched, and scalar-batched forwards
//! are the same dot-product sequence per output element); the bench
//! measures throughput in embedded trace cycles per second. One untimed
//! embed at [`Precision::F32`] storage checks the f32 accuracy contract:
//! `f32_max_rel_delta` against the f64 rows, gated on
//! [`F32_EMBED_TOLERANCE`]. The `gate` object repeats the `--gate-scale`
//! row with flat numeric field names for the CI regression gate
//! (`scripts/check_bench.rs --infer`), and the report's `isa`/`kernel`
//! fields record what the dispatch actually selected on the benchmarking
//! machine.
//!
//! The `heads` object times the head stage — all a cache hit pays —
//! on GBDTs fitted like the serving benchmark's heads
//! (`ExperimentConfig::quick()`: 60 trees of depth 5, widths 24 and 27)
//! over synthetic rows: the node-link reference walk
//! ([`Gbdt::predict_reference`], one row at a time) against the compiled
//! forest ([`Gbdt::predict_block`]), alternating which runs first. It
//! reports µs per row for each, their in-run `speedup`, and `parity`
//! (every output bit-identical), both gated by `check_bench --infer`.

use std::process::ExitCode;
use std::time::Instant;

use atlas_core::features::{build_submodule_data, side_features, SubmoduleData};
use atlas_core::finetune::{MemoryModel, PowerHeads};
use atlas_core::{AtlasModel, EmbeddingTable, ExperimentConfig, Precision, F32_EMBED_TOLERANCE};
use atlas_designs::DesignConfig;
use atlas_gbdt::{Gbdt, GbdtConfig};
use atlas_liberty::Library;
use atlas_netlist::Design;
use atlas_nn::simd::{self, KernelLevel};
use atlas_nn::{EncoderConfig, EncoderState, GraphEncoder, Matrix, SparseAdj};
use atlas_sim::{simulate, PhasedWorkload, ToggleTrace};
use serde::Serialize;

/// The seed implementation of the embed hot path, frozen here as the
/// benchmark baseline: scalar ikj matmul with the `a == 0.0` skip, a
/// fresh allocation per operation, and one full forward per cycle.
mod seed_path {
    use super::Matrix;
    use super::SparseAdj;

    /// The seed's dense kernel (scalar, zero-skipping).
    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
        let (ar, ac, bc) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(ar, bc);
        let ad = a.as_slice();
        let bd = b.as_slice();
        for i in 0..ar {
            let orow = &mut out.as_mut_slice()[i * bc..(i + 1) * bc];
            for k in 0..ac {
                let av = ad[i * ac + k];
                if av == 0.0 {
                    continue;
                }
                let brow = &bd[k * bc..(k + 1) * bc];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// The seed's `selfᵀ × other` kernel.
    fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "matmul_tn shape mismatch");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        let bc = b.cols();
        for k in 0..a.rows() {
            let arow = a.row(k);
            let brow = b.row(k);
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out.as_mut_slice()[i * bc..(i + 1) * bc];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// A frozen copy of the seed's `InferenceEncoder::encode_graph`.
    pub struct SeedEncoder {
        weights: Vec<Matrix>,
        layers: usize,
        hidden: usize,
        alpha: f64,
        sum_pool_scale: f64,
    }

    impl SeedEncoder {
        pub fn new(state: &super::EncoderState) -> SeedEncoder {
            SeedEncoder {
                weights: state.tensors.clone(),
                layers: state.config.layers,
                hidden: state.config.hidden_dim,
                alpha: state.config.alpha,
                sum_pool_scale: atlas_nn::SUM_POOL_SCALE,
            }
        }

        fn linear(&self, idx: usize, x: &Matrix) -> Matrix {
            let w = &self.weights[idx * 2];
            let b = &self.weights[idx * 2 + 1];
            let mut out = matmul(x, w);
            for r in 0..out.rows() {
                for c in 0..out.cols() {
                    let v = out.get(r, c) + b.get(0, c);
                    out.set(r, c, v);
                }
            }
            out
        }

        pub fn encode_graph(&self, adj: &SparseAdj, features: &Matrix) -> Vec<f64> {
            let n = features.rows();
            let relu = |m: Matrix| m.map(|v| v.max(0.0));
            let mut h = relu(self.linear(0, features));
            for l in 0..self.layers {
                let base = 1 + l * 4;
                let pq = self.linear(base, &h).map(|v| v.max(0.0) + 0.01);
                let pk = self.linear(base + 1, &h).map(|v| v.max(0.0) + 0.01);
                let v = self.linear(base + 2, &h);
                let kv = matmul_tn(&pk, &v); // d×d
                let num = matmul(&pq, &kv); // n×d
                let ksum = matmul_tn(&pk, &Matrix::full(n, 1, 1.0)); // d×1
                let denom = matmul(&pq, &ksum); // n×1
                let mut attn = num;
                for r in 0..n {
                    let dv = denom.get(r, 0);
                    for c in 0..attn.cols() {
                        attn.set(r, c, attn.get(r, c) / dv);
                    }
                }
                let prop = relu(self.linear(base + 3, &adj.matmul(&h)));
                let mut mixed = Matrix::zeros(n, self.hidden);
                for i in 0..mixed.as_slice().len() {
                    mixed.as_mut_slice()[i] = (self.alpha * attn.as_slice()[i]
                        + (1.0 - self.alpha) * prop.as_slice()[i])
                        .max(0.0);
                }
                h = mixed;
            }
            let nf = h.rows() as f64;
            let pooled = h.mean_rows();
            let w = &self.weights[(1 + self.layers * 4) * 2];
            let b = &self.weights[(1 + self.layers * 4) * 2 + 1];
            let out = matmul(&pooled, w);
            let scale = nf * self.sum_pool_scale;
            (0..out.cols())
                .map(|c| (out.get(0, c) + b.get(0, c)) * scale)
                .collect()
        }
    }
}

struct Args {
    out: String,
    cycles: usize,
    threads: usize,
    reps: usize,
    scales: Vec<f64>,
    gate_scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_infer.json".into(),
        // The production ExperimentConfig default trace length.
        cycles: 300,
        threads: 0,
        reps: 3,
        scales: vec![0.05, 0.1, 0.2],
        gate_scale: 0.05,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--out" => args.out = value("--out")?,
            "--cycles" => args.cycles = value("--cycles")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--reps" => args.reps = value("--reps")?.parse().map_err(|e| format!("{e}"))?,
            "--scales" => {
                args.scales = value("--scales")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("bad scale: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--gate-scale" => {
                args.gate_scale = value("--gate-scale")?.parse().map_err(|e| format!("{e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.cycles == 0 || args.reps == 0 || args.scales.is_empty() {
        return Err("--cycles, --reps, and --scales must be non-empty/positive".into());
    }
    if !args.scales.contains(&args.gate_scale) {
        args.scales.push(args.gate_scale);
    }
    Ok(args)
}

/// An `AtlasModel` whose heads are never evaluated: `embed_trace` only
/// touches the encoder, so tiny placeholder GBDTs keep the bench free of
/// a multi-second training phase while still exercising the real
/// serving-path entry point. The encoder is sized like the serving
/// benchmark's model (`ExperimentConfig::quick()`: hidden 24, 1 layer) —
/// this bench exists to explain `BENCH_serve.json`'s cold path.
fn stub_model() -> AtlasModel {
    let cfg = EncoderConfig {
        hidden_dim: 24,
        layers: 1,
        ..EncoderConfig::default()
    };
    let hidden = cfg.hidden_dim;
    let encoder = GraphEncoder::new(cfg).state();
    let x = [0.0, 1.0, 2.0, 3.0];
    let y = [0.0, 1.0, 2.0, 3.0];
    let tiny = || {
        Gbdt::fit(
            &x,
            1,
            &y,
            &GbdtConfig {
                n_estimators: 1,
                ..GbdtConfig::default()
            },
        )
    };
    let heads = PowerHeads {
        f_ct: tiny(),
        f_comb: tiny(),
        f_reg: tiny(),
        memory: MemoryModel {
            w_read: 0.0,
            w_write: 0.0,
            w_bit: 0.0,
            bias: 0.0,
        },
        embed_dim: hidden,
        side_features: false,
    };
    AtlasModel::new(encoder, heads)
}

/// The seed hot path: count-chunked threads, one scalar-kernel forward
/// per (sub-module, cycle), plus per-cycle side features. Returns the
/// embeddings in `data` order for the parity check.
fn embed_per_cycle(
    encoder: &seed_path::SeedEncoder,
    gate: &Design,
    lib: &Library,
    data: &[SubmoduleData],
    trace: &ToggleTrace,
    threads: usize,
) -> Vec<Vec<Vec<f64>>> {
    let cycles = trace.cycles();
    let threads = threads.clamp(1, data.len().max(1));
    let chunk = data.len().div_ceil(threads).max(1);
    let pieces: Vec<(usize, &[SubmoduleData])> = data
        .chunks(chunk)
        .enumerate()
        .map(|(i, piece)| (i * chunk, piece))
        .collect();
    let mut out: Vec<(usize, Vec<Vec<Vec<f64>>>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = pieces
            .into_iter()
            .map(|(first, piece)| {
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(piece.len());
                    for smd in piece {
                        let per_sm: Vec<Vec<f64>> = (0..cycles)
                            .map(|t| {
                                let feats = smd.features_for_cycle(gate, trace, t);
                                encoder.encode_graph(smd.adj(), &feats)
                            })
                            .collect();
                        // Side features are part of stage one in both arms.
                        for t in 0..cycles {
                            std::hint::black_box(side_features(smd, gate, lib, trace, t));
                        }
                        local.push(per_sm);
                    }
                    (first, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("per-cycle worker"))
            .collect()
    });
    out.sort_by_key(|(first, _)| *first);
    out.into_iter().flat_map(|(_, local)| local).collect()
}

/// One arm's latency/throughput rollup.
#[derive(Debug, Serialize)]
struct Arm {
    /// Best-of-`reps` wall time for the whole trace, seconds.
    wall_s: f64,
    /// Embedded trace cycles per second at that wall time.
    cycles_per_s: f64,
}

/// One design scale's measurement.
#[derive(Debug, Serialize)]
struct ScaleRow {
    scale: f64,
    submodules: usize,
    cells: usize,
    per_cycle: Arm,
    batched: Arm,
    scalar_batched: Arm,
    /// `batched.cycles_per_s / per_cycle.cycles_per_s`.
    speedup: f64,
    /// `batched.cycles_per_s / scalar_batched.cycles_per_s` — the SIMD
    /// micro-kernels' in-run contribution.
    simd_speedup: f64,
    /// Largest `|f32 − f64| / (1 + |f64|)` over every embedding element
    /// of the f32-storage embed.
    f32_max_rel_delta: f64,
    /// Whether batched f64 embeddings are bit-identical to the seed path
    /// (must be true).
    parity: bool,
    /// Whether scalar-batched embeddings are bit-identical to the seed
    /// path (must be true — the scalar fallback defines the reference).
    scalar_parity: bool,
}

/// The CI gate row: the `--gate-scale` measurement with flat **numeric**
/// field names for the dependency-free scanner in
/// `scripts/check_bench.rs` (which reads numbers only — hence
/// `simd_active` as 0/1 rather than a bool).
#[derive(Debug, Serialize)]
struct GateRow {
    scale: f64,
    per_cycle_cycles_per_s: f64,
    batched_cycles_per_s: f64,
    speedup: f64,
    /// In-run SIMD-vs-scalar batched throughput ratio.
    simd_speedup: f64,
    /// 1 when the dispatch selected a SIMD kernel level, 0 when the
    /// scalar fallback ran (no AVX2, or `ATLAS_FORCE_SCALAR`).
    simd_active: u32,
    /// Largest f32-vs-f64 relative embedding delta at the gate scale.
    f32_max_rel_delta: f64,
    /// The accuracy bound `f32_max_rel_delta` is gated against
    /// ([`F32_EMBED_TOLERANCE`], written out so the gate script
    /// needs no shared constant).
    f32_tolerance: f64,
    parity: bool,
}

/// Head-stage timing: reference walk vs compiled forest on the same rows.
#[derive(Debug, Serialize)]
struct HeadsRow {
    /// Rows evaluated per arm per rep, summed over the three heads.
    rows: usize,
    /// Trees per head.
    trees: usize,
    /// Tree depth cap of the fitted heads.
    max_depth: usize,
    /// Best-of-reps reference (`predict_reference`) cost per row, µs.
    reference_us_per_row: f64,
    /// Best-of-reps compiled (`predict_block`) cost per row, µs.
    compiled_us_per_row: f64,
    /// `reference_us_per_row / compiled_us_per_row`, measured in this run.
    speedup: f64,
    /// Whether every compiled output is bit-identical to the reference.
    parity: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    cycles: usize,
    threads: usize,
    reps: usize,
    /// ISA level runtime feature detection found on this machine.
    isa: String,
    /// Kernel variant the dispatch selected.
    kernel: String,
    scales: Vec<ScaleRow>,
    gate: GateRow,
    heads: HeadsRow,
}

/// Bit-exact comparison of a batched f64 embedding table against the
/// seed path's rows (an f32 table never matches — the arms that demand
/// parity run at f64).
fn table_matches_f64(table: &EmbeddingTable, baseline: &[Vec<f64>]) -> bool {
    match table {
        EmbeddingTable::F64(rows) => rows.as_slice() == baseline,
        EmbeddingTable::F32(_) => false,
    }
}

/// Largest `|a − b| / (1 + |b|)` between an f32 embedding table and the
/// f64 baseline rows — the accuracy metric f32 storage is gated on.
fn max_rel_delta_f32(table: &EmbeddingTable, baseline: &[Vec<f64>]) -> f64 {
    let EmbeddingTable::F32(rows) = table else {
        return f64::INFINITY;
    };
    let mut worst = 0.0f64;
    for (row, base) in rows.iter().zip(baseline) {
        if row.len() != base.len() {
            return f64::INFINITY;
        }
        for (&a, &b) in row.iter().zip(base) {
            worst = worst.max((a as f64 - b).abs() / (1.0 + b.abs()));
        }
    }
    worst
}

fn bench_scale(
    model: &AtlasModel,
    lib: &Library,
    scale: f64,
    cycles: usize,
    threads: usize,
    reps: usize,
) -> Result<ScaleRow, String> {
    let gate = DesignConfig::c1().scaled(scale).generate();
    let trace = simulate(&gate, &mut PhasedWorkload::w1(1), cycles)
        .map_err(|e| format!("simulate: {e}"))?;
    let data = build_submodule_data(&gate, lib);
    let encoder = seed_path::SeedEncoder::new(model.encoder());
    let prepared_f64 = model.prepare(Precision::F64);

    // The arms alternate within each rep so machine noise (a shared host,
    // frequency scaling) hits all equally; best-of-reps per arm.
    let mut per_cycle_wall = f64::MAX;
    let mut per_cycle_out = Vec::new();
    let mut batched_wall = f64::MAX;
    let mut batched_out = None;
    let mut scalar_wall = f64::MAX;
    let mut scalar_out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        per_cycle_out = embed_per_cycle(&encoder, &gate, lib, &data, &trace, threads);
        per_cycle_wall = per_cycle_wall.min(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        batched_out =
            Some(model.embed_trace_with(&prepared_f64, &gate, lib, &data, &trace, threads));
        batched_wall = batched_wall.min(t1.elapsed().as_secs_f64());

        // Same path, dispatch pinned to the scalar fallback: the SIMD
        // kernels' isolated contribution, measured in this very run.
        let prev = simd::set_kernel(KernelLevel::Scalar).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        scalar_out =
            Some(model.embed_trace_with(&prepared_f64, &gate, lib, &data, &trace, threads));
        scalar_wall = scalar_wall.min(t2.elapsed().as_secs_f64());
        simd::set_kernel(prev).map_err(|e| e.to_string())?;
    }
    let batched_out = batched_out.expect("reps >= 1");
    let scalar_out = scalar_out.expect("reps >= 1");
    let f32_out = model.embed_trace_with(
        &model.prepare(Precision::F32),
        &gate,
        lib,
        &data,
        &trace,
        threads,
    );

    let parity_with = |out: &atlas_core::TraceEmbeddings| {
        out.per_submodule().len() == per_cycle_out.len()
            && out
                .per_submodule()
                .iter()
                .zip(&per_cycle_out)
                .all(|(sm, baseline)| table_matches_f64(&sm.embeddings, baseline))
    };
    let parity = parity_with(&batched_out);
    let scalar_parity = parity_with(&scalar_out);
    let f32_max_rel_delta = f32_out
        .per_submodule()
        .iter()
        .zip(&per_cycle_out)
        .map(|(sm, baseline)| max_rel_delta_f32(&sm.embeddings, baseline))
        .fold(0.0f64, f64::max);

    let cps = |wall: f64| cycles as f64 / wall.max(1e-9);
    Ok(ScaleRow {
        scale,
        submodules: data.len(),
        cells: gate.cell_count(),
        per_cycle: Arm {
            wall_s: per_cycle_wall,
            cycles_per_s: cps(per_cycle_wall),
        },
        batched: Arm {
            wall_s: batched_wall,
            cycles_per_s: cps(batched_wall),
        },
        scalar_batched: Arm {
            wall_s: scalar_wall,
            cycles_per_s: cps(scalar_wall),
        },
        speedup: per_cycle_wall / batched_wall.max(1e-9),
        simd_speedup: scalar_wall / batched_wall.max(1e-9),
        f32_max_rel_delta,
        parity,
        scalar_parity,
    })
}

/// Rows per head in the heads timing: a C2-sized sub-module set (20)
/// at the production 300-cycle trace.
const HEAD_ROWS: usize = 6000;

/// Fit three heads shaped like the serving benchmark's
/// (`ExperimentConfig::quick()` GBDT settings; `F_CT` on the embedding
/// width, `F_Comb` and `F_Reg` on it plus three side features) on
/// synthetic rows, then time
/// the reference walk against the compiled forest over [`HEAD_ROWS`]
/// fresh rows per head.
fn bench_heads(reps: usize) -> HeadsRow {
    let quick = ExperimentConfig::quick();
    let cfg = quick.finetune.gbdt;
    let hidden = quick.pretrain.hidden_dim;
    let mut state = 0x5eed_u64;
    let mut unit = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let heads: Vec<(Gbdt, Vec<f64>)> = [hidden, hidden + 3, hidden + 3]
        .into_iter()
        .map(|width| {
            let mut sample = |n: usize| -> Vec<f64> { (0..n * width).map(|_| unit()).collect() };
            let train = sample(2000);
            let y: Vec<f64> = train
                .chunks(width)
                .map(|r| (3.0 * r[0]).sin() + r[1] * r[2] + (r[width - 1] - 0.5).abs())
                .collect();
            (Gbdt::fit(&train, width, &y, &cfg), sample(HEAD_ROWS))
        })
        .collect();

    let time_reference = |outs: &mut Vec<Vec<f64>>| {
        let t = Instant::now();
        for ((head, rows), out) in heads.iter().zip(outs.iter_mut()) {
            out.clear();
            out.extend(
                rows.chunks(head.n_features())
                    .map(|r| head.predict_reference(r)),
            );
        }
        t.elapsed().as_secs_f64()
    };
    let time_compiled = |outs: &mut Vec<Vec<f64>>| {
        let t = Instant::now();
        for ((head, rows), out) in heads.iter().zip(outs.iter_mut()) {
            out.resize(HEAD_ROWS, 0.0);
            head.predict_block(rows, out);
        }
        t.elapsed().as_secs_f64()
    };
    let mut reference_out = vec![Vec::new(); heads.len()];
    let mut compiled_out = vec![Vec::new(); heads.len()];
    let mut reference_wall = f64::MAX;
    let mut compiled_wall = f64::MAX;
    // Alternate which arm runs first so drift hits both; best of reps.
    for rep in 0..reps.max(2) {
        if rep % 2 == 0 {
            reference_wall = reference_wall.min(time_reference(&mut reference_out));
            compiled_wall = compiled_wall.min(time_compiled(&mut compiled_out));
        } else {
            compiled_wall = compiled_wall.min(time_compiled(&mut compiled_out));
            reference_wall = reference_wall.min(time_reference(&mut reference_out));
        }
    }
    let parity = reference_out
        .iter()
        .flatten()
        .map(|v| v.to_bits())
        .eq(compiled_out.iter().flatten().map(|v| v.to_bits()));
    let rows = HEAD_ROWS * heads.len();
    let per_row = |wall: f64| wall * 1e6 / rows as f64;
    HeadsRow {
        rows,
        trees: cfg.n_estimators,
        max_depth: cfg.max_depth,
        reference_us_per_row: per_row(reference_wall),
        compiled_us_per_row: per_row(compiled_wall),
        speedup: reference_wall / compiled_wall.max(1e-12),
        parity,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let threads = if args.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8)
    } else {
        args.threads
    };

    let lib = Library::synthetic_40nm();
    let model = stub_model();

    println!(
        "isa {} — kernel {}",
        simd::isa_label(),
        simd::kernel_label(simd::active_kernel())
    );

    let mut rows = Vec::new();
    for &scale in &args.scales {
        match bench_scale(&model, &lib, scale, args.cycles, threads, args.reps) {
            Ok(row) => {
                println!(
                    "scale {:.2}: {} submodules / {} cells — per-cycle {:.1} cyc/s, \
                     batched {:.1} cyc/s ({:.2}x, parity {}), simd {:.2}x (scalar parity {}), \
                     f32 max rel delta {:.2e}",
                    row.scale,
                    row.submodules,
                    row.cells,
                    row.per_cycle.cycles_per_s,
                    row.batched.cycles_per_s,
                    row.speedup,
                    row.parity,
                    row.simd_speedup,
                    row.scalar_parity,
                    row.f32_max_rel_delta,
                );
                rows.push(row);
            }
            Err(e) => {
                eprintln!("error: scale {scale}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let heads = bench_heads(args.reps);
    println!(
        "heads: {} rows, {} trees of depth {} — reference {:.3} us/row, compiled {:.3} us/row \
         ({:.2}x, parity {})",
        heads.rows,
        heads.trees,
        heads.max_depth,
        heads.reference_us_per_row,
        heads.compiled_us_per_row,
        heads.speedup,
        heads.parity,
    );

    let gate_row = rows
        .iter()
        .find(|r| r.scale == args.gate_scale)
        .expect("gate scale was appended to --scales");
    let report = Report {
        cycles: args.cycles,
        threads,
        reps: args.reps,
        isa: simd::isa_label().to_owned(),
        kernel: simd::kernel_label(simd::active_kernel()).to_owned(),
        gate: GateRow {
            scale: gate_row.scale,
            per_cycle_cycles_per_s: gate_row.per_cycle.cycles_per_s,
            batched_cycles_per_s: gate_row.batched.cycles_per_s,
            speedup: gate_row.speedup,
            simd_speedup: gate_row.simd_speedup,
            simd_active: u32::from(simd::active_kernel() > KernelLevel::Scalar),
            f32_max_rel_delta: gate_row.f32_max_rel_delta,
            f32_tolerance: F32_EMBED_TOLERANCE,
            parity: gate_row.parity,
        },
        scales: rows,
        heads,
    };

    let any_parity_broken = !report.heads.parity
        || report
            .scales
            .iter()
            .any(|r| !r.parity || !r.scalar_parity || r.f32_max_rel_delta > F32_EMBED_TOLERANCE);
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
    if any_parity_broken {
        eprintln!(
            "error: an arm diverged from its reference (f64 embed or head parity \
             broken, or f32 outside its {F32_EMBED_TOLERANCE:.0e} tolerance)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
