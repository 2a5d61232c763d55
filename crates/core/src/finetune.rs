//! Fine-tuning the three power heads (paper §V) and the memory-group
//! model (paper §VI-B).

use atlas_gbdt::{Gbdt, GbdtConfig};
use atlas_liberty::{Library, PowerGroup};
use serde::{Deserialize, Serialize};

use crate::bundle::DesignBundle;
use crate::features::SideFeatures;
use crate::model::{PreparedEncoder, TraceEmbeddings};

/// Fine-tuning hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FinetuneConfig {
    /// GBDT settings shared by the three heads.
    pub gbdt: GbdtConfig,
    /// Training cycles sampled per design (evenly spaced).
    pub cycles_per_design: usize,
    /// Give `F_Comb`/`F_Reg` the paper's `n`/`I`/`C` side features
    /// (disable for the feature-ablation bench).
    pub side_features: bool,
}

impl Default for FinetuneConfig {
    fn default() -> FinetuneConfig {
        FinetuneConfig {
            gbdt: GbdtConfig::default(),
            cycles_per_design: 48,
            side_features: true,
        }
    }
}

impl FinetuneConfig {
    /// A very small configuration for unit tests.
    pub fn test_tiny() -> FinetuneConfig {
        FinetuneConfig {
            gbdt: GbdtConfig {
                n_estimators: 30,
                ..GbdtConfig::default()
            },
            cycles_per_design: 8,
            ..FinetuneConfig::default()
        }
    }
}

/// The three fine-tuned group heads plus the memory model: everything
/// needed to turn embeddings + side features into watts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerHeads {
    /// `F_CT`: clock-tree watts from the embedding alone (the clock tree
    /// is invisible at the gate level — only the learned alignment can
    /// predict it, paper §V).
    pub f_ct: Gbdt,
    /// `F_Comb`: combinational watts from embedding + `n`, `I`, `C`.
    pub f_comb: Gbdt,
    /// `F_Reg`: register watts from embedding + `n`, `I`, `C`.
    pub f_reg: Gbdt,
    /// Closed-form memory-group model.
    pub memory: MemoryModel,
    /// Embedding width the heads expect.
    pub embed_dim: usize,
    /// Whether the comb/reg heads were trained with side features.
    pub side_features: bool,
}

impl PowerHeads {
    /// Predict the three learned groups for one sub-module-cycle.
    /// Predictions are clamped at zero (power is non-negative).
    ///
    /// A one-row [`predict_block`](Self::predict_block); prefer that with a
    /// kept [`HeadScratch`] when evaluating many rows.
    pub fn predict_groups(&self, embedding: &[f64], side: &SideFeatures) -> [f64; 3] {
        let mut out = [[0.0; 3]];
        self.predict_block(
            &[embedding],
            std::slice::from_ref(side),
            &mut HeadScratch::default(),
            &mut out,
        );
        out[0]
    }

    /// Predict `[comb, reg, ct]` watts, clamped at zero, for a block of
    /// sub-module-cycles: `rows[i]` is an embedding at its storage
    /// precision (f32 rows are widened here, a block at a time) and
    /// `sides[i]` its side features. The rows are gathered into
    /// `scratch`'s buffers, so a kept scratch makes the call allocation
    /// free. Each head sums its trees per row in tree order, so the
    /// result is bit-identical to evaluating the rows one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `rows`, `sides` and `out` differ in length, or if a row
    /// is not `f_ct`'s width.
    pub fn predict_block<R, T>(
        &self,
        rows: &[R],
        sides: &[SideFeatures],
        scratch: &mut HeadScratch,
        out: &mut [[f64; 3]],
    ) where
        R: AsRef<[T]>,
        T: Copy + Into<f64>,
    {
        assert!(
            rows.len() == sides.len() && rows.len() == out.len(),
            "head block shape mismatch"
        );
        let s = scratch;
        s.emb.clear();
        s.comb.clear();
        s.reg.clear();
        for (row, side) in rows.iter().zip(sides) {
            let row = row.as_ref();
            assert_eq!(
                row.len(),
                self.f_ct.n_features(),
                "embedding width mismatch"
            );
            let start = s.emb.len();
            s.emb.extend(row.iter().map(|&v| v.into()));
            let emb = &s.emb[start..];
            s.comb.extend_from_slice(emb);
            s.reg.extend_from_slice(emb);
            if self.side_features {
                s.comb.extend([side.n_comb, side.i_comb, side.c_comb]);
                s.reg.extend([side.n_reg, side.i_reg, side.c_reg]);
            }
        }
        for (head, rows, preds) in [
            (&self.f_ct, &s.emb, &mut s.ct),
            (&self.f_comb, &s.comb, &mut s.comb_w),
            (&self.f_reg, &s.reg, &mut s.reg_w),
        ] {
            preds.clear();
            preds.resize(out.len(), 0.0);
            head.predict_block(rows, preds);
        }
        for (i, o) in out.iter_mut().enumerate() {
            *o = [s.comb_w[i].max(0.0), s.reg_w[i].max(0.0), s.ct[i].max(0.0)];
        }
    }

    /// Check heads read from an untrusted file and compile their forests:
    /// each head's trees must be well formed (see [`Gbdt::validate`]) and
    /// its width must match `embed_dim` plus the side features.
    ///
    /// # Errors
    ///
    /// Describes the first bad head.
    pub fn validate(&self) -> Result<(), String> {
        let extra = if self.side_features { 3 } else { 0 };
        let side_width = self.embed_dim.saturating_add(extra);
        for (name, head, width) in [
            ("f_ct", &self.f_ct, self.embed_dim),
            ("f_comb", &self.f_comb, side_width),
            ("f_reg", &self.f_reg, side_width),
        ] {
            if head.n_features() != width {
                return Err(format!(
                    "head {name} reads {} features, expected {width}",
                    head.n_features()
                ));
            }
            head.validate().map_err(|e| format!("head {name}: {e}"))?;
        }
        Ok(())
    }
}

/// Reusable buffers for [`PowerHeads::predict_block`]: one block's
/// widened embeddings, comb and reg head rows, and raw head outputs. Keep
/// one per evaluating thread.
#[derive(Debug, Clone, Default)]
pub struct HeadScratch {
    emb: Vec<f64>,
    comb: Vec<f64>,
    reg: Vec<f64>,
    ct: Vec<f64>,
    comb_w: Vec<f64>,
    reg_w: Vec<f64>,
}

/// Append one `F_Comb` or `F_Reg` training row to `x`: the embedding,
/// then the group's `n`, `I`, `C` when side features are on.
/// [`PowerHeads::predict_block`] gathers the same layout.
fn push_row(x: &mut Vec<f64>, embedding: &[f64], nic: [f64; 3], side: bool) {
    x.extend_from_slice(embedding);
    if side {
        x.extend(nic);
    }
}

/// Embed `cycles` of a bundle's gate-level trace through the serving
/// core: table `k`'s row `i` and `sides[i]` belong to sub-module
/// `gate_data[k]` in cycle `cycles[i]`.
fn embed_sampled(
    encoder: &PreparedEncoder,
    b: &DesignBundle,
    lib: &Library,
    cycles: &[usize],
) -> TraceEmbeddings {
    let sampled = b.gate_trace.select_cycles(cycles);
    encoder
        .embed(&b.gate, lib, &b.gate_data, &sampled, 0, None)
        .0
}

/// Fit the heads on the training bundles, using the frozen encoder for
/// embeddings. The heads learn from rows at the encoder's storage
/// precision; training passes an f64 encoder.
///
/// # Panics
///
/// Panics if `bundles` is empty.
pub fn finetune(
    encoder: &PreparedEncoder,
    bundles: &[DesignBundle],
    lib: &Library,
    cfg: &FinetuneConfig,
) -> PowerHeads {
    assert!(!bundles.is_empty(), "need at least one training design");
    let d = encoder.embedding_dim();
    let mut ct_x = Vec::new();
    let mut ct_y = Vec::new();
    let mut comb_x = Vec::new();
    let mut comb_y = Vec::new();
    let mut reg_x = Vec::new();
    let mut reg_y = Vec::new();
    let mut mem = MemoryFit::default();

    let mut scratch = Vec::new();
    for b in bundles {
        let cycles = sample_cycles(b.cycles(), cfg.cycles_per_design);
        let embedded = embed_sampled(encoder, b, lib, &cycles);
        for (smd, table) in b.gate_data.iter().zip(embedded.per_submodule()) {
            let sm = smd.submodule();
            for (i, &t) in cycles.iter().enumerate() {
                let emb = table.embeddings.row_f64(i, &mut scratch);
                let side = &table.sides[i];
                ct_x.extend(emb);
                ct_y.push(b.labels.at(t, sm, PowerGroup::ClockTree));
                let comb = [side.n_comb, side.i_comb, side.c_comb];
                push_row(&mut comb_x, emb, comb, cfg.side_features);
                comb_y.push(b.labels.at(t, sm, PowerGroup::Combinational));
                let reg = [side.n_reg, side.i_reg, side.c_reg];
                push_row(&mut reg_x, emb, reg, cfg.side_features);
                reg_y.push(b.labels.at(t, sm, PowerGroup::Register));
                mem.push(side, b.labels.at(t, sm, PowerGroup::Memory));
            }
        }
    }

    let extra = if cfg.side_features { 3 } else { 0 };
    let f_ct = Gbdt::fit(&ct_x, d, &ct_y, &cfg.gbdt);
    let f_comb = Gbdt::fit(&comb_x, d + extra, &comb_y, &cfg.gbdt);
    let f_reg = Gbdt::fit(&reg_x, d + extra, &reg_y, &cfg.gbdt);
    let memory = mem.solve();
    PowerHeads {
        f_ct,
        f_comb,
        f_reg,
        memory,
        embed_dim: d,
        side_features: cfg.side_features,
    }
}

/// Evenly spaced cycle sample.
pub(crate) fn sample_cycles(total: usize, want: usize) -> Vec<usize> {
    if want == 0 || total == 0 {
        return Vec::new();
    }
    if want >= total {
        return (0..total).collect();
    }
    (0..want).map(|i| i * total / want).collect()
}

/// The paper's "basic ML model" for the memory group (§VI-B): a linear
/// model on per-cycle port activity and macro capacity, fit in closed
/// form. Achieves sub-percent error because SRAM macros are unchanged by
/// layout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryModel {
    /// Watts per pJ of energy-weighted reads.
    pub w_read: f64,
    /// Watts per pJ of energy-weighted writes.
    pub w_write: f64,
    /// Watts per nW of datasheet leakage.
    pub w_bit: f64,
    /// Constant offset.
    pub bias: f64,
}

impl MemoryModel {
    /// Predict memory watts for one sub-module-cycle (clamped at zero).
    pub fn predict(&self, side: &SideFeatures) -> f64 {
        (self.w_read * side.mem_reads
            + self.w_write * side.mem_writes
            + self.w_bit * side.mem_bits
            + self.bias)
            .max(0.0)
    }
}

/// Accumulator for the 4-parameter least-squares fit.
#[derive(Debug, Default)]
struct MemoryFit {
    /// Normal-equation matrix (4×4, row-major) and RHS.
    ata: [f64; 16],
    atb: [f64; 4],
}

impl MemoryFit {
    fn push(&mut self, side: &SideFeatures, y: f64) {
        let x = [side.mem_reads, side.mem_writes, side.mem_bits, 1.0];
        for i in 0..4 {
            for j in 0..4 {
                self.ata[i * 4 + j] += x[i] * x[j];
            }
            self.atb[i] += x[i] * y;
        }
    }

    fn solve(mut self) -> MemoryModel {
        // Ridge term keeps the system solvable when a feature is constant.
        for i in 0..4 {
            self.ata[i * 4 + i] += 1e-9;
        }
        let w = gaussian_solve(&mut self.ata, &mut self.atb);
        MemoryModel {
            w_read: w[0],
            w_write: w[1],
            w_bit: w[2],
            bias: w[3],
        }
    }
}

/// In-place Gaussian elimination with partial pivoting for a 4×4 system.
fn gaussian_solve(a: &mut [f64; 16], b: &mut [f64; 4]) -> [f64; 4] {
    const N: usize = 4;
    for col in 0..N {
        // Pivot.
        let mut best = col;
        for r in col + 1..N {
            if a[r * N + col].abs() > a[best * N + col].abs() {
                best = r;
            }
        }
        if best != col {
            for c in 0..N {
                a.swap(col * N + c, best * N + c);
            }
            b.swap(col, best);
        }
        let pivot = a[col * N + col];
        if pivot.abs() < 1e-30 {
            continue;
        }
        for r in col + 1..N {
            let f = a[r * N + col] / pivot;
            for c in col..N {
                a[r * N + c] -= f * a[col * N + c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = [0.0; N];
    for row in (0..N).rev() {
        let mut acc = b[row];
        for c in row + 1..N {
            acc -= a[row * N + c] * x[c];
        }
        let pivot = a[row * N + row];
        x[row] = if pivot.abs() < 1e-30 {
            0.0
        } else {
            acc / pivot
        };
    }
    x
}

#[cfg(test)]
mod tests {
    use atlas_designs::DesignConfig;
    use atlas_layout::LayoutConfig;
    use atlas_nn::{EncoderConfig, GraphEncoder, InferenceEncoder};

    use super::*;
    use crate::features::{side_features, FEATURE_DIM};
    use crate::model::Precision;

    /// Fine-tuning reads its training rows from the serving core over a
    /// sub-trace of the sampled cycles. The per-cycle path
    /// (`features_for_cycle` + `encode_graph` + `side_features`) is the
    /// oracle: every sampled (sub-module, cycle) embedding row and side
    /// row must match it bit for bit.
    #[test]
    fn sampled_rows_match_the_per_cycle_oracle() {
        let lib = Library::synthetic_40nm();
        let b = DesignBundle::prepare(
            &DesignConfig::tiny(),
            &lib,
            &LayoutConfig::default(),
            "W1",
            10,
        );
        let state = GraphEncoder::new(EncoderConfig {
            input_dim: FEATURE_DIM,
            hidden_dim: 12,
            layers: 2,
            alpha: 0.5,
            seed: 5,
        })
        .state();
        let oracle = InferenceEncoder::from_state(&state);
        let encoder = PreparedEncoder::new(&state, Precision::F64);
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut scratch = Vec::new();
        // The sampler's own cycles, and an out-of-order pick with a repeat.
        for cycles in [sample_cycles(b.cycles(), 4), vec![7, 2, 2, 9]] {
            let embedded = embed_sampled(&encoder, &b, &lib, &cycles);
            assert_eq!(embedded.per_submodule().len(), b.gate_data.len());
            for (smd, table) in b.gate_data.iter().zip(embedded.per_submodule()) {
                for (i, &t) in cycles.iter().enumerate() {
                    let feats = smd.features_for_cycle(&b.gate, &b.gate_trace, t);
                    let want = oracle.encode_graph(smd.adj(), &feats);
                    let got = table.embeddings.row_f64(i, &mut scratch);
                    assert_eq!(bits(got), bits(&want), "row {i} (cycle {t})");
                    let side = side_features(smd, &b.gate, &lib, &b.gate_trace, t);
                    assert_eq!(table.sides[i].to_bits(), side.to_bits(), "cycle {t}");
                }
            }
        }
    }

    #[test]
    fn cycle_sampling() {
        assert_eq!(sample_cycles(10, 20), (0..10).collect::<Vec<_>>());
        let s = sample_cycles(100, 4);
        assert_eq!(s, vec![0, 25, 50, 75]);
        assert!(sample_cycles(0, 5).is_empty());
        assert!(sample_cycles(5, 0).is_empty());
    }

    #[test]
    fn gaussian_solver_solves() {
        // x + y = 3; x - y = 1 (padded to 4×4 with identity).
        let mut a = [
            1.0, 1.0, 0.0, 0.0, //
            1.0, -1.0, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 0.0, 0.0, 1.0,
        ];
        let mut b = [3.0, 1.0, 5.0, 7.0];
        let x = gaussian_solve(&mut a, &mut b);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((x[2] - 5.0).abs() < 1e-12);
        assert!((x[3] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn memory_model_recovers_linear_law() {
        let truth = MemoryModel {
            w_read: 8e-3,
            w_write: 9.5e-3,
            w_bit: 2e-8,
            bias: 1e-4,
        };
        let mut fit = MemoryFit::default();
        for i in 0..200 {
            let side = SideFeatures {
                mem_reads: (i % 4) as f64,
                mem_writes: ((i / 4) % 3) as f64,
                mem_bits: (8192 * (1 + i % 5)) as f64,
                ..SideFeatures::default()
            };
            let y = truth.w_read * side.mem_reads
                + truth.w_write * side.mem_writes
                + truth.w_bit * side.mem_bits
                + truth.bias;
            fit.push(&side, y);
        }
        let got = fit.solve();
        assert!((got.w_read - truth.w_read).abs() < 1e-9);
        assert!((got.w_write - truth.w_write).abs() < 1e-9);
        assert!((got.w_bit - truth.w_bit).abs() < 1e-12);
        assert!((got.bias - truth.bias).abs() < 1e-7);
    }

    #[test]
    fn memory_model_clamps_negative() {
        let m = MemoryModel {
            w_read: 0.0,
            w_write: 0.0,
            w_bit: 0.0,
            bias: -1.0,
        };
        assert_eq!(m.predict(&SideFeatures::default()), 0.0);
    }
}
