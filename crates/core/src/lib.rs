//! ATLAS — the paper's primary contribution, end to end.
//!
//! Given only a **post-synthesis gate-level netlist** and a workload's
//! toggle trace, ATLAS predicts the **per-cycle post-layout power** of
//! every sub-module, split into the clock-tree / register / combinational
//! power groups (plus the separately-modeled memory group), for designs
//! it has never seen (paper §II–§V).
//!
//! Pipeline (one type per stage):
//!
//! 1. [`features`] — sub-module graphs with per-node features: 18-way
//!    cell-type one-hot, per-cycle toggle, cell internal energy, leakage,
//!    input capacitance, plus two mask-token channels (§III-C).
//! 2. [`bundle`] — dataset preparation: for each design, the aligned
//!    triple `Ng` / `N+g` (restructured) / `Np` (through the layout flow),
//!    simulated workloads, and golden per-cycle labels.
//! 3. [`pretrain`] — the five self-supervised tasks over the SGFormer-style
//!    encoder: ① masked-toggle, ② masked-node-type, ③ sub-module size,
//!    ④ gate-level contrastive, ⑤ cross-stage alignment (§IV).
//! 4. [`finetune`] — XGBoost-style heads `F_CT(E_g)`,
//!    `F_Comb(E_g, n, I, C)`, `F_Reg(E_g, n, I, C)` (§V) and the simple
//!    memory-group model (§VI-B), fit on rows from the embed core that
//!    serving uses too ([`PreparedEncoder::embed`]).
//! 5. [`model`] — the deployable [`AtlasModel`]: gate-level netlist +
//!    toggle trace → predicted [`atlas_power::PowerTrace`].
//! 6. [`evaluate`] / [`pipeline`] — MAPE evaluation against golden labels
//!    and the one-call experiment driver used by every table/figure bench.
//!
//! # Examples
//!
//! Train a tiny ATLAS and predict an unseen design's power (the full-size
//! version of this flow is `examples/quickstart.rs`):
//!
//! ```no_run
//! use atlas_core::pipeline::{train_atlas, ExperimentConfig};
//!
//! let cfg = ExperimentConfig::quick();
//! let trained = train_atlas(&cfg);
//! let eval = trained.evaluate_test_design("C2", "W1");
//! println!("total-power MAPE on unseen C2: {:.2}%", eval.atlas_mape_total);
//! ```

pub mod bundle;
pub mod evaluate;
pub mod features;
pub mod finetune;
pub mod model;
pub mod pipeline;
pub mod pretrain;

pub use evaluate::EvalRow;
pub use model::{
    AtlasModel, DeltaStats, EmbeddingTable, Precision, PreparedEncoder, SubmoduleEmbeddings,
    TraceEmbeddings, F32_EMBED_TOLERANCE,
};
pub use pipeline::{train_atlas, ExperimentConfig, LookupError, TrainedAtlas};
