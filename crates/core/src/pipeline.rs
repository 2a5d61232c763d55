//! The end-to-end experiment driver: train ATLAS on C1/C3/C5/C6, evaluate
//! on unseen C2/C4 — the flow behind every table and figure of the paper.

use std::time::Instant;

use atlas_designs::DesignConfig;
use atlas_layout::LayoutConfig;
use atlas_liberty::Library;
use atlas_power::{compute_power, PowerTrace};
use atlas_sim::{simulate, PhasedWorkload};
use serde::{Deserialize, Serialize};

use crate::bundle::DesignBundle;
use crate::evaluate::{evaluate, EvalRow};
use crate::features::build_submodule_data;
use crate::finetune::{finetune, FinetuneConfig};
use crate::model::{AtlasModel, Precision, PreparedEncoder};
use crate::pretrain::{pretrain, PretrainConfig, PretrainStats};

/// A name lookup against the experiment vocabulary failed.
///
/// The paper's experiment space is a closed set of design presets
/// (`C1`..`C6`, `TINY`) and workload presets (`W1`/`W2`). The bench
/// binaries treat an unknown name as a programming error and panic via
/// the [`ExperimentConfig::design`] wrapper; long-lived services must
/// instead surface this error to the caller (`atlas-serve` maps it onto a
/// protocol error response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupError {
    /// No design preset with this name.
    UnknownDesign(String),
    /// No workload preset with this name.
    UnknownWorkload(String),
}

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LookupError::UnknownDesign(name) => write!(f, "unknown design `{name}`"),
            LookupError::UnknownWorkload(name) => write!(f, "unknown workload `{name}`"),
        }
    }
}

impl std::error::Error for LookupError {}

/// Everything that defines one reproduction run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Cycles simulated per workload (paper: 300).
    pub cycles: usize,
    /// Design scale factor (1.0 = demo scale; see DESIGN.md §2).
    pub scale: f64,
    /// Training workload preset.
    pub train_workload: String,
    /// Pre-training settings.
    pub pretrain: PretrainConfig,
    /// Fine-tuning settings.
    pub finetune: FinetuneConfig,
    /// Layout flow settings.
    pub layout: LayoutConfig,
}

impl Default for ExperimentConfig {
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            cycles: 300,
            scale: 1.0,
            train_workload: "W1".to_owned(),
            pretrain: PretrainConfig::default(),
            finetune: FinetuneConfig::default(),
            layout: LayoutConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// A configuration small enough for integration tests: scaled-down
    /// designs, few cycles, short training.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            cycles: 40,
            scale: 0.25,
            pretrain: PretrainConfig {
                steps: 60,
                hidden_dim: 24,
                layers: 1,
                ..PretrainConfig::default()
            },
            finetune: FinetuneConfig {
                gbdt: atlas_gbdt::GbdtConfig {
                    n_estimators: 60,
                    ..atlas_gbdt::GbdtConfig::default()
                },
                cycles_per_design: 16,
                ..FinetuneConfig::default()
            },
            ..ExperimentConfig::default()
        }
    }

    /// The technology library of the run.
    pub fn library(&self) -> Library {
        Library::synthetic_40nm()
    }

    /// A design preset by name, at this run's scale.
    ///
    /// # Errors
    ///
    /// [`LookupError::UnknownDesign`] when the name is not one of
    /// `C1`..`C6` / `TINY`.
    pub fn try_design(&self, name: &str) -> Result<DesignConfig, LookupError> {
        let cfg = match name {
            "C1" => DesignConfig::c1(),
            "C2" => DesignConfig::c2(),
            "C3" => DesignConfig::c3(),
            "C4" => DesignConfig::c4(),
            "C5" => DesignConfig::c5(),
            "C6" => DesignConfig::c6(),
            "TINY" => DesignConfig::tiny(),
            other => return Err(LookupError::UnknownDesign(other.to_owned())),
        };
        Ok(cfg.scaled(self.scale))
    }

    /// [`try_design`](Self::try_design) for the experiment binaries, where
    /// an unknown name is a bug in the experiment script.
    ///
    /// # Panics
    ///
    /// Panics on an unknown design name.
    pub fn design(&self, name: &str) -> DesignConfig {
        self.try_design(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A workload preset by name, seeded for one design.
    ///
    /// # Errors
    ///
    /// [`LookupError::UnknownWorkload`] when the name is not `W1`/`W2`.
    pub fn try_workload(&self, name: &str, seed: u64) -> Result<PhasedWorkload, LookupError> {
        PhasedWorkload::preset(name, seed)
            .ok_or_else(|| LookupError::UnknownWorkload(name.to_owned()))
    }

    /// The training designs at this run's scale (C1, C3, C5, C6).
    pub fn training_designs(&self) -> Vec<DesignConfig> {
        DesignConfig::training_set()
            .into_iter()
            .map(|c| c.scaled(self.scale))
            .collect()
    }

    /// The held-out test designs at this run's scale (C2, C4).
    pub fn test_designs(&self) -> Vec<DesignConfig> {
        DesignConfig::test_set()
            .into_iter()
            .map(|c| c.scaled(self.scale))
            .collect()
    }
}

/// Wall-clock breakdown of training.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainTiming {
    /// Data preparation (generation, layout, simulation, labels) seconds.
    pub prepare_s: f64,
    /// Encoder pre-training seconds.
    pub pretrain_s: f64,
    /// Head fine-tuning seconds.
    pub finetune_s: f64,
}

/// A trained ATLAS plus everything needed to evaluate it.
pub struct TrainedAtlas {
    /// The deployable model.
    pub model: AtlasModel,
    /// Pre-training loss curves.
    pub pretrain_stats: PretrainStats,
    /// Wall-clock breakdown.
    pub timing: TrainTiming,
    /// The configuration used.
    pub config: ExperimentConfig,
}

/// Run the paper's training protocol: prepare C1/C3/C5/C6 bundles under
/// the training workload, pre-train the encoder with the five SSL tasks,
/// and fine-tune the power heads.
pub fn train_atlas(cfg: &ExperimentConfig) -> TrainedAtlas {
    let lib = cfg.library();
    let t0 = Instant::now();
    let bundles: Vec<DesignBundle> = cfg
        .training_designs()
        .iter()
        .map(|d| DesignBundle::prepare(d, &lib, &cfg.layout, &cfg.train_workload, cfg.cycles))
        .collect();
    let prepare_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let (encoder, pretrain_stats) = pretrain(&bundles, &cfg.pretrain);
    let pretrain_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let state = encoder.state();
    let heads = finetune(
        &PreparedEncoder::new(&state, Precision::F64),
        &bundles,
        &lib,
        &cfg.finetune,
    );
    let finetune_s = t2.elapsed().as_secs_f64();

    TrainedAtlas {
        model: AtlasModel::new(state, heads),
        pretrain_stats,
        timing: TrainTiming {
            prepare_s,
            pretrain_s,
            finetune_s,
        },
        config: cfg.clone(),
    }
}

/// Wall-clock breakdown of one test-design evaluation (Table IV's columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EvalTiming {
    /// ATLAS preprocessing: workload simulation on the gate-level netlist
    /// plus sub-module graph/feature construction (the paper's "Pre.").
    pub atlas_pre_s: f64,
    /// ATLAS inference: embeddings + head predictions (the paper's "Infer").
    pub atlas_infer_s: f64,
    /// Traditional flow: the layout process (the paper's "P&R").
    pub flow_pnr_s: f64,
    /// Traditional flow: post-layout simulation + per-cycle golden power
    /// (the paper's "Simulation").
    pub flow_sim_s: f64,
}

impl EvalTiming {
    /// Total ATLAS seconds.
    pub fn atlas_total_s(&self) -> f64 {
        self.atlas_pre_s + self.atlas_infer_s
    }

    /// Total traditional-flow seconds.
    pub fn flow_total_s(&self) -> f64 {
        self.flow_pnr_s + self.flow_sim_s
    }

    /// Traditional / ATLAS speedup factor.
    pub fn speedup(&self) -> f64 {
        self.flow_total_s() / self.atlas_total_s().max(1e-12)
    }
}

/// Full result of evaluating one (design, workload) pair.
pub struct TestEvaluation {
    /// Table III-style accuracy row.
    pub row: EvalRow,
    /// Golden post-layout labels.
    pub labels: PowerTrace,
    /// ATLAS prediction.
    pub atlas: PowerTrace,
    /// Gate-level baseline.
    pub baseline: PowerTrace,
    /// The gate-level design (for component rollups).
    pub gate: atlas_netlist::Design,
    /// Wall-clock measurements.
    pub timing: EvalTiming,
}

impl TrainedAtlas {
    /// Evaluate the model on one design preset under one workload,
    /// timing both the ATLAS path and the traditional flow.
    ///
    /// # Panics
    ///
    /// Panics on unknown design/workload names.
    pub fn evaluate_test(&self, design_name: &str, workload: &str) -> TestEvaluation {
        let cfg = &self.config;
        let lib = cfg.library();
        let dcfg = cfg.design(design_name);
        let gate = dcfg.generate();

        // --- Traditional flow (timed): layout, then simulate + golden power.
        let t0 = Instant::now();
        let layout = atlas_layout::run_layout(&gate, &lib, &cfg.layout);
        let flow_pnr_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut w = cfg
            .try_workload(workload, dcfg.seed)
            .unwrap_or_else(|e| panic!("{e}"));
        let post_trace =
            simulate(&layout.design, &mut w, cfg.cycles).expect("layout output simulates");
        let labels = compute_power(&layout.design, &lib, &post_trace);
        let flow_sim_s = t1.elapsed().as_secs_f64();

        // --- ATLAS path (timed): gate-level simulation + preprocessing...
        let t2 = Instant::now();
        let mut w = cfg
            .try_workload(workload, dcfg.seed)
            .expect("checked above");
        let gate_trace = simulate(&gate, &mut w, cfg.cycles).expect("gate design simulates");
        let data = build_submodule_data(&gate, &lib);
        let atlas_pre_s = t2.elapsed().as_secs_f64();
        // ... then inference.
        let t3 = Instant::now();
        let atlas = self.model.predict_prepared(&gate, &lib, &data, &gate_trace);
        let atlas_infer_s = t3.elapsed().as_secs_f64();

        // --- Gate-level baseline (the paper's Gate-Level PTPX column).
        let baseline = compute_power(&gate, &lib, &gate_trace);

        let row = evaluate(&labels, &atlas, &baseline);
        TestEvaluation {
            row,
            labels,
            atlas,
            baseline,
            gate,
            timing: EvalTiming {
                atlas_pre_s,
                atlas_infer_s,
                flow_pnr_s,
                flow_sim_s,
            },
        }
    }

    /// Convenience: just the accuracy row.
    pub fn evaluate_test_design(&self, design_name: &str, workload: &str) -> EvalRow {
        self.evaluate_test(design_name, workload).row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One end-to-end smoke test at miniature scale; the real experiment
    /// binaries in `atlas-bench` run the full protocol.
    #[test]
    fn quick_pipeline_end_to_end() {
        let mut cfg = ExperimentConfig::quick();
        cfg.cycles = 20;
        cfg.pretrain.steps = 20;
        cfg.pretrain.hidden_dim = 16;
        cfg.finetune.cycles_per_design = 8;
        cfg.finetune.gbdt.n_estimators = 30;
        cfg.scale = 0.12;
        let trained = train_atlas(&cfg);
        assert!(trained.timing.prepare_s > 0.0);

        let eval = trained.evaluate_test("C2", "W1");
        // The core claim, in miniature: ATLAS beats the gate-level tool on
        // total power of an unseen design, and nails the clock tree that
        // the baseline misses entirely.
        assert_eq!(eval.row.baseline_mape_ct, 100.0);
        assert!(eval.row.atlas_mape_ct < 100.0);
        assert!(
            eval.row.atlas_mape_total < eval.row.baseline_mape_total,
            "ATLAS {:.1}% vs baseline {:.1}%",
            eval.row.atlas_mape_total,
            eval.row.baseline_mape_total
        );
        assert!(eval.timing.atlas_total_s() > 0.0);
        assert!(eval.timing.flow_total_s() > 0.0);
    }

    #[test]
    fn config_presets() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.cycles, 300);
        assert_eq!(cfg.training_designs().len(), 4);
        assert_eq!(cfg.test_designs().len(), 2);
        let c2 = cfg.design("C2");
        assert_eq!(c2.name, "C2");
    }

    #[test]
    #[should_panic(expected = "unknown design")]
    fn unknown_design_panics() {
        let _ = ExperimentConfig::default().design("C9");
    }

    #[test]
    fn typed_lookups() {
        let cfg = ExperimentConfig::default();
        assert_eq!(
            cfg.try_design("C9"),
            Err(LookupError::UnknownDesign("C9".to_owned()))
        );
        assert!(cfg.try_design("TINY").is_ok());
        assert!(cfg.try_workload("W2", 3).is_ok());
        let err = cfg.try_workload("W9", 3).unwrap_err();
        assert_eq!(err, LookupError::UnknownWorkload("W9".to_owned()));
        assert_eq!(err.to_string(), "unknown workload `W9`");
    }
}
