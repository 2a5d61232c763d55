//! Gradient-boosted regression trees — the XGBoost substitute.
//!
//! The paper fine-tunes three lightweight power heads (`F_CT`, `F_Comb`,
//! `F_Reg`) with XGBoost (500 estimators, depth 5, §VI-A). This crate
//! implements the same model family: squared-loss gradient boosting over
//! histogram-split regression trees, with row/column subsampling.
//!
//! # Evaluation
//!
//! A fitted or loaded [`Gbdt`] is evaluated through a compiled forest:
//! every tree padded to a perfect tree of the ensemble's depth, stored as
//! flat split-feature / threshold / scaled-leaf arrays, and walked
//! branch-free over blocks of rows ([`Gbdt::predict_block`]). The compiled
//! form is derived from the serialized trees, never serialized itself,
//! and built at fit time, by [`Gbdt::validate`], or on first use after
//! deserialization. Its output is bit-identical to the node-link walk
//! kept as [`Gbdt::predict_reference`]: each row sums its trees in the
//! same order from the same base.
//!
//! # Limits
//!
//! Training bins values into `u8`, so [`GbdtConfig::bins`] is at most
//! 256. Padding costs `2^(depth+1)` slots per tree, so trees are at most
//! [`MAX_DEPTH`] deep, both when fitting and when validating a loaded
//! model.
//!
//! # Examples
//!
//! ```
//! use atlas_gbdt::{Gbdt, GbdtConfig};
//!
//! // y = 2·x₀ + x₁
//! let x: Vec<f64> = (0..200).flat_map(|i| [i as f64 / 100.0, (i % 7) as f64]).collect();
//! let y: Vec<f64> = x.chunks(2).map(|r| 2.0 * r[0] + r[1]).collect();
//! let model = Gbdt::fit(&x, 2, &y, &GbdtConfig::default());
//! let pred = model.predict(&[0.5, 3.0]);
//! assert!((pred - 4.0).abs() < 0.5);
//! ```

mod forest;
mod tree;

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use forest::Forest;
pub use forest::{ModelError, MAX_DEPTH};
pub use tree::Tree;

use rand::RngCore;

/// Training hyperparameters (defaults match the paper's XGBoost setup
/// where given: depth 5; estimator count is lowered from 500 to 200 for
/// CPU-friendly training — configurable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Boosting rounds.
    pub n_estimators: usize,
    /// Maximum tree depth (paper: 5; at most [`MAX_DEPTH`]).
    pub max_depth: usize,
    /// Shrinkage per round.
    pub learning_rate: f64,
    /// Minimum samples in a leaf.
    pub min_samples_leaf: usize,
    /// Fraction of rows sampled per tree.
    pub subsample: f64,
    /// Fraction of features considered per tree.
    pub colsample: f64,
    /// Histogram bins per feature (2–256).
    pub bins: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> GbdtConfig {
        GbdtConfig {
            n_estimators: 200,
            max_depth: 5,
            learning_rate: 0.1,
            min_samples_leaf: 4,
            subsample: 0.9,
            colsample: 0.9,
            bins: 32,
            seed: 1,
        }
    }
}

impl GbdtConfig {
    /// The paper's exact fine-tuning setup: 500 estimators, depth 5.
    pub fn paper() -> GbdtConfig {
        GbdtConfig {
            n_estimators: 500,
            ..GbdtConfig::default()
        }
    }
}

/// A trained boosted ensemble.
///
/// Equality and serialization cover the trees only; the compiled forest
/// is derived from them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gbdt {
    base: f64,
    learning_rate: f64,
    n_features: usize,
    trees: Vec<Tree>,
    /// The compiled evaluation form of `trees`, built once.
    #[serde(skip)]
    forest: OnceLock<Forest>,
}

impl PartialEq for Gbdt {
    fn eq(&self, other: &Gbdt) -> bool {
        self.base == other.base
            && self.learning_rate == other.learning_rate
            && self.n_features == other.n_features
            && self.trees == other.trees
    }
}

impl Gbdt {
    /// Fit on row-major features `x` (`y.len()` rows × `n_features`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != y.len() * n_features`, if `y` is empty, or if
    /// the configuration is degenerate (zero estimators, depth outside
    /// `1..=MAX_DEPTH`, or bins outside `2..=256`).
    pub fn fit(x: &[f64], n_features: usize, y: &[f64], cfg: &GbdtConfig) -> Gbdt {
        assert!(!y.is_empty(), "training set is empty");
        assert_eq!(
            x.len(),
            y.len() * n_features,
            "feature matrix shape mismatch"
        );
        assert!(
            cfg.n_estimators > 0
                && (1..=MAX_DEPTH).contains(&cfg.max_depth)
                && (2..=256).contains(&cfg.bins),
            "degenerate configuration"
        );
        let n = y.len();
        let base = y.iter().sum::<f64>() / n as f64;
        let mut pred = vec![base; n];
        let mut rng = atlas_rng(cfg.seed);
        let binning = tree::Binning::from_data(x, n_features, cfg.bins);
        let binned = binning.bin_all(x, n_features);

        let mut trees = Vec::with_capacity(cfg.n_estimators);
        let mut residual = vec![0.0; n];
        for round in 0..cfg.n_estimators {
            for i in 0..n {
                residual[i] = y[i] - pred[i];
            }
            // Row subsample.
            let rows: Vec<u32> = if cfg.subsample >= 1.0 {
                (0..n as u32).collect()
            } else {
                (0..n as u32)
                    .filter(|_| chance(&mut rng, cfg.subsample))
                    .collect()
            };
            let rows = if rows.is_empty() { vec![0] } else { rows };
            // Column subsample.
            let cols: Vec<u32> = if cfg.colsample >= 1.0 {
                (0..n_features as u32).collect()
            } else {
                let picked: Vec<u32> = (0..n_features as u32)
                    .filter(|_| chance(&mut rng, cfg.colsample))
                    .collect();
                if picked.is_empty() {
                    vec![(round % n_features) as u32]
                } else {
                    picked
                }
            };
            let tree = Tree::fit(
                &binned,
                &binning,
                n_features,
                &residual,
                &rows,
                &cols,
                cfg.max_depth,
                cfg.min_samples_leaf,
            );
            for i in 0..n {
                pred[i] += cfg.learning_rate
                    * tree.predict_binned(&binned[i * n_features..(i + 1) * n_features]);
            }
            trees.push(tree);
        }
        let model = Gbdt {
            base,
            learning_rate: cfg.learning_rate,
            n_features,
            trees,
            forest: OnceLock::new(),
        };
        // Compile now, so the first prediction pays nothing extra.
        model.forest();
        model
    }

    /// Check a model built from untrusted data (a deserialized file) and
    /// compile its forest, so no later prediction can fail.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelError`]: an empty tree, a split on a
    /// feature `>= n_features`, a child link past the end of its tree, a
    /// node reached twice (cycle), or a tree deeper than [`MAX_DEPTH`].
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.forest.get().is_none() {
            let forest = Forest::compile(&self.trees, self.n_features, self.learning_rate)?;
            // A concurrent caller may have compiled the same forest first.
            let _ = self.forest.set(forest);
        }
        Ok(())
    }

    /// The compiled forest, built on first use after deserialization.
    fn forest(&self) -> &Forest {
        self.forest.get_or_init(|| {
            Forest::compile(&self.trees, self.n_features, self.learning_rate)
                .unwrap_or_else(|e| panic!("invalid GBDT model: {e}"))
        })
    }

    /// Predict one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != n_features`, or if the model is invalid
    /// (see [`validate`](Self::validate)).
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "feature width mismatch");
        let mut out = self.base;
        self.forest()
            .accumulate(row, self.n_features, std::array::from_mut(&mut out));
        out
    }

    /// Predict the row-major `rows` (`out.len()` rows × `n_features`)
    /// into `out`, walking the trees over blocks of rows. Allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != out.len() * n_features`, or if the model
    /// is invalid (see [`validate`](Self::validate)).
    pub fn predict_block(&self, rows: &[f64], out: &mut [f64]) {
        assert_eq!(
            rows.len(),
            out.len() * self.n_features,
            "block shape mismatch"
        );
        out.fill(self.base);
        self.forest().accumulate(rows, self.n_features, out);
    }

    /// Predict many rows at once.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of the feature width.
    pub fn predict_batch(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len() % self.n_features, 0, "ragged batch");
        let mut out = vec![0.0; x.len() / self.n_features];
        self.predict_block(x, &mut out);
        out
    }

    /// Predict one row by walking each tree's node links — the reference
    /// the compiled forest must match bit for bit. For tests and benches.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != n_features`.
    pub fn predict_reference(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "feature width mismatch");
        let mut acc = self.base;
        for t in &self.trees {
            acc += self.learning_rate * t.predict(row);
        }
        acc
    }

    /// Feature width the model expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Split counts per feature — a crude importance measure.
    pub fn feature_importance(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_features];
        for t in &self.trees {
            t.count_splits(&mut counts);
        }
        counts
    }
}

/// Minimal xoshiro-based RNG (same family as the rest of the workspace).
fn atlas_rng(seed: u64) -> impl RngCore {
    struct R([u64; 4]);
    impl RngCore for R {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.0;
            let r = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            r
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let b = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&b[..chunk.len()]);
            }
        }
        fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
            self.fill_bytes(dest);
            Ok(())
        }
    }
    let mut sm = seed;
    let mut next = || {
        sm = sm.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = sm;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    R([next(), next(), next(), next()])
}

fn chance(rng: &mut impl RngCore, p: f64) -> bool {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> (Vec<f64>, Vec<f64>) {
        // Two features on a grid.
        let mut x = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i % 20) as f64 / 20.0;
            let b = (i / 20) as f64 / (n as f64 / 20.0);
            x.push(a);
            x.push(b);
            y.push(3.0 * a - 2.0 * b + 0.5);
        }
        (x, y)
    }

    #[test]
    fn fits_linear_function() {
        let (x, y) = grid(400);
        let model = Gbdt::fit(&x, 2, &y, &GbdtConfig::default());
        let preds = model.predict_batch(&x);
        let mse: f64 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        assert!(mse < 0.01, "mse={mse}");
    }

    #[test]
    fn fits_interaction() {
        // y = x0 XOR-ish interaction: needs depth ≥ 2.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            x.push(a + 0.001 * (i as f64 % 7.0));
            x.push(b);
            y.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
        }
        let model = Gbdt::fit(&x, 2, &y, &GbdtConfig::default());
        for (row, t) in x.chunks(2).zip(&y).take(20) {
            assert!((model.predict(row) - t).abs() < 0.25);
        }
    }

    #[test]
    fn deterministic() {
        let (x, y) = grid(100);
        let a = Gbdt::fit(&x, 2, &y, &GbdtConfig::default());
        let b = Gbdt::fit(&x, 2, &y, &GbdtConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn constant_target_yields_base_prediction() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y = vec![7.5; 50];
        let model = Gbdt::fit(&x, 1, &y, &GbdtConfig::default());
        assert!((model.predict(&[25.0]) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn batch_matches_single() {
        let (x, y) = grid(100);
        let model = Gbdt::fit(&x, 2, &y, &GbdtConfig::default());
        let batch = model.predict_batch(&x[..20]);
        for (i, row) in x[..20].chunks(2).enumerate() {
            assert_eq!(batch[i], model.predict(row));
        }
    }

    #[test]
    fn importance_identifies_informative_feature() {
        // Feature 0 carries all signal; feature 1 is noise.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..400 {
            let a = (i % 40) as f64;
            x.push(a);
            x.push(((i * 7919) % 13) as f64);
            y.push(a * a);
        }
        let model = Gbdt::fit(&x, 2, &y, &GbdtConfig::default());
        let imp = model.feature_importance();
        assert!(imp[0] > imp[1], "importance {imp:?}");
    }

    #[test]
    fn serde_roundtrip() {
        let (x, y) = grid(60);
        let model = Gbdt::fit(
            &x,
            2,
            &y,
            &GbdtConfig {
                n_estimators: 10,
                ..GbdtConfig::default()
            },
        );
        let json = serde_json::to_string(&model).expect("serializes");
        let back: Gbdt = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(model, back);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = Gbdt::fit(&[1.0, 2.0, 3.0], 2, &[1.0], &GbdtConfig::default());
    }

    /// Bin indices are `u8`: more than 256 bins would wrap them and
    /// silently corrupt the histograms.
    #[test]
    #[should_panic(expected = "degenerate configuration")]
    fn more_than_256_bins_panics() {
        let (x, y) = grid(60);
        let cfg = GbdtConfig {
            bins: 257,
            ..GbdtConfig::default()
        };
        let _ = Gbdt::fit(&x, 2, &y, &cfg);
    }

    #[test]
    #[should_panic(expected = "degenerate configuration")]
    fn depth_past_the_cap_panics() {
        let (x, y) = grid(60);
        let cfg = GbdtConfig {
            max_depth: MAX_DEPTH + 1,
            ..GbdtConfig::default()
        };
        let _ = Gbdt::fit(&x, 2, &y, &cfg);
    }

    #[test]
    fn fits_with_256_bins() {
        let (x, y) = grid(600);
        let cfg = GbdtConfig {
            bins: 256,
            n_estimators: 20,
            ..GbdtConfig::default()
        };
        let model = Gbdt::fit(&x, 2, &y, &cfg);
        for row in x.chunks(2) {
            assert_eq!(model.predict(row), model.predict_reference(row));
        }
    }

    /// A small fixed fit, serialized by the trees-only format that
    /// predates the compiled forest: the forest adds nothing to the JSON.
    const GOLDEN_JSON: &str = concat!(
        r#"{"base":0.625,"learning_rate":0.3,"n_features":2,"trees":["#,
        r#"{"nodes":[{"Split":{"feature":0,"threshold":6.0,"bin_cut":2,"left":1,"right":4}},"#,
        r#"{"Split":{"feature":0,"threshold":3.0,"bin_cut":1,"left":2,"right":3}},"#,
        r#"{"Leaf":-0.875},{"Leaf":-0.2916666666666667},{"Leaf":0.875}]},"#,
        r#"{"nodes":[{"Split":{"feature":0,"threshold":6.0,"bin_cut":2,"left":1,"right":4}},"#,
        r#"{"Split":{"feature":1,"threshold":-1.0,"bin_cut":1,"left":2,"right":3}},"#,
        r#"{"Leaf":-0.08750000000000002},{"Leaf":-0.7},{"Leaf":0.6125}]},"#,
        r#"{"nodes":[{"Split":{"feature":0,"threshold":6.0,"bin_cut":2,"left":1,"right":4}},"#,
        r#"{"Split":{"feature":0,"threshold":3.0,"bin_cut":1,"left":2,"right":3}},"#,
        r#"{"Leaf":-0.49437499999999995},{"Leaf":-0.05541666666666667},"#,
        r#"{"Leaf":0.42874999999999996}]}]}"#,
    );

    fn golden_fit() -> Gbdt {
        let x: Vec<f64> = (0..12)
            .flat_map(|i| [i as f64, (i % 3) as f64 - 1.0])
            .collect();
        let y: Vec<f64> = (0..12).map(|i| if i >= 6 { 1.5 } else { -0.25 }).collect();
        let cfg = GbdtConfig {
            n_estimators: 3,
            max_depth: 2,
            learning_rate: 0.3,
            min_samples_leaf: 2,
            subsample: 1.0,
            colsample: 1.0,
            bins: 4,
            seed: 7,
        };
        Gbdt::fit(&x, 2, &y, &cfg)
    }

    #[test]
    fn json_is_trees_only_and_unchanged() {
        let model = golden_fit();
        assert!(model.forest.get().is_some(), "fit compiles the forest");
        assert_eq!(
            serde_json::to_string(&model).expect("serializes"),
            GOLDEN_JSON
        );
    }

    #[test]
    fn deserialized_model_rebuilds_the_forest() {
        let fitted = golden_fit();
        let loaded: Gbdt = serde_json::from_str(GOLDEN_JSON).expect("deserializes");
        assert!(
            loaded.forest.get().is_none(),
            "the forest is never read back"
        );
        assert_eq!(loaded, fitted, "equality ignores the compiled form");
        loaded.validate().expect("a fitted model is valid");
        assert!(loaded.forest.get().is_some());
        // A model deserialized without `validate` compiles on first use.
        let lazy: Gbdt = serde_json::from_str(GOLDEN_JSON).expect("deserializes");
        for a in [-1.0, 0.0, 3.0, 6.0, 6.5, f64::NAN] {
            for b in [-1.0, -0.0, 0.5, f64::INFINITY] {
                let row = [a, b];
                let want = fitted.predict_reference(&row).to_bits();
                assert_eq!(loaded.predict(&row).to_bits(), want);
                assert_eq!(lazy.predict(&row).to_bits(), want);
            }
        }
    }

    fn hostile(nodes: &str, n_features: usize) -> Gbdt {
        let json = format!(
            r#"{{"base":0.0,"learning_rate":0.1,"n_features":{n_features},"trees":[{{"nodes":[{{"Leaf":1.0}}]}},{{"nodes":{nodes}}}]}}"#
        );
        serde_json::from_str(&json).expect("structurally valid JSON")
    }

    fn split(feature: u32, left: u32, right: u32) -> String {
        format!(
            r#"{{"Split":{{"feature":{feature},"threshold":0.5,"bin_cut":1,"left":{left},"right":{right}}}}}"#
        )
    }

    #[test]
    fn validate_rejects_hostile_trees() {
        let leaf = r#"{"Leaf":2.0}"#;
        let cases = [
            (
                format!("[{},{leaf},{leaf}]", split(2, 1, 2)),
                ModelError::FeatureOutOfRange {
                    tree: 1,
                    node: 0,
                    feature: 2,
                    n_features: 2,
                },
            ),
            (
                format!("[{},{leaf}]", split(0, 1, 7)),
                ModelError::ChildOutOfRange {
                    tree: 1,
                    node: 0,
                    child: 7,
                },
            ),
            (
                format!("[{},{leaf}]", split(0, 1, 0)),
                ModelError::NodeRevisited { tree: 1, node: 0 },
            ),
            ("[]".to_owned(), ModelError::EmptyTree { tree: 1 }),
        ];
        for (nodes, want) in cases {
            let model = hostile(&nodes, 2);
            assert_eq!(model.validate(), Err(want), "nodes {nodes}");
        }
        // A chain one level past the cap: split k links leaf (cap + 2 + k)
        // and split k + 1.
        let depth = MAX_DEPTH + 1;
        let mut chain: Vec<String> = (0..depth)
            .map(|k| split(0, (depth + 1 + k) as u32, (k + 1) as u32))
            .collect();
        chain.extend((0..=depth).map(|_| leaf.to_owned()));
        let model = hostile(&format!("[{}]", chain.join(",")), 2);
        assert_eq!(model.validate(), Err(ModelError::TooDeep { tree: 1 }));
        // At the cap itself the chain compiles.
        let at_cap: Vec<String> = chain[1..depth]
            .iter()
            .enumerate()
            .map(|(k, _)| split(0, (depth + k) as u32, (k + 1) as u32))
            .chain((0..depth).map(|_| leaf.to_owned()))
            .collect();
        let model = hostile(&format!("[{}]", at_cap.join(",")), 2);
        assert_eq!(model.validate(), Ok(()));
        assert_eq!(
            model.predict(&[1.0, 0.0]).to_bits(),
            model.predict_reference(&[1.0, 0.0]).to_bits()
        );
    }

    /// SplitMix64 stream for the property tests' data.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Every split threshold in the ensemble.
    fn thresholds(model: &Gbdt) -> Vec<f64> {
        let mut out = Vec::new();
        for tree in &model.trees {
            for node in tree.nodes() {
                if let tree::Node::Split { threshold, .. } = node {
                    out.push(*threshold);
                }
            }
        }
        out
    }

    /// Assert that every compiled entry point matches the reference walk
    /// bit for bit on `rows`.
    fn assert_matches_reference(model: &Gbdt, rows: &[f64]) {
        let nf = model.n_features();
        let want: Vec<u64> = rows
            .chunks(nf)
            .map(|row| model.predict_reference(row).to_bits())
            .collect();
        let single: Vec<u64> = rows
            .chunks(nf)
            .map(|row| model.predict(row).to_bits())
            .collect();
        let batch: Vec<u64> = model
            .predict_batch(rows)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let mut block = vec![f64::NAN; want.len()];
        model.predict_block(rows, &mut block);
        let block: Vec<u64> = block.iter().map(|v| v.to_bits()).collect();
        assert_eq!(single, want, "predict");
        assert_eq!(batch, want, "predict_batch");
        assert_eq!(block, want, "predict_block");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 64,
            ..proptest::ProptestConfig::default()
        })]

        /// The compiled forest is the reference walk, bit for bit: random
        /// ensembles (mixed tree depths, single-leaf trees when a column is
        /// constant or a target saturates), rows with NaN, ±∞, ±0.0 and
        /// exact split thresholds, and row counts off the block size.
        #[test]
        fn compiled_forest_matches_reference(
            max_depth in 1usize..7,
            n_estimators in 1usize..41,
            bins in 2usize..65,
            n_features in 1usize..31,
            n_rows in 1usize..40,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = Mix(seed);
            let n_train = 16 + rng.below(120);
            let constant_target = rng.below(8) == 0;
            let mut x = Vec::with_capacity(n_train * n_features);
            let mut y = Vec::with_capacity(n_train);
            for _ in 0..n_train {
                let start = x.len();
                for f in 0..n_features {
                    // Every third column is constant: splits never use it.
                    x.push(if f % 3 == 2 { 1.0 } else { rng.unit() * 4.0 - 2.0 });
                }
                let row = &x[start..];
                let signal = if row[0] > 0.0 { 1.0 } else { -0.5 } + row[n_features - 1];
                y.push(if constant_target { 3.25 } else { signal + 0.1 * rng.unit() });
            }
            let cfg = GbdtConfig {
                n_estimators,
                max_depth,
                learning_rate: [0.1, 0.3, 1.0][rng.below(3)],
                min_samples_leaf: 1 + rng.below(8),
                subsample: [0.7, 1.0][rng.below(2)],
                colsample: [0.5, 1.0][rng.below(2)],
                bins,
                seed,
            };
            let model = Gbdt::fit(&x, n_features, &y, &cfg);
            let cuts = thresholds(&model);
            let rows: Vec<f64> = (0..n_rows * n_features)
                .map(|_| match rng.below(8) {
                    0 => f64::NAN,
                    1 => [f64::INFINITY, f64::NEG_INFINITY][rng.below(2)],
                    2 => [0.0, -0.0][rng.below(2)],
                    3 | 4 if !cuts.is_empty() => cuts[rng.below(cuts.len())],
                    _ => rng.unit() * 5.0 - 2.5,
                })
                .collect();
            assert_matches_reference(&model, &rows);
        }
    }

    /// One ensemble that holds trees of several depths and single-leaf
    /// trees: learning rate 1 fits a step exactly in round one, so every
    /// later residual is zero and those trees are bare leaves.
    #[test]
    fn mixed_depth_ensemble_matches_reference() {
        let x: Vec<f64> = (0..64).flat_map(|i| [i as f64, (i % 5) as f64]).collect();
        let y: Vec<f64> = (0..64)
            .map(|i| {
                if i < 16 {
                    0.0
                } else if i < 40 {
                    2.0
                } else {
                    5.0
                }
            })
            .collect();
        let cfg = GbdtConfig {
            n_estimators: 6,
            max_depth: 4,
            learning_rate: 1.0,
            min_samples_leaf: 1,
            subsample: 1.0,
            colsample: 1.0,
            bins: 16,
            seed: 3,
        };
        let model = Gbdt::fit(&x, 2, &y, &cfg);
        let depths: Vec<usize> = model.trees.iter().map(Tree::depth).collect();
        assert!(depths.contains(&0), "depths {depths:?}");
        assert!(depths.iter().any(|&d| d > 0), "depths {depths:?}");
        let mut rows = x.clone();
        rows.extend([f64::NAN, 0.0, -0.0, f64::INFINITY, 16.0, f64::NEG_INFINITY]);
        assert_matches_reference(&model, &rows);
    }

    #[test]
    fn paper_config() {
        let cfg = GbdtConfig::paper();
        assert_eq!(cfg.n_estimators, 500);
        assert_eq!(cfg.max_depth, 5);
    }
}
