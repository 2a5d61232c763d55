//! Histogram-split regression trees.

use serde::{Deserialize, Serialize};

/// Per-feature quantile bin edges used during training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Binning {
    /// Sorted cut values per feature.
    edges: Vec<Vec<f64>>,
}

impl Binning {
    /// Quantile-based edges from the training data.
    pub(crate) fn from_data(x: &[f64], n_features: usize, bins: usize) -> Binning {
        let n = x.len() / n_features.max(1);
        let mut edges = Vec::with_capacity(n_features);
        for f in 0..n_features {
            let mut vals: Vec<f64> = (0..n).map(|i| x[i * n_features + f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let mut cuts = Vec::new();
            for b in 1..bins {
                let idx = (b * n) / bins;
                if idx == 0 || idx >= n {
                    continue;
                }
                let v = vals[idx];
                if cuts.last().map(|&last: &f64| v > last).unwrap_or(true) {
                    cuts.push(v);
                }
            }
            edges.push(cuts);
        }
        Binning { edges }
    }

    /// Bin index of a value: the number of edges `< v`.
    #[inline]
    pub(crate) fn bin(&self, feature: usize, value: f64) -> u8 {
        self.edges[feature].partition_point(|&e| e < value) as u8
    }

    /// Bin every value of a row-major matrix.
    pub(crate) fn bin_all(&self, x: &[f64], n_features: usize) -> Vec<u8> {
        x.chunks(n_features)
            .flat_map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(f, &v)| self.bin(f, v))
                    .collect::<Vec<u8>>()
            })
            .collect()
    }

    /// Real-valued threshold of a split "bin ≤ b": the next edge value.
    /// Returns `None` if `b` has no edge above it (can't split there).
    fn threshold(&self, feature: usize, b: usize) -> Option<f64> {
        self.edges[feature].get(b).copied()
    }

    fn bin_count(&self, feature: usize) -> usize {
        self.edges[feature].len() + 1
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Node {
    Split {
        feature: u32,
        /// Raw-value threshold: go left when `value <= threshold`.
        threshold: f64,
        /// Equivalent binned threshold: go left when `bin < bin_cut`.
        bin_cut: u8,
        left: u32,
        right: u32,
    },
    Leaf(f64),
}

/// One regression tree of a boosted ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    /// Fit a tree to `targets` (residuals) by greedy histogram splitting.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fit(
        binned: &[u8],
        binning: &Binning,
        n_features: usize,
        targets: &[f64],
        rows: &[u32],
        cols: &[u32],
        max_depth: usize,
        min_leaf: usize,
    ) -> Tree {
        let mut tree = Tree { nodes: Vec::new() };
        let mut indices: Vec<u32> = rows.to_vec();
        let len = indices.len();
        tree.build(
            binned,
            binning,
            n_features,
            targets,
            cols,
            max_depth,
            min_leaf,
            &mut indices,
            0,
            len,
            0,
        );
        tree
    }

    /// Build the subtree over `indices[start..end]`; returns the node id.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        binned: &[u8],
        binning: &Binning,
        n_features: usize,
        targets: &[f64],
        cols: &[u32],
        max_depth: usize,
        min_leaf: usize,
        indices: &mut Vec<u32>,
        start: usize,
        end: usize,
        depth: usize,
    ) -> u32 {
        let n = end - start;
        let sum: f64 = indices[start..end]
            .iter()
            .map(|&i| targets[i as usize])
            .sum();
        let mean = sum / n as f64;
        if depth >= max_depth || n < 2 * min_leaf {
            return self.push(Node::Leaf(mean));
        }

        // Best histogram split over the sampled columns.
        let mut best: Option<(u32, u8, f64)> = None; // (feature, bin_cut, gain)
        let parent_score = sum * sum / n as f64;
        for &f in cols {
            let f = f as usize;
            let nbins = binning.bin_count(f);
            if nbins < 2 {
                continue;
            }
            let mut count = vec![0usize; nbins];
            let mut tsum = vec![0.0f64; nbins];
            for &i in &indices[start..end] {
                let b = binned[i as usize * n_features + f] as usize;
                count[b] += 1;
                tsum[b] += targets[i as usize];
            }
            let mut nl = 0usize;
            let mut sl = 0.0;
            for cut in 0..nbins - 1 {
                nl += count[cut];
                sl += tsum[cut];
                let nr = n - nl;
                if nl < min_leaf || nr < min_leaf {
                    continue;
                }
                let sr = sum - sl;
                let gain = sl * sl / nl as f64 + sr * sr / nr as f64 - parent_score;
                if gain > 1e-12 && best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                    best = Some((f as u32, (cut + 1) as u8, gain));
                }
            }
        }

        let Some((feature, bin_cut, _)) = best else {
            return self.push(Node::Leaf(mean));
        };
        let threshold = binning
            .threshold(feature as usize, bin_cut as usize - 1)
            .expect("a winning cut always has an edge");

        // Partition indices[start..end] in place: left = bin < bin_cut.
        let mut mid = start;
        for i in start..end {
            let b = binned[indices[i] as usize * n_features + feature as usize];
            if b < bin_cut {
                indices.swap(i, mid);
                mid += 1;
            }
        }
        debug_assert!(mid > start && mid < end);

        let id = self.push(Node::Leaf(0.0)); // placeholder, patched below
        let left = self.build(
            binned,
            binning,
            n_features,
            targets,
            cols,
            max_depth,
            min_leaf,
            indices,
            start,
            mid,
            depth + 1,
        );
        let right = self.build(
            binned,
            binning,
            n_features,
            targets,
            cols,
            max_depth,
            min_leaf,
            indices,
            mid,
            end,
            depth + 1,
        );
        self.nodes[id as usize] = Node::Split {
            feature,
            threshold,
            bin_cut,
            left,
            right,
        };
        id
    }

    /// The nodes in storage order; node 0 is the root.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    fn push(&mut self, node: Node) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        id
    }

    /// Evaluate on raw feature values by walking the node links — the
    /// reference the compiled forest is checked against.
    pub(crate) fn predict(&self, row: &[f64]) -> f64 {
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    cur = if row[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Evaluate on a pre-binned row (training fast path).
    pub(crate) fn predict_binned(&self, row_bins: &[u8]) -> f64 {
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    bin_cut,
                    left,
                    right,
                    ..
                } => {
                    cur = if row_bins[*feature as usize] < *bin_cut {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Accumulate per-feature split counts.
    pub fn count_splits(&self, counts: &mut [usize]) {
        for node in &self.nodes {
            if let Node::Split { feature, .. } = node {
                counts[*feature as usize] += 1;
            }
        }
    }

    /// Number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth of the tree.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf(_) => 0,
                Node::Split { left, right, .. } => {
                    1 + walk(nodes, *left as usize).max(walk(nodes, *right as usize))
                }
            }
        }
        walk(&self.nodes, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit_simple(max_depth: usize) -> (Tree, Binning, Vec<f64>) {
        // Step function: y = 1 when x >= 10.
        let x: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..40).map(|i| if i >= 10 { 1.0 } else { 0.0 }).collect();
        let binning = Binning::from_data(&x, 1, 16);
        let binned = binning.bin_all(&x, 1);
        let rows: Vec<u32> = (0..40).collect();
        let tree = Tree::fit(&binned, &binning, 1, &y, &rows, &[0], max_depth, 1);
        (tree, binning, x)
    }

    #[test]
    fn learns_step_function() {
        let (tree, _, _) = fit_simple(4);
        assert!(tree.predict(&[3.0]) < 0.2);
        assert!(tree.predict(&[30.0]) > 0.8);
    }

    #[test]
    fn respects_max_depth() {
        let (tree, _, _) = fit_simple(2);
        assert!(tree.depth() <= 2);
        let (deep, _, _) = fit_simple(6);
        assert!(deep.depth() <= 6);
    }

    #[test]
    fn binned_and_raw_prediction_agree() {
        let (tree, binning, x) = fit_simple(4);
        for &v in &x {
            let raw = tree.predict(&[v]);
            let binned = tree.predict_binned(&[binning.bin(0, v)]);
            assert_eq!(raw, binned, "disagree at {v}");
        }
    }

    #[test]
    fn binning_is_monotone() {
        let x: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let binning = Binning::from_data(&x, 1, 8);
        let mut sorted = x.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mut prev = 0u8;
        for v in sorted {
            let b = binning.bin(0, v);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn constant_feature_yields_leaf() {
        let x = vec![5.0; 30];
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let binning = Binning::from_data(&x, 1, 8);
        let binned = binning.bin_all(&x, 1);
        let rows: Vec<u32> = (0..30).collect();
        let tree = Tree::fit(&binned, &binning, 1, &y, &rows, &[0], 4, 1);
        assert_eq!(tree.depth(), 0);
        assert!((tree.predict(&[5.0]) - 14.5).abs() < 1e-9);
    }
}
