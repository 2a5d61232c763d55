//! The compiled evaluation form of a boosted ensemble.
//!
//! Every tree is padded to a perfect tree of the ensemble's depth `D` and
//! laid out in heap order (node `i` has children `2i + 1` and `2i + 2`)
//! with a power-of-two stride of `2^(D+1)` slots per tree. Internal slots
//! hold a split feature and threshold; leaf slots hold the leaf value
//! already multiplied by the learning rate. A leaf shallower than `D`
//! becomes a split whose two children are copies of that leaf, so every
//! row — NaN included — walks exactly `D` levels and lands on the leaf the
//! reference walk would return.
//!
//! The walk is branch-free with a fixed trip count,
//! `i = 2i + 2 - (x[f[i]] <= t[i])`, and interleaves a block of rows per
//! tree so their independent loads overlap. Each row still sums its trees
//! in tree order from the base score, which is the reference's order, so
//! the result is bit-identical (the product `lr * v` is the same f64
//! whether computed here or per call).

use std::fmt;

use crate::tree::{Node, Tree};

/// Deepest tree a model may hold. Padding makes every compiled tree cost
/// `2^(depth+1)` slots, so this cap bounds what one model file can make
/// the loader allocate (12 levels: 8192 slots, 96 KiB per tree).
pub const MAX_DEPTH: usize = 12;

/// Rows walked through each tree together.
const BLOCK: usize = 8;

/// Why a (deserialized) ensemble cannot be evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A tree has no nodes at all.
    EmptyTree {
        /// Index of the tree in the ensemble.
        tree: usize,
    },
    /// A split reads a feature past the model's width.
    FeatureOutOfRange {
        /// Index of the tree in the ensemble.
        tree: usize,
        /// Index of the split node in its tree.
        node: usize,
        /// The feature the split reads.
        feature: u32,
        /// The model's feature width.
        n_features: usize,
    },
    /// A split links to a node index past the end of its tree.
    ChildOutOfRange {
        /// Index of the tree in the ensemble.
        tree: usize,
        /// Index of the split node in its tree.
        node: usize,
        /// The out-of-range child index.
        child: u32,
    },
    /// A node is reached twice from the root: a cycle or a shared subtree.
    NodeRevisited {
        /// Index of the tree in the ensemble.
        tree: usize,
        /// Index of the revisited node.
        node: usize,
    },
    /// A tree is deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Index of the tree in the ensemble.
        tree: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyTree { tree } => write!(f, "tree {tree} has no nodes"),
            ModelError::FeatureOutOfRange {
                tree,
                node,
                feature,
                n_features,
            } => write!(
                f,
                "tree {tree} node {node} splits on feature {feature}, \
                 but the model has {n_features} features"
            ),
            ModelError::ChildOutOfRange { tree, node, child } => {
                write!(f, "tree {tree} node {node} links to missing node {child}")
            }
            ModelError::NodeRevisited { tree, node } => write!(
                f,
                "tree {tree} reaches node {node} twice (cyclic or shared link)"
            ),
            ModelError::TooDeep { tree } => {
                write!(f, "tree {tree} is deeper than {MAX_DEPTH} levels")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Depth of tree `t` after checking that it is a finite tree whose splits
/// read features below `n_features`.
fn checked_depth(tree: &Tree, t: usize, n_features: usize) -> Result<usize, ModelError> {
    let nodes = tree.nodes();
    if nodes.is_empty() {
        return Err(ModelError::EmptyTree { tree: t });
    }
    let mut seen = vec![false; nodes.len()];
    let mut stack = vec![(0usize, 0usize)];
    let mut depth = 0;
    while let Some((id, level)) = stack.pop() {
        if std::mem::replace(&mut seen[id], true) {
            return Err(ModelError::NodeRevisited { tree: t, node: id });
        }
        if level > MAX_DEPTH {
            return Err(ModelError::TooDeep { tree: t });
        }
        depth = depth.max(level);
        if let Node::Split {
            feature,
            left,
            right,
            ..
        } = nodes[id]
        {
            if feature as usize >= n_features {
                return Err(ModelError::FeatureOutOfRange {
                    tree: t,
                    node: id,
                    feature,
                    n_features,
                });
            }
            for child in [left, right] {
                if child as usize >= nodes.len() {
                    return Err(ModelError::ChildOutOfRange {
                        tree: t,
                        node: id,
                        child,
                    });
                }
                stack.push((child as usize, level + 1));
            }
        }
    }
    Ok(depth)
}

/// An ensemble's trees as padded perfect trees in struct-of-arrays form.
#[derive(Debug, Clone)]
pub(crate) struct Forest {
    /// Levels every row walks (the deepest tree's depth).
    depth: usize,
    /// Slots per tree: `2^(depth+1)`.
    stride: usize,
    /// Split feature per slot (0 in padding and leaf slots).
    feature: Vec<u32>,
    /// Split threshold per internal slot, scaled leaf value per leaf slot.
    value: Vec<f64>,
}

impl Forest {
    /// Validate `trees` and compile them.
    pub(crate) fn compile(
        trees: &[Tree],
        n_features: usize,
        learning_rate: f64,
    ) -> Result<Forest, ModelError> {
        let mut depth = 0;
        for (t, tree) in trees.iter().enumerate() {
            depth = depth.max(checked_depth(tree, t, n_features)?);
        }
        let stride = 2usize << depth;
        let mut feature = vec![0; trees.len() * stride];
        let mut value = vec![0.0; trees.len() * stride];
        for ((tree, feature), value) in trees
            .iter()
            .zip(feature.chunks_exact_mut(stride))
            .zip(value.chunks_exact_mut(stride))
        {
            fill(tree.nodes(), 0, 0, depth, learning_rate, feature, value);
        }
        Ok(Forest {
            depth,
            stride,
            feature,
            value,
        })
    }

    /// Add every tree's contribution, in tree order, to `out[r]` for each
    /// row `r` of the row-major `rows` (`out.len()` rows × `n_features`).
    ///
    /// Full blocks are first copied into rows of a power-of-two width, so
    /// masking a feature read keeps it in bounds without a check; the
    /// tail rows are walked in place.
    pub(crate) fn accumulate(&self, rows: &[f64], n_features: usize, out: &mut [f64]) {
        let (blocks, rest) = out.as_chunks_mut::<BLOCK>();
        let (full, tail) = rows.split_at(blocks.len() * BLOCK * n_features);
        if !blocks.is_empty() {
            let width = n_features.next_power_of_two();
            let shift = width.trailing_zeros();
            let mut padded = vec![0.0; BLOCK * width];
            let row_mask = BLOCK * width - 1;
            for (b, acc) in blocks.iter_mut().enumerate() {
                let src = &full[b * BLOCK * n_features..(b + 1) * BLOCK * n_features];
                for r in 0..BLOCK {
                    padded[r * width..r * width + n_features]
                        .copy_from_slice(&src[r * n_features..(r + 1) * n_features]);
                }
                // The exact length lets the optimizer drop the bounds check.
                let padded = &padded[..row_mask + 1];
                self.walk(|r, f| padded[((r << shift) + f) & row_mask], acc);
            }
        }
        for (r, acc) in rest.iter_mut().enumerate() {
            let row = &tail[r * n_features..(r + 1) * n_features];
            self.walk(|_, f| row[f], std::array::from_mut(acc));
        }
    }

    /// Walk `B` rows through every tree together, reading feature `f` of
    /// row `r` as `x(r, f)`, and add each tree's leaf to `acc[r]`.
    #[inline(always)]
    fn walk<const B: usize>(&self, x: impl Fn(usize, usize) -> f64, acc: &mut [f64; B]) {
        let mask = self.stride - 1;
        for (feature, value) in self
            .feature
            .chunks_exact(self.stride)
            .zip(self.value.chunks_exact(self.stride))
        {
            let mut idx = [0usize; B];
            for _ in 0..self.depth {
                for (r, i) in idx.iter_mut().enumerate() {
                    let at = *i & mask;
                    // Left when `x <= t`, so NaN goes right like the reference.
                    let left = x(r, feature[at] as usize) <= value[at];
                    *i = 2 * at + 2 - usize::from(left);
                }
            }
            for (a, i) in acc.iter_mut().zip(idx) {
                *a += value[i & mask];
            }
        }
    }
}

/// Write node `id` and its subtree into heap slot `slot` of one tree's
/// arrays, `levels` levels above the leaf level.
fn fill(
    nodes: &[Node],
    id: usize,
    slot: usize,
    levels: usize,
    lr: f64,
    feature: &mut [u32],
    value: &mut [f64],
) {
    if levels == 0 {
        // No tree is deeper than the forest, so this node is a leaf.
        if let Node::Leaf(v) = nodes[id] {
            value[slot] = lr * v;
        }
        return;
    }
    let (left, right) = match nodes[id] {
        Node::Split {
            feature: f,
            threshold,
            left,
            right,
            ..
        } => {
            feature[slot] = f;
            value[slot] = threshold;
            (left as usize, right as usize)
        }
        // Padding: a split on feature 0 whose children are both this
        // leaf, so every comparison outcome reaches the same value.
        Node::Leaf(_) => (id, id),
    };
    fill(nodes, left, 2 * slot + 1, levels - 1, lr, feature, value);
    fill(nodes, right, 2 * slot + 2, levels - 1, lr, feature, value);
}
