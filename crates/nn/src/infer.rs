//! Tape-free encoder evaluation for deployment.
//!
//! [`GraphEncoder`](crate::GraphEncoder) builds an autodiff tape on every
//! forward pass — necessary for training, wasteful at inference. An
//! [`InferenceEncoder`] holds plain weight matrices and evaluates the
//! identical function with raw matrix math. It is `Send + Sync`, so
//! per-cycle sub-module embeddings can be computed on worker threads
//! (ATLAS's inference-speed claim, Table IV, depends on this path).
//!
//! # Cross-cycle batching
//!
//! At serving time the same sub-module graph is encoded once per trace
//! cycle, under feature matrices that differ only in the toggle channel.
//! Instead of running `cycles` separate small forwards, the batch path
//! ([`encode_graph_batch_fill`](InferenceEncoder::encode_graph_batch_fill))
//! stacks a chunk of `B` per-cycle feature matrices into one `(B·n) ×
//! input_dim` operand and runs the embed layer and every layer's q/k/v/gcn
//! linears as **one matmul per layer per chunk**. The cycle structure
//! survives as block semantics: the attention reductions (`kv = φ(K)ᵀ·V`,
//! `ksum = φ(K)ᵀ·1`) and the `Â·H` propagation are segmented per `n`-row
//! cycle block, because neither attention nor propagation may leak across
//! cycles. Every segmented kernel accumulates in the same per-element
//! order as its per-cycle counterpart, so batched results are
//! **bit-identical** to the per-cycle path for any chunk size.

use crate::encoder::EncoderState;
use crate::matrix::Matrix;
use crate::sparse::SparseAdj;

/// Soft cap on the live bytes of any one cycle-stacked matrix inside the
/// batched forward. A handful of `(B·n) × hidden` temporaries are alive
/// at once during a layer and the pass structure sweeps them repeatedly,
/// so this is sized to keep the whole working set near the last-level
/// cache rather than to fit RAM.
const CHUNK_BUDGET_BYTES: usize = 512 << 10;

/// Upper bound on cycles per chunk. Empirically the batched forward is
/// fastest with shallow chunks: they amortize scratch reuse and the
/// output projection while keeping every temporary cache-resident —
/// locality beats batch depth once per-chunk fixed costs are amortized.
const MAX_CYCLE_CHUNK: usize = 4;

/// Reusable large temporaries of the cycle-blocked hidden pass, all
/// `(blocks·n) × hidden`. Allocated lazily to the working shape and then
/// recycled across layers and chunks — the batched path's advantage is
/// amortizing exactly these buffers (and their cold first-touch cost)
/// over a whole chunk of cycles.
#[derive(Debug, Default)]
struct Scratch {
    h: Matrix,
    pq: Matrix,
    pk: Matrix,
    v: Matrix,
    attn: Matrix,
    spmm: Matrix,
    /// Attention normalizers, `rows × 1`.
    denom: Matrix,
    /// Per-block `φ(K)ᵀ·V`, `hidden × hidden`.
    kv: Matrix,
    /// Per-block `φ(K)ᵀ·1`, `hidden × 1`.
    ksum: Matrix,
}

impl Scratch {
    /// Make every buffer exactly `rows × cols`, reallocating only on
    /// shape change (at most twice per batch: main chunk + tail chunk).
    fn ensure(&mut self, rows: usize, cols: usize) {
        for m in [
            &mut self.h,
            &mut self.pq,
            &mut self.pk,
            &mut self.v,
            &mut self.attn,
            &mut self.spmm,
        ] {
            if m.shape() != (rows, cols) {
                *m = Matrix::zeros(rows, cols);
            }
        }
        if self.denom.shape() != (rows, 1) {
            self.denom = Matrix::zeros(rows, 1);
        }
        if self.kv.shape() != (cols, cols) {
            self.kv = Matrix::zeros(cols, cols);
        }
        if self.ksum.shape() != (cols, 1) {
            self.ksum = Matrix::zeros(cols, 1);
        }
    }
}

/// A frozen, thread-safe evaluator of a trained encoder.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use atlas_nn::{EncoderConfig, GraphEncoder, InferenceEncoder, Matrix, SparseAdj};
///
/// let cfg = EncoderConfig { input_dim: 4, hidden_dim: 8, layers: 1, alpha: 0.5, seed: 1 };
/// let trained = GraphEncoder::new(cfg);
/// let frozen = InferenceEncoder::from_state(&trained.state());
/// let adj = SparseAdj::normalized_from_edges(3, &[(0, 1)]);
/// let feats = Matrix::xavier(3, 4, 2);
/// let (_nodes, graph) = frozen.encode(&adj, &feats);
/// // Bit-identical to the training-path forward:
/// let (_, g2) = trained.encode(&Arc::new(adj), &feats);
/// for (a, b) in graph.iter().zip(g2.value().row(0)) {
///     assert_eq!(a, b);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct InferenceEncoder {
    input_dim: usize,
    hidden_dim: usize,
    alpha: f64,
    /// `[W, b]` pairs: embed, then (q, k, v, gcn) per layer, then out.
    weights: Vec<Matrix>,
    layers: usize,
}

impl InferenceEncoder {
    /// Freeze a trained encoder's state.
    pub fn from_state(state: &EncoderState) -> InferenceEncoder {
        InferenceEncoder {
            input_dim: state.config.input_dim,
            hidden_dim: state.config.hidden_dim,
            alpha: state.config.alpha,
            weights: state.tensors.clone(),
            layers: state.config.layers,
        }
    }

    /// Embedding width.
    pub fn embedding_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Cycles per chunk of the batched forward for a graph of `nodes`
    /// nodes: as many as fit the 512 KiB live-memory cap per stacked
    /// matrix, at least 1 (so arbitrarily large graphs still stream cycle
    /// by cycle) and at most 4. Chunk size never affects results — only
    /// memory and throughput.
    pub fn cycle_chunk(&self, nodes: usize) -> usize {
        let row_bytes = nodes.max(1) * self.input_dim.max(self.hidden_dim).max(1) * 8;
        (CHUNK_BUDGET_BYTES / row_bytes).clamp(1, MAX_CYCLE_CHUNK)
    }

    /// One affine layer: `x·W + b` for weight pair `idx`.
    fn affine(&self, idx: usize, x: &Matrix) -> Matrix {
        let mut out = x.matmul(&self.weights[idx * 2]);
        out.add_row_bias(&self.weights[idx * 2 + 1]);
        out
    }

    /// [`affine`](Self::affine) with a fused activation, into a reused
    /// scratch buffer: one kernel pass computes `act(x·W + b)`.
    fn affine_act_into(&self, idx: usize, x: &Matrix, act: impl Fn(f64) -> f64, out: &mut Matrix) {
        x.matmul_bias_act_rows_into(
            &self.weights[idx * 2],
            &self.weights[idx * 2 + 1],
            act,
            0,
            x.rows(),
            out,
        );
    }

    /// Evaluate: returns `(node_embeddings, graph_embedding)`.
    ///
    /// # Panics
    ///
    /// Panics on feature-shape mismatch.
    pub fn encode(&self, adj: &SparseAdj, features: &Matrix) -> (Matrix, Vec<f64>) {
        let h = self.hidden(adj, features);
        let nodes = self.affine(1 + self.layers * 4, &h);
        let s = nodes.rows() as f64 * crate::encoder::SUM_POOL_SCALE;
        let graph = nodes.mean_rows().row(0).iter().map(|v| v * s).collect();
        (nodes, graph)
    }

    /// The shared pre-projection hidden state of one cycle.
    fn hidden(&self, adj: &SparseAdj, features: &Matrix) -> Matrix {
        let mut scratch = Scratch::default();
        self.hidden_blocks(adj, features, 1, &mut scratch, None);
        scratch.h
    }

    /// The hidden pass over `blocks` cycle-stacked feature matrices:
    /// `stacked` is `(blocks·n) × input_dim`, one `n`-row block per cycle.
    /// The result is left in `scratch.h`.
    ///
    /// Linear layers run on the whole stack (one matmul per layer); the
    /// attention reductions and the adjacency propagation are segmented
    /// per block. With `blocks == 1` this *is* the per-cycle forward —
    /// there is only one code path, and every segmented kernel documents
    /// (and tests pin) bit-identity with its whole-matrix counterpart.
    /// All large temporaries live in `scratch`, so a caller looping over
    /// chunks allocates them once, not once per chunk per layer.
    ///
    /// When `pool` is given (a flat `blocks × hidden_dim` buffer), the
    /// per-block column means of the final hidden state are produced as a
    /// by-product: the last layer's fused mix epilogue accumulates each
    /// written row into its block's pool row as it stores it, so the
    /// batched encode skips a full re-read of `h` per chunk. The fused
    /// accumulation runs row-ascending per block with the divide last —
    /// the exact [`Matrix::mean_rows_block_into`] operation sequence — so
    /// pooled results are bit-identical to the unfused sweep.
    fn hidden_blocks(
        &self,
        adj: &SparseAdj,
        stacked: &Matrix,
        blocks: usize,
        scr: &mut Scratch,
        mut pool: Option<&mut [f64]>,
    ) {
        let n = adj.node_count();
        assert_eq!(stacked.cols(), self.input_dim, "feature width mismatch");
        assert_eq!(stacked.rows(), n * blocks, "node count mismatch");

        let rows = n * blocks;
        scr.ensure(rows, self.hidden_dim);
        // Feature matrices are mostly exact zeros (one-hot type channels +
        // a toggle bit), so the embed layer takes the zero-skipping kernel;
        // every later layer runs on dense activations and takes the
        // register tile. Both kernels are bit-identical on the same input.
        stacked.matmul_bias_act_sparse_rows_into(
            &self.weights[0],
            &self.weights[1],
            |v| v.max(0.0),
            0,
            rows,
            &mut scr.h,
        );
        for l in 0..self.layers {
            let base = 1 + l * 4;
            self.affine_act_into(base, &scr.h, |v| v.max(0.0) + 0.01, &mut scr.pq);
            self.affine_act_into(base + 1, &scr.h, |v| v.max(0.0) + 0.01, &mut scr.pk);
            self.affine_act_into(base + 2, &scr.h, |v| v, &mut scr.v);
            // Segmented linear attention: kv, ksum, and the normalizer are
            // per-cycle reductions over each n-row block.
            for b in 0..blocks {
                let r0 = b * n;
                scr.pk.matmul_tn_block_into(&scr.v, r0, n, &mut scr.kv); // d×d
                scr.pk.col_sums_block_into(r0, n, scr.ksum.as_mut_slice()); // d×1
                scr.pq.matmul_rows_into(&scr.ksum, r0, n, &mut scr.denom); // n×1
                                                                           // Numerator with the normalizer divided in at write-back.
                scr.pq
                    .matmul_div_rows_into(&scr.kv, &scr.denom, r0, n, &mut scr.attn);
            }
            // Propagation branch: Â applied to each cycle block, then the
            // gcn linear with relu and the α-mix fused into its write-back
            // over the attention buffer, which becomes the next layer's
            // input.
            adj.matmul_stacked_into(&scr.h, blocks, &mut scr.spmm);
            if let (true, Some(pool)) = (l + 1 == self.layers, pool.as_deref_mut()) {
                // Last layer with pooling requested: fold the per-block
                // mean into this epilogue's write-back.
                scr.spmm.matmul_bias_act_mix_pool_rows_into(
                    &self.weights[(base + 3) * 2],
                    &self.weights[(base + 3) * 2 + 1],
                    |v| v.max(0.0),
                    self.alpha,
                    &mut scr.attn,
                    n,
                    pool,
                );
            } else {
                scr.spmm.matmul_bias_act_mix_rows_into(
                    &self.weights[(base + 3) * 2],
                    &self.weights[(base + 3) * 2 + 1],
                    |v| v.max(0.0),
                    self.alpha,
                    0,
                    rows,
                    &mut scr.attn,
                );
            }
            std::mem::swap(&mut scr.h, &mut scr.attn);
        }
        if self.layers == 0 {
            // No layer epilogue to fuse into: pool the embed output the
            // unfused way.
            if let Some(pool) = pool {
                let hd = self.hidden_dim;
                for b in 0..blocks {
                    scr.h
                        .mean_rows_block_into(b * n, n, &mut pool[b * hd..(b + 1) * hd]);
                }
            }
        }
    }

    /// Evaluate only the graph embedding — the inference hot path.
    ///
    /// Exploits that the output layer is affine: the mean of `h·W + b`
    /// over rows equals `mean(h)·W + b`, so the final projection runs on a
    /// single row instead of all `n` nodes. Identical result to
    /// [`encode`](Self::encode)'s graph output.
    ///
    /// # Panics
    ///
    /// Panics on feature-shape mismatch.
    pub fn encode_graph(&self, adj: &SparseAdj, features: &Matrix) -> Vec<f64> {
        let h = self.hidden(adj, features);
        let n = h.rows() as f64;
        let pooled = h.mean_rows();
        let w = &self.weights[(1 + self.layers * 4) * 2];
        let b = &self.weights[(1 + self.layers * 4) * 2 + 1];
        let out = pooled.matmul(w);
        let scale = n * crate::encoder::SUM_POOL_SCALE;
        out.row(0)
            .iter()
            .zip(b.row(0))
            .map(|(&v, &bv)| (v + bv) * scale)
            .collect()
    }

    /// Batched [`encode_graph`](Self::encode_graph): embed the same graph
    /// under `count` feature matrices (one per cycle) in one call.
    /// `fill_features(i, dst)` writes entry `i`'s `n × input_dim` feature
    /// block straight into the row-major `dst` slice of the current
    /// chunk's stacked operand, so callers that synthesize features
    /// (static features + a toggle bit) never build a per-cycle
    /// [`Matrix`], and at most one chunk of features is live at a time.
    ///
    /// Entries are processed `chunk` at a time (clamped to `1..=count`;
    /// [`cycle_chunk`](Self::cycle_chunk) is the memory-capped choice)
    /// through the cycle-blocked forward: one matmul per layer per chunk
    /// instead of per cycle, segmented attention and propagation per cycle
    /// block, and one output projection for the whole batch. Results are
    /// bit-identical to calling [`encode_graph`](Self::encode_graph) per
    /// feature matrix, for every chunk size, because every output element
    /// is the same dot-product sequence.
    pub fn encode_graph_batch_fill<F>(
        &self,
        adj: &SparseAdj,
        count: usize,
        chunk: usize,
        mut fill_features: F,
    ) -> Vec<Vec<f64>>
    where
        F: FnMut(usize, &mut [f64]),
    {
        if count == 0 {
            return Vec::new();
        }
        let n = adj.node_count();
        let chunk = chunk.clamp(1, count);
        let block_len = n * self.input_dim;
        let mut pooled = Matrix::zeros(count, self.hidden_dim);
        let mut scratch = Scratch::default();
        let mut stacked = Matrix::zeros(0, 0);
        let mut start = 0;
        while start < count {
            let b = chunk.min(count - start);
            if stacked.shape() != (b * n, self.input_dim) {
                stacked = Matrix::zeros(b * n, self.input_dim);
            }
            for i in 0..b {
                fill_features(
                    start + i,
                    &mut stacked.as_mut_slice()[i * block_len..(i + 1) * block_len],
                );
            }
            // Per-cycle pooling is fused into the last layer's mix
            // epilogue inside `hidden_blocks` — no separate sweep.
            let hd = self.hidden_dim;
            self.hidden_blocks(
                adj,
                &stacked,
                b,
                &mut scratch,
                Some(&mut pooled.as_mut_slice()[start * hd..(start + b) * hd]),
            );
            start += b;
        }
        // One output projection for the whole batch.
        let w = &self.weights[(1 + self.layers * 4) * 2];
        let bias = &self.weights[(1 + self.layers * 4) * 2 + 1];
        let out = pooled.matmul(w);
        let scale = n as f64 * crate::encoder::SUM_POOL_SCALE;
        (0..count)
            .map(|r| {
                out.row(r)
                    .iter()
                    .zip(bias.row(0))
                    .map(|(&v, &bv)| (v + bv) * scale)
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::encoder::{EncoderConfig, GraphEncoder};

    #[test]
    fn matches_training_forward_exactly() {
        let cfg = EncoderConfig {
            input_dim: 6,
            hidden_dim: 12,
            layers: 2,
            alpha: 0.5,
            seed: 3,
        };
        let trained = GraphEncoder::new(cfg);
        let frozen = InferenceEncoder::from_state(&trained.state());
        for seed in 0..4 {
            let n = 5 + seed as usize;
            let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            let adj = SparseAdj::normalized_from_edges(n, &edges);
            let feats = Matrix::xavier(n, 6, 50 + seed);
            let (nodes_f, graph_f) = frozen.encode(&adj, &feats);
            let (nodes_t, graph_t) = trained.encode(&Arc::new(adj), &feats);
            for r in 0..n {
                for c in 0..12 {
                    assert!(
                        (nodes_f.get(r, c) - nodes_t.value().get(r, c)).abs() < 1e-12,
                        "node embedding mismatch"
                    );
                }
            }
            for (a, b) in graph_f.iter().zip(graph_t.value().row(0)) {
                assert!((a - b).abs() < 1e-12, "graph embedding mismatch");
            }
        }
    }

    #[test]
    fn is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InferenceEncoder>();
    }

    /// [`InferenceEncoder::encode_graph_batch_fill`] over prebuilt
    /// per-cycle feature matrices.
    pub(super) fn fill_batch(
        frozen: &InferenceEncoder,
        adj: &SparseAdj,
        feats: &[Matrix],
        chunk: usize,
    ) -> Vec<Vec<f64>> {
        frozen.encode_graph_batch_fill(adj, feats.len(), chunk, |i, dst| {
            dst.copy_from_slice(feats[i].as_slice());
        })
    }
}

#[cfg(test)]
mod graph_fast_path_tests {
    use super::tests::fill_batch;
    use super::*;
    use crate::encoder::{EncoderConfig, GraphEncoder};

    #[test]
    fn encode_graph_batch_is_bit_identical() {
        let cfg = EncoderConfig {
            input_dim: 7,
            hidden_dim: 12,
            layers: 2,
            alpha: 0.5,
            seed: 21,
        };
        let frozen = InferenceEncoder::from_state(&GraphEncoder::new(cfg).state());
        let n = 6;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let adj = SparseAdj::normalized_from_edges(n, &edges);
        let batch: Vec<Matrix> = (0..5).map(|i| Matrix::xavier(n, 7, 100 + i)).collect();
        let chunk = frozen.cycle_chunk(n);
        let batched = fill_batch(&frozen, &adj, &batch, chunk);
        assert_eq!(batched.len(), batch.len());
        for (feats, got) in batch.iter().zip(&batched) {
            let single = frozen.encode_graph(&adj, feats);
            assert_eq!(&single, got, "batched embedding diverged");
        }
        assert!(fill_batch(&frozen, &adj, &[], chunk).is_empty());
    }

    #[test]
    fn encode_graph_matches_full_encode() {
        let cfg = EncoderConfig {
            input_dim: 5,
            hidden_dim: 10,
            layers: 2,
            alpha: 0.5,
            seed: 9,
        };
        let frozen = InferenceEncoder::from_state(&GraphEncoder::new(cfg).state());
        for n in [1usize, 3, 9] {
            let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1) as u32)
                .map(|i| (i, i + 1))
                .collect();
            let adj = SparseAdj::normalized_from_edges(n, &edges);
            let feats = Matrix::xavier(n, 5, n as u64);
            let (_, full) = frozen.encode(&adj, &feats);
            let fast = frozen.encode_graph(&adj, &feats);
            for (a, b) in full.iter().zip(&fast) {
                assert!((a - b).abs() < 1e-9, "fast path diverged: {a} vs {b}");
            }
        }
    }

    #[test]
    fn serving_width_batch_is_bit_identical() {
        // The serving configuration (hidden 24) routes the linears through
        // the kernel's 24-wide full-row specialization on graphs with
        // ≥ 16 nodes per cycle block; pin batched-vs-per-cycle parity at
        // exactly that width and size.
        let cfg = EncoderConfig {
            input_dim: 24,
            hidden_dim: 24,
            layers: 1,
            alpha: 0.5,
            seed: 33,
        };
        let frozen = InferenceEncoder::from_state(&GraphEncoder::new(cfg).state());
        let n = 21;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        let adj = SparseAdj::normalized_from_edges(n, &edges);
        let feats: Vec<Matrix> = (0..9).map(|i| Matrix::xavier(n, 24, 900 + i)).collect();
        for chunk in [1usize, 4, 16] {
            let batched = fill_batch(&frozen, &adj, &feats, chunk);
            for (t, f) in feats.iter().enumerate() {
                assert_eq!(
                    batched[t],
                    frozen.encode_graph(&adj, f),
                    "cycle {t} chunk {chunk} diverged"
                );
            }
        }
    }

    #[test]
    fn cycle_chunk_bounds() {
        let cfg = EncoderConfig::default();
        let frozen = InferenceEncoder::from_state(&GraphEncoder::new(cfg).state());
        // Huge graphs still stream cycle by cycle.
        assert_eq!(frozen.cycle_chunk(usize::MAX / 1024), 1);
        // Tiny graphs are capped, not unbounded.
        assert_eq!(frozen.cycle_chunk(1), 4);
        // Mid-size graphs land in between, monotonically non-increasing.
        let mut last = usize::MAX;
        for n in [10, 100, 1000, 10_000, 100_000] {
            let c = frozen.cycle_chunk(n);
            assert!((1..=4).contains(&c));
            assert!(c <= last, "chunk grew with node count");
            last = c;
        }
    }
}

#[cfg(test)]
mod batched_parity_proptests {
    use proptest::prelude::*;

    use super::tests::fill_batch;
    use super::*;
    use crate::encoder::{EncoderConfig, GraphEncoder};

    /// A deterministic ring-with-chords graph so proptests exercise both
    /// sparse and denser adjacency rows.
    fn test_adj(n: usize, seed: u64) -> SparseAdj {
        let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        if n > 3 {
            let stride = 2 + (seed as usize % (n - 2));
            edges.extend((0..n as u32).map(|i| (i, (i as usize + stride) as u32 % n as u32)));
        }
        SparseAdj::normalized_from_edges(n, &edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 24,
            .. ProptestConfig::default()
        })]

        /// The tentpole invariant: the layer-batched forward is
        /// bit-identical to the per-cycle path for every combination of
        /// layer depth, mixing weight, node count, cycle count, and chunk
        /// size — including chunks that do not divide the cycle count and
        /// chunks larger than the whole batch.
        #[test]
        fn layer_batched_hidden_is_bit_identical(
            layers in 1usize..4,
            n in 1usize..12,
            cycles in 1usize..14,
            chunk in 1usize..17,
            alpha_pct in 0u64..101,
            seed in 0u64..1000,
        ) {
            let cfg = EncoderConfig {
                input_dim: 5,
                hidden_dim: 9,
                layers,
                alpha: alpha_pct as f64 / 100.0,
                seed,
            };
            let frozen = InferenceEncoder::from_state(&GraphEncoder::new(cfg).state());
            let adj = test_adj(n, seed);
            let feats: Vec<Matrix> =
                (0..cycles).map(|i| Matrix::xavier(n, 5, seed * 131 + i as u64)).collect();

            let batched = fill_batch(&frozen, &adj, &feats, chunk);
            prop_assert_eq!(batched.len(), cycles);
            for (t, f) in feats.iter().enumerate() {
                let per_cycle = frozen.encode_graph(&adj, f);
                prop_assert_eq!(&batched[t], &per_cycle, "cycle {} diverged", t);
            }
        }

        /// Chunk size is an implementation detail: any two chunkings of
        /// the same batch agree bitwise (covers `B` not dividing `cycles`
        /// and `cycles < B` against each other, not just the per-cycle
        /// reference).
        #[test]
        fn chunkings_agree_with_each_other(
            cycles in 1usize..12,
            chunk_a in 1usize..15,
            chunk_b in 1usize..15,
            seed in 0u64..500,
        ) {
            let cfg = EncoderConfig {
                input_dim: 4,
                hidden_dim: 8,
                layers: 2,
                alpha: 0.5,
                seed,
            };
            let frozen = InferenceEncoder::from_state(&GraphEncoder::new(cfg).state());
            let n = 5;
            let adj = test_adj(n, seed);
            let feats: Vec<Matrix> =
                (0..cycles).map(|i| Matrix::xavier(n, 4, seed * 977 + i as u64)).collect();
            let a = fill_batch(&frozen, &adj, &feats, chunk_a);
            let b = fill_batch(&frozen, &adj, &feats, chunk_b);
            prop_assert_eq!(a, b);
        }
    }
}
