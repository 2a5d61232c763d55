//! From-scratch neural-network substrate — the PyTorch/PyG substitute.
//!
//! ATLAS pre-trains a graph-transformer encoder (SGFormer \[13\]) with five
//! self-supervised losses. This crate provides everything that needs, in
//! plain Rust with no C dependencies:
//!
//! * [`Matrix`] — a dense row-major `f64` matrix;
//! * [`Tensor`] — reverse-mode automatic differentiation over matrices
//!   (a dynamic tape of `Rc` nodes, like a tiny PyTorch);
//! * [`Linear`], [`MlpHead`] — parameterized modules;
//! * [`Adam`] — the optimizer used in the paper (lr `1e-4`);
//! * [`InferenceEncoder`] — the tape-free, thread-safe f64 evaluator of
//!   a trained encoder (the only inference arithmetic; storage precision
//!   of its embeddings is the model layer's concern);
//! * [`simd`] — runtime-dispatched SIMD micro-kernels (AVX2 with a
//!   bit-identical scalar fallback) behind every dense kernel above;
//! * [`SparseAdj`] — normalized sparse adjacency with `spmm`;
//! * [`GraphEncoder`] — the SGFormer-style encoder: one O(N·d²)
//!   kernelized global-attention branch mixed with a graph-propagation
//!   branch, no positional encodings (paper §IV);
//! * [`info_nce`] — the contrastive loss of Tasks #4/#5.
//!
//! # Examples
//!
//! Fit a scalar function with gradient descent:
//!
//! ```
//! use atlas_nn::{Adam, Matrix, Tensor};
//!
//! let w = Tensor::param(Matrix::zeros(1, 1));
//! let x = Tensor::constant(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
//! let target = Matrix::from_rows(&[&[2.0], &[4.0], &[6.0]]);
//! let mut opt = Adam::new(vec![w.clone()], 0.1);
//! for _ in 0..500 {
//!     let loss = x.matmul(&w).mse_loss(&target);
//!     opt.zero_grad();
//!     loss.backward();
//!     opt.step();
//! }
//! assert!((w.value().get(0, 0) - 2.0).abs() < 1e-3);
//! ```

mod adam;
mod encoder;
mod infer;
mod linear;
mod loss;
mod matrix;
pub mod simd;
mod sparse;
mod tensor;

pub use adam::Adam;
pub use encoder::{EncoderConfig, EncoderState, GraphEncoder, SUM_POOL_SCALE};
pub use infer::InferenceEncoder;
pub use linear::{Linear, MlpHead};
pub use loss::info_nce;
pub use matrix::Matrix;
pub use simd::KernelLevel;
pub use sparse::SparseAdj;
pub use tensor::Tensor;
