//! Pieces shared by the `perfbench` and `repeat` binaries.

pub mod procs;
pub mod stats;
