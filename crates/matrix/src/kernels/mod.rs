//! In-memory reference kernels.
//!
//! These are straightforward, cache-oblivious implementations of the dense
//! kernels the paper builds on (Algorithms 1 and 2 plus the GEMM / TRSM / LU
//! building blocks). They serve two purposes:
//!
//! 1. **Correctness oracles** — every out-of-core executor in
//!    `symla-baselines` and `symla-core` is verified against these kernels.
//! 2. **Building blocks** — the out-of-core executors call the unblocked
//!    kernels on the small panels that reside in fast memory.
//!
//! The blocked variants exist to measure the (in-memory) wall-clock benefit of
//! tiling and as a structural template for the out-of-core schedules.

pub mod cholesky;
mod dispatch;
pub mod flops;
pub mod gemm;
pub mod lu;
pub mod micro;
pub mod residual;
pub mod syrk;
pub mod trsm;
pub mod views;

pub use cholesky::{cholesky_blocked, cholesky_in_place_dense, cholesky_sym, cholesky_tiled};
#[doc(hidden)]
pub use dispatch::{kernel_path, with_kernel_path, KernelPath};
pub use flops::FlopCount;
pub use gemm::{gemm, gemm_blocked, gemm_nt};
pub use lu::{lu_nopiv_blocked, lu_nopiv_in_place, lu_reconstruct, split_lu};
pub use residual::{
    cholesky_residual, gemm_nt_residual, gemm_residual, lu_residual, syrk_residual,
    trsm_right_lt_residual,
};
pub use syrk::{syrk_blocked_sym, syrk_dense_lower, syrk_sym};
pub use trsm::{trsm_left_lower, trsm_right_lower_transpose};
