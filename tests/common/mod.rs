//! The builder corpus shared by the serialization sweeps
//! (`binary_roundtrip.rs`, `format_fuzz.rs`).

use symla::prelude::*;
use symla_bench::corpus::{Builder, Case};

/// The eight schedule builders on small, structurally interesting instances.
/// Only the schedules matter here, so the operands are zero.
pub fn builder_schedules() -> Vec<(&'static str, Schedule<f64>)> {
    let (n, m, s) = (30, 5, 40);
    let (a, c) = (Matrix::zeros(n, m), SymMatrix::zeros(n));
    let cases = [
        Case::syrk(Builder::OocSyrk, &a, &c, 1.5, s),
        Case::syrk(Builder::Tbs, &a, &c, -0.5, s),
        Case::syrk(Builder::TbsTiled, &a, &c, 1.0, s),
        Case::cholesky(Builder::Lbc, &c, s),
        Case::cholesky(Builder::OocChol, &c, s),
        Case::trsm(&LowerTriangular::zeros(8), &Matrix::zeros(9, 8), 24),
        Case::gemm(
            &Matrix::zeros(9, 7),
            &Matrix::zeros(7, 11),
            &Matrix::zeros(9, 11),
            1.0,
            35,
        ),
        Case::lu(&Matrix::zeros(12, 12), 35),
    ];
    cases
        .into_iter()
        .map(|case| (case.builder.id(), case.schedule))
        .collect()
}
