//! The builder corpus shared by the serialization sweeps
//! (`binary_roundtrip.rs`, `format_fuzz.rs`).

use symla::prelude::*;
use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
};

/// The eight schedule builders on small, structurally interesting instances.
pub fn builder_schedules() -> Vec<(&'static str, Schedule<f64>)> {
    let (n, m, s) = (30, 5, 40);
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let window = SymWindowRef::full(MatrixId::synthetic(0), n);
    vec![
        (
            "ooc_syrk",
            ooc_syrk_schedule(&a_ref, &c_ref, 1.5, &OocSyrkPlan::for_memory(s).unwrap()).unwrap(),
        ),
        (
            "tbs",
            tbs_schedule(&a_ref, &c_ref, -0.5, &TbsPlan::for_memory(s).unwrap()).unwrap(),
        ),
        (
            "tbs_tiled",
            tbs_tiled_schedule(
                &a_ref,
                &c_ref,
                1.0,
                &TbsTiledPlan::for_problem(s, n).unwrap(),
            )
            .unwrap(),
        ),
        (
            "lbc",
            lbc_schedule(&window, &LbcPlan::for_problem(n, s).unwrap()).unwrap(),
        ),
        (
            "ooc_chol",
            ooc_chol_schedule(&window, &OocCholPlan::for_memory(s).unwrap()),
        ),
        (
            "ooc_trsm",
            ooc_trsm_schedule(
                &SymWindowRef::full(MatrixId::synthetic(0), 8),
                &PanelRef::dense(MatrixId::synthetic(1), 9, 8),
                &OocTrsmPlan::for_memory(24).unwrap(),
            )
            .unwrap(),
        ),
        (
            "ooc_gemm",
            ooc_gemm_schedule(
                &PanelRef::dense(MatrixId::synthetic(0), 9, 7),
                &PanelRef::dense(MatrixId::synthetic(1), 7, 11),
                &PanelRef::dense(MatrixId::synthetic(2), 9, 11),
                1.0,
                &OocGemmPlan::for_memory(35).unwrap(),
            )
            .unwrap(),
        ),
        (
            "ooc_lu",
            ooc_lu_schedule(
                &PanelRef::dense(MatrixId::synthetic(0), 12, 12),
                &OocLuPlan::for_memory(35).unwrap(),
            )
            .unwrap(),
        ),
    ]
}
