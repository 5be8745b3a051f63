//! The builder corpus the A/B gates and the equivalence tests share.
//!
//! Every invariant the workspace states over "the eight builders" —
//! execute = dry-run = trace, modelled = measured, observed = unobserved,
//! tiered = flat, file-backed = simulated, optimized = seed — runs over
//! [`Case`]s built here. A case is one builder instance: its schedule, the
//! fast-memory capacity it was planned for, and its slow-memory operands in
//! registration order.
//!
//! The constructors take the operands the caller generated, so every caller
//! keeps its own data (seeds, sizes, `alpha`s) and only the construction is
//! shared. Each builds its schedule against `MatrixId::synthetic(i)` for the
//! operand at position `i`; [`register`] inserts the operands into a fresh
//! slow memory in that order, asserting the memory issues exactly those ids,
//! and [`take`] takes them back.
//!
//! A new instance of an existing builder is one constructor call in the
//! caller's case list. A new builder gets a [`Builder`] variant and a
//! constructor here, and every sweep that lists it picks it up.

use symla_baselines::{
    ooc_chol_schedule, ooc_gemm_schedule, ooc_lu_schedule, ooc_syrk_schedule, ooc_trsm_schedule,
    OocCholPlan, OocGemmPlan, OocLuPlan, OocSyrkPlan, OocTrsmPlan,
};
use symla_core::engine::Schedule;
use symla_core::plan::{LbcPlan, TbsPlan, TbsTiledPlan};
use symla_core::{lbc_schedule, tbs_schedule, tbs_tiled_schedule};
use symla_matrix::{LowerTriangular, Matrix, SymMatrix};
use symla_memory::{
    FileSlowMemory, MatrixId, OocMachine, PanelRef, SharedSlowMemory, SymWindowRef,
};

/// The eight schedule builders of the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builder {
    /// The paper's element-level TBS SYRK.
    Tbs,
    /// The paper's tiled TBS SYRK.
    TbsTiled,
    /// Béreux's square-block SYRK.
    OocSyrk,
    /// The paper's Large Block Cholesky.
    Lbc,
    /// Béreux's left-looking Cholesky.
    OocChol,
    /// Out-of-core triangular solve.
    OocTrsm,
    /// Out-of-core GEMM.
    OocGemm,
    /// Out-of-core LU.
    OocLu,
}

impl Builder {
    /// The builder's name, as the gates print it.
    pub fn id(self) -> &'static str {
        match self {
            Builder::Tbs => "tbs",
            Builder::TbsTiled => "tbs_tiled",
            Builder::OocSyrk => "ooc_syrk",
            Builder::Lbc => "lbc",
            Builder::OocChol => "ooc_chol",
            Builder::OocTrsm => "ooc_trsm",
            Builder::OocGemm => "ooc_gemm",
            Builder::OocLu => "ooc_lu",
        }
    }
}

/// A slow-memory operand; its position in [`Case::operands`] is its id.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A dense matrix.
    Dense(Matrix<f64>),
    /// A symmetric matrix (lower triangle stored).
    Sym(SymMatrix<f64>),
}

/// One builder instance: a schedule and the slow-memory contents it runs on.
pub struct Case {
    /// The builder that made the schedule.
    pub builder: Builder,
    /// Display name: the builder and the instance's shape.
    pub name: String,
    /// The schedule, built against synthetic ids.
    pub schedule: Schedule<f64>,
    /// The fast-memory capacity the schedule was planned for.
    pub capacity: usize,
    /// The operands in registration order.
    pub operands: Vec<Operand>,
}

impl Case {
    /// A SYRK-family case (`C += alpha * A * A^T`): `A` is operand 0, `C`
    /// operand 1. Panics unless `builder` is TBS, tiled TBS or OOC_SYRK.
    pub fn syrk(
        builder: Builder,
        a: &Matrix<f64>,
        c: &SymMatrix<f64>,
        alpha: f64,
        s: usize,
    ) -> Case {
        let (n, m) = (a.rows(), a.cols());
        let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
        let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
        let schedule = match builder {
            Builder::Tbs => {
                tbs_schedule(&a_ref, &c_ref, alpha, &TbsPlan::for_memory(s).unwrap()).unwrap()
            }
            Builder::TbsTiled => tbs_tiled_schedule(
                &a_ref,
                &c_ref,
                alpha,
                &TbsTiledPlan::for_problem(s, n).unwrap(),
            )
            .unwrap(),
            Builder::OocSyrk => {
                ooc_syrk_schedule(&a_ref, &c_ref, alpha, &OocSyrkPlan::for_memory(s).unwrap())
                    .unwrap()
            }
            other => panic!("{other:?} is not a SYRK builder"),
        };
        Case {
            builder,
            name: format!("{} n={n} m={m}", builder.id()),
            schedule,
            capacity: s,
            operands: vec![Operand::Dense(a.clone()), Operand::Sym(c.clone())],
        }
    }

    /// A Cholesky case factoring `spd` (operand 0) in place. Panics unless
    /// `builder` is LBC or OOC_CHOL.
    pub fn cholesky(builder: Builder, spd: &SymMatrix<f64>, s: usize) -> Case {
        let n = spd.order();
        let window = SymWindowRef::full(MatrixId::synthetic(0), n);
        let schedule = match builder {
            Builder::Lbc => lbc_schedule(&window, &LbcPlan::for_problem(n, s).unwrap()).unwrap(),
            Builder::OocChol => ooc_chol_schedule(&window, &OocCholPlan::for_memory(s).unwrap()),
            other => panic!("{other:?} is not a Cholesky builder"),
        };
        Case {
            builder,
            name: format!("{} n={n}", builder.id()),
            schedule,
            capacity: s,
            operands: vec![Operand::Sym(spd.clone())],
        }
    }

    /// A TRSM case (`X <- X * L^-T`): `L` is operand 0, stored as the lower
    /// triangle of a symmetric matrix, and `X` operand 1.
    pub fn trsm(l: &LowerTriangular<f64>, x: &Matrix<f64>, s: usize) -> Case {
        let (m, b) = (x.rows(), l.order());
        let schedule = ooc_trsm_schedule(
            &SymWindowRef::full(MatrixId::synthetic(0), b),
            &PanelRef::dense(MatrixId::synthetic(1), m, b),
            &OocTrsmPlan::for_memory(s).unwrap(),
        )
        .unwrap();
        Case {
            builder: Builder::OocTrsm,
            name: format!("ooc_trsm m={m} b={b}"),
            schedule,
            capacity: s,
            operands: vec![
                Operand::Sym(SymMatrix::from_lower_fn(b, |i, j| l.get(i, j))),
                Operand::Dense(x.clone()),
            ],
        }
    }

    /// A GEMM case (`C += alpha * A * B`): operands `A`, `B`, `C`.
    pub fn gemm(a: &Matrix<f64>, b: &Matrix<f64>, c: &Matrix<f64>, alpha: f64, s: usize) -> Case {
        let (n, m, p) = (a.rows(), a.cols(), b.cols());
        let schedule = ooc_gemm_schedule(
            &PanelRef::dense(MatrixId::synthetic(0), n, m),
            &PanelRef::dense(MatrixId::synthetic(1), m, p),
            &PanelRef::dense(MatrixId::synthetic(2), n, p),
            alpha,
            &OocGemmPlan::for_memory(s).unwrap(),
        )
        .unwrap();
        Case {
            builder: Builder::OocGemm,
            name: format!("ooc_gemm n={n} m={m} p={p}"),
            schedule,
            capacity: s,
            operands: vec![
                Operand::Dense(a.clone()),
                Operand::Dense(b.clone()),
                Operand::Dense(c.clone()),
            ],
        }
    }

    /// An LU case factoring the square `a` (operand 0) in place.
    pub fn lu(a: &Matrix<f64>, s: usize) -> Case {
        let n = a.rows();
        let schedule = ooc_lu_schedule(
            &PanelRef::dense(MatrixId::synthetic(0), n, n),
            &OocLuPlan::for_memory(s).unwrap(),
        )
        .unwrap();
        Case {
            builder: Builder::OocLu,
            name: format!("ooc_lu n={n}"),
            schedule,
            capacity: s,
            operands: vec![Operand::Dense(a.clone())],
        }
    }

    /// Whether the schedule's groups are independent, so the parallel
    /// engine may run them: the SYRK family and GEMM. The factorizations
    /// and TRSM order their groups through slow memory.
    pub fn independent_groups(&self) -> bool {
        matches!(
            self.builder,
            Builder::Tbs | Builder::TbsTiled | Builder::OocSyrk | Builder::OocGemm
        )
    }
}

/// Adds `n` to every diagonal entry of the `n x n` matrix `a`, so LU needs
/// no pivoting.
pub fn diagonally_dominant(mut a: Matrix<f64>) -> Matrix<f64> {
    let n = a.rows();
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// A slow memory the corpus registers operands in and takes them back from.
pub trait SlowMemory {
    /// Inserts one operand and returns the id the memory issued.
    fn insert_operand(&mut self, operand: &Operand) -> MatrixId;
    /// Takes back the matrix under `id`, of the same kind as `like`.
    fn take_operand(&mut self, id: MatrixId, like: &Operand) -> Operand;
}

impl SlowMemory for OocMachine<f64> {
    fn insert_operand(&mut self, operand: &Operand) -> MatrixId {
        match operand {
            Operand::Dense(m) => self.insert_dense(m.clone()),
            Operand::Sym(s) => self.insert_symmetric(s.clone()),
        }
    }

    fn take_operand(&mut self, id: MatrixId, like: &Operand) -> Operand {
        match like {
            Operand::Dense(_) => Operand::Dense(self.take_dense(id).unwrap()),
            Operand::Sym(_) => Operand::Sym(self.take_symmetric(id).unwrap()),
        }
    }
}

impl SlowMemory for SharedSlowMemory<f64> {
    fn insert_operand(&mut self, operand: &Operand) -> MatrixId {
        match operand {
            Operand::Dense(m) => self.insert_dense(m.clone()),
            Operand::Sym(s) => self.insert_symmetric(s.clone()),
        }
    }

    fn take_operand(&mut self, id: MatrixId, like: &Operand) -> Operand {
        match like {
            Operand::Dense(_) => Operand::Dense(self.take_dense(id).unwrap()),
            Operand::Sym(_) => Operand::Sym(self.take_symmetric(id).unwrap()),
        }
    }
}

impl SlowMemory for FileSlowMemory<f64> {
    fn insert_operand(&mut self, operand: &Operand) -> MatrixId {
        match operand {
            Operand::Dense(m) => self.insert_dense(m.clone()),
            Operand::Sym(s) => self.insert_symmetric(s.clone()),
        }
        .expect("write operand to backing file")
    }

    fn take_operand(&mut self, id: MatrixId, like: &Operand) -> Operand {
        match like {
            Operand::Dense(_) => Operand::Dense(self.take_dense(id).unwrap()),
            Operand::Sym(_) => Operand::Sym(self.take_symmetric(id).unwrap()),
        }
    }
}

/// Registers `operands` in `memory` in order, asserting that the operand at
/// position `i` receives `MatrixId::synthetic(i)` — the id its schedule was
/// built against.
pub fn register(memory: &mut impl SlowMemory, operands: &[Operand]) {
    for (i, operand) in operands.iter().enumerate() {
        let id = memory.insert_operand(operand);
        assert_eq!(id, MatrixId::synthetic(i as u64), "operand {i} id");
    }
}

/// Takes back every operand [`register`] inserted, in order.
pub fn take(memory: &mut impl SlowMemory, operands: &[Operand]) -> Vec<Operand> {
    operands
        .iter()
        .enumerate()
        .map(|(i, like)| memory.take_operand(MatrixId::synthetic(i as u64), like))
        .collect()
}
