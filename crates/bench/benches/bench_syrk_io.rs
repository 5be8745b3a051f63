//! Wall-clock of the out-of-core SYRK schedules running inside the machine
//! model (experiments E2/E10), plus the evaluation speed of their analytic
//! cost models at large sizes.

use symla_baselines::{ooc_syrk_cost, ooc_syrk_execute, OocSyrkPlan};
use symla_bench::harness::{BenchmarkId, Criterion};
use symla_bench::{criterion_group, criterion_main};
use symla_core::{tbs_cost, tbs_execute, tbs_tiled_execute, TbsPlan, TbsTiledPlan};
use symla_matrix::generate;
use symla_matrix::{Matrix, SymMatrix};
use symla_memory::{OocMachine, PanelRef, SymWindowRef};

const S: usize = 36;

fn run_square(a: &Matrix<f64>, n: usize, m: usize) -> u64 {
    let plan = OocSyrkPlan::for_memory(S).unwrap();
    let mut machine = OocMachine::with_capacity(S);
    let a_id = machine.insert_dense(a.clone());
    let c_id = machine.insert_symmetric(SymMatrix::zeros(n));
    ooc_syrk_execute(
        &mut machine,
        &PanelRef::dense(a_id, n, m),
        &SymWindowRef::full(c_id, n),
        1.0,
        &plan,
    )
    .unwrap();
    machine.stats().volume.loads
}

fn run_tbs(a: &Matrix<f64>, n: usize, m: usize) -> u64 {
    let plan = TbsPlan::for_memory(S).unwrap();
    let mut machine = OocMachine::with_capacity(S);
    let a_id = machine.insert_dense(a.clone());
    let c_id = machine.insert_symmetric(SymMatrix::zeros(n));
    tbs_execute(
        &mut machine,
        &PanelRef::dense(a_id, n, m),
        &SymWindowRef::full(c_id, n),
        1.0,
        &plan,
    )
    .unwrap();
    machine.stats().volume.loads
}

fn run_tiled(a: &Matrix<f64>, n: usize, m: usize) -> u64 {
    let plan = TbsTiledPlan::for_problem(S, n).unwrap();
    let mut machine = OocMachine::with_capacity(S);
    let a_id = machine.insert_dense(a.clone());
    let c_id = machine.insert_symmetric(SymMatrix::zeros(n));
    tbs_tiled_execute(
        &mut machine,
        &PanelRef::dense(a_id, n, m),
        &SymWindowRef::full(c_id, n),
        1.0,
        &plan,
    )
    .unwrap();
    machine.stats().volume.loads
}

fn bench_ooc_syrk(c: &mut Criterion) {
    let mut group = c.benchmark_group("out-of-core syrk (S = 36)");
    group.sample_size(10);
    for &n in &[96_usize, 160] {
        let m = n / 4;
        let a: Matrix<f64> = generate::random_matrix_seeded(n, m, n as u64);
        group.bench_with_input(BenchmarkId::new("OOC_SYRK", n), &n, |b, _| {
            b.iter(|| run_square(&a, n, m))
        });
        group.bench_with_input(BenchmarkId::new("TBS", n), &n, |b, _| {
            b.iter(|| run_tbs(&a, n, m))
        });
        group.bench_with_input(BenchmarkId::new("TBS(tiled)", n), &n, |b, _| {
            b.iter(|| run_tiled(&a, n, m))
        });
    }
    group.finish();
}

fn bench_cost_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("syrk analytic cost models");
    let sq = OocSyrkPlan::for_memory(S).unwrap();
    let tbs = TbsPlan::for_memory(S).unwrap();
    for &n in &[4096_usize, 16_384] {
        group.bench_with_input(BenchmarkId::new("OOC_SYRK cost", n), &n, |b, &n| {
            b.iter(|| ooc_syrk_cost(n, n / 4, &sq))
        });
        group.bench_with_input(BenchmarkId::new("TBS cost", n), &n, |b, &n| {
            b.iter(|| tbs_cost(n, n / 4, &tbs).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ooc_syrk, bench_cost_models);
criterion_main!(benches);
