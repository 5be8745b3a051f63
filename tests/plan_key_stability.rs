//! Plan-key stability: `PlanService::key` must hash to the same values
//! release after release. A disk-tier plan is stored under its key's
//! `content_hash()`, so any drift would silently orphan every plan written
//! before it. The pinned hashes cover SYRK, Cholesky and GEMM, each in fixed
//! mode (`<kernel>/<name>` keys) and tuned mode (`autotune/...` keys, which
//! also pin the default tuning spaces and the model fingerprints).

use symla::prelude::*;

/// The cache-slot hash of `job` run with `opts`.
fn hash(job: &Job<'_, f64>, opts: &RunOptions<'_>) -> u64 {
    PlanService::<f64>::key(job, opts).content_hash()
}

#[test]
fn plan_keys_hash_to_their_pinned_values() {
    let mut pinned = Vec::new();

    let a = Matrix::<f64>::zeros(40, 6);
    let mut c = SymMatrix::<f64>::zeros(40);
    let job = Job::Syrk {
        a: &a,
        c: &mut c,
        alpha: 1.5,
        algorithm: SyrkAlgorithm::TbsTiled,
    };
    let fixed = RunOptions {
        pipeline: PassPipeline::standard(),
        lookahead: 1,
        ..RunOptions::new(60)
    };
    let tuned = RunOptions {
        model: Some(MachineModel::nvme()),
        tuning: Some(job.tuning_space(60)),
        ..RunOptions::new(60)
    };
    pinned.push(("syrk fixed", hash(&job, &fixed), 0x16871a1f0b1bfb43));
    pinned.push(("syrk tuned", hash(&job, &tuned), 0xb1020ee79e9cb8ac));

    let a = Matrix::<f64>::zeros(24, 6);
    let mut c = SymMatrix::<f64>::zeros(24);
    let job = Job::Syrk {
        a: &a,
        c: &mut c,
        alpha: 1.0,
        algorithm: SyrkAlgorithm::Tbs,
    };
    let plain = RunOptions::new(40);
    pinned.push(("syrk plain", hash(&job, &plain), 0x98c428d3b3396508));

    let spd = SymMatrix::<f64>::zeros(30);
    let job = Job::Cholesky {
        a: &spd,
        algorithm: CholeskyAlgorithm::Lbc,
    };
    let fixed = RunOptions {
        lookahead: 2,
        ..RunOptions::new(28)
    };
    pinned.push(("cholesky fixed", hash(&job, &fixed), 0x805a75478ccaa85f));
    let job = Job::Cholesky {
        a: &spd,
        algorithm: CholeskyAlgorithm::Bereux,
    };
    let tuned = RunOptions {
        model: Some(MachineModel::nvme()),
        tuning: Some(job.tuning_space(28)),
        ..RunOptions::new(28)
    };
    pinned.push(("cholesky tuned", hash(&job, &tuned), 0xffd37bd5f0f62566));

    let a = Matrix::<f64>::zeros(18, 7);
    let b = Matrix::<f64>::zeros(7, 13);
    let mut c = Matrix::<f64>::zeros(18, 13);
    let job = Job::Gemm {
        a: &a,
        b: &b,
        c: &mut c,
        alpha: 0.5,
    };
    let fixed = RunOptions {
        pipeline: PassPipeline::standard(),
        lookahead: 1,
        ..RunOptions::new(30)
    };
    let tuned = RunOptions {
        model: Some(MachineModel::dram()),
        tuning: Some(job.tuning_space(30)),
        ..RunOptions::new(30)
    };
    pinned.push(("gemm fixed", hash(&job, &fixed), 0xa8febda353117886));
    pinned.push(("gemm tuned", hash(&job, &tuned), 0x612e454822939b7e));

    for (label, got, want) in pinned {
        assert_eq!(got, want, "{label}: key hash drifted ({got:#018x})");
    }
}
