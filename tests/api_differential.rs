//! The front door's differential grid: for every builder, every option
//! combination of [`run`] and [`PlanService::run`] must produce **bitwise
//! identical** results and mutually consistent [`IoStats`]:
//!
//! * `pipeline` {none, standard} × `lookahead` {0, 1} × {no model, model,
//!   model + recorder} × {`run`, `PlanService::run`}. Within one
//!   (pipeline, lookahead) class, the model, the recorder and the cache
//!   change nothing: stats are equal field for field, and the timed runs'
//!   clocks are consistent and equal bitwise (traced runs equal untraced
//!   ones). Without passes, every class moves the plain run's volume
//!   (prefetching reorders load issue, never load totals), and at
//!   lookahead 0 it is the plain run;
//! * tuned runs (direct, traced and served) return the plain result, and
//!   their measured stats equal the stats the tuner scored by dry run alone
//!   (the zero-execution-scoring invariant);
//! * a recorder or a tuning space without a model, or a tuning space with
//!   a fixed pipeline or lookahead, is rejected with a typed error, by both
//!   front doors;
//! * parallel and sharded runs are replay modes of the same compiled
//!   schedule: for SYRK and GEMM, `pipeline` {none, standard} × `lookahead`
//!   {0, 2} × `workers` {1, 2, 4} × `shards` {1, 2} (sharded runs at
//!   lookahead 0) × {`run`, `PlanService::run`} returns the `workers = 1`
//!   result bitwise, the merged loads and stores equal the serial volume,
//!   and a serve at another worker count hits the serial plan's cache slot;
//! * every combination no path supports (Cholesky on several workers, zero
//!   workers, a shard count other than 1 or 2, a tuned parallel run, a
//!   sharded run with a lookahead or a recorder, a parallel run with a
//!   model but no recorder) is rejected with a typed error, by both front
//!   doors.

use symla::prelude::*;

/// A kernel with owned operands, so one instance runs many times.
enum Kernel {
    Syrk(Matrix<f64>, SymMatrix<f64>, SyrkAlgorithm),
    Cholesky(SymMatrix<f64>, CholeskyAlgorithm),
    Gemm(Matrix<f64>, Matrix<f64>, Matrix<f64>),
}

/// What a run leaves behind: the updated `C`, or the factor.
#[derive(Debug, PartialEq)]
enum Output {
    Sym(SymMatrix<f64>),
    Dense(Matrix<f64>),
    Factor(Option<LowerTriangular<f64>>),
}

/// Everything one grid point observes.
struct Observed {
    output: Output,
    stats: IoStats,
    clock: Option<WallClock>,
    tuning: Option<TuningReport>,
    parallel: Option<ParallelReport>,
    /// Where a served run's plan came from (`None` for `run`).
    source: Option<PlanSource>,
}

impl Kernel {
    fn name(&self) -> &'static str {
        match self {
            Kernel::Syrk(_, _, algorithm) => algorithm.name(),
            Kernel::Cholesky(_, algorithm) => algorithm.name(),
            Kernel::Gemm(..) => "gemm",
        }
    }

    fn fresh_output(&self) -> Output {
        match self {
            Kernel::Syrk(_, c0, _) => Output::Sym(c0.clone()),
            Kernel::Cholesky(..) => Output::Factor(None),
            Kernel::Gemm(_, _, c0) => Output::Dense(c0.clone()),
        }
    }

    fn job<'a>(&'a self, output: &'a mut Output) -> Job<'a, f64> {
        match (self, output) {
            (Kernel::Syrk(a, _, algorithm), Output::Sym(c)) => Job::Syrk {
                a,
                c,
                alpha: 1.0,
                algorithm: *algorithm,
            },
            (Kernel::Cholesky(a, algorithm), _) => Job::Cholesky {
                a,
                algorithm: *algorithm,
            },
            (Kernel::Gemm(a, b, _), Output::Dense(c)) => Job::Gemm {
                a,
                b,
                c,
                alpha: 1.0,
            },
            _ => unreachable!("fresh_output matches the kernel"),
        }
    }

    fn tuning_space(&self, s: usize) -> TuningSpace {
        self.job(&mut self.fresh_output()).tuning_space(s)
    }

    /// Runs through `run`, or through `service` when one is given.
    fn run(
        &self,
        service: Option<&PlanService<f64>>,
        opts: &RunOptions<'_>,
    ) -> Result<Observed, OocError> {
        let mut output = self.fresh_output();
        let job = self.job(&mut output);
        let (stats, factor, clock, tuning, parallel, source) = match service {
            None => {
                let outcome = run(job, opts)?;
                let stats = outcome.report.stats;
                let parallel = outcome.parallel;
                (
                    stats,
                    outcome.factor,
                    outcome.clock,
                    outcome.tuning,
                    parallel,
                    None,
                )
            }
            Some(service) => {
                let served = service.run(job, opts)?;
                let source = Some(served.source);
                (
                    served.stats,
                    served.factor,
                    served.clock,
                    None,
                    served.parallel,
                    source,
                )
            }
        };
        if let Output::Factor(slot) = &mut output {
            *slot = factor;
        }
        Ok(Observed {
            output,
            stats,
            clock,
            tuning,
            parallel,
            source,
        })
    }
}

/// Whether two time accounts agree bitwise.
fn same_time(a: &TimeStats, b: &TimeStats) -> bool {
    WallClock {
        measured: *a,
        modelled: *b,
    }
    .consistent()
}

/// The whole grid for one kernel instance under capacity `s`.
fn grid(kernel: &Kernel, s: usize) {
    let name = kernel.name();
    let model = MachineModel::dram();
    let plain = kernel.run(None, &RunOptions::new(s)).unwrap();
    let service = PlanService::<f64>::in_memory();

    for pipeline in [PassPipeline::none(), PassPipeline::standard()] {
        for lookahead in [0usize, 1] {
            let mut class_stats: Option<IoStats> = None;
            let mut class_time: Option<TimeStats> = None;
            for (observe, timed, traced) in [
                ("plain", false, false),
                ("timed", true, false),
                ("traced", true, true),
            ] {
                for served in [false, true] {
                    let recorder = TraceRecorder::new();
                    let opts = RunOptions {
                        pipeline: pipeline.clone(),
                        lookahead,
                        model: timed.then_some(model),
                        recorder: traced.then_some(&recorder),
                        ..RunOptions::new(s)
                    };
                    let front = served.then_some(&service);
                    let ctx =
                        format!("{name} {pipeline:?} L={lookahead} {observe} served={served}");
                    let got = kernel.run(front, &opts).unwrap();
                    assert_eq!(got.output, plain.output, "{ctx}: result");
                    assert!(got.stats.peak_resident <= s, "{ctx}: capacity");
                    if pipeline == PassPipeline::none() {
                        assert_eq!(got.stats.volume, plain.stats.volume, "{ctx}: volume");
                        if lookahead == 0 {
                            assert_eq!(got.stats, plain.stats, "{ctx}: plain stats");
                        }
                    }
                    match &class_stats {
                        None => class_stats = Some(got.stats.clone()),
                        Some(stats) => assert_eq!(&got.stats, stats, "{ctx}: stats in class"),
                    }
                    assert_eq!(got.clock.is_some(), timed, "{ctx}: clock presence");
                    if let Some(clock) = got.clock {
                        assert!(clock.consistent(), "{ctx}: measured vs modelled time");
                        match &class_time {
                            None => class_time = Some(clock.measured),
                            Some(time) => {
                                assert!(same_time(&clock.measured, time), "{ctx}: clock in class")
                            }
                        }
                    }
                    if traced {
                        assert!(!recorder.finish().is_empty(), "{ctx}: trace recorded");
                    }
                }
            }
        }
    }

    // Tuned runs: direct, traced and served all replay the winner.
    let space = kernel.tuning_space(s);
    let recorder = TraceRecorder::new();
    let tuned = |recorder| RunOptions {
        model: Some(MachineModel::nvme()),
        recorder,
        tuning: Some(space.clone()),
        ..RunOptions::new(s)
    };
    let direct = kernel.run(None, &tuned(None)).unwrap();
    let winner = direct.tuning.as_ref().unwrap().winner();
    assert_eq!(direct.output, plain.output, "{name}: autotuned result");
    assert_eq!(
        direct.stats, winner.stats,
        "{name}: autotuned measured stats equal the dry-run-scored stats"
    );
    assert!(
        direct.stats.peak_resident <= s,
        "{name}: autotuned capacity"
    );
    let direct_clock = direct.clock.unwrap();
    assert!(direct_clock.consistent(), "{name}: autotuned clock");

    let traced = kernel.run(None, &tuned(Some(&recorder))).unwrap();
    assert!(
        !recorder.finish().is_empty(),
        "{name}: tuned trace recorded"
    );
    assert_eq!(traced.output, plain.output, "{name}: tuned+traced result");
    assert_eq!(traced.stats, direct.stats, "{name}: tuned+traced stats");
    assert!(
        same_time(&traced.clock.unwrap().measured, &direct_clock.measured),
        "{name}: tuned+traced clock"
    );

    for round in ["cold", "warm"] {
        let served = kernel.run(Some(&service), &tuned(None)).unwrap();
        assert_eq!(served.output, plain.output, "{name}: {round} served tuned");
        assert_eq!(served.stats, direct.stats, "{name}: {round} served tuned");
    }

    // A recorder or a tuning space needs a model, and a tuned run picks its
    // own lookahead, at both front doors.
    for front in [None, Some(&service)] {
        for opts in [
            RunOptions {
                recorder: Some(&recorder),
                ..RunOptions::new(s)
            },
            RunOptions {
                tuning: Some(space.clone()),
                ..RunOptions::new(s)
            },
            RunOptions {
                lookahead: 1,
                ..tuned(None)
            },
        ] {
            let err = kernel.run(front, &opts).err();
            assert!(
                matches!(err, Some(OocError::Invalid(_))),
                "{name}: expected a typed rejection, got {err:?}"
            );
        }
    }
}

/// The parallel grid for one SYRK or GEMM instance under capacity `s`:
/// every supported (workers, shards) point of every (pipeline, lookahead)
/// class replays the serial run's result bitwise and its volume in total.
fn parallel_grid(kernel: &Kernel, s: usize) {
    let name = kernel.name();
    let model = MachineModel::dram();
    for pipeline in [PassPipeline::none(), PassPipeline::standard()] {
        for lookahead in [0usize, 2] {
            let class = |workers, shards| RunOptions {
                pipeline: pipeline.clone(),
                lookahead,
                workers,
                shards,
                ..RunOptions::new(s)
            };
            let serial = kernel.run(None, &class(1, 1)).unwrap();
            assert!(serial.parallel.is_none(), "{name}: one worker is serial");
            // The first serve compiles the class's plan at workers = 1;
            // every other worker and shard count must hit it.
            let service = PlanService::<f64>::in_memory();
            let cold = kernel.run(Some(&service), &class(1, 1)).unwrap();
            assert_eq!(cold.source, Some(PlanSource::Compiled), "{name}");
            let shard_counts: &[usize] = if lookahead == 0 { &[1, 2] } else { &[1] };
            for &shards in shard_counts {
                for workers in [1usize, 2, 4] {
                    if (workers, shards) == (1, 1) {
                        continue;
                    }
                    let traced = [false, shards == 1];
                    for (served, traced) in [false, true].into_iter().zip(traced) {
                        let recorder = TraceRecorder::new();
                        let opts = RunOptions {
                            model: traced.then_some(model),
                            recorder: traced.then_some(&recorder),
                            ..class(workers, shards)
                        };
                        let ctx = format!(
                            "{name} {pipeline:?} L={lookahead} P={workers} shards={shards} \
                             served={served} traced={traced}"
                        );
                        let front = served.then_some(&service);
                        let got = kernel.run(front, &opts).unwrap();
                        let report = got.parallel.as_ref().expect("parallel report");
                        assert_eq!(got.output, serial.output, "{ctx}: result");
                        assert_eq!(got.stats.volume, serial.stats.volume, "{ctx}: volume");
                        assert_eq!(report.total_loads(), serial.stats.volume.loads, "{ctx}");
                        assert_eq!(report.total_stores(), serial.stats.volume.stores, "{ctx}");
                        assert_eq!(report.per_worker.len(), workers, "{ctx}: workers");
                        assert_eq!(report.assignment.is_some(), shards == 2, "{ctx}");
                        assert!(got.stats.peak_resident <= s, "{ctx}: capacity");
                        assert!(got.clock.is_none(), "{ctx}: no parallel clock");
                        if served {
                            assert_eq!(got.source, Some(PlanSource::Memory), "{ctx}: warm");
                        }
                        if traced {
                            assert!(!recorder.finish().is_empty(), "{ctx}: trace recorded");
                        }
                    }
                }
            }
            assert_eq!(service.stats().compiles, 1, "{name}: one plan per class");
        }
    }
}

/// Every unsupported parallel combination fails with a typed error at both
/// front doors, before any replay.
fn parallel_rejections(kernel: &Kernel, s: usize) {
    let name = kernel.name();
    let service = PlanService::<f64>::in_memory();
    let recorder = TraceRecorder::new();
    let model = Some(MachineModel::dram());
    let with = |workers, shards| RunOptions {
        workers,
        shards,
        ..RunOptions::new(s)
    };
    let mut rejected = vec![
        ("zero workers", with(0, 1)),
        ("zero shards", with(2, 0)),
        ("three shards", with(2, 3)),
        (
            "tuned parallel",
            RunOptions {
                model,
                tuning: Some(kernel.tuning_space(s)),
                ..with(2, 1)
            },
        ),
        (
            "sharded with a lookahead",
            RunOptions {
                lookahead: 1,
                ..with(2, 2)
            },
        ),
        (
            "sharded with a recorder",
            RunOptions {
                model,
                recorder: Some(&recorder),
                ..with(2, 2)
            },
        ),
        (
            "parallel model without a recorder",
            RunOptions {
                model,
                ..with(2, 1)
            },
        ),
    ];
    if let Kernel::Cholesky(..) = kernel {
        rejected.push(("Cholesky on several workers", with(2, 1)));
        rejected.push(("Cholesky on two shards", with(1, 2)));
    }
    for front in [None, Some(&service)] {
        for (why, opts) in &rejected {
            let err = kernel.run(front, opts).err();
            assert!(
                matches!(err, Some(OocError::Invalid(_))),
                "{name}: {why}: expected a typed rejection, got {err:?}"
            );
        }
    }
    assert_eq!(
        service.stats().compiles,
        0,
        "{name}: rejected before compiling"
    );
}

/// The SYRK grid, for one algorithm.
fn syrk_differential(algorithm: SyrkAlgorithm, n: usize, m: usize, s: usize) {
    let a: Matrix<f64> = generate::random_matrix_seeded(n, m, 8100 + n as u64);
    let mut rng = generate::seeded_rng(8200 + n as u64);
    let c0: SymMatrix<f64> = generate::random_symmetric(n, &mut rng);
    grid(&Kernel::Syrk(a, c0, algorithm), s);
}

/// The SYRK and GEMM kernels of the parallel grid (the shapes of the serial
/// grid), with their capacities.
fn parallel_kernels() -> Vec<(Kernel, usize)> {
    let syrk = |algorithm, n: usize, m, s| {
        let a: Matrix<f64> = generate::random_matrix_seeded(n, m, 8100 + n as u64);
        let mut rng = generate::seeded_rng(8200 + n as u64);
        (
            Kernel::Syrk(a, generate::random_symmetric(n, &mut rng), algorithm),
            s,
        )
    };
    let (n, m, p) = (9usize, 7usize, 11usize);
    vec![
        syrk(SyrkAlgorithm::Tbs, 30, 6, 60),
        syrk(SyrkAlgorithm::TbsTiled, 40, 6, 60),
        syrk(SyrkAlgorithm::SquareBlocks, 20, 5, 35),
        (
            Kernel::Gemm(
                generate::random_matrix_seeded(n, m, 8400),
                generate::random_matrix_seeded(m, p, 8401),
                generate::random_matrix_seeded(n, p, 8402),
            ),
            35,
        ),
    ]
}

#[test]
fn parallel_runs_replay_the_serial_schedule_bitwise() {
    for (kernel, s) in parallel_kernels() {
        parallel_grid(&kernel, s);
    }
}

#[test]
fn unsupported_parallel_combinations_are_rejected() {
    for (kernel, s) in parallel_kernels() {
        parallel_rejections(&kernel, s);
    }
    let spd: SymMatrix<f64> = generate::random_spd_seeded(24, 8324);
    parallel_rejections(&Kernel::Cholesky(spd, CholeskyAlgorithm::Lbc), 35);
}

/// The Cholesky grid, for one algorithm.
fn cholesky_differential(algorithm: CholeskyAlgorithm, n: usize, s: usize) {
    let spd: SymMatrix<f64> = generate::random_spd_seeded(n, 8300 + n as u64);
    grid(&Kernel::Cholesky(spd, algorithm), s);
}

#[test]
fn syrk_variants_agree_bitwise_across_all_algorithms() {
    syrk_differential(SyrkAlgorithm::Tbs, 30, 6, 60);
    syrk_differential(SyrkAlgorithm::TbsTiled, 40, 6, 60);
    syrk_differential(SyrkAlgorithm::SquareBlocks, 20, 5, 35);
}

#[test]
fn cholesky_variants_agree_bitwise_across_all_algorithms() {
    cholesky_differential(CholeskyAlgorithm::Lbc, 36, 48);
    cholesky_differential(CholeskyAlgorithm::LbcTiled, 36, 48);
    cholesky_differential(CholeskyAlgorithm::LbcSquare, 36, 48);
    cholesky_differential(CholeskyAlgorithm::Bereux, 24, 35);
}

#[test]
fn gemm_variants_agree_bitwise() {
    let (n, m, p, s) = (9usize, 7usize, 11usize, 35usize);
    let a: Matrix<f64> = generate::random_matrix_seeded(n, m, 8400);
    let b: Matrix<f64> = generate::random_matrix_seeded(m, p, 8401);
    let c0: Matrix<f64> = generate::random_matrix_seeded(n, p, 8402);
    grid(&Kernel::Gemm(a, b, c0), s);
}
