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
//!   front doors.

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
        let (stats, factor, clock, tuning) = match service {
            None => {
                let outcome = run(job, opts)?;
                let stats = outcome.report.stats;
                (stats, outcome.factor, outcome.clock, outcome.tuning)
            }
            Some(service) => {
                let served = service.run(job, opts)?;
                (served.stats, served.factor, served.clock, None)
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

/// The SYRK grid, for one algorithm.
fn syrk_differential(algorithm: SyrkAlgorithm, n: usize, m: usize, s: usize) {
    let a: Matrix<f64> = generate::random_matrix_seeded(n, m, 8100 + n as u64);
    let mut rng = generate::seeded_rng(8200 + n as u64);
    let c0: SymMatrix<f64> = generate::random_symmetric(n, &mut rng);
    grid(&Kernel::Syrk(a, c0, algorithm), s);
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
