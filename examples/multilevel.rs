//! The memory hierarchy end to end: a tiered replay with per-level
//! accounting and surcharge pricing, then a sharded parallel SYRK whose
//! cross-shard traffic reproduces the paper's `1/sqrt(2)` claim.
//!
//! ```text
//! cargo run --release --example multilevel
//! ```
//!
//! Part 1 replays one schedule three ways — plain [`OocMachine`],
//! degenerate [`TieredMachine`] (must be invisible), and re-leveled to
//! tier 2 (same volume, attributed to the tier, priced slower under a
//! surcharge). Part 2 runs SYRK with `RunOptions { workers: 4, shards: 2,
//! .. }`: the shared slow memory splits into two shards (`C` on shard 0 =
//! every node's home, `A` on shard 1), the task groups are partitioned over
//! 4 nodes with `partition_groups` and the assignment executes for real,
//! printing each node's local/cross split.

use symla::prelude::*;
use symla_core::engine::modelled_time;
use symla_memory::{Level, MachineModel, TieredMachine};

fn main() {
    // ---- Part 1: one schedule, three machines -------------------------
    let (n, m, s) = (40, 6, 60);
    let a = generate::random_matrix_seeded::<f64>(n, m, 11);
    let c = generate::random_symmetric::<f64>(n, &mut generate::seeded_rng(12));
    let a_ref = PanelRef::dense(MatrixId::synthetic(0), n, m);
    let c_ref = SymWindowRef::full(MatrixId::synthetic(1), n);
    let plan = TbsTiledPlan::for_problem(s, n).expect("plan");
    let schedule = tbs_tiled_schedule::<f64>(&a_ref, &c_ref, 1.0, &plan).expect("schedule");

    // Plain two-level replay: the reference.
    let mut flat = OocMachine::<f64>::new(MachineConfig::with_capacity(s));
    flat.insert_dense(a.clone());
    flat.insert_symmetric(c.clone());
    symla_sched::Engine::execute(&mut flat, &schedule).expect("flat replay");
    let flat_c = flat.take_symmetric(MatrixId::synthetic(1)).unwrap();

    // Degenerate hierarchy: two uncapped tiers, every transfer at the
    // default level. Must be invisible — same results, same stats.
    let inner = OocMachine::<f64>::new(MachineConfig::with_capacity(s));
    let mut tiered = TieredMachine::new(inner).with_tier(None).with_tier(None);
    tiered.inner_mut().insert_dense(a.clone());
    tiered.inner_mut().insert_symmetric(c.clone());
    symla_sched::Engine::execute(&mut tiered, &schedule).expect("tiered replay");
    assert_eq!(
        tiered.inner().stats(),
        flat.stats(),
        "degenerate hierarchy is invisible"
    );

    // Re-level every transfer to tier 2: bitwise the same computation,
    // now attributed to the tier in the per-level counters.
    let deep = Level::new(2);
    let leveled = schedule.with_transfer_level(deep);
    assert!(leveled.is_leveled() && leveled.text_version() == 2);
    let inner = OocMachine::<f64>::new(MachineConfig::with_capacity(s));
    let mut tiered = TieredMachine::new(inner).with_tier(None).with_tier(None);
    tiered.inner_mut().insert_dense(a.clone());
    tiered.inner_mut().insert_symmetric(c.clone());
    symla_sched::Engine::execute(&mut tiered, &leveled).expect("leveled replay");
    let stats = tiered.inner().stats().clone();
    let got = tiered
        .into_inner()
        .take_symmetric(MatrixId::synthetic(1))
        .unwrap();
    assert!(got == flat_c, "leveled replay is bitwise-identical");

    // The presets ship all-zero level surcharges: pricing a tier costs an
    // explicit with_level_extra. 25 extra ns/element makes tier 2 visible.
    let model = MachineModel::nvme().with_level_extra(deep, 25.0);
    let flat_ns = modelled_time(&schedule, &model, 0, Some(s)).total_ns();
    let deep_ns = modelled_time(&leveled, &model, 0, Some(s)).total_ns();

    println!("tiled TBS, N = {n}, M = {m}, S = {s}:");
    println!(
        "  volume {:>7} loads {:>6} stores — tier-2 traffic {} + {} (all of it)",
        stats.volume.loads,
        stats.volume.stores,
        stats.level(2).loads,
        stats.level(2).stores,
    );
    println!(
        "  modelled: flat {flat_ns:>12.1} ns, via tier 2 {deep_ns:>12.1} ns \
         (+{:.1}% for the deeper tier)",
        100.0 * (deep_ns - flat_ns) / flat_ns
    );

    // ---- Part 2: sharded slow memory across 4 nodes --------------------
    let (n, m, s, nodes) = (120usize, 16usize, 10usize, 4usize);
    let a = generate::random_matrix_seeded::<f64>(n, m, 13);
    let mut reference = SymMatrix::<f64>::zeros(n);
    kernels::syrk_sym(1.0, &a, 1.0, &mut reference).expect("reference kernel");

    println!();
    println!("sharded parallel SYRK, N = {n}, M = {m}, S/node = {s}, nodes = {nodes}");
    println!("(C on shard 0 = every node's home, A on shard 1: cross = A traffic)");
    let mut cross = Vec::new();
    for algorithm in [SyrkAlgorithm::SquareBlocks, SyrkAlgorithm::Tbs] {
        let mut c = SymMatrix::<f64>::zeros(n);
        let job = Job::Syrk {
            a: &a,
            c: &mut c,
            alpha: 1.0,
            algorithm,
        };
        let opts = RunOptions {
            workers: nodes,
            shards: 2,
            ..RunOptions::new(s)
        };
        let outcome = run(job, &opts).expect("sharded run");
        let report = outcome.parallel.expect("parallel report");
        assert!(c.approx_eq(&reference, 1e-9), "result must match reference");
        println!();
        println!(
            "schedule: {:<10} total cross-shard {:>8}  bottleneck node {:>8}",
            algorithm.name(),
            report.total_cross(),
            report.max_cross()
        );
        for (node, io) in report.per_worker.iter().enumerate() {
            println!(
                "  node {node}: {:>6} local + {:>6} cross-shard elements over {} groups",
                io.local, io.cross, io.tasks
            );
        }
        cross.push(report.total_cross());
    }
    println!();
    println!(
        "triangle / square cross-shard ratio: {:.4} — the paper's 1/sqrt(2) ~ 0.707",
        cross[1] as f64 / cross[0] as f64
    );
    println!("(about 0.73 at this finite shape; the A/B gate ab_multilevel bands it)");
}
