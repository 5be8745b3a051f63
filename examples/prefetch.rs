//! Double-buffered prefetching: overlap the next task group's loads with
//! the current group's compute, and measure what the lookahead buys —
//! without timing noise, straight from the engine's accounting.
//!
//! ```text
//! cargo run --release --example prefetch
//! ```
//!
//! An out-of-core kernel is transfer-bound: its wall clock is dominated by
//! the *stalled* part of the load stream (loads the compute has to wait
//! for). With `lookahead = L`, the engine issues the loads of up to `L`
//! future groups into the capacity slack `S − footprint` while the current
//! group computes; what fits becomes overlapped traffic, and the dry-run
//! model reports the split exactly. Results stay bitwise-identical and the
//! peak residency never exceeds `S` — the planner only spends slack.

use symla::prelude::*;

fn main() {
    let n = 96;
    let m = 16;
    let s = 160;
    let a = generate::random_matrix_seeded::<f64>(n, m, 11);

    println!("Prefetched out-of-core SYRK, N = {n}, M = {m}, S = {s}");
    println!();
    println!(
        "{:<12} {:>2} {:>9} {:>10} {:>9} {:>8} {:>6}",
        "algorithm", "L", "loads", "prefetched", "stalled", "overlap", "peak"
    );

    for algorithm in [
        SyrkAlgorithm::SquareBlocks,
        SyrkAlgorithm::Tbs,
        SyrkAlgorithm::TbsTiled,
    ] {
        let mut baseline = None;
        for lookahead in [0usize, 1, 2] {
            let mut c = SymMatrix::<f64>::zeros(n);
            let job = Job::Syrk {
                a: &a,
                c: &mut c,
                alpha: 1.0,
                algorithm,
            };
            let opts = RunOptions {
                lookahead,
                ..RunOptions::new(s)
            };
            let run = run(job, &opts).expect("schedule must run");
            let stats = &run.report.stats;
            assert!(stats.peak_resident <= s, "prefetch must respect S");
            match &baseline {
                None => baseline = Some(c),
                Some(base) => assert!(
                    c == *base,
                    "prefetching must not change a single bit of the result"
                ),
            }
            println!(
                "{:<12} {:>2} {:>9} {:>10} {:>9} {:>7.1}% {:>6}",
                algorithm.name(),
                lookahead,
                stats.volume.loads,
                stats.prefetched_elements,
                stats.stalled_loads(),
                100.0 * stats.overlap_ratio(),
                stats.peak_resident,
            );
        }
        println!();
    }

    println!("overlap = prefetched / loads: the share of the load stream");
    println!("hidden behind compute; stalled loads are what is left on the");
    println!("critical path. Volumes never change — only when data moves.");
}
