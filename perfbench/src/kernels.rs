//! Per-kernel throughput: tally each `ComputeOp` kind of a schedule, then
//! time the kernel the engine dispatches for that kind at the schedule's
//! most common operand shape.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use symla::matrix::generate::{random_matrix_seeded, random_spd_seeded};
use symla::matrix::kernels::flops::cholesky_flops;
use symla::matrix::kernels::micro::{ger_view_auto, spr_lower_view_auto};
use symla::matrix::kernels::views::{cholesky_packed_view_in_place, trsm_right_lt_view};
use symla::matrix::views::{MatView, MatViewMut, PackedLowerViewMut};
use symla::memory::Region;
use symla::sched::{BufId, ComputeOp, Schedule, Step};

/// The kinds the benchmark's workloads use, by schedule mnemonic. Other
/// kinds are tallied with no flops and not reported.
pub const KINDS: [&str; 4] = ["ger", "spr", "chol", "trsmstep"];

/// Operand shape of one compute step: `(x, y)` for `ger`, `(rows, cols)` of
/// the tile for `trsmstep`, `(order, 0)` for the others.
pub type Shape = (usize, usize);

/// Calls and nominal flops of one kind, with a histogram of its shapes.
#[derive(Debug, Default)]
pub struct KindTally {
    pub calls: u64,
    pub flops: f64,
    pub shapes: BTreeMap<Shape, u64>,
}

impl KindTally {
    /// The most common shape (the larger one on a tie).
    pub fn common_shape(&self) -> Option<Shape> {
        self.shapes
            .iter()
            .max_by_key(|(shape, n)| (**n, **shape))
            .map(|(s, _)| *s)
    }
}

/// Walks the schedule and tallies every compute step by kind.
pub fn tally(schedule: &Schedule<f64>) -> BTreeMap<&'static str, KindTally> {
    let mut out: BTreeMap<&'static str, KindTally> = BTreeMap::new();
    for group in &schedule.groups {
        let mut regions: BTreeMap<BufId, &Region> = BTreeMap::new();
        for step in &group.steps {
            let op = match step {
                Step::Load { region, dst, .. } | Step::Alloc { region, dst, .. } => {
                    regions.insert(*dst, region);
                    continue;
                }
                Step::Compute(op) => op,
                _ => continue,
            };
            let (shape, flops) = match op {
                ComputeOp::Ger { x, y, .. } => ((x.len, y.len), 2.0 * (x.len * y.len) as f64),
                ComputeOp::SprLower { x, .. } => ((x.len, 0), (x.len * (x.len + 1)) as f64),
                ComputeOp::CholeskyInPlace { dst, .. } => {
                    let order = packed_order(regions.get(dst).map_or(0, |r| r.len()));
                    ((order, 0), cholesky_flops(order).total() as f64)
                }
                ComputeOp::TrsmRightStep { dst, col, .. } => {
                    let (rows, cols) = regions.get(dst).map_or((0, 0), |r| rect_shape(r));
                    let later = cols.saturating_sub(col + 1);
                    ((rows, cols), (rows * (1 + 2 * later)) as f64)
                }
                _ => ((0, 0), 0.0),
            };
            let t = out.entry(op.kind()).or_default();
            t.calls += 1;
            t.flops += flops;
            *t.shapes.entry(shape).or_default() += 1;
        }
    }
    out
}

/// Order `b` of a packed lower triangle of `len = b(b+1)/2` elements.
fn packed_order(len: usize) -> usize {
    let mut b = ((2.0 * len as f64).sqrt()) as usize;
    while b * (b + 1) / 2 > len {
        b -= 1;
    }
    b
}

fn rect_shape(region: &Region) -> (usize, usize) {
    match region {
        Region::Rect { rows, cols, .. } | Region::SymRect { rows, cols, .. } => (*rows, *cols),
        Region::Rows { rows, cols, .. } => (rows.len(), *cols),
        other => (other.len(), 1),
    }
}

/// Times the engine's kernel for `kind` at `shape` for about `budget_s`
/// seconds and returns its GF/s. `trsmstep` is timed as the whole
/// `trsm_right_lt_view` solve of the tile, `rows·cols²` flops, since the
/// engine runs each step inline rather than through a library kernel.
pub fn kernel_gflops(kind: &str, shape: Shape, budget_s: f64) -> f64 {
    let (p, q) = shape;
    match kind {
        "ger" => {
            let x = vec_of(p, 1);
            let y = vec_of(q, 2);
            let mut c = vec_of(p * q, 3);
            repeat(budget_s, 2.0 * (p * q) as f64, || {
                let mut view = MatViewMut::new(&mut c, p, q).expect("ger tile");
                ger_view_auto(1e-3, black_box(&x), &y, &mut view).expect("ger shape");
            })
        }
        "spr" => {
            let x = vec_of(p, 1);
            let mut c = vec_of(p * (p + 1) / 2, 3);
            repeat(budget_s, (p * (p + 1)) as f64, || {
                let mut view = PackedLowerViewMut::new(&mut c, p).expect("packed tile");
                spr_lower_view_auto(1e-3, black_box(&x), &mut view).expect("spr shape");
            })
        }
        "chol" => {
            let a = random_spd_seeded::<f64>(p, 4);
            repeat_reset(
                budget_s,
                cholesky_flops(p).total() as f64,
                a.as_packed(),
                |w| {
                    let mut view = PackedLowerViewMut::new(w, p).expect("packed tile");
                    cholesky_packed_view_in_place(&mut view).expect("SPD tile");
                },
            )
        }
        "trsmstep" => {
            // A dominant diagonal keeps the solve well conditioned.
            let mut l = random_matrix_seeded::<f64>(q, q, 5);
            for j in 0..q {
                l[(j, j)] = 1.0 + q as f64;
            }
            let lv = MatView::new(l.as_slice(), q, q).expect("factor");
            repeat_reset(budget_s, (p * q * q) as f64, &vec_of(p * q, 6), |w| {
                let mut xv = MatViewMut::new(w, p, q).expect("tile");
                trsm_right_lt_view(&lv, &mut xv).expect("solve shape");
            })
        }
        _ => 0.0,
    }
}

fn vec_of(len: usize, seed: u64) -> Vec<f64> {
    random_matrix_seeded::<f64>(len.max(1), 1, seed).as_slice()[..len].to_vec()
}

/// Calls `f` (after one warm-up) until `budget_s` passes, at least 3 times;
/// returns GF/s.
fn repeat(budget_s: f64, flops_per_call: f64, mut f: impl FnMut()) -> f64 {
    f();
    let (start, mut calls) = (Instant::now(), 0u64);
    while calls < 3 || start.elapsed().as_secs_f64() < budget_s {
        f();
        calls += 1;
    }
    calls as f64 * flops_per_call / start.elapsed().as_secs_f64() / 1e9
}

/// Like [`repeat`] for kernels that overwrite their input: each call runs
/// on a fresh copy of `input`, made outside the timed region.
fn repeat_reset(
    budget_s: f64,
    flops_per_call: f64,
    input: &[f64],
    mut f: impl FnMut(&mut [f64]),
) -> f64 {
    let mut work = input.to_vec();
    f(&mut work);
    let (wall, mut busy, mut calls) = (Instant::now(), 0.0, 0u64);
    while calls < 3 || wall.elapsed().as_secs_f64() < budget_s {
        work.copy_from_slice(input);
        let start = Instant::now();
        f(black_box(&mut work));
        busy += start.elapsed().as_secs_f64();
        calls += 1;
    }
    calls as f64 * flops_per_call / busy / 1e9
}
