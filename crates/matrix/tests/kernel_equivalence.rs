//! Bitwise-equivalence sweep: the cache-blocked micro-kernels of
//! `kernels::micro` must produce bit-for-bit the same output as the naive
//! view kernels of `kernels::views`, across shapes, tile sizes (including
//! ragged edges where the tile does not divide the extent), zero-valued
//! operand entries (exercising the skip paths), and non-finite inputs.
//!
//! The kernels with a hardware-FMA copy (ger, spr, triangle pairs) run on
//! both dispatch paths, in `f64` and `f32`: the portable copy and, where the
//! CPU has `fma` and `avx2`, the FMA copy. Both must match the portable
//! reference bit for bit. Running this file with `--release` as well checks
//! the vectorized FMA code the engine actually runs.
//!
//! This is the safety net that lets the engine dispatch the blocked kernels
//! unconditionally: every out-of-core result stays bitwise identical to the
//! seed implementations.

use symla_matrix::generate::{random_matrix_seeded, seeded_rng};
use symla_matrix::kernels::micro::{
    gemm_nt_view_blocked, ger_view_auto, ger_view_blocked, spr_lower_view_auto,
    spr_lower_view_blocked, DEFAULT_ROW_TILE,
};
use symla_matrix::kernels::views::{gemm_nt_view, ger_view, spr_lower_view, triangle_pairs_update};
use symla_matrix::kernels::{with_kernel_path, KernelPath};
use symla_matrix::packed::packed_len;
use symla_matrix::views::{MatView, MatViewMut, PackedLowerViewMut};
use symla_matrix::{Matrix, Scalar};

/// A scalar whose bit pattern the sweeps compare.
trait Bits: Scalar {
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

/// Deterministic vector with structure: sign changes, zeros (to hit the
/// zero-multiplier skip), and optionally a NaN and an infinity.
fn test_vector<T: Scalar>(n: usize, seed: u64, poison: bool) -> Vec<T> {
    let mut rng = seeded_rng(seed);
    let mut v: Vec<T> = (0..n)
        .map(|_| T::from_f64(rng.gen_range(-3.0..3.0)))
        .collect();
    for (i, x) in v.iter_mut().enumerate() {
        if i % 5 == 3 {
            *x = T::ZERO;
        }
    }
    if poison && n > 2 {
        v[1] = T::from_f64(f64::NAN);
        v[n - 1] = T::from_f64(f64::INFINITY);
    }
    v
}

fn assert_bits_eq<T: Bits>(a: &[T], b: &[T], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.bits() == y.bits(),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

/// Runs `kernel` (which returns its output) on the portable path and, where
/// the CPU has `fma` and `avx2`, on the FMA path. Asserts the portable
/// output equals `reference` and the FMA output equals the portable one, bit
/// for bit. Returns whether the FMA leg ran.
fn assert_both_paths<T: Bits>(reference: &[T], what: &str, kernel: impl Fn() -> Vec<T>) -> bool {
    let portable =
        with_kernel_path(KernelPath::Portable, &kernel).expect("the portable path runs everywhere");
    assert_bits_eq(reference, &portable, &format!("{what} [portable]"));
    let Some(fma) = with_kernel_path(KernelPath::Fma, &kernel) else {
        return false;
    };
    assert_bits_eq(&portable, &fma, &format!("{what} [fma]"));
    true
}

/// Prints why a sweep checked the portable path only.
fn note_if_fma_skipped(ran_fma: bool, sweep: &str) {
    if !ran_fma {
        println!("{sweep}: this CPU lacks fma or avx2; the hardware-FMA leg was skipped");
    }
}

fn ger_sweep<T: Bits>() {
    let mut ran_fma = true;
    for &(m, n) in &[(1, 1), (3, 8), (17, 5), (64, 3), (65, 7), (128, 2)] {
        for poison in [false, true] {
            for alpha in [1.25, 0.0].map(T::from_f64) {
                let x: Vec<T> = test_vector(m, 1000 + m as u64, poison);
                let y: Vec<T> = test_vector(n, 2000 + n as u64, false);
                let c0: Vec<T> = random_matrix_seeded(m, n, 3000).as_slice().to_vec();

                let mut naive = c0.clone();
                let mut cv = MatViewMut::new(&mut naive, m, n).unwrap();
                ger_view(alpha, &x, &y, &mut cv).unwrap();

                for tile in [1, 2, 3, 7, 16, 64, 1000, DEFAULT_ROW_TILE] {
                    ran_fma &= assert_both_paths(
                        &naive,
                        &format!("ger {m}x{n} alpha {alpha} tile {tile}"),
                        || {
                            let mut fast = c0.clone();
                            let mut cv = MatViewMut::new(&mut fast, m, n).unwrap();
                            ger_view_blocked(alpha, &x, &y, &mut cv, tile).unwrap();
                            fast
                        },
                    );
                }
                ran_fma &= assert_both_paths(&naive, &format!("ger auto {m}x{n}"), || {
                    let mut auto = c0.clone();
                    let mut cv = MatViewMut::new(&mut auto, m, n).unwrap();
                    ger_view_auto(alpha, &x, &y, &mut cv).unwrap();
                    auto
                });
            }
        }
    }
    note_if_fma_skipped(ran_fma, "ger");
}

#[test]
fn ger_blocked_equals_naive_across_shapes_and_tiles() {
    ger_sweep::<f64>();
}

#[test]
fn ger_blocked_equals_naive_across_shapes_and_tiles_f32() {
    ger_sweep::<f32>();
}

fn spr_sweep<T: Bits>() {
    let mut ran_fma = true;
    for &n in &[1, 2, 5, 16, 33, 64, 100] {
        for poison in [false, true] {
            for alpha in [-0.75, 0.0].map(T::from_f64) {
                let x: Vec<T> = test_vector(n, 4000 + n as u64, poison);
                let mut rng = seeded_rng(5000 + n as u64);
                let c0: Vec<T> = (0..packed_len(n))
                    .map(|_| T::from_f64(rng.gen_range(-1.0..1.0)))
                    .collect();

                let mut naive = c0.clone();
                let mut v = PackedLowerViewMut::new(&mut naive, n).unwrap();
                spr_lower_view(alpha, &x, &mut v).unwrap();

                for tile in [1, 2, 3, 7, 16, 64, 1000] {
                    ran_fma &= assert_both_paths(
                        &naive,
                        &format!("spr n={n} alpha {alpha} tile {tile}"),
                        || {
                            let mut fast = c0.clone();
                            let mut v = PackedLowerViewMut::new(&mut fast, n).unwrap();
                            spr_lower_view_blocked(alpha, &x, &mut v, tile).unwrap();
                            fast
                        },
                    );
                }
                ran_fma &= assert_both_paths(&naive, &format!("spr auto n={n}"), || {
                    let mut auto = c0.clone();
                    let mut v = PackedLowerViewMut::new(&mut auto, n).unwrap();
                    spr_lower_view_auto(alpha, &x, &mut v).unwrap();
                    auto
                });
            }
        }
    }
    note_if_fma_skipped(ran_fma, "spr");
}

#[test]
fn spr_blocked_equals_naive_across_orders_and_tiles() {
    spr_sweep::<f64>();
}

#[test]
fn spr_blocked_equals_naive_across_orders_and_tiles_f32() {
    spr_sweep::<f32>();
}

/// The per-element reference for `triangle_pairs_update`: pair `(u, v)` at
/// row-major index `idx` gets `x[v] · (alpha · x[u])` fused onto it.
fn triangle_pairs_reference<T: Scalar>(alpha: T, x: &[T], pairs: &mut [T]) {
    let mut idx = 0;
    for u in 1..x.len() {
        let axu = alpha * x[u];
        for &xv in x.iter().take(u) {
            pairs[idx] = xv.mul_add(axu, pairs[idx]);
            idx += 1;
        }
    }
}

fn triangle_pairs_sweep<T: Bits>() {
    let mut ran_fma = true;
    for &k in &[0, 1, 2, 5, 16, 33, 64, 100] {
        for poison in [false, true] {
            for alpha in [1.5, 0.0].map(T::from_f64) {
                let x: Vec<T> = test_vector(k, 9000 + k as u64, poison);
                let mut rng = seeded_rng(9500 + k as u64);
                let p0: Vec<T> = (0..k * k.saturating_sub(1) / 2)
                    .map(|_| T::from_f64(rng.gen_range(-1.0..1.0)))
                    .collect();

                let mut reference = p0.clone();
                triangle_pairs_reference(alpha, &x, &mut reference);

                ran_fma &= assert_both_paths(
                    &reference,
                    &format!("triangle pairs k={k} alpha {alpha}"),
                    || {
                        let mut pairs = p0.clone();
                        triangle_pairs_update(alpha, &x, &mut pairs).unwrap();
                        pairs
                    },
                );
            }
        }
    }
    note_if_fma_skipped(ran_fma, "triangle pairs");
}

#[test]
fn triangle_pairs_equal_reference_on_both_paths() {
    triangle_pairs_sweep::<f64>();
}

#[test]
fn triangle_pairs_equal_reference_on_both_paths_f32() {
    triangle_pairs_sweep::<f32>();
}

#[test]
fn gemm_nt_blocked_equals_naive_across_shapes_and_tiles() {
    for &(m, k, n) in &[(1, 1, 1), (4, 3, 5), (17, 6, 9), (33, 4, 12), (64, 2, 7)] {
        for poison in [false, true] {
            let mut a: Matrix<f64> = random_matrix_seeded(m, k, 6000 + m as u64);
            if poison && m > 1 && k > 1 {
                a[(0, 0)] = f64::NAN;
                a[(m - 1, k - 1)] = f64::NEG_INFINITY;
            }
            // Zeros in B exercise the zero-multiplier skip (which the blocked
            // kernel must replicate, not just approximate).
            let mut b: Matrix<f64> = random_matrix_seeded(n, k, 7000 + n as u64);
            for j in 0..n {
                if j % 3 == 1 {
                    b[(j, 0)] = 0.0;
                }
            }
            let c0: Vec<f64> = random_matrix_seeded(m, n, 8000).as_slice().to_vec();

            let mut naive = c0.clone();
            {
                let av = MatView::new(a.as_slice(), m, k).unwrap();
                let bv = MatView::new(b.as_slice(), n, k).unwrap();
                let mut cv = MatViewMut::new(&mut naive, m, n).unwrap();
                gemm_nt_view(1.5, &av, &bv, &mut cv).unwrap();
            }

            for tile in [1, 2, 5, 16, 33, 1000] {
                let mut fast = c0.clone();
                let av = MatView::new(a.as_slice(), m, k).unwrap();
                let bv = MatView::new(b.as_slice(), n, k).unwrap();
                let mut cv = MatViewMut::new(&mut fast, m, n).unwrap();
                gemm_nt_view_blocked(1.5, &av, &bv, &mut cv, tile).unwrap();
                assert_bits_eq(&naive, &fast, &format!("gemm_nt {m}x{k}x{n} tile {tile}"));
            }
        }
    }
}

/// The blocked kernels must preserve the reference's zero-multiplier skip:
/// with `alpha = 0` and finite operands nothing is touched, on either path.
/// (With NaN in the operands the multiplier `0 · NaN = NaN` defeats the skip
/// — in the blocked and reference kernels alike, which the sweeps above
/// verify bitwise.)
#[test]
fn zero_alpha_skips_preserve_existing_values() {
    let n = 9;
    let x: Vec<f64> = test_vector(n, 1, false);
    let c0: Vec<f64> = random_matrix_seeded(n, n, 2).as_slice().to_vec();
    let ran_fma = assert_both_paths(&c0, "ger alpha=0", || {
        let mut out = c0.clone();
        let mut cv = MatViewMut::new(&mut out, n, n).unwrap();
        ger_view_blocked(0.0, &x, &x, &mut cv, 4).unwrap();
        out
    });

    let before: Vec<f64> = (0..packed_len(n)).map(|i| i as f64).collect();
    assert_both_paths(&before, "spr alpha=0", || {
        let mut packed = before.clone();
        let mut v = PackedLowerViewMut::new(&mut packed, n).unwrap();
        spr_lower_view_blocked(0.0, &x, &mut v, 4).unwrap();
        packed
    });
    note_if_fma_skipped(ran_fma, "alpha=0 skips");
}
