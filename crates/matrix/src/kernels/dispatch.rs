//! Runtime choice between the hardware-FMA copy and the portable copy of a
//! kernel body.
//!
//! The default x86-64 target has no FMA, so outside this module every
//! [`Scalar::mul_add`](crate::scalar::Scalar::mul_add) is an out-of-line
//! software `fma` call and the loop around it cannot vectorize. [`dispatch`]
//! runs a kernel body either directly (the portable copy) or inside a
//! `#[target_feature(enable = "avx2,fma")]` function (the FMA copy), where
//! the same `#[inline(always)]` body compiles to `vfmadd` and vectorizes.
//! The FMA copy is taken exactly when `std`'s cached
//! `is_x86_feature_detected!` reports both `fma` and `avx2`. Off x86-64 there
//! is one copy only: aarch64 has hardware `fma` in its baseline.
//!
//! Both copies give the same bits; see the [`crate::kernels::micro`] module
//! docs for why.

use std::cell::Cell;

/// Which compiled copy of the dispatched kernel bodies runs.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// The `avx2,fma` copy: `mul_add` is one hardware instruction.
    Fma,
    /// The copy compiled for the crate's baseline target.
    Portable,
}

impl KernelPath {
    /// `"fma"` or `"portable"`.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Fma => "fma",
            KernelPath::Portable => "portable",
        }
    }
}

thread_local! {
    /// The path forced by [`with_kernel_path`] on this thread, if any.
    static FORCED: Cell<Option<KernelPath>> = const { Cell::new(None) };
}

/// Whether this CPU can run the FMA copy.
fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The path the dispatched kernels take on the calling thread.
#[doc(hidden)]
pub fn kernel_path() -> KernelPath {
    FORCED.with(Cell::get).unwrap_or(if fma_available() {
        KernelPath::Fma
    } else {
        KernelPath::Portable
    })
}

/// Test hook: runs `f` with the dispatched kernels of the calling thread
/// forced onto `path`, then restores the previous choice. Returns `None`
/// without running `f` when `path` is [`KernelPath::Fma`] and the CPU lacks
/// `fma` or `avx2`.
#[doc(hidden)]
pub fn with_kernel_path<R>(path: KernelPath, f: impl FnOnce() -> R) -> Option<R> {
    if path == KernelPath::Fma && !fma_available() {
        return None;
    }
    let previous = FORCED.with(|forced| forced.replace(Some(path)));
    let out = f();
    FORCED.with(|forced| forced.set(previous));
    Some(out)
}

/// Runs `body` on the path [`kernel_path`] reports.
///
/// `body` must be an `#[inline(always)]` closure around a call to an
/// `#[inline(always)]` kernel body, so that the loop is compiled into each
/// copy. Without the attribute on the closure LLVM may keep the closure out
/// of line, compiled for the baseline target, and the FMA copy becomes a
/// jump to it.
#[inline(always)]
pub(crate) fn dispatch<R>(body: impl FnOnce() -> R) -> R {
    match kernel_path() {
        // SAFETY: `kernel_path` reports `Fma` only when `fma_available`
        // holds, both by detection and through `with_kernel_path`.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Fma => unsafe { fma_copy(body) },
        _ => body(),
    }
}

/// The FMA copy of `body`. Calling it needs `unsafe`: the CPU must have
/// `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_copy<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_path_exactly_when_the_cpu_has_fma_and_avx2() {
        #[cfg(target_arch = "x86_64")]
        let expected = if is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2") {
            KernelPath::Fma
        } else {
            KernelPath::Portable
        };
        #[cfg(not(target_arch = "x86_64"))]
        let expected = KernelPath::Portable;
        assert_eq!(kernel_path(), expected);
    }

    #[test]
    fn forcing_a_path_is_scoped_to_the_closure() {
        let before = kernel_path();
        assert_eq!(
            with_kernel_path(KernelPath::Portable, kernel_path),
            Some(KernelPath::Portable)
        );
        match with_kernel_path(KernelPath::Fma, kernel_path) {
            Some(path) => assert_eq!(path, KernelPath::Fma),
            None => assert_eq!(before, KernelPath::Portable),
        }
        assert_eq!(kernel_path(), before);
    }
}
