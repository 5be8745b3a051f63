//! Hardware ceilings measured in the benchmark's own process: `memcpy`
//! bandwidth in cache and in DRAM, a hardware-FMA loop, and sequential file
//! I/O through the page cache.

use crate::report::median;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::time::Instant;

/// Size of the last-level data or unified cache of CPU 0, from sysfs, or
/// `None` where sysfs does not say.
pub fn llc_bytes() -> Option<usize> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, usize)> = None;
    for entry in fs::read_dir(dir).ok()?.flatten() {
        let read = |name: &str| fs::read_to_string(entry.path().join(name)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Parses sysfs cache sizes such as `48K`, `2048K` or `32M`.
fn parse_size(text: &str) -> Option<usize> {
    let (digits, scale) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * scale)
}

/// `memcpy` bandwidth between two arrays of `bytes` bytes each, in GB/s of
/// bytes copied: the median over copies made for at least `budget_s`
/// seconds (at least 3), after one untimed copy that faults the pages in.
pub fn memcpy_gbps(bytes: usize, budget_s: f64) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    dst.copy_from_slice(&src);
    let (wall, mut times) = (Instant::now(), Vec::new());
    while times.len() < 3 || wall.elapsed().as_secs_f64() < budget_s {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        times.push(start.elapsed().as_secs_f64());
    }
    bytes as f64 / median(&times) / 1e9
}

/// Independent accumulators of the FMA loop: 8 vectors of 4 lanes, enough
/// to cover the FMA latency on two pipes.
const LANES: usize = 32;

/// Peak multiply-add throughput in GF/s (2 flops per FMA) and whether it
/// came from hardware FMA instructions (`false`: the portable `mul_add`
/// fallback, which may be a software routine).
pub fn fma_gflops(budget_s: f64) -> (f64, bool) {
    let iters = 1 << 20;
    let mut best = 0.0_f64;
    let hardware = has_hw_fma();
    let wall = Instant::now();
    while wall.elapsed().as_secs_f64() < budget_s {
        let start = Instant::now();
        let acc = fma_loop(iters, hardware);
        let secs = start.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max((2 * LANES * iters) as f64 / secs / 1e9);
    }
    (best, hardware)
}

#[cfg(target_arch = "x86_64")]
fn has_hw_fma() -> bool {
    is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn has_hw_fma() -> bool {
    false
}

fn fma_loop(iters: usize, hardware: bool) -> [f64; LANES] {
    #[cfg(target_arch = "x86_64")]
    if hardware {
        // SAFETY: `hardware` is true only when `has_hw_fma` detected both
        // target features the function is compiled for.
        return unsafe { fma_loop_hw(iters) };
    }
    let _ = hardware;
    fma_body(iters)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_loop_hw(iters: usize) -> [f64; LANES] {
    fma_body(iters)
}

#[inline(always)]
fn fma_body(iters: usize) -> [f64; LANES] {
    // x·a + b converges to b/(1−x) = 1, so values stay normal.
    let (x, b) = (black_box(0.999_999), black_box(1e-6));
    let mut acc = [0.5_f64; LANES];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(x, b);
        }
    }
    acc
}

/// Sequential write and read throughput, in MB/s, of a `bytes`-byte file in
/// `dir`, written and read back in 1 MiB chunks without `fsync`: these are
/// page-cache numbers, not device numbers. Median of 3 rounds.
pub fn file_mbps(dir: &Path, bytes: usize) -> std::io::Result<(f64, f64)> {
    let path = dir.join("perfbench-ceiling.bin");
    let chunk = vec![7u8; 1 << 20];
    let mut back = vec![0u8; 1 << 20];
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let start = Instant::now();
        let mut file = File::create(&path)?;
        for _ in 0..bytes / chunk.len() {
            file.write_all(&chunk)?;
        }
        file.flush()?;
        drop(file);
        writes.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let mut file = File::open(&path)?;
        for _ in 0..bytes / chunk.len() {
            file.read_exact(&mut back)?;
        }
        reads.push(start.elapsed().as_secs_f64());
        black_box(&back);
    }
    fs::remove_file(&path)?;
    let mb = (bytes / chunk.len() * chunk.len()) as f64 / 1e6;
    Ok((mb / median(&reads), mb / median(&writes)))
}

/// Machine-speed probe, run before every timed job: 32 chains of portable
/// `mul_add` (the arithmetic the library's kernels use), then ordered-map
/// inserts of pseudo-random keys (the allocation-heavy work of the planners).
/// Takes about 10 ms; returns its seconds.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let (x, b) = (black_box(0.999_999), black_box(1e-6));
    let mut acc = [0.5_f64; LANES];
    for _ in 0..1 << 14 {
        for a in acc.iter_mut() {
            *a = a.mul_add(x, b);
        }
    }
    black_box(acc);
    let mut map = std::collections::BTreeMap::new();
    let mut key = 12_345_u64;
    for i in 0..50_000_u64 {
        key = key
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(key >> 20, i);
    }
    black_box(map);
    start.elapsed().as_secs_f64()
}
