//! Host calibration: the roofline every point is scored against.
//!
//! Two probes that need no download, measured in the same process as the
//! points they judge (the calibration Kreutzer et al. and Chen et al. make
//! before modelling SpMV on a machine):
//!
//! * a STREAM triad `a[i] = b[i] + s·c[i]` (24 bytes per element), once
//!   with every array at least four times the last-level cache (the DRAM
//!   rate) and once with all three arrays in half the L1 data cache (the
//!   fastest rate any operand streams at);
//! * independent chains of dependent fused multiply-adds, enough of them
//!   to keep every FMA port busy (the compute peak).
//!
//! Each probe runs on one thread and on the parallel points' thread
//! count. Both use AVX2+FMA when the CPU has them, as the kernels' own
//! runtime dispatch does, so no kernel can outrun its ruler.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

const MIB: usize = 1 << 20;
/// Triad traffic per timed repetition, bytes.
const TRIAD_BYTES: f64 = 1.5e9;
/// Timed repetitions per probe; each reports its best.
const REPS: usize = 3;
/// Independent FMA chains per thread (four f64 lanes each under AVX2).
const CHAINS: usize = 12;
/// Steps per chain per repetition.
const FMA_STEPS: usize = 4_000_000;

/// Measured bandwidth and peak; index 0 is one thread, index 1 the
/// parallel points' thread count.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// cpu0's last-level cache, bytes (sysfs).
    pub llc_bytes: usize,
    /// Size of each DRAM-triad array, bytes.
    pub dram_array_bytes: usize,
    /// DRAM triad rate, GB/s.
    pub dram_gbps: [f64; 2],
    /// L1-resident triad rate, GB/s.
    pub l1_gbps: [f64; 2],
    /// FMA peak, GFLOP/s.
    pub fma_gflops: [f64; 2],
}

impl Calibration {
    /// Run every probe.
    pub fn measure(threads: usize) -> Calibration {
        let llc_bytes = cache_bytes(true).unwrap_or(32 * MIB);
        let l1_bytes = cache_bytes(false).unwrap_or(32 * 1024);
        // STREAM's rule, each array at least four times the LLC, capped at
        // 256 MiB so hosts reporting a large shared LLC stay small.
        let dram_array_bytes = (4 * llc_bytes).clamp(64 * MIB, 256 * MIB);
        let dram_len = dram_array_bytes / 8;
        let l1_len = (l1_bytes / 2 / 24).max(64);
        let counts = [1, threads.max(1)];
        Calibration {
            llc_bytes,
            dram_array_bytes,
            dram_gbps: counts.map(|n| triad_gbps(dram_len / n, n)),
            l1_gbps: counts.map(|n| triad_gbps(l1_len, n)),
            fma_gflops: counts.map(fma_gflops),
        }
    }

    /// The highest rate, GFLOP/s, a call doing `flops` over `bytes` of
    /// compulsory traffic can reach on `threads` threads: the bytes that
    /// cannot stay in the LLC stream from DRAM, no byte streams faster
    /// than the L1 triad, and no flop runs faster than the FMA peak.
    pub fn roof_gflops(&self, flops: f64, bytes: f64, threads: usize) -> f64 {
        let t = usize::from(threads > 1);
        let dram_s = (bytes - self.llc_bytes as f64).max(0.0) / (self.dram_gbps[t] * 1e9);
        let stream_s = bytes / (self.l1_gbps[t] * 1e9);
        let compute_s = flops / (self.fma_gflops[t] * 1e9);
        flops / dram_s.max(stream_s).max(compute_s) / 1e9
    }
}

/// Size of cpu0's last-level cache (`llc`) or of its L1 data cache.
fn cache_bytes(llc: bool) -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for index in 0..16 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/{file}")).ok();
        let Some(level) = read("level").and_then(|s| s.trim().parse::<u32>().ok()) else {
            continue;
        };
        if read("type").is_some_and(|t| t.trim() == "Instruction") {
            continue;
        }
        let Some(size) = read("size").and_then(|s| parse_size(s.trim())) else {
            continue;
        };
        let better = best.is_none_or(|(have, _)| if llc { level > have } else { level < have });
        if better {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

/// `32K` / `1M` / `4096` → bytes.
fn parse_size(s: &str) -> Option<usize> {
    let (digits, unit) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * unit)
}

/// Best triad GB/s with `threads` threads, each over its own `len`-element arrays.
fn triad_gbps(len: usize, threads: usize) -> f64 {
    let passes = ((TRIAD_BYTES / (24.0 * (len * threads) as f64)).ceil() as usize).max(1);
    let barrier = Barrier::new(threads);
    let secs = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut a = vec![0.0f64; len];
                    let (b, c) = (vec![1.0f64; len], vec![2.0f64; len]);
                    triad(&mut a, &b, &c, 0.5);
                    let mut best = f64::INFINITY;
                    for _ in 0..REPS {
                        barrier.wait();
                        let start = Instant::now();
                        for _ in 0..passes {
                            triad(black_box(&mut a), &b, &c, black_box(0.5));
                        }
                        best = best.min(start.elapsed().as_secs_f64());
                    }
                    black_box(&a);
                    best
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("triad worker panicked"))
            .fold(0.0, f64::max)
    });
    24.0 * (len * threads * passes) as f64 / secs / 1e9
}

#[inline(always)]
fn triad_body(a: &mut [f64], b: &[f64], c: &[f64], s: f64) {
    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
        *a = b + s * c;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn triad_avx2(a: &mut [f64], b: &[f64], c: &[f64], s: f64) {
    triad_body(a, b, c, s)
}

fn triad(a: &mut [f64], b: &[f64], c: &[f64], s: f64) {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        // SAFETY: the CPU reports AVX2 and FMA, the features `triad_avx2`
        // is compiled for.
        return unsafe { triad_avx2(a, b, c, s) };
    }
    triad_body(a, b, c, s)
}

#[cfg(target_arch = "x86_64")]
fn avx2_fma() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

/// `CHAINS` AVX2 accumulators, each a dependent chain of `steps` FMAs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(steps: usize, m: f64, c: f64) -> f64 {
    use std::arch::x86_64::{__m256d, _mm256_fmadd_pd, _mm256_set1_pd, _mm256_storeu_pd};
    let (vm, vc) = (_mm256_set1_pd(m), _mm256_set1_pd(c));
    let mut acc: [__m256d; CHAINS] = [_mm256_set1_pd(1.0); CHAINS];
    for _ in 0..steps {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_pd(*a, vm, vc);
        }
    }
    let mut lanes = [0.0f64; 4];
    let mut total = 0.0;
    for a in acc {
        _mm256_storeu_pd(lanes.as_mut_ptr(), a);
        total += lanes.iter().sum::<f64>();
    }
    total
}

/// The portable twin: the same chain count and flops, multiply then add.
fn fma_chains_portable(steps: usize, m: f64, c: f64) -> f64 {
    let mut acc = [1.0f64; CHAINS * 4];
    for _ in 0..steps {
        for a in acc.iter_mut() {
            *a = *a * m + c;
        }
    }
    acc.iter().sum()
}

fn fma_chains(steps: usize, m: f64, c: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        // SAFETY: the CPU reports AVX2 and FMA, the features
        // `fma_chains_avx2` is compiled for.
        return unsafe { fma_chains_avx2(steps, m, c) };
    }
    fma_chains_portable(steps, m, c)
}

/// Best FMA GFLOP/s with `threads` threads.
fn fma_gflops(threads: usize) -> f64 {
    let barrier = Barrier::new(threads);
    let secs = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut best = f64::INFINITY;
                    for _ in 0..REPS {
                        barrier.wait();
                        let start = Instant::now();
                        black_box(fma_chains(
                            FMA_STEPS,
                            black_box(0.999_999_9),
                            black_box(1e-9),
                        ));
                        best = best.min(start.elapsed().as_secs_f64());
                    }
                    best
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("fma worker panicked"))
            .fold(0.0, f64::max)
    });
    (2 * 4 * CHAINS * FMA_STEPS * threads) as f64 / secs / 1e9
}
