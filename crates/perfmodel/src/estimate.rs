//! The kernel cost model: workload description → estimated MFLOPS.

use spmm_core::SparseFormat;

use crate::machine::MachineProfile;

/// Everything the model needs to know about one SpMM invocation.
///
/// Build it from a formatted matrix via [`SpmmWorkload::new`] — the stored
/// entry count must come from the *actual* format instance because BCSR and
/// BELL fill-in depends on the nonzero pattern, not just the counts.
#[derive(Debug, Clone, Copy)]
pub struct SpmmWorkload {
    /// Format being multiplied.
    pub format: SparseFormat,
    /// Logical rows of A.
    pub rows: usize,
    /// Logical cols of A (= rows of B).
    pub cols: usize,
    /// Real nonzeros (useful work).
    pub nnz: usize,
    /// Stored entries including padding (executed work).
    pub stored_entries: usize,
    /// Nonzeros in the fullest row (load imbalance driver).
    pub max_row_nnz: usize,
    /// Bytes of the formatted representation.
    pub format_bytes: usize,
    /// BCSR/BELL block edge (1 for other formats).
    pub block: usize,
    /// Dense columns multiplied (the `-k` flag).
    pub k: usize,
    /// Column locality window: the span of B rows the kernel's inner loop
    /// revisits (≈ the matrix bandwidth for banded patterns, ≈ `cols` for
    /// scattered ones). Bounds the B working set the cache must hold.
    pub col_window: usize,
}

impl SpmmWorkload {
    /// Describe an SpMM over a formatted matrix. The column window
    /// defaults to the full column count (no locality assumed); set it
    /// with [`SpmmWorkload::with_col_window`] when the bandwidth is known.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        format: SparseFormat,
        rows: usize,
        cols: usize,
        nnz: usize,
        stored_entries: usize,
        max_row_nnz: usize,
        format_bytes: usize,
        block: usize,
        k: usize,
    ) -> Self {
        SpmmWorkload {
            format,
            rows,
            cols,
            nnz,
            stored_entries,
            max_row_nnz,
            format_bytes,
            block: block.max(1),
            k,
            col_window: cols,
        }
    }

    /// Set the column locality window (clamped to `cols`).
    pub fn with_col_window(mut self, window: usize) -> Self {
        self.col_window = window.clamp(1, self.cols.max(1));
        self
    }

    /// Useful FLOPs (the paper's MFLOPS numerator).
    pub fn useful_flops(&self) -> f64 {
        2.0 * self.nnz as f64 * self.k as f64
    }

    /// Executed FLOPs including padding work.
    pub fn executed_flops(&self) -> f64 {
        2.0 * self.stored_entries as f64 * self.k as f64
    }
}

/// Per-format instruction overhead relative to a clean CSR row loop:
/// extra index arithmetic, branches and short-trip-count loops that eat
/// issue slots without contributing FLOPs.
pub(crate) fn format_cpi_factor(w: &SpmmWorkload) -> f64 {
    match w.format {
        // Row index load + C read-modify-write per entry.
        SparseFormat::Coo => 1.30,
        SparseFormat::Csr => 1.00,
        // Fixed-width loop, no row pointer chasing: vectorizes best.
        SparseFormat::Ell => 0.90,
        // Per-block loop nest: cheap for big blocks, branchy for tiny ones
        // (the paper: "if the block size is too small, use CSR").
        SparseFormat::Bcsr | SparseFormat::Bell => 0.95 + 1.0 / w.block as f64,
        // Tile bookkeeping + carry fix-up.
        SparseFormat::Csr5 => 1.10,
        // Sliced ELL: regular inner loop + permutation indirection on C.
        SparseFormat::Sell => 0.95,
        // ELL bulk + COO tail: between the two parents.
        SparseFormat::Hyb => 1.05,
    }
}

/// Memory traffic in bytes for one SpMM pass.
///
/// A's payload and C stream once; every touched row of B is read at least
/// once (compulsory). Beyond that, each stored entry re-loads a `k`-column
/// row of B, and those re-loads hit cache in proportion to how much of the
/// *locality window* — not the whole of B — the LLC holds: a banded matrix
/// only revisits a moving band of B rows, which is why high `k` stays
/// profitable on banded inputs (Study 4's Arm shape) while scattered
/// matrices saturate.
fn traffic_bytes(machine: &MachineProfile, w: &SpmmWorkload) -> f64 {
    let value_bytes = 8.0;
    let b_compulsory = w.cols as f64 * w.k as f64 * value_bytes;
    let b_window = w.col_window.max(1) as f64 * w.k as f64 * value_bytes;
    let b_demand = w.stored_entries as f64 * w.k as f64 * value_bytes;
    // Residency is capped below 1: even a cache-sized window suffers
    // conflict and associativity misses under a gather access stream.
    let resident = (machine.llc_bytes as f64 / b_window).min(1.0) * 0.8;
    let b_traffic =
        b_compulsory.min(b_demand) + (b_demand - b_compulsory).max(0.0) * (1.0 - resident);
    let c_traffic = w.rows as f64 * w.k as f64 * value_bytes;
    w.format_bytes as f64 + b_traffic + c_traffic
}

/// Effective per-core FLOP throughput for a format on a machine: the
/// dense-block formats (BCSR/BELL — fixed-shape inner blocks) get the
/// machine's small-dense-block SIMD affinity. ELL's long padded rows
/// behave like CSR streams and get no bonus (the paper's Study 6 finds
/// ELL serial faster on Aries but BCSR faster on Grace).
fn core_gflops(machine: &MachineProfile, w: &SpmmWorkload) -> f64 {
    let bonus = if matches!(w.format, SparseFormat::Bcsr | SparseFormat::Bell) {
        machine.blocked_simd_bonus
    } else {
        1.0
    };
    machine.core_peak_gflops() * bonus
}

/// Modelled serial runtime in seconds.
///
/// Compute and memory time add rather than overlap: the SpMM inner loop's
/// FMAs are fed by the very gathers that generate the traffic, so the core
/// stalls on them instead of hiding them.
pub fn serial_time_s(machine: &MachineProfile, w: &SpmmWorkload) -> f64 {
    let compute = w.executed_flops() * format_cpi_factor(w) / (core_gflops(machine, w) * 1e9);
    let memory = traffic_bytes(machine, w) / (machine.per_core_gbps * 1e9);
    compute + memory
}

/// Modelled serial speedup from the runtime-dispatched SIMD micro-kernels
/// (Study 12's prediction). Only the compute term contracts — by the ratio
/// of the vector to the scalar FLOP ceiling — while the memory term is
/// untouched: vectorizing an FMA does nothing for the gathers feeding it.
/// Memory-bound workloads therefore sit near 1.0 and compute-bound ones
/// approach the lane-count ratio; the result is clamped to at least 1.0
/// (the dispatch layer never picks a vector kernel that loses to scalar).
pub fn simd_speedup(machine: &MachineProfile, w: &SpmmWorkload) -> f64 {
    let compute = w.executed_flops() * format_cpi_factor(w) / (core_gflops(machine, w) * 1e9);
    let memory = traffic_bytes(machine, w) / (machine.per_core_gbps * 1e9);
    let vec_gain = (machine.vector_peak_gflops() / machine.core_peak_gflops()).max(1.0);
    let vectorized = compute / vec_gain + memory;
    if vectorized <= 0.0 {
        return 1.0;
    }
    ((compute + memory) / vectorized).max(1.0)
}

/// Static-partition load imbalance: how much longer the worst thread runs
/// than the average. Grows with row skew and with threads (fewer rows per
/// chunk = less averaging), saturating at the all-work-in-one-row bound.
fn imbalance(w: &SpmmWorkload, threads: usize) -> f64 {
    if w.rows == 0 || w.nnz == 0 || threads <= 1 {
        return 1.0;
    }
    // COO and CSR5 partition entries, not rows: near-perfect balance.
    if matches!(w.format, SparseFormat::Coo | SparseFormat::Csr5) {
        return 1.02;
    }
    let avg = w.nnz as f64 / w.rows as f64;
    let rows_per_chunk = (w.rows as f64 / threads as f64).max(1.0);
    let chunk_avg = avg * rows_per_chunk;
    // Worst chunk ≈ average chunk + (heaviest row - average row).
    let worst = chunk_avg + (w.max_row_nnz as f64 - avg).max(0.0);
    (worst / chunk_avg).min(threads as f64)
}

/// Modelled parallel MFLOPS at a given thread count.
///
/// This is what the cross-architecture figures plot. `threads = 1` reduces
/// to the serial model (no fork/join overhead).
pub fn estimate_spmm_mflops(machine: &MachineProfile, w: &SpmmWorkload, threads: usize) -> f64 {
    let threads = threads.max(1);
    if w.nnz == 0 || w.k == 0 {
        return 0.0;
    }
    if threads == 1 {
        return w.useful_flops() / serial_time_s(machine, w) / 1e6;
    }

    // Compute scaling: physical cores first, then the SMT region where each
    // extra thread adds only `smt_efficiency` of a core. Blocked formats
    // have more non-FLOP issue slack for the sibling thread to fill — the
    // paper's "hyperthreading favoured the blocked formats" observation.
    let phys = threads.min(machine.physical_cores) as f64;
    let smt_threads = threads
        .saturating_sub(machine.physical_cores)
        .min(machine.physical_cores * machine.smt.saturating_sub(1));
    let smt_gain = if w.format.is_blocked() {
        machine.smt_efficiency * 1.8
    } else {
        machine.smt_efficiency
    };
    let over = threads.saturating_sub(machine.logical_cpus()) as f64;
    let effective_cores = (phys + smt_threads as f64 * smt_gain) * 0.97f64.powf(over.sqrt());

    let compute_serial =
        w.executed_flops() * format_cpi_factor(w) / (core_gflops(machine, w) * 1e9);
    let compute = compute_serial / effective_cores * imbalance(w, threads);

    // Memory scaling: per-thread bandwidth until the socket saturates.
    let bw = (threads as f64 * machine.per_core_gbps).min(machine.dram_gbps) * 1e9;
    let memory = traffic_bytes(machine, w) / bw;

    let overhead = machine.fork_join_overhead_us * 1e-6 * (1.0 + 0.02 * threads as f64);
    let time = compute + memory + overhead;
    w.useful_flops() / time / 1e6
}

/// Modelled seconds a format conversion touching `bytes` of matrix data
/// spends on one core. Conversions are single-threaded streaming passes
/// (read the source layout, write the target layout), so the cost is pure
/// bandwidth: `bytes / per_core_gbps`. The planner charges this against
/// each candidate route's total edge bytes when amortizing a conversion
/// over the timed iterations.
pub fn conversion_seconds(machine: &MachineProfile, bytes: f64) -> f64 {
    if bytes <= 0.0 {
        return 0.0;
    }
    bytes / (machine.per_core_gbps * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(format: SparseFormat, k: usize) -> SpmmWorkload {
        // A cant-like matrix at full scale.
        let rows = 62_451;
        let nnz = 2_034_917;
        let stored = match format {
            SparseFormat::Ell => rows * 40,
            SparseFormat::Bcsr | SparseFormat::Bell => (nnz as f64 * 1.4) as usize,
            _ => nnz,
        };
        // cant is a banded FEM matrix: the kernel revisits a narrow band
        // of B rows, so the locality window is ~2x the fullest row.
        SpmmWorkload::new(format, rows, rows, nnz, stored, 40, stored * 12, 4, k)
            .with_col_window(80)
    }

    fn skewed_workload(format: SparseFormat) -> SpmmWorkload {
        // Pathologically skewed: one row holds a quarter of the entries, so
        // whichever static row chunk receives it dominates the runtime.
        let rows = 10_000;
        let nnz = 200_000;
        SpmmWorkload::new(format, rows, rows, nnz, nnz, 50_000, nnz * 12, 1, 128)
    }

    #[test]
    fn parallel_beats_serial_on_both_machines() {
        for machine in [
            MachineProfile::grace_hopper(),
            MachineProfile::aries_milan(),
        ] {
            let w = workload(SparseFormat::Csr, 128);
            let serial = estimate_spmm_mflops(&machine, &w, 1);
            let parallel = estimate_spmm_mflops(&machine, &w, 32);
            assert!(
                parallel > 3.0 * serial,
                "{}: {serial} -> {parallel}",
                machine.name
            );
        }
    }

    #[test]
    fn aries_wins_serial_arm_wins_wide() {
        // Study 6: x86 is faster per core; Arm scales further.
        let arm = MachineProfile::grace_hopper();
        let x86 = MachineProfile::aries_milan();
        let w = workload(SparseFormat::Csr, 128);
        assert!(estimate_spmm_mflops(&x86, &w, 1) > estimate_spmm_mflops(&arm, &w, 1));
        assert!(estimate_spmm_mflops(&arm, &w, 72) > estimate_spmm_mflops(&arm, &w, 8));
    }

    #[test]
    fn smt_region_helps_blocked_formats_more() {
        // Study 3.1: beyond 48 physical cores, Aries gains mainly for the
        // blocked formats.
        let x86 = MachineProfile::aries_milan();
        let csr = workload(SparseFormat::Csr, 128);
        let bcsr = workload(SparseFormat::Bcsr, 128);
        let csr_gain = estimate_spmm_mflops(&x86, &csr, 96) / estimate_spmm_mflops(&x86, &csr, 48);
        let bcsr_gain =
            estimate_spmm_mflops(&x86, &bcsr, 96) / estimate_spmm_mflops(&x86, &bcsr, 48);
        assert!(bcsr_gain > csr_gain, "bcsr {bcsr_gain} vs csr {csr_gain}");
    }

    #[test]
    fn skewed_matrices_penalize_row_partitioned_formats() {
        let arm = MachineProfile::grace_hopper();
        let csr = skewed_workload(SparseFormat::Csr);
        let coo = skewed_workload(SparseFormat::Coo);
        // COO's entry partition dodges the torso1 heavy row.
        assert!(estimate_spmm_mflops(&arm, &coo, 32) > estimate_spmm_mflops(&arm, &csr, 32));
    }

    #[test]
    fn higher_k_raises_mflops_until_memory_binds() {
        // Study 4's Arm shape: more k = more reuse per loaded B row.
        let arm = MachineProfile::grace_hopper();
        let m8 = estimate_spmm_mflops(&arm, &workload(SparseFormat::Csr, 8), 32);
        let m128 = estimate_spmm_mflops(&arm, &workload(SparseFormat::Csr, 128), 32);
        assert!(m128 > m8);
    }

    #[test]
    fn ell_padding_costs_throughput() {
        let arm = MachineProfile::grace_hopper();
        // Same matrix, but ELL on a skewed pattern stores 10x the entries.
        let nnz = 1_000_000;
        let clean = SpmmWorkload::new(
            SparseFormat::Ell,
            100_000,
            100_000,
            nnz,
            nnz,
            10,
            nnz * 12,
            1,
            128,
        );
        let padded = SpmmWorkload::new(
            SparseFormat::Ell,
            100_000,
            100_000,
            nnz,
            10 * nnz,
            100,
            10 * nnz * 12,
            1,
            128,
        );
        assert!(
            estimate_spmm_mflops(&arm, &clean, 32) > 3.0 * estimate_spmm_mflops(&arm, &padded, 32)
        );
    }

    #[test]
    fn degenerate_workloads_return_zero() {
        let arm = MachineProfile::grace_hopper();
        let empty = SpmmWorkload::new(SparseFormat::Csr, 10, 10, 0, 0, 0, 0, 1, 128);
        assert_eq!(estimate_spmm_mflops(&arm, &empty, 32), 0.0);
    }

    #[test]
    fn simd_speedup_tracks_compute_boundedness_and_lanes() {
        let arm = MachineProfile::grace_hopper();
        let x86 = MachineProfile::aries_milan();
        let w = workload(SparseFormat::Csr, 128);
        // A meaningful (>20%) serial gain on the cache-friendly workload,
        // strictly below the lane-ratio ceiling — the memory term never
        // vanishes, so full lane-count scaling is unreachable.
        for m in [&arm, &x86] {
            let s = simd_speedup(m, &w);
            assert!(s > 1.2, "{}: {s}", m.name);
            assert!(
                s < m.vector_peak_gflops() / m.core_peak_gflops(),
                "{}: {s}",
                m.name
            );
        }
        // A scattered workload (full-B window, every re-load missing) is
        // memory-bound: vectorization buys almost nothing.
        let scattered = workload(SparseFormat::Csr, 128).with_col_window(62_451);
        assert!(simd_speedup(&x86, &scattered) < simd_speedup(&x86, &w));
        // Degenerate: empty workload models as exactly 1.0.
        let empty = SpmmWorkload::new(SparseFormat::Csr, 10, 10, 0, 0, 0, 0, 1, 128);
        assert_eq!(simd_speedup(&x86, &empty), 1.0);
    }

    #[test]
    fn serial_time_positive_and_scales_with_work() {
        let arm = MachineProfile::grace_hopper();
        let small = workload(SparseFormat::Csr, 8);
        let big = workload(SparseFormat::Csr, 512);
        assert!(serial_time_s(&arm, &small) > 0.0);
        assert!(serial_time_s(&arm, &big) > 10.0 * serial_time_s(&arm, &small));
    }

    #[test]
    fn conversion_cost_is_linear_in_bytes() {
        let m = MachineProfile::container_host();
        assert_eq!(conversion_seconds(&m, 0.0), 0.0);
        let one_gb = conversion_seconds(&m, 1e9);
        assert!((one_gb - 1.0 / m.per_core_gbps).abs() < 1e-12);
        assert!((conversion_seconds(&m, 2e9) - 2.0 * one_gb).abs() < 1e-12);
    }
}
