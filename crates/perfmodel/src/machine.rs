//! The two machines of the paper's evaluation (§5.1).

/// Architectural parameters of a modelled CPU host.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Name used in reports ("Grace Hopper (Arm)" / "Aries (x86)").
    pub name: &'static str,
    /// Physical cores.
    pub physical_cores: usize,
    /// Hardware threads per core (1 = no SMT).
    pub smt: usize,
    /// Sustained clock in GHz.
    pub clock_ghz: f64,
    /// FP64 FLOPs per cycle per core an *SpMM kernel* sustains — far below
    /// the SIMD datasheet peak, because the inner loop is gather-fed.
    pub flops_per_cycle: f64,
    /// Per-core L1 data cache capacity in bytes.
    pub l1d_bytes: usize,
    /// Per-core private L2 capacity in bytes.
    pub l2_bytes: usize,
    /// Last-level cache capacity in bytes (per socket sum).
    pub llc_bytes: usize,
    /// Aggregate bandwidth in GB/s an SpMM's semi-random access stream
    /// achieves (well below the STREAM number).
    pub dram_gbps: f64,
    /// Bandwidth one thread can draw in GB/s on the same access pattern.
    pub per_core_gbps: f64,
    /// Fixed parallel-region overhead in microseconds.
    pub fork_join_overhead_us: f64,
    /// Marginal throughput of an SMT sibling relative to a physical core
    /// (0.0 = useless, 1.0 = a free extra core).
    pub smt_efficiency: f64,
    /// Throughput multiplier for small-dense-block kernels (BCSR/BELL).
    /// Calibrated to the paper's Study 6 finding that every BCSR
    /// configuration ran better on Grace (its four 128-bit SIMD pipes eat
    /// fixed-shape block loops) while Milan slightly prefers the
    /// long-stream formats.
    pub blocked_simd_bonus: f64,
    /// FP64 lanes of one vector register (NEON = 2, AVX2 = 4). This is
    /// what the lane-width-aware SELL-C-σ construction and the tiled
    /// engine's register-blocking heuristic key off.
    pub simd_lanes_f64: usize,
}

impl MachineProfile {
    /// The Nvidia Grace Hopper superchip: 72 Neoverse V2 cores, no SMT,
    /// LPDDR5X. Wide (many cores, high bandwidth) but with lower per-core
    /// throughput than Milan — the paper's Study 6 finding.
    pub fn grace_hopper() -> Self {
        MachineProfile {
            name: "Grace Hopper (Arm)",
            physical_cores: 72,
            smt: 1,
            clock_ghz: 3.1,
            flops_per_cycle: 2.0,
            // Neoverse V2: 64 KB L1d + 1 MB private L2 per core.
            l1d_bytes: 64 * 1024,
            l2_bytes: 1024 * 1024,
            llc_bytes: 114 * 1024 * 1024,
            dram_gbps: 140.0,
            per_core_gbps: 20.0,
            fork_join_overhead_us: 12.0,
            smt_efficiency: 0.0,
            blocked_simd_bonus: 1.6,
            // Neoverse V2: 4 × 128-bit NEON pipes; 2 FP64 lanes per register.
            simd_lanes_f64: 2,
        }
    }

    /// "Aries": two AMD EPYC Milan 7413 (2 × 24 cores, SMT2, DDR4-3200).
    /// Fewer cores but faster individually — and hyperthreading, which the
    /// paper found pays off mainly for the blocked formats.
    pub fn aries_milan() -> Self {
        MachineProfile {
            name: "Aries (x86)",
            physical_cores: 48,
            smt: 2,
            clock_ghz: 3.4,
            flops_per_cycle: 3.0,
            // Zen 3: 32 KB L1d + 512 KB private L2 per core.
            l1d_bytes: 32 * 1024,
            l2_bytes: 512 * 1024,
            // Milan's 256 MB of L3 is split into 32 MB per-CCX victim
            // caches; a core only sees its own CCX's slice. This is what
            // caps the x86 k sweep near 512 in Study 4 while Grace's
            // unified 114 MB keeps climbing.
            llc_bytes: 32 * 1024 * 1024,
            dram_gbps: 100.0,
            per_core_gbps: 16.0,
            fork_join_overhead_us: 9.0,
            smt_efficiency: 0.28,
            blocked_simd_bonus: 0.85,
            // Zen 3: 256-bit AVX2 + FMA; 4 FP64 lanes per register.
            simd_lanes_f64: 4,
        }
    }

    /// A conservative profile of the single-core x86 container the suite's
    /// host-measured studies actually run on (Study 10's tile-selection
    /// input when modelling the local machine): small L1d, a large private
    /// L2, and a modest LLC share — we assume one core of a shared socket
    /// rather than the whole 260 MB the topology advertises.
    pub fn container_host() -> Self {
        MachineProfile {
            name: "Container host (x86)",
            physical_cores: 1,
            smt: 1,
            clock_ghz: 2.1,
            flops_per_cycle: 2.0,
            l1d_bytes: 48 * 1024,
            l2_bytes: 2 * 1024 * 1024,
            llc_bytes: 32 * 1024 * 1024,
            dram_gbps: 12.0,
            per_core_gbps: 12.0,
            fork_join_overhead_us: 15.0,
            smt_efficiency: 0.0,
            blocked_simd_bonus: 1.0,
            // The container advertises AVX2 + FMA: 4 FP64 lanes.
            simd_lanes_f64: 4,
        }
    }

    /// Logical CPU count the OS exposes.
    pub fn logical_cpus(&self) -> usize {
        self.physical_cores * self.smt
    }

    /// Peak FP64 GFLOP/s of one core.
    pub fn core_peak_gflops(&self) -> f64 {
        self.clock_ghz * self.flops_per_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aries_is_faster_per_core_but_narrower() {
        let arm = MachineProfile::grace_hopper();
        let x86 = MachineProfile::aries_milan();
        assert!(x86.core_peak_gflops() > arm.core_peak_gflops());
        assert!(arm.physical_cores > x86.physical_cores);
        assert!(arm.dram_gbps > x86.dram_gbps);
    }

    #[test]
    fn logical_cpu_counts_match_the_paper() {
        // §5.1: 72 Grace cores; 48 Milan cores hyperthreaded to 96.
        assert_eq!(MachineProfile::grace_hopper().logical_cpus(), 72);
        assert_eq!(MachineProfile::aries_milan().logical_cpus(), 96);
    }

    #[test]
    fn cache_hierarchies_are_ordered() {
        for m in [
            MachineProfile::grace_hopper(),
            MachineProfile::aries_milan(),
            MachineProfile::container_host(),
        ] {
            assert!(m.l1d_bytes < m.l2_bytes, "{}", m.name);
            assert!(m.l2_bytes < m.llc_bytes, "{}", m.name);
        }
    }

    #[test]
    fn lane_counts_match_the_isas() {
        assert_eq!(MachineProfile::grace_hopper().simd_lanes_f64, 2);
        assert_eq!(MachineProfile::aries_milan().simd_lanes_f64, 4);
        assert_eq!(MachineProfile::container_host().simd_lanes_f64, 4);
    }

    #[test]
    fn smt_only_on_x86() {
        assert_eq!(MachineProfile::grace_hopper().smt, 1);
        assert_eq!(MachineProfile::aries_milan().smt, 2);
    }
}
