//! # spmm-perfmodel
//!
//! An analytic CPU performance model standing in for the paper's two
//! machines.
//!
//! The paper's cross-architecture studies (3, 3.1, 4, 6, 9) compare an
//! Nvidia Grace Hopper system (72 Arm cores, no SMT) against "Aries" (two
//! AMD EPYC Milan 7413s: 48 physical cores, SMT2). One container core
//! cannot reproduce a 72-core scaling sweep, so thread-count and
//! architecture effects are produced by a calibrated roofline model:
//!
//! * per-core compute throughput and achievable memory bandwidth per
//!   [`MachineProfile`];
//! * per-format executed work (padding included) and memory traffic with a
//!   cache-resident-B correction ([`estimate_spmm_mflops`]);
//! * parallel speedup with physical-core scaling, an SMT region whose
//!   efficiency depends on the format (the paper found hyperthreading
//!   favoured the blocked formats), load imbalance driven by the row-degree
//!   skew, and per-region runtime overhead.
//!
//! The model's outputs are MFLOPS in the same units the paper plots, so
//! study drivers can chart "Arm vs x86" series with the right shape; host
//! wall-clock measurements stay the ground truth for single-machine
//! studies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod estimate;
mod machine;
mod tiling;

pub use estimate::{conversion_seconds, estimate_spmm_mflops, serial_time_s, SpmmWorkload};
pub use machine::MachineProfile;
pub use tiling::{panel_width_for_cache, select_tile_shape, TileShape};
