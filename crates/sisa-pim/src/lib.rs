//! # sisa-pim
//!
//! Hardware cost models for the SISA reproduction: DRAM, in-situ
//! processing-using-memory (SISA-PUM, Ambit-style), near-memory processing
//! (SISA-PNM, Tesseract/HMC-style logic-layer cores), a set-associative cache
//! hierarchy and an out-of-order CPU baseline.
//!
//! ## Why a cost model instead of a cycle-accurate simulator
//!
//! The paper evaluates SISA with Sniper (a cycle-level x86 simulator driven by
//! Pin). That toolchain cannot run here, and its role in the paper is to
//! translate *memory behaviour* into cycles: the paper itself models every
//! SISA component with analytical delays layered on top of the simulation
//! (§9.1 "SISA Implementation": the SCU is "a small fixed delay", the SM
//! structure is "random memory accesses whenever the SCU cache is not hit",
//! set operations are "appropriate delays ... using the performance models
//! described in §8.3", and SISA-PUM is the closed form
//! `l_M + l_I * ceil(n/(q*R))`). This crate therefore implements exactly those
//! analytical models, plus an execution-driven cache/DRAM model for the CPU
//! baselines, so that relative runtimes, stall fractions and sensitivity
//! trends can be regenerated without x86 binaries.
//!
//! The components:
//!
//! * [`config`] — every architectural parameter (latencies, bandwidths,
//!   geometry), with defaults matching the paper's §9.1 platform (Tesseract
//!   PNM, Ambit PUM, an OoO multicore baseline).
//! * [`cache`] — a set-associative LRU cache simulator.
//! * [`cpu`] — the baseline CPU model: per-thread cache hierarchy + DRAM with
//!   optional bandwidth scaling, scalar-op accounting and stall tracking.
//! * [`pum`] — Ambit-style bulk bitwise operation timing and energy.
//! * [`pnm`] — logic-layer streaming / random-access models (§8.3).
//! * [`energy`] — per-operation energy accounting.
//! * [`stats`] — counters shared by all models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod cpu;
pub mod energy;
pub mod pnm;
pub mod pum;
pub mod stats;

pub use config::{CpuConfig, PimPlatform, PnmConfig, PumConfig};
pub use cpu::{AddressSpace, CpuThread, TaskCost};
pub use energy::EnergyModel;
pub use pnm::{LinkModel, LinkRoute, PnmModel};
pub use pum::PumModel;
pub use stats::MemoryStats;

/// Simulated cycles (at the platform clock defined in [`config`]).
pub type Cycles = u64;
