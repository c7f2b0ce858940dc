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

/// `x.ceil() as Cycles` without the `ceil` call, which baseline x86-64 (no
/// SSE4.1 `roundsd`) makes through libm. The saturating cast truncates
/// toward zero (NaN and negatives to 0, `2^64` and beyond to the maximum).
/// An `x` above its truncation is either below `2^52`, where the next whole
/// cycle is one more, or above `2^64`, where the add saturates.
pub(crate) fn ceil_cycles(x: f64) -> Cycles {
    let whole = x as Cycles;
    if (whole as f64) < x {
        whole.saturating_add(1)
    } else {
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Signed zeros, halves, integers and their neighbours one ulp away,
    /// the band where `f64` stops holding fractions (2^52 .. 2^53 and past
    /// it), the top of `u64`, infinities and NaN.
    fn sweep() -> Vec<f64> {
        let mut xs = vec![
            0.0,
            -0.0,
            -0.5,
            -1.0,
            0.5,
            1.5,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            u64::MAX as f64,
            2f64.powi(64),
        ];
        let whole = (0..20)
            .map(f64::from)
            .chain((50..=54).map(|e| 2f64.powi(e)))
            .chain([2f64.powi(63), 1e6, 123_456_789.0]);
        for w in whole {
            xs.extend([w, w + 0.5, w.next_up(), w.next_down(), -w]);
            xs.extend([w + 1.0, (w + 1.0).next_up(), (w + 1.0).next_down()]);
        }
        xs
    }

    #[test]
    fn ceil_cycles_is_ceil_then_cast_everywhere() {
        for x in sweep() {
            assert_eq!(ceil_cycles(x), x.ceil() as Cycles, "ceil_cycles({x:e})");
        }
    }

    #[test]
    fn truncation_is_floor_on_non_negative_values_below_two_to_the_64() {
        for x in sweep() {
            if x >= 0.0 && x < 2f64.powi(64) {
                assert_eq!(x as Cycles, x.floor() as Cycles, "{x:e} as u64");
            }
        }
    }
}
