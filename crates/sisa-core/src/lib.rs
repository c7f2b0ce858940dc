//! # sisa-core
//!
//! The SISA runtime: everything between a set-centric algorithm and the PIM
//! cost models.
//!
//! This crate plays four roles from the paper's cross-layer design (§3, §8):
//!
//! * **The execution-backend boundary**: [`SetEngine`] is the trait every
//!   set-centric algorithm in `sisa-algorithms` is written against — C-style
//!   set operations (`intersect`, `union`, `difference`, counting variants,
//!   membership, element insertion/removal, set lifecycle) addressed by
//!   logical [`SetId`]s. Four backends ship: the simulated SISA platform
//!   ([`SisaRuntime`]), a software baseline on the CPU cost model
//!   ([`HostEngine`]), a cost-free functional oracle ([`FunctionalEngine`])
//!   and a sharded multi-cube wrapper ([`ShardedEngine`]) that partitions the
//!   set universe across inner engines via a [`PartitionStrategy`] and prices
//!   cross-shard operand movement with the PNM link model.
//! * **The thin software layer + SCU** (§6.3.3, §8.2): inside `SisaRuntime`
//!   every operation is first *issued* — materialised as a genuine
//!   [`sisa_isa::SisaInstruction`], optionally captured by a bounded
//!   [`TraceSink`], with operands mapped through the [`issue::RegisterFile`]
//!   binding table only while such a trace is attached (its file starts
//!   empty) — then *dispatched* by the [`scu::Scu`], which consults the
//!   Set-Metadata table (through the SMB cache), chooses SISA-PUM or SISA-PNM
//!   and merge vs. galloping using the §8.3 performance models, and returns a
//!   costed outcome that is absorbed into the work counters and enqueued into
//!   the scoreboarded [`IssueQueue`] (§8.4 "Harnessing Parallelism"):
//!   instructions with disjoint operand sets overlap across virtual vault
//!   lanes, dependent ones stall on the set-ID [`Scoreboard`], and
//!   [`ExecStats`] reports the overlapped makespan and dependence-stall
//!   cycles next to the serial work totals. A captured trace is a real
//!   [`sisa_isa::SisaProgram`] and can be replayed against any backend by the
//!   [`Interpreter`].
//! * **The set organisation** (§6.1): [`SetGraph`] loads a CSR graph into
//!   SISA sets, storing the largest neighbourhoods as dense bitvectors and the
//!   rest as sparse arrays, subject to the user's bias parameter and storage
//!   budget.
//! * **Scheduling**: [`parallel`] provides the virtual-thread scheduler that
//!   turns per-task cycle counts (from any [`SetEngine`]) into end-to-end
//!   runtimes, per-thread stall fractions and bandwidth-contention effects —
//!   the quantities plotted in Figures 1, 6, 8 and 9 of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dynamic;
pub mod engine;
pub mod functional;
pub mod host_engine;
pub mod interpreter;
pub mod issue;
pub mod metadata;
pub mod parallel;
pub mod pipeline;
pub mod runtime;
pub mod scoreboard;
pub mod scu;
pub mod set_graph;
pub mod shard;
pub mod sharded;
pub(crate) mod slots;
pub mod stats;
pub mod telemetry;
pub mod trace;

pub use config::{SetGraphConfig, SisaConfig, VariantSelection};
pub use dynamic::DynamicSetGraph;
pub use engine::{Dest, Outcome, SetEngine, SetOp};
pub use functional::FunctionalEngine;
pub use host_engine::HostEngine;
pub use interpreter::{Interpreter, ReplayReport};
pub use issue::RegisterFile;
pub use metadata::{SetMetadata, SmbCache};
pub use parallel::{schedule, schedule_cpu, RunReport, TaskRecord, ThreadReport};
pub use pipeline::{IssueOutcome, IssueQueue, LaneKind, WriteIntent};
pub use runtime::SisaRuntime;
pub use scoreboard::Scoreboard;
pub use scu::{ExecutionChoice, ExecutionTarget, Scu};
pub use set_graph::SetGraph;
pub use shard::PartitionStrategy;
pub use sharded::{BatchOp, BatchResult, LinkTraffic, ShardReport, ShardedEngine};
pub use stats::{ExecStats, OpcodeCounts, StatsScope};
pub use telemetry::{
    ChromeTraceCollector, Collector, InstructionEvent, NoopCollector, SharedCollector,
    TransferEvent,
};
pub use trace::{TraceEvent, TraceOp, TraceSink};

/// A logical SISA set identifier (re-exported from `sisa-isa`).
pub type SetId = sisa_isa::SetId;

/// A vertex identifier (re-exported from `sisa-sets`).
pub type Vertex = sisa_sets::Vertex;
