//! Capturing a run as a stream of SISA instructions.
//!
//! A [`TraceSink`] attached to [`crate::SisaRuntime`] records every operation
//! the issue stage materialises: the genuine [`SisaInstruction`] (when the
//! operation is a SISA instruction) plus the semantic payload needed to
//! re-execute it ([`TraceOp`]). Host-side events that cost cycles but are not
//! SISA instructions — result extraction via `members`, scalar `host_ops`,
//! universe/statistics bookkeeping — are recorded too, so that
//! [`crate::Interpreter::replay`] can reproduce a captured run's
//! [`crate::ExecStats`] cycle-for-cycle on a fresh engine.
//!
//! A binary instruction is recorded as the [`SetOp`] it was, in one variant
//! for all nine forms; on the wire its form is the tag (`binary`,
//! `binary_count`, `binary_assign`), as it was when each had a variant of
//! its own, so checked-in fixtures read and write byte for byte.
//!
//! The sink is **bounded**: once `capacity` events are recorded, further
//! events are counted but dropped — and their payloads never built
//! (`TraceSink::record_with`) — so tracing a long run can neither exhaust
//! memory nor keep paying for what it throws away. A truncated trace still
//! replays correctly as a prefix of the run.
//!
//! Traces record *what* was issued, never *when* it executed: no schedule or
//! cycle information is stored, so the same capture replays against a serial
//! (depth-1) runtime or any pipelined configuration and the issue-queue model
//! is free to evolve without invalidating checked-in fixtures.

use crate::engine::{Dest, SetOp};
use crate::scu::BinarySetOp;
use crate::Vertex;
use sisa_isa::{SetId, SisaInstruction, SisaProgram};
use sisa_sets::SetRepr;

/// The semantic payload of one traced event: everything the interpreter needs
/// to re-execute the operation against another engine.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceOp {
    /// The universe was grown to at least `n` vertices.
    SetUniverse {
        /// The requested universe size.
        n: usize,
    },
    /// Statistics were cleared (the load/measure boundary).
    ResetStats,
    /// A set was created with the given contents.
    Create {
        /// The ID the run assigned to the new set.
        id: SetId,
        /// The representation the set was created with.
        repr: SetRepr,
    },
    /// `dst = clone(src)`.
    Clone {
        /// The source set.
        src: SetId,
        /// The ID assigned to the copy.
        dst: SetId,
    },
    /// A set was deleted.
    Delete {
        /// The deleted set.
        id: SetId,
    },
    /// `|A|` was queried.
    Cardinality {
        /// The queried set.
        id: SetId,
    },
    /// `x ∈ A` was queried.
    Membership {
        /// The queried set.
        id: SetId,
        /// The probed vertex.
        v: Vertex,
    },
    /// `A ∪= {x}`.
    Insert {
        /// The updated set.
        id: SetId,
        /// The inserted vertex.
        v: Vertex,
    },
    /// `A \= {x}`.
    Remove {
        /// The updated set.
        id: SetId,
        /// The removed vertex.
        v: Vertex,
    },
    /// A binary instruction, in any of its three forms.
    Binary {
        /// The instruction.
        op: SetOp,
        /// The ID the run assigned to the new set of a [`Dest::New`]
        /// instruction; `None` for the other two forms, which create none.
        dst: Option<SetId>,
    },
    /// The set's members were read out to the host.
    Members {
        /// The read set.
        id: SetId,
    },
    /// `n` host-side scalar operations were charged.
    HostOps {
        /// Number of scalar operations.
        n: u64,
    },
}

/// One recorded event: the materialised instruction (for SISA operations) and
/// the semantic payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// The instruction the issue stage materialised, or `None` for host-side
    /// events (`members`, `host_ops`, bookkeeping).
    pub instruction: Option<SisaInstruction>,
    /// The semantic payload.
    pub op: TraceOp,
}

/// A bounded recorder of issued operations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceSink {
    capacity: usize,
    dropped: u64,
    events: Vec<TraceEvent>,
}

impl TraceSink {
    /// The default event capacity (events beyond it are counted but dropped).
    pub(crate) const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Creates a sink that stops recording after `capacity` events.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        Self {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records one event (drops it if the sink is full).
    pub fn record(&mut self, instruction: Option<SisaInstruction>, op: TraceOp) {
        self.record_with(instruction, || op);
    }

    /// Records one event whose payload is built only if the event will be
    /// kept: a full sink counts the drop and never calls `op`, so a payload
    /// that is expensive to build (a created set's contents) costs nothing
    /// once the capacity is reached.
    pub(crate) fn record_with(
        &mut self,
        instruction: Option<SisaInstruction>,
        op: impl FnOnce() -> TraceOp,
    ) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent {
            instruction,
            op: op(),
        });
    }

    /// The recorded events, in issue order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events dropped after the capacity was reached.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Whether the sink captured the complete run (nothing was dropped).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }

    /// The captured run as a genuine [`SisaProgram`]: the dynamic stream of
    /// materialised SISA instructions, host-side events elided.
    #[must_use]
    pub fn program(&self) -> SisaProgram {
        self.events.iter().filter_map(|e| e.instruction).collect()
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::bounded(Self::DEFAULT_CAPACITY)
    }
}

// ---------------------------------------------------------------------------
// Serialization (through the vendored serde shim)
// ---------------------------------------------------------------------------
//
// A serialized trace is a complete, self-contained workload: instructions are
// stored as their 32-bit machine words (the Figure 5 encoding), semantic
// payloads as tagged maps. Round-tripping a `TraceSink` through JSON preserves
// `PartialEq` equality, so captured runs can be checked in as fixtures and
// replayed by the `Interpreter`. `TraceEvent` and `TraceSink` derive their
// codec; the vendored `serde_derive` shim only handles named-field structs,
// hence the manual impls for the enums.

use serde::{Content, Deserialize, Error, Serialize};

impl Serialize for BinarySetOp {
    fn to_content(&self) -> Content {
        Content::Str(
            match self {
                BinarySetOp::Intersection => "intersection",
                BinarySetOp::Union => "union",
                BinarySetOp::Difference => "difference",
            }
            .to_string(),
        )
    }
}

impl Deserialize for BinarySetOp {
    fn from_content(content: &Content) -> Result<Self, Error> {
        match String::from_content(content)?.as_str() {
            "intersection" => Ok(BinarySetOp::Intersection),
            "union" => Ok(BinarySetOp::Union),
            "difference" => Ok(BinarySetOp::Difference),
            other => Err(Error::custom(format!("unknown binary set op `{other}`"))),
        }
    }
}

/// The wire tag of a binary instruction's form.
fn binary_tag(dest: Dest) -> &'static str {
    match dest {
        Dest::New => "binary",
        Dest::Count => "binary_count",
        Dest::InPlace => "binary_assign",
    }
}

/// Builds the tagged map for one trace op.
fn tagged(tag: &str, fields: Vec<(String, Content)>) -> Content {
    let mut entries = vec![("op".to_string(), Content::Str(tag.to_string()))];
    entries.extend(fields);
    Content::Map(entries)
}

/// Reads one required field of a tagged map.
fn field<T: Deserialize>(content: &Content, tag: &str, name: &str) -> Result<T, Error> {
    let value = content
        .get(name)
        .ok_or_else(|| Error::custom(format!("trace op `{tag}` missing field `{name}`")))?;
    T::from_content(value)
}

/// Reads the binary instruction tagged `tag`, the wire tag of `dest`.
fn binary_from(content: &Content, tag: &str, dest: Dest) -> Result<TraceOp, Error> {
    Ok(TraceOp::Binary {
        op: SetOp {
            op: field(content, tag, "kind")?,
            a: field(content, tag, "a")?,
            b: field(content, tag, "b")?,
            dest,
        },
        // Only the materialising form names a new set, and it must.
        dst: match dest {
            Dest::New => Some(field(content, tag, "dst")?),
            Dest::Count | Dest::InPlace => None,
        },
    })
}

impl Serialize for TraceOp {
    fn to_content(&self) -> Content {
        let entry = |name: &str, value: Content| (name.to_string(), value);
        match self {
            TraceOp::SetUniverse { n } => tagged("set_universe", vec![entry("n", n.to_content())]),
            TraceOp::ResetStats => tagged("reset_stats", vec![]),
            TraceOp::Create { id, repr } => tagged(
                "create",
                vec![
                    entry("id", id.to_content()),
                    entry("repr", repr.to_content()),
                ],
            ),
            TraceOp::Clone { src, dst } => tagged(
                "clone",
                vec![
                    entry("src", src.to_content()),
                    entry("dst", dst.to_content()),
                ],
            ),
            TraceOp::Delete { id } => tagged("delete", vec![entry("id", id.to_content())]),
            TraceOp::Cardinality { id } => {
                tagged("cardinality", vec![entry("id", id.to_content())])
            }
            TraceOp::Membership { id, v } => tagged(
                "membership",
                vec![entry("id", id.to_content()), entry("v", v.to_content())],
            ),
            TraceOp::Insert { id, v } => tagged(
                "insert",
                vec![entry("id", id.to_content()), entry("v", v.to_content())],
            ),
            TraceOp::Remove { id, v } => tagged(
                "remove",
                vec![entry("id", id.to_content()), entry("v", v.to_content())],
            ),
            TraceOp::Binary { op, dst } => {
                let mut fields = vec![
                    entry("kind", op.op.to_content()),
                    entry("a", op.a.to_content()),
                    entry("b", op.b.to_content()),
                ];
                fields.extend(dst.map(|dst| entry("dst", dst.to_content())));
                tagged(binary_tag(op.dest), fields)
            }
            TraceOp::Members { id } => tagged("members", vec![entry("id", id.to_content())]),
            TraceOp::HostOps { n } => tagged("host_ops", vec![entry("n", n.to_content())]),
        }
    }
}

impl Deserialize for TraceOp {
    fn from_content(content: &Content) -> Result<Self, Error> {
        let tag = String::from_content(
            content
                .get("op")
                .ok_or_else(|| Error::custom("trace op without an `op` tag"))?,
        )?;
        let t = tag.as_str();
        match t {
            "set_universe" => Ok(TraceOp::SetUniverse {
                n: field(content, t, "n")?,
            }),
            "reset_stats" => Ok(TraceOp::ResetStats),
            "create" => Ok(TraceOp::Create {
                id: field(content, t, "id")?,
                repr: field(content, t, "repr")?,
            }),
            "clone" => Ok(TraceOp::Clone {
                src: field(content, t, "src")?,
                dst: field(content, t, "dst")?,
            }),
            "delete" => Ok(TraceOp::Delete {
                id: field(content, t, "id")?,
            }),
            "cardinality" => Ok(TraceOp::Cardinality {
                id: field(content, t, "id")?,
            }),
            "membership" => Ok(TraceOp::Membership {
                id: field(content, t, "id")?,
                v: field(content, t, "v")?,
            }),
            "insert" => Ok(TraceOp::Insert {
                id: field(content, t, "id")?,
                v: field(content, t, "v")?,
            }),
            "remove" => Ok(TraceOp::Remove {
                id: field(content, t, "id")?,
                v: field(content, t, "v")?,
            }),
            "binary" => binary_from(content, t, Dest::New),
            "binary_count" => binary_from(content, t, Dest::Count),
            "binary_assign" => binary_from(content, t, Dest::InPlace),
            "members" => Ok(TraceOp::Members {
                id: field(content, t, "id")?,
            }),
            "host_ops" => Ok(TraceOp::HostOps {
                n: field(content, t, "n")?,
            }),
            other => Err(Error::custom(format!("unknown trace op `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_isa::{Register, SisaOpcode};

    fn instr(op: SisaOpcode) -> SisaInstruction {
        SisaInstruction::new(op, Register::new(1), Register::new(2), Register::new(3))
    }

    /// A binary instruction over sets `a` and `b`; a materialising one names
    /// set 3 as its result.
    fn binary(op: BinarySetOp, a: u32, b: u32, dest: Dest) -> TraceOp {
        TraceOp::Binary {
            op: SetOp {
                op,
                a: SetId(a),
                b: SetId(b),
                dest,
            },
            dst: (dest == Dest::New).then_some(SetId(3)),
        }
    }

    #[test]
    fn records_until_capacity_then_counts_drops() {
        let mut sink = TraceSink::bounded(2);
        sink.record(None, TraceOp::HostOps { n: 1 });
        sink.record(None, TraceOp::HostOps { n: 2 });
        assert!(sink.is_complete());
        sink.record(None, TraceOp::HostOps { n: 3 });
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 1);
        assert!(!sink.is_complete());
        assert!(!sink.is_empty());
    }

    #[test]
    fn a_full_sink_never_builds_the_payload_and_counts_every_refusal() {
        for capacity in [0usize, 1] {
            let mut sink = TraceSink::bounded(capacity);
            let mut built = 0;
            for n in 0..4 {
                sink.record_with(None, || {
                    built += 1;
                    TraceOp::HostOps { n }
                });
            }
            assert_eq!(built, capacity, "capacity {capacity}");
            assert_eq!(sink.len(), capacity);
            assert_eq!(sink.dropped(), 4 - capacity as u64);
        }
    }

    #[test]
    fn program_keeps_only_instruction_events_in_order() {
        let mut sink = TraceSink::default();
        sink.record(
            Some(instr(SisaOpcode::CreateSet)),
            TraceOp::Create {
                id: SetId(0),
                repr: SetRepr::empty_sorted(),
            },
        );
        sink.record(None, TraceOp::HostOps { n: 5 });
        sink.record(
            Some(instr(SisaOpcode::IntersectAuto)),
            binary(BinarySetOp::Intersection, 0, 0, Dest::New),
        );
        let program = sink.program();
        assert_eq!(program.len(), 2);
        assert_eq!(program.instructions()[0].opcode, SisaOpcode::CreateSet);
        assert_eq!(program.instructions()[1].opcode, SisaOpcode::IntersectAuto);
        assert_eq!(sink.events().len(), 3);
    }

    /// Every `TraceOp` variant, with representative payloads.
    fn one_of_every_op() -> Vec<TraceOp> {
        vec![
            TraceOp::SetUniverse { n: 64 },
            TraceOp::ResetStats,
            TraceOp::Create {
                id: SetId(0),
                repr: SetRepr::sorted_from([1u32, 2, 9]),
            },
            TraceOp::Create {
                id: SetId(1),
                repr: SetRepr::dense_from(64, [3u32, 63]),
            },
            TraceOp::Clone {
                src: SetId(0),
                dst: SetId(2),
            },
            TraceOp::Delete { id: SetId(2) },
            TraceOp::Cardinality { id: SetId(0) },
            TraceOp::Membership { id: SetId(0), v: 2 },
            TraceOp::Insert { id: SetId(1), v: 5 },
            TraceOp::Remove { id: SetId(1), v: 3 },
            binary(BinarySetOp::Intersection, 0, 1, Dest::New),
            binary(BinarySetOp::Union, 0, 1, Dest::Count),
            binary(BinarySetOp::Difference, 0, 1, Dest::InPlace),
            TraceOp::Members { id: SetId(0) },
            TraceOp::HostOps { n: 17 },
        ]
    }

    #[test]
    fn every_trace_op_round_trips_through_json() {
        use serde::{Deserialize as _, Serialize as _};
        for op in one_of_every_op() {
            let content = op.to_content();
            let back = TraceOp::from_content(&content).unwrap();
            assert_eq!(back, op);
        }
    }

    #[test]
    fn a_full_sink_round_trips_through_json() {
        let mut sink = TraceSink::bounded(4);
        sink.record(
            Some(instr(SisaOpcode::CreateSet)),
            TraceOp::Create {
                id: SetId(0),
                repr: SetRepr::sorted_from([4u32, 7]),
            },
        );
        sink.record(None, TraceOp::HostOps { n: 3 });
        sink.record(
            Some(instr(SisaOpcode::IntersectCountAuto)),
            binary(BinarySetOp::Intersection, 0, 0, Dest::Count),
        );
        // Overflow one event so capacity/dropped state is exercised too.
        sink.record(None, TraceOp::HostOps { n: 1 });
        sink.record(None, TraceOp::HostOps { n: 1 });
        let json = serde_json::to_string_pretty(&sink).unwrap();
        let back: TraceSink = serde_json::from_str(&json).unwrap();
        assert_eq!(back.events(), sink.events());
        assert_eq!(back.dropped(), sink.dropped());
        assert_eq!(back.is_complete(), sink.is_complete());
        // The instructions survive as decodable machine words.
        assert_eq!(back.program(), sink.program());
    }

    #[test]
    fn malformed_trace_ops_are_rejected() {
        use serde::{Content, Deserialize as _};
        assert!(TraceOp::from_content(&Content::U64(1)).is_err());
        let unknown = Content::Map(vec![("op".into(), Content::Str("warp".into()))]);
        assert!(TraceOp::from_content(&unknown).is_err());
        let missing_field = Content::Map(vec![("op".into(), Content::Str("delete".into()))]);
        assert!(TraceOp::from_content(&missing_field).is_err());
        // A set created in a representation the machine does not have.
        let retired_repr = Content::Map(vec![
            ("op".into(), Content::Str("create".into())),
            ("id".into(), Content::U64(0)),
            (
                "repr".into(),
                Content::Map(vec![
                    ("kind".into(), Content::Str("unsorted".into())),
                    ("members".into(), Content::Seq(vec![Content::U64(2)])),
                ]),
            ),
        ]);
        assert!(TraceOp::from_content(&retired_repr).is_err());
        assert!(BinarySetOp::from_content(&Content::Str("xor".into())).is_err());
    }
}
