//! The register file's victim rule as the parent commit computed it — a scan
//! of all 29 LRU stamps on every miss — kept as the oracle for the free mask
//! and recency list that replaced it.
//!
//! `ModelFile` below is `issue.rs`'s `RegisterFile` as of the parent (`bind`,
//! `release`, `lookup`, `bound` and the three `issue_*` materialisers
//! verbatim; only the type name changes, and `slots::slot_mut`, private to
//! the crate, is copied in). The property drives random `bind` / `release` /
//! `lookup` / `issue_*` sequences over 40 set IDs — more than the 29 pool
//! registers, so evictions are common — through model and [`RegisterFile`],
//! and requires every returned register and instruction, every lookup and
//! the bound count to agree after every step.
//!
//! It was seen to fail under each of these one-line mutations of `issue.rs`:
//!
//! * `RegisterFile::bind`: free registers picked highest-first
//!   (`31 - free.leading_zeros()` for `free.trailing_zeros()`);
//! * `RegisterFile::bind`: a hit that does not move its register to the
//!   head of the recency list;
//! * `RegisterFile::release`: the released register left linked.

use proptest::prelude::*;
use sisa_core::RegisterFile;
use sisa_isa::{Register, SetId, SisaInstruction, SisaOpcode};

// ---------------------------------------------------------------------------
// The parent's issue.rs
// ---------------------------------------------------------------------------

const FIRST_SET_REGISTER: u8 = 1;
const SET_REGISTER_POOL: usize = 29;
const SCALAR_RESULT_REGISTER: u8 = 30;
const VERTEX_OPERAND_REGISTER: u8 = 31;
const UNBOUND: u8 = u8::MAX;

fn slot_mut<T: Clone>(table: &mut Vec<T>, id: SetId, empty: T) -> &mut T {
    let index = id.0 as usize;
    if index >= table.len() {
        table.resize(index + 1, empty);
    }
    &mut table[index]
}

#[derive(Clone, Debug)]
struct ModelFile {
    /// `bindings[i]` is the set ID currently held by register `x(i+1)`.
    bindings: [Option<SetId>; SET_REGISTER_POOL],
    /// LRU stamp per pool register.
    stamps: [u64; SET_REGISTER_POOL],
    /// The inverse of `bindings`, indexed by raw set ID: the pool slot
    /// holding the ID, or [`UNBOUND`] (also the answer past the end).
    slots: Vec<u8>,
    clock: u64,
}

impl ModelFile {
    fn new() -> Self {
        Self {
            bindings: [None; SET_REGISTER_POOL],
            stamps: [0; SET_REGISTER_POOL],
            slots: Vec::new(),
            clock: 0,
        }
    }

    fn scalar_result() -> Register {
        Register::new(SCALAR_RESULT_REGISTER)
    }

    fn vertex_operand() -> Register {
        Register::new(VERTEX_OPERAND_REGISTER)
    }

    /// Returns the register holding `id`, binding it to the least-recently-
    /// used pool register first if necessary.
    fn bind(&mut self, id: SetId) -> Register {
        self.clock += 1;
        if let Some(slot) = self.slot_of(id) {
            self.stamps[slot] = self.clock;
            return Self::register_of(slot);
        }
        // Claim the LRU slot (free slots have stamp 0, so they go first).
        let slot = (0..SET_REGISTER_POOL)
            .min_by_key(|&i| (self.stamps[i], i))
            .expect("the register pool is non-empty");
        if let Some(evicted) = self.bindings[slot].replace(id) {
            self.slots[evicted.raw() as usize] = UNBOUND;
        }
        *slot_mut(&mut self.slots, id, UNBOUND) = slot as u8;
        self.stamps[slot] = self.clock;
        Self::register_of(slot)
    }

    /// Drops the binding for `id` (called when the set is deleted).
    fn release(&mut self, id: SetId) {
        if let Some(slot) = self.slot_of(id) {
            self.bindings[slot] = None;
            self.stamps[slot] = 0;
            self.slots[id.raw() as usize] = UNBOUND;
        }
    }

    /// The register currently bound to `id`, if any (no LRU update).
    fn lookup(&self, id: SetId) -> Option<Register> {
        self.slot_of(id).map(Self::register_of)
    }

    /// Number of set IDs currently bound.
    fn bound(&self) -> usize {
        self.bindings.iter().filter(|b| b.is_some()).count()
    }

    fn slot_of(&self, id: SetId) -> Option<usize> {
        match self.slots.get(id.raw() as usize) {
            Some(&slot) if slot != UNBOUND => Some(slot as usize),
            _ => None,
        }
    }

    fn register_of(slot: usize) -> Register {
        Register::new(FIRST_SET_REGISTER + slot as u8)
    }

    fn issue_binary(
        &mut self,
        opcode: SisaOpcode,
        a: SetId,
        b: SetId,
        dst: Option<SetId>,
    ) -> SisaInstruction {
        let rs1 = self.bind(a);
        let rs2 = self.bind(b);
        let rd = match dst {
            Some(id) => self.bind(id),
            None => Self::scalar_result(),
        };
        SisaInstruction::new(opcode, rd, rs1, rs2)
    }

    fn issue_element(&mut self, opcode: SisaOpcode, id: SetId) -> SisaInstruction {
        let rs1 = self.bind(id);
        let rd = if opcode.is_scalar_result() {
            Self::scalar_result()
        } else {
            Register::ZERO
        };
        SisaInstruction::new(opcode, rd, rs1, Self::vertex_operand())
    }

    fn issue_lifecycle(
        &mut self,
        opcode: SisaOpcode,
        src: Option<SetId>,
        dst: Option<SetId>,
    ) -> SisaInstruction {
        let rs1 = src.map_or(Register::ZERO, |id| self.bind(id));
        let rd = match (opcode.is_scalar_result(), dst) {
            (true, _) => Self::scalar_result(),
            (false, Some(id)) => self.bind(id),
            (false, None) => Register::ZERO,
        };
        SisaInstruction::new(opcode, rd, rs1, Register::ZERO)
    }
}

// ---------------------------------------------------------------------------
// Random sequences
// ---------------------------------------------------------------------------

/// Set IDs drawn per step: more than the pool holds.
const IDS: u64 = 40;

/// What one step returned, from either file.
#[derive(Debug, PartialEq)]
enum Answer {
    Register(Register),
    Lookup(Option<Register>),
    Instruction(SisaInstruction),
    Nothing,
}

/// Decodes one `u64` draw into a step and applies it through either type
/// (both share every method name the step uses).
macro_rules! step {
    ($file:expr, $x:expr) => {{
        let x: u64 = $x;
        let id = |shift: u32| SetId(((x >> shift) % IDS) as u32);
        let (a, b, c) = (id(8), id(16), id(24));
        let answer = match x % 9 {
            0..=2 => Answer::Register($file.bind(a)),
            3 => {
                $file.release(a);
                Answer::Nothing
            }
            4 => Answer::Lookup($file.lookup(a)),
            5 => Answer::Instruction($file.issue_binary(SisaOpcode::IntersectAuto, a, b, Some(c))),
            6 => {
                Answer::Instruction($file.issue_binary(SisaOpcode::IntersectCountAuto, a, b, None))
            }
            7 => {
                let opcode = if x & (1 << 40) == 0 {
                    SisaOpcode::InsertElement
                } else {
                    SisaOpcode::Membership
                };
                Answer::Instruction($file.issue_element(opcode, a))
            }
            _ => {
                let (opcode, src, dst) = match (x >> 40) % 3 {
                    0 => (SisaOpcode::CreateSet, None, Some(a)),
                    1 => (SisaOpcode::CloneSet, Some(a), Some(b)),
                    _ => (SisaOpcode::Cardinality, Some(a), None),
                };
                Answer::Instruction($file.issue_lifecycle(opcode, src, dst))
            }
        };
        (answer, $file.bound())
    }};
}

proptest! {
    /// Every register a sequence is handed, and every instruction it
    /// materialises, is the one the parent's scan chose.
    #[test]
    fn the_register_file_matches_the_parent_scan(
        steps in collection::vec(any::<u64>(), 1..400),
    ) {
        let mut model = ModelFile::new();
        let mut file = RegisterFile::new();
        for (i, &x) in steps.iter().enumerate() {
            let expected = step!(model, x);
            let got = step!(file, x);
            prop_assert_eq!(expected, got, "step {}", i);
        }
        for raw in 0..IDS as u32 {
            prop_assert_eq!(model.lookup(SetId(raw)), file.lookup(SetId(raw)), "id {}", raw);
        }
    }
}

// ---------------------------------------------------------------------------
// The SMB against a reference LRU
// ---------------------------------------------------------------------------
//
// `SmbCache` keeps exact LRU by last-touch stamps (`slots::Lru`). The test
// below drives seeded random `lookup` / `prime` / `invalidate` sequences
// through it and through `ModelSmb`, the resident IDs in a `Vec` ordered by
// recency, and requires every lookup to agree. It was seen to fail under
// each of these mutations of `slots.rs`:
//
// * `Lru::pop_oldest` evicting the oldest entry of the sorted list without
//   checking its stamp, so a key re-touched since the list was rebuilt is
//   evicted;
// * `Lru::remove` leaving `listed` (and with it `len`) unchanged, so an
//   invalidated ID still takes room and the buffer evicts too early.

use sisa_core::SmbCache;

/// The resident IDs, least recently used first.
struct ModelSmb {
    capacity: usize,
    resident: Vec<u32>,
}

impl ModelSmb {
    fn lookup(&mut self, raw: u32) -> bool {
        let hit = match self.resident.iter().position(|&r| r == raw) {
            Some(i) => {
                self.resident.remove(i);
                true
            }
            None => false,
        };
        self.resident.push(raw);
        if self.resident.len() > self.capacity {
            self.resident.remove(0);
        }
        hit
    }

    fn invalidate(&mut self, raw: u32) {
        self.resident.retain(|&r| r != raw);
    }
}

/// A splitmix64 stream: the same sequence on every run.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn the_smb_matches_a_reference_lru() {
    // (capacity, IDs drawn from, steps, seeds): more IDs than entries, so
    // evictions are common, and enough steps to rebuild the age list often.
    for (capacity, ids, steps, seeds) in [
        (1, 4, 4_000, 8),
        (2, 6, 4_000, 8),
        (7, 20, 6_000, 8),
        (2_048, 3_000, 20_000, 2),
    ] {
        for seed in 0..seeds {
            let mut state = seed;
            let mut model = ModelSmb {
                capacity,
                resident: Vec::new(),
            };
            let mut smb = SmbCache::new(capacity);
            for step in 0..steps {
                let x = splitmix(&mut state);
                let raw = ((x >> 8) % ids) as u32;
                match x % 8 {
                    0..=4 => assert_eq!(
                        smb.lookup(SetId(raw)),
                        model.lookup(raw),
                        "capacity {capacity}, seed {seed}, step {step}: lookup {raw}"
                    ),
                    5 | 6 => {
                        smb.prime(SetId(raw));
                        model.lookup(raw);
                    }
                    _ => {
                        smb.invalidate(SetId(raw));
                        model.invalidate(raw);
                    }
                }
            }
            // Every resident ID hits, oldest first (each lookup of a resident
            // ID leaves the rest resident).
            for raw in model.resident.clone() {
                assert!(
                    smb.lookup(SetId(raw)),
                    "capacity {capacity}, seed {seed}: {raw}"
                );
            }
        }
    }
}
