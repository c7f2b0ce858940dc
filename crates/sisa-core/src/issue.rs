//! The instruction-issue stage: mapping logical set IDs onto the RISC-V
//! register operands of real [`SisaInstruction`]s.
//!
//! The paper's encoding (Figure 5) names *registers*, not set IDs: the thin
//! software layer keeps each live set's logical ID in an integer register and
//! the SISA instruction's `rs1`/`rs2`/`rd` fields say which registers hold the
//! operand and result IDs (§6.3.2, §6.3.4). [`RegisterFile`] is that binding
//! table: a small LRU-managed pool of registers holding set IDs, with two
//! reserved registers for scalar results and vertex operands. Every operation
//! [`crate::SisaRuntime`] executes is first materialised as a genuine
//! [`SisaInstruction`] through this table (the *issue* stage) before the SCU
//! dispatches it onto the PIM cost models (the *dispatch* stage) and the
//! costed result is enqueued into the scoreboarded
//! [`crate::pipeline::IssueQueue`], which decides where the instruction lands
//! on the overlapped vault-lane timeline.
//!
//! Every operand of every instruction asks "which register holds this ID?",
//! so the table keeps a reverse index from raw set ID to pool slot beside the
//! per-register bindings. The victim rule on a miss — the lowest-numbered
//! free register, else the least recently used bound one — is what fixes
//! which registers a traced program names. It is read off two structures: a
//! free mask whose lowest set bit is that free register, and the last-touch
//! stamps of the bound registers (a `slots::Lru`), whose oldest is
//! the LRU one.

use crate::slots::{slot_mut, Lru};
use sisa_isa::{Register, SetId, SisaInstruction, SisaOpcode};

/// Index of the first general-purpose register used for set IDs (`x1`; `x0`
/// is hard-wired zero).
const FIRST_SET_REGISTER: u8 = 1;

/// Number of registers in the set-ID pool (`x1`–`x29`; `x30`/`x31` are
/// reserved).
const SET_REGISTER_POOL: usize = 29;

/// The register receiving scalar results (counts, membership booleans).
const SCALAR_RESULT_REGISTER: u8 = 30;

/// The register holding the vertex operand of element instructions (the host
/// loads the vertex id into it before issuing, like an immediate).
const VERTEX_OPERAND_REGISTER: u8 = 31;

/// Reverse-index entry of a set ID no register holds.
const UNBOUND: u8 = u8::MAX;

/// Every pool register free.
const ALL_FREE: u32 = (1 << SET_REGISTER_POOL) - 1;

/// The set-ID → register binding table of the issue stage.
///
/// Binding an unbound set ID claims the least-recently-used register of the
/// pool (evicting whatever set ID it held — in a real program the software
/// layer would reload the spilled ID from its stack slot, which is host-side
/// work already covered by the algorithms' scalar-op accounting).
#[derive(Clone, Debug)]
pub struct RegisterFile {
    /// `bindings[i]` is the set ID currently held by register `x(i+1)`.
    bindings: [Option<SetId>; SET_REGISTER_POOL],
    /// Bit `i` is set exactly when `bindings[i]` is `None`.
    free: u32,
    /// The bound slots by last use.
    recency: Lru,
    /// The inverse of `bindings`, indexed by raw set ID: the pool slot
    /// holding the ID, or [`UNBOUND`] (also the answer past the end).
    slots: Vec<u8>,
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

impl RegisterFile {
    /// Creates an empty binding table.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bindings: [None; SET_REGISTER_POOL],
            free: ALL_FREE,
            recency: Lru::new(),
            slots: Vec::new(),
        }
    }

    /// The register that receives scalar (count / boolean) results.
    #[must_use]
    pub fn scalar_result() -> Register {
        Register::new(SCALAR_RESULT_REGISTER)
    }

    /// The register holding the vertex operand of element instructions.
    #[must_use]
    pub fn vertex_operand() -> Register {
        Register::new(VERTEX_OPERAND_REGISTER)
    }

    /// Returns the register holding `id`, binding it to the least-recently-
    /// used pool register first if necessary.
    pub fn bind(&mut self, id: SetId) -> Register {
        if let Some(slot) = self.slot_of(id) {
            self.recency.touch(slot as u32);
            return Self::register_of(slot);
        }
        // Claim the lowest free slot, else the least recently used one.
        let slot = if self.free != 0 {
            let slot = self.free.trailing_zeros() as usize;
            self.free &= !(1 << slot);
            slot
        } else {
            let lru = self.recency.pop_oldest();
            lru.expect("a full pool has a least recently used register") as usize
        };
        if let Some(evicted) = self.bindings[slot].replace(id) {
            self.slots[evicted.raw() as usize] = UNBOUND;
        }
        *slot_mut(&mut self.slots, id, UNBOUND) = slot as u8;
        self.recency.touch(slot as u32);
        Self::register_of(slot)
    }

    /// Drops the binding for `id` (called when the set is deleted).
    pub fn release(&mut self, id: SetId) {
        if let Some(slot) = self.slot_of(id) {
            self.bindings[slot] = None;
            self.recency.remove(slot as u32);
            self.free |= 1 << slot;
            self.slots[id.raw() as usize] = UNBOUND;
        }
    }

    /// The register currently bound to `id`, if any (no LRU update).
    #[must_use]
    pub fn lookup(&self, id: SetId) -> Option<Register> {
        self.slot_of(id).map(Self::register_of)
    }

    /// Number of set IDs currently bound.
    #[must_use]
    pub fn bound(&self) -> usize {
        SET_REGISTER_POOL - self.free.count_ones() as usize
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

    // -----------------------------------------------------------------------
    // Instruction materialisation
    // -----------------------------------------------------------------------

    /// Materialises a binary set instruction `opcode rd, rs1, rs2` over two
    /// set operands; scalar-result opcodes (the counting twins) write to the
    /// scalar-result register instead of a set register.
    pub fn issue_binary(
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

    /// Materialises a single-element instruction (`sisa.ins` / `sisa.rem` /
    /// `sisa.member`): `rs1` names the set, `rs2` the register holding the
    /// vertex id.
    pub fn issue_element(&mut self, opcode: SisaOpcode, id: SetId) -> SisaInstruction {
        let rs1 = self.bind(id);
        let rd = if opcode.is_scalar_result() {
            Self::scalar_result()
        } else {
            Register::ZERO
        };
        SisaInstruction::new(opcode, rd, rs1, Self::vertex_operand())
    }

    /// Materialises a lifecycle/metadata instruction (`sisa.new`, `sisa.del`,
    /// `sisa.clone`, `sisa.card`).
    pub fn issue_lifecycle(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_is_stable_until_evicted() {
        let mut rf = RegisterFile::new();
        let r1 = rf.bind(SetId(7));
        assert_eq!(rf.bind(SetId(7)), r1);
        assert_eq!(rf.lookup(SetId(7)), Some(r1));
        assert_eq!(rf.bound(), 1);
    }

    #[test]
    fn distinct_ids_get_distinct_registers() {
        let mut rf = RegisterFile::new();
        let regs: Vec<Register> = (0..SET_REGISTER_POOL as u32)
            .map(|i| rf.bind(SetId(i)))
            .collect();
        let mut seen: Vec<u8> = regs.iter().map(|r| r.index()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), SET_REGISTER_POOL);
        assert!(seen.iter().all(|r| (1..=29).contains(r)));
    }

    #[test]
    fn overflowing_the_pool_evicts_the_least_recently_used() {
        let mut rf = RegisterFile::new();
        for i in 0..SET_REGISTER_POOL as u32 {
            rf.bind(SetId(i));
        }
        // Touch SetId(0) so SetId(1) becomes the LRU victim.
        rf.bind(SetId(0));
        let newcomer = rf.bind(SetId(1000));
        assert_eq!(rf.lookup(SetId(1)), None, "LRU entry must be evicted");
        assert_eq!(rf.lookup(SetId(1000)), Some(newcomer));
        assert!(rf.lookup(SetId(0)).is_some());
    }

    #[test]
    fn release_frees_the_register_for_reuse() {
        let mut rf = RegisterFile::new();
        let r = rf.bind(SetId(3));
        rf.release(SetId(3));
        assert_eq!(rf.lookup(SetId(3)), None);
        assert_eq!(rf.bound(), 0);
        // A fresh binding reuses the freed (stamp-0) slot.
        assert_eq!(rf.bind(SetId(4)), r);
    }

    #[test]
    fn issued_instructions_use_the_reserved_registers() {
        let mut rf = RegisterFile::new();
        let count = rf.issue_binary(SisaOpcode::IntersectCountAuto, SetId(1), SetId(2), None);
        assert_eq!(count.rd, RegisterFile::scalar_result());
        let mat = rf.issue_binary(
            SisaOpcode::IntersectAuto,
            SetId(1),
            SetId(2),
            Some(SetId(3)),
        );
        assert_ne!(mat.rd, RegisterFile::scalar_result());
        assert_eq!(mat.rs1, count.rs1);
        assert_eq!(mat.rs2, count.rs2);
        let ins = rf.issue_element(SisaOpcode::InsertElement, SetId(1));
        assert_eq!(ins.rs2, RegisterFile::vertex_operand());
        assert_eq!(ins.rd, Register::ZERO);
        let member = rf.issue_element(SisaOpcode::Membership, SetId(1));
        assert_eq!(member.rd, RegisterFile::scalar_result());
        let card = rf.issue_lifecycle(SisaOpcode::Cardinality, Some(SetId(1)), None);
        assert_eq!(card.rd, RegisterFile::scalar_result());
        let new = rf.issue_lifecycle(SisaOpcode::CreateSet, None, Some(SetId(9)));
        assert_eq!(new.rs1, Register::ZERO);
        assert_ne!(new.rd, Register::ZERO);
    }
}
