//! Differential property tests for the ID-indexed tables on the priced path.
//!
//! `SmbCache`, `Scoreboard` and `RegisterFile` used to be associative — a
//! stamp `HashMap` with a full-scan victim search, a `BTreeMap`, a linear
//! search over the register bindings — and are now flat tables indexed by raw
//! set ID. That is a host-speed change only: every simulated figure must stay
//! bit-identical, which holds exactly when each table answers every call the
//! way its predecessor did. The predecessors are kept here, verbatim, as the
//! models (the SMB's less its hit and miss counters: the runtime counts
//! both from each dispatch's outcome, and the SMB no longer keeps them):
//!
//! 1. **SMB** — the same hit/miss answer per `lookup` over random
//!    `lookup`/`prime`/`invalidate` streams, at capacities 1..=8 over 32 IDs
//!    (so eviction is the common case);
//! 2. **Scoreboard** — every return value equal over random
//!    `record`/`ready_at`/`prune_completed`/`clear` streams, `tracked()`
//!    after every step, and
//!    `record(.., finish = 0)` included (it creates a tracked entry);
//! 3. **Register file** — the same `Register` per `bind` over more distinct
//!    IDs than the pool holds, so the victim rule is exercised (the trace
//!    fixture encodes the registers a program names).
//!
//! The statistics record went the same way — its per-opcode
//! `BTreeMap<SisaOpcode, u64>` tables are `OpcodeCounts` arrays — and is held to the
//! same standard:
//!
//! 4. **Opcode counts** — add, `get`, index, `iter` order, `total`,
//!    `is_empty`, `clear` and `==` against the map, two instances a side;
//! 5. **Scopes** — a `StatsScope` opened on a record carves out exactly what
//!    the record grows by afterwards (per-opcode counts included), in one
//!    piece or in `split` slices: merged back they give the grown record,
//!    field for field.

use proptest::prelude::*;
use sisa_core::{ExecStats, OpcodeCounts, RegisterFile, Scoreboard, SmbCache, StatsScope};
use sisa_isa::{Register, SetId, SisaOpcode};
use std::collections::{BTreeMap, HashMap};

// ---------------------------------------------------------------------------
// Model: the stamp-map SMB
// ---------------------------------------------------------------------------

struct SmbModel {
    capacity: usize,
    stamps: HashMap<SetId, u64>,
    clock: u64,
}

impl SmbModel {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            stamps: HashMap::new(),
            clock: 0,
        }
    }

    fn lookup(&mut self, id: SetId) -> bool {
        self.clock += 1;
        if let Some(stamp) = self.stamps.get_mut(&id) {
            *stamp = self.clock;
            return true;
        }
        if self.stamps.len() >= self.capacity {
            if let Some((&victim, _)) = self.stamps.iter().min_by_key(|(_, &s)| s) {
                self.stamps.remove(&victim);
            }
        }
        self.stamps.insert(id, self.clock);
        false
    }

    fn prime(&mut self, id: SetId) {
        self.clock += 1;
        if self.stamps.len() >= self.capacity && !self.stamps.contains_key(&id) {
            if let Some((&victim, _)) = self.stamps.iter().min_by_key(|(_, &s)| s) {
                self.stamps.remove(&victim);
            }
        }
        self.stamps.insert(id, self.clock);
    }

    fn invalidate(&mut self, id: SetId) {
        self.stamps.remove(&id);
    }
}

// ---------------------------------------------------------------------------
// Model: the BTreeMap scoreboard
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Default)]
struct SetTimes {
    write_done: u64,
    reads_done: u64,
}

#[derive(Default)]
struct ScoreboardModel {
    times: BTreeMap<u32, SetTimes>,
}

impl ScoreboardModel {
    fn entry(&self, id: SetId) -> SetTimes {
        self.times.get(&id.raw()).copied().unwrap_or_default()
    }

    fn ready_at(&self, reads: &[SetId], writes: &[SetId]) -> u64 {
        let mut ready = 0;
        for &r in reads {
            ready = ready.max(self.entry(r).write_done);
        }
        for &w in writes {
            let t = self.entry(w);
            ready = ready.max(t.write_done).max(t.reads_done);
        }
        ready
    }

    fn record(&mut self, reads: &[SetId], writes: &[SetId], finish: u64) {
        for &r in reads {
            let t = self.times.entry(r.raw()).or_default();
            t.reads_done = t.reads_done.max(finish);
        }
        for &w in writes {
            let t = self.times.entry(w.raw()).or_default();
            t.write_done = t.write_done.max(finish);
        }
    }

    fn prune_completed(&mut self, horizon: u64) -> usize {
        let before = self.times.len();
        self.times
            .retain(|_, t| t.write_done > horizon || t.reads_done > horizon);
        before - self.times.len()
    }

    fn clear(&mut self) {
        self.times.clear();
    }

    fn tracked(&self) -> usize {
        self.times.len()
    }
}

// ---------------------------------------------------------------------------
// Model: the scanning register file
// ---------------------------------------------------------------------------

const FIRST_SET_REGISTER: u8 = 1;
const SET_REGISTER_POOL: usize = 29;

struct RegisterModel {
    bindings: [Option<SetId>; SET_REGISTER_POOL],
    stamps: [u64; SET_REGISTER_POOL],
    clock: u64,
}

impl RegisterModel {
    fn new() -> Self {
        Self {
            bindings: [None; SET_REGISTER_POOL],
            stamps: [0; SET_REGISTER_POOL],
            clock: 0,
        }
    }

    fn bind(&mut self, id: SetId) -> Register {
        self.clock += 1;
        if let Some(slot) = self.slot_of(id) {
            self.stamps[slot] = self.clock;
            return Self::register_of(slot);
        }
        let slot = (0..SET_REGISTER_POOL)
            .min_by_key(|&i| (self.stamps[i], i))
            .expect("the register pool is non-empty");
        self.bindings[slot] = Some(id);
        self.stamps[slot] = self.clock;
        Self::register_of(slot)
    }

    fn release(&mut self, id: SetId) {
        if let Some(slot) = self.slot_of(id) {
            self.bindings[slot] = None;
            self.stamps[slot] = 0;
        }
    }

    fn lookup(&self, id: SetId) -> Option<Register> {
        self.slot_of(id).map(Self::register_of)
    }

    fn bound(&self) -> usize {
        self.bindings.iter().filter(|b| b.is_some()).count()
    }

    fn slot_of(&self, id: SetId) -> Option<usize> {
        self.bindings.iter().position(|&b| b == Some(id))
    }

    fn register_of(slot: usize) -> Register {
        Register::new(FIRST_SET_REGISTER + slot as u8)
    }
}

// ---------------------------------------------------------------------------
// Random call streams
// ---------------------------------------------------------------------------

/// A stream of raw draws; each test decodes a draw into one call (the
/// vendored proptest shim has no `prop_oneof` and no tuple strategies).
fn draws(len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..u64::MAX, 0..len)
}

/// Peels `n` alternatives off a draw.
fn take(raw: &mut u64, n: u64) -> u64 {
    let value = *raw % n;
    *raw /= n;
    value
}

/// Peels up to two operand IDs below `ids` off a draw.
fn operands(raw: &mut u64, ids: u64) -> Vec<SetId> {
    (0..take(raw, 3))
        .map(|_| SetId(take(raw, ids) as u32))
        .collect()
}

/// Peels an opcode off a draw.
fn opcode(raw: &mut u64) -> SisaOpcode {
    SisaOpcode::ALL[take(raw, SisaOpcode::ALL.len() as u64) as usize]
}

/// Grows one counter of a statistics record by a draw, the way execution
/// does: every field is reachable, totals move with their per-opcode
/// attribution, and energy moves in quarters so that sums stay exact.
fn grow(stats: &mut ExecStats, raw: &mut u64) {
    let field = take(raw, 17);
    let n = take(raw, 1000) + 1;
    match field {
        0 => stats.scu_cycles += n,
        1 => stats.pum_cycles += n,
        2 => stats.pnm_cycles += n,
        3 => stats.host_cycles += n,
        4 => stats.link_cycles += n,
        5 => stats.link_bytes += n,
        6 => {
            stats.dep_stall_cycles += n;
            stats.dep_stall_by_opcode[opcode(raw)] += n;
        }
        7 => stats.makespan_cycles += n,
        8 | 9 => stats.record_instruction(opcode(raw)),
        10 => stats.pum_ops += n,
        11 => stats.pnm_ops += n,
        12 => stats.merge_selected += n,
        13 => stats.gallop_selected += n,
        14 => stats.smb_hits += n,
        15 => stats.smb_misses += n,
        _ => stats.energy_nj += n as f64 * 0.25,
    }
}

proptest! {
    #[test]
    fn opcode_counts_match_the_btreemap_model(stream in draws(400)) {
        // Two instances a side, so that `==` is compared on unequal pairs too.
        let mut counts = [OpcodeCounts::default(); 2];
        let mut models: [BTreeMap<SisaOpcode, u64>; 2] = Default::default();
        for mut raw in stream {
            let which = take(&mut raw, 2) as usize;
            let (count, model) = (&mut counts[which], &mut models[which]);
            let call = take(&mut raw, 16);
            let op = opcode(&mut raw);
            match call {
                0..=8 => {
                    // The maps never held a zero: every addition was positive.
                    let n = take(&mut raw, 1000) + 1;
                    count[op] += n;
                    *model.entry(op).or_insert(0) += n;
                }
                9..=11 => prop_assert_eq!(count.get(&op), model.get(&op), "get {:?}", op),
                12..=14 => {
                    prop_assert_eq!(count[op], model.get(&op).copied().unwrap_or(0));
                    prop_assert_eq!(count[&op], count[op], "either way of naming it");
                }
                _ => {
                    // Rare, or no stream would ever build up state.
                    if take(&mut raw, 8) == 0 {
                        count.clear();
                        model.clear();
                    }
                }
            }
            prop_assert_eq!(
                count.iter().collect::<Vec<_>>(),
                model.iter().map(|(&op, &n)| (op, n)).collect::<Vec<_>>()
            );
            prop_assert_eq!(count.total(), model.values().sum::<u64>());
            prop_assert_eq!(count.is_empty(), model.is_empty());
            prop_assert_eq!(counts[0] == counts[1], models[0] == models[1]);
        }
    }

    #[test]
    fn scopes_carve_what_a_record_grows_by_and_merge_it_back(
        before in draws(60),
        after in draws(120),
        slices in 1usize..6,
    ) {
        let mut base = ExecStats::default();
        for mut raw in before {
            grow(&mut base, &mut raw);
        }
        let whole = StatsScope::begin(&base);
        let mut sliced = StatsScope::begin(&base);
        let mut from_slices = base;
        let mut grown = base;
        for chunk in after.chunks(after.len().div_ceil(slices).max(1)) {
            for &draw in chunk {
                let mut raw = draw;
                grow(&mut grown, &mut raw);
            }
            from_slices.merge(&sliced.split(&grown));
        }
        let delta = whole.finish(&grown);
        prop_assert_eq!(
            delta.total_instructions(),
            grown.total_instructions() - base.total_instructions()
        );
        base.merge(&delta);
        prop_assert_eq!(&base, &grown, "one scope");
        prop_assert_eq!(&from_slices, &grown, "{} slices", slices);
    }

    #[test]
    fn smb_matches_the_stamp_map_model(capacity in 1usize..=8, stream in draws(400)) {
        let mut smb = SmbCache::new(capacity);
        let mut model = SmbModel::new(capacity);
        for mut raw in stream {
            let call = take(&mut raw, 8);
            let id = SetId(take(&mut raw, 32) as u32);
            match call {
                0..=4 => prop_assert_eq!(smb.lookup(id), model.lookup(id), "lookup {}", id),
                5 | 6 => {
                    smb.prime(id);
                    model.prime(id);
                }
                _ => {
                    smb.invalidate(id);
                    model.invalidate(id);
                }
            }
        }
        // What is resident at the end is part of the state too: a last sweep
        // over every ID must hit and miss alike.
        for raw in 0..32 {
            prop_assert_eq!(smb.lookup(SetId(raw)), model.lookup(SetId(raw)), "sweep {}", raw);
        }
    }

    #[test]
    fn scoreboard_matches_the_btreemap_model(stream in draws(400)) {
        const IDS: u64 = 24;
        let mut board = Scoreboard::new();
        let mut model = ScoreboardModel::default();
        for mut raw in stream {
            let call = take(&mut raw, 13);
            match call {
                0..=5 => {
                    let reads = operands(&mut raw, IDS);
                    let writes = operands(&mut raw, IDS);
                    // One finish in eight is 0: it changes no time, yet the
                    // operands become tracked.
                    let finish = take(&mut raw, 8).min(1) * take(&mut raw, 64);
                    board.record(&reads, &writes, finish);
                    model.record(&reads, &writes, finish);
                }
                6..=10 => {
                    let reads = operands(&mut raw, IDS);
                    let writes = operands(&mut raw, IDS);
                    prop_assert_eq!(
                        board.ready_at(&reads, &writes),
                        model.ready_at(&reads, &writes)
                    );
                }
                11 => {
                    let horizon = take(&mut raw, 64);
                    prop_assert_eq!(
                        board.prune_completed(horizon),
                        model.prune_completed(horizon),
                        "prune at {}", horizon
                    );
                }
                _ => {
                    // Rare, or no stream would ever build up state.
                    if take(&mut raw, 8) == 0 {
                        board.clear();
                        model.clear();
                    }
                }
            }
            prop_assert_eq!(board.tracked(), model.tracked());
        }
        // Each ID's write time, then the later of its write and read times.
        for raw in 0..IDS as u32 {
            let id = [SetId(raw)];
            prop_assert_eq!(board.ready_at(&id, &[]), model.ready_at(&id, &[]));
            prop_assert_eq!(board.ready_at(&[], &id), model.ready_at(&[], &id));
        }
    }

    #[test]
    fn register_file_matches_the_scan_model(stream in draws(600)) {
        // More IDs than pool registers, so binds keep evicting.
        const IDS: u64 = 40;
        let mut regs = RegisterFile::new();
        let mut model = RegisterModel::new();
        for mut raw in stream {
            let call = take(&mut raw, 5);
            let id = SetId(take(&mut raw, IDS) as u32);
            if call < 4 {
                prop_assert_eq!(regs.bind(id), model.bind(id), "bind {}", id);
            } else {
                regs.release(id);
                model.release(id);
            }
            prop_assert_eq!(regs.bound(), model.bound());
        }
        for raw in 0..IDS as u32 {
            prop_assert_eq!(regs.lookup(SetId(raw)), model.lookup(SetId(raw)));
        }
    }
}
