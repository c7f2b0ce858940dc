//! Sharded multi-cube execution: one inner engine per vault group / cube.
//!
//! The paper's PNM platform is 16 HMC cubes × 32 vaults (§9.1), and its
//! performance story rests on spreading set operations across them. A flat
//! [`crate::SisaRuntime`] models a single undifferentiated pool where
//! cross-partition traffic is free; [`ShardedEngine`] adds the missing
//! first-order effect. It partitions the set-ID universe across `N` inner
//! engines through a [`PartitionStrategy`], routes every [`SetEngine`]
//! operation to the shard owning its operands, and prices the movement a
//! multi-cube machine cannot avoid: when a binary operation's operands live on
//! different shards, the smaller operand (by storage footprint) is transferred
//! over the vault/cube links — charged through the [`LinkModel`] as hop
//! latency plus a bandwidth-limited transfer, recorded in
//! [`ExecStats::link_cycles`] / [`ExecStats::link_bytes`] and in the engine's
//! [`LinkTraffic`] ledger — and staged as a short-lived replica on the
//! executing shard (whose create/delete cost models the staging buffer).
//!
//! A binary operation reaches the engine as a [`SetOp`] whichever way it was
//! spelled — a named method, [`SetEngine::apply`], or a [`BatchOp`] converted
//! at the door of [`ShardedEngine::execute`] — and takes one route: it is
//! sited and localised to its executing shard's IDs (`resolve_binary`), run
//! there through the inner engine's `apply`, the shard is settled, and a set
//! it created is given its global ID. `execute` differs only in doing those
//! steps a window at a time.
//!
//! Because every set-centric algorithm is generic over [`SetEngine`], wrapping
//! a runtime in `ShardedEngine` gives any workload multi-cube execution with
//! no algorithm changes. With a single shard the wrapper is a transparent
//! pass-through: every operation forwards exactly once, so a 1-shard
//! `ShardedEngine<SisaRuntime>` reproduces a flat [`crate::SisaRuntime`]'s
//! [`ExecStats`] cycle-for-cycle (a property the test suite pins down).
//!
//! Placement: explicitly created sets (including graph neighbourhoods, which
//! [`crate::SetGraph::load`] creates in vertex order) are placed by the
//! strategy; clones and binary-operation results stay on the shard that holds
//! the data they derive from (locality), and host-side scalar work is charged
//! to shard 0, next to the issuing host core.
//!
//! Statistics: the engine keeps no running aggregate. It resets every shard
//! it takes over, so a shard's [`ExecStats`] holds only what ran through the
//! engine, and `stats()` is one fold, in shard order, of the shards' records
//! plus the link ledger — the only record of link cost. The fold is cached
//! until a `&mut` call changes a shard, so the totals are read once per
//! phase, not once per operation: every public `&mut` call ends with one
//! `settle`, which drops the cached fold. The energy is the same ordered sum
//! at every read, so `stats()` equals the sum of the shards plus the ledger,
//! bit for bit, and [`ShardedEngine::schedule`] reads the same per-shard
//! records. The cache makes the engine `!Sync`; it stays `Send`.

use crate::config::SisaConfig;
use crate::engine::{Dest, Outcome, SetEngine, SetOp};
use crate::parallel::{RunReport, TaskRecord};
use crate::runtime::SisaRuntime;
use crate::scu::BinarySetOp;
use crate::shard::PartitionStrategy;
use crate::stats::ExecStats;
use crate::Vertex;
use sisa_isa::SetId;
use sisa_pim::{EnergyModel, LinkModel};
use sisa_sets::SetRepr;
use std::cell::OnceCell;

/// Accounting of cross-shard operand movement.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkTraffic {
    /// Number of binary operations whose operands lived on different shards.
    pub cross_ops: u64,
    /// Bytes moved over vault/cube links.
    pub bytes: u64,
    /// Cycles spent on link transfers.
    pub cycles: u64,
    /// Energy spent on link transfers, in nanojoules.
    pub energy_nj: f64,
    /// Link-transfer cycles attributed to each shard (the executing shard
    /// that waited for the operand to arrive).
    pub cycles_by_shard: Vec<u64>,
}

impl LinkTraffic {
    /// An empty ledger for `shards` shards.
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            cycles_by_shard: vec![0; shards],
            ..Self::default()
        }
    }
}

/// A binary operation sited on its executing shard.
struct ResolvedBinary {
    shard: usize,
    /// The operation over the executing shard's local IDs.
    op: SetOp,
    /// A staged replica of the remote operand, deleted after the operation.
    temp: Option<SetId>,
}

impl ResolvedBinary {
    /// Runs the operation on its shard's engine and drops the staged replica.
    /// This is the only code that touches a shard while an operation
    /// executes, per operation or in a batch.
    fn run<E: SetEngine>(&self, engine: &mut E) -> Outcome {
        let outcome = engine.apply(self.op);
        if let Some(temp) = self.temp {
            engine.delete(temp);
        }
        outcome
    }
}

/// One operation of a [`ShardedEngine::execute`] batch: the constructors of
/// the [`SetOp`]s a batch may hold, converted by `SetOp::from` on entry.
///
/// Batches are restricted to the side-effect-free binary forms (materialising
/// and counting): every operation reads pre-existing sets and at most creates
/// a fresh result, so all operations in a batch are mutually independent and
/// the engine is free to run them a shard at a time. Operands must name sets
/// that exist when `execute` is called — results of earlier operations in the
/// same batch are not yet addressable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// `A ∩ B`, materialised.
    Intersect(SetId, SetId),
    /// `A ∪ B`, materialised.
    Union(SetId, SetId),
    /// `A \ B`, materialised.
    Difference(SetId, SetId),
    /// `|A ∩ B|`.
    IntersectCount(SetId, SetId),
    /// `|A ∪ B|`.
    UnionCount(SetId, SetId),
    /// `|A \ B|`.
    DifferenceCount(SetId, SetId),
}

impl From<BatchOp> for SetOp {
    fn from(op: BatchOp) -> Self {
        use BinarySetOp::{Difference, Intersection, Union};
        let (op, a, b, dest) = match op {
            BatchOp::Intersect(a, b) => (Intersection, a, b, Dest::New),
            BatchOp::Union(a, b) => (Union, a, b, Dest::New),
            BatchOp::Difference(a, b) => (Difference, a, b, Dest::New),
            BatchOp::IntersectCount(a, b) => (Intersection, a, b, Dest::Count),
            BatchOp::UnionCount(a, b) => (Union, a, b, Dest::Count),
            BatchOp::DifferenceCount(a, b) => (Difference, a, b, Dest::Count),
        };
        SetOp { op, a, b, dest }
    }
}

/// A [`SetEngine`] that partitions the set universe across several inner
/// engines and prices cross-shard operand movement.
#[derive(Clone, Debug)]
pub struct ShardedEngine<E: SetEngine> {
    shards: Vec<E>,
    strategy: PartitionStrategy,
    link: LinkModel,
    energy: EnergyModel,
    /// Global set ID → (shard, shard-local ID).
    placement: Vec<Option<(usize, SetId)>>,
    free_ids: Vec<u32>,
    universe: usize,
    /// The aggregate as [`Self::fold`] last computed it, until a shard or
    /// the ledger changes.
    folded: OnceCell<ExecStats>,
    traffic: LinkTraffic,
    /// Cumulative created cardinality per shard (the degree-aware placement
    /// signal; results and clones count toward the shard that stores them).
    created_load: Vec<u64>,
    task_mark: u64,
    /// Telemetry sink for link-transfer events (observer-only).
    collector: Option<crate::telemetry::SharedCollector>,
    /// Track-group base reported with transfer events.
    telemetry_group: u32,
}

impl<E: SetEngine> ShardedEngine<E> {
    /// Wraps `shards` inner engines behind one sharded engine, resetting
    /// their statistics: the engine accounts only for what runs through it.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    #[must_use]
    pub fn from_shards(mut shards: Vec<E>, strategy: PartitionStrategy, link: LinkModel) -> Self {
        assert!(
            !shards.is_empty(),
            "a sharded engine needs at least one shard"
        );
        for shard in &mut shards {
            shard.reset_stats();
        }
        let n = shards.len();
        Self {
            shards,
            strategy,
            link,
            energy: EnergyModel::default(),
            placement: Vec::new(),
            free_ids: Vec::new(),
            universe: 0,
            folded: OnceCell::new(),
            traffic: LinkTraffic::new(n),
            created_load: vec![0; n],
            task_mark: 0,
            collector: None,
            telemetry_group: 0,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The statistics accumulated by one shard.
    #[must_use]
    pub fn shard_stats(&self, shard: usize) -> &ExecStats {
        self.shards[shard].stats()
    }

    /// The cross-shard transfer ledger.
    #[must_use]
    pub fn traffic(&self) -> &LinkTraffic {
        &self.traffic
    }

    /// The shard currently storing a set.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a live set.
    #[must_use]
    pub fn shard_of(&self, id: SetId) -> usize {
        self.locate(id).0
    }

    /// The stored representation of a live set, read in place on the shard
    /// that holds it (no transfer is priced — this is host-side inspection,
    /// not a simulated operation).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a live set.
    #[must_use]
    pub(crate) fn repr_of(&self, id: SetId) -> &SetRepr {
        let (shard, local) = self.locate(id);
        self.shards[shard].repr(local)
    }

    /// Schedules each shard's load as one task per shard, so the multi-cube
    /// makespan and imbalance come from the existing [`crate::parallel`]
    /// machinery. A shard's load is its cycles plus the link-transfer cycles
    /// it waited for as the executing shard, so communication-heavy
    /// placements pay for their traffic in the makespan.
    #[must_use]
    pub fn schedule(&self) -> RunReport {
        let records: Vec<TaskRecord> = self
            .shards
            .iter()
            .zip(&self.traffic.cycles_by_shard)
            .map(|(shard, &link)| TaskRecord::compute_only(shard.stats().total_cycles() + link))
            .collect();
        crate::parallel::schedule(&records, self.shards.len())
    }

    // -----------------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------------

    /// Closes a call that changed a shard (see the module docs): drops the
    /// cached fold.
    fn settle(&mut self) {
        self.folded.take();
    }

    /// The aggregate statistics: the shards' records in shard order plus the
    /// link ledger. The energy is the ordered sum of the shards' plus the
    /// ledger's, recomputed from totals at every fold, so it is bit for bit
    /// the sum of its parts — which the conservation tests and the
    /// 1-shard ≡ flat equivalence rely on.
    fn fold(&self) -> ExecStats {
        let mut stats = ExecStats::default();
        for shard in &self.shards {
            stats.merge(shard.stats());
        }
        stats.link_cycles += self.traffic.cycles;
        stats.link_bytes += self.traffic.bytes;
        stats.energy_nj += self.traffic.energy_nj;
        stats
    }

    /// `stats().total_cycles()` without folding the whole record.
    fn total_cycles(&self) -> u64 {
        let shards: u64 = self.shards.iter().map(|s| s.stats().total_cycles()).sum();
        shards + self.traffic.cycles
    }

    fn locate(&self, id: SetId) -> (usize, SetId) {
        self.placement
            .get(id.raw() as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("set {id} does not exist"))
    }

    fn allocate_global(&mut self) -> SetId {
        crate::slots::allocate(&mut self.placement, &mut self.free_ids)
    }

    fn register_global(&mut self, shard: usize, local: SetId) -> SetId {
        let global = self.allocate_global();
        self.placement[global.raw() as usize] = Some((shard, local));
        global
    }

    /// Books one `src → dst` transfer of `bytes` bytes into the traffic
    /// ledger, returning the link cycles it cost. The lane-work absorption on
    /// the receiving shard is the caller's responsibility (see
    /// [`Self::resolve_binary`]), and so is the closing [`Self::settle`],
    /// which drops the cached fold.
    fn ledger_transfer(&mut self, src: usize, dst: usize, bytes: u64) -> u64 {
        let route = self.link.route(src, dst, self.shards.len());
        let cycles = self.link.transfer_cost(bytes as usize, route);
        let energy = self.energy.link_energy(bytes, route.hops as u64);
        self.traffic.cross_ops += 1;
        self.traffic.bytes += bytes;
        self.traffic.cycles += cycles;
        self.traffic.cycles_by_shard[dst] += cycles;
        self.traffic.energy_nj += energy;
        // Every priced link crossing funnels through here, so one hook
        // covers them all.
        if let Some(collector) = &self.collector {
            collector.transfer(&crate::telemetry::TransferEvent {
                group: self.telemetry_group,
                src,
                dst,
                bytes,
                cycles,
            });
        }
        cycles
    }

    /// Resolves a binary operation's operands to one executing shard: the
    /// operands' common shard, else the shard of the larger operand — the
    /// paper's streaming model already bills the operands' read-out; what a
    /// multi-cube machine adds is moving the smaller operand to the data of
    /// the larger one (§8.4 "Harnessing Parallelism"). An in-place form pins
    /// the result-carrying operand `a`, which must stay put. When the
    /// operands live on different shards, the moving operand is transferred
    /// over the links and staged as a temporary replica on the executing
    /// shard, which the caller settles.
    fn resolve_binary(&mut self, op: SetOp) -> ResolvedBinary {
        let at_a = self.locate(op.a);
        let at_b = self.locate(op.b);
        let bits = |(shard, local): (usize, SetId)| self.shards[shard].repr(local).storage_bits();
        let move_b = at_a.0 == at_b.0 || op.dest == Dest::InPlace || bits(at_b) <= bits(at_a);
        let ((dst, stay_local), (src, moved_local)) =
            if move_b { (at_a, at_b) } else { (at_b, at_a) };
        let temp = (src != dst).then(|| {
            // Stage the replica's slot first, then price the transfer that
            // fills it: the transfer writes the replica on the destination's
            // overlap timeline, so the consuming operation waits for the
            // operand to actually arrive (RAW) instead of racing its own
            // transfer.
            let replica = self.shards[src].repr(moved_local).clone();
            let bytes = replica.storage_bits().div_ceil(8) as u64;
            let temp = self.shards[dst].create(replica);
            // The transfer cycles are attributed to the executing shard,
            // which waits for the operand to arrive, and are handed to that
            // shard's overlap timeline as lane work *writing* the replica: on
            // a pipelined inner engine the wait occupies one virtual vault
            // lane and independent instructions keep flowing instead of the
            // whole machine stalling. No work counters are charged there —
            // the ledger owns the cost — but whatever the shard's timeline
            // records (makespan growth, a WAW stall behind the replica's
            // create) reaches the aggregate like every other counter.
            let cycles = self.ledger_transfer(src, dst, bytes);
            self.shards[dst].absorb_lane_work(cycles, &[temp]);
            temp
        });
        let other = temp.unwrap_or(moved_local);
        let (a, b) = if move_b {
            (stay_local, other)
        } else {
            (other, stay_local)
        };
        ResolvedBinary {
            shard: dst,
            op: SetOp { a, b, ..op },
            temp,
        }
    }

    /// Turns what a shard produced into what the caller sees: a set a shard
    /// created gets its global ID (and counts toward that shard's created
    /// load), a count passes through.
    fn publish(&mut self, shard: usize, outcome: Outcome) -> Outcome {
        match outcome {
            Outcome::Set(local) => {
                self.created_load[shard] += self.shards[shard].repr(local).len() as u64;
                Outcome::Set(self.register_global(shard, local))
            }
            counted @ Outcome::Count(_) => counted,
        }
    }

    /// Operations staged per [`Self::execute`] window: small enough that the
    /// staged replicas alive at once stay within the shard allocators' hot
    /// slot-reuse footprint.
    const EXECUTE_WINDOW: usize = 1024;

    /// Executes a batch of independent binary operations a window at a time,
    /// each shard's share of a window run back to back.
    ///
    /// The batch runs as staged/run **windows** and settles like any other
    /// call, once at the end:
    ///
    /// 1. **Stage a window** (batch order): operands of the next
    ///    `EXECUTE_WINDOW` (1024) operations are resolved and cross-shard
    ///    transfers are priced exactly as the per-op path does — the smaller
    ///    operand crosses the link and is staged as a replica on the
    ///    executing shard. Each operation is appended to its executing
    ///    shard's queue. Windowing bounds how many staged replicas are alive
    ///    at once, so the shard allocators keep recycling the same hot slots
    ///    instead of growing a batch-sized cold tail.
    /// 2. **Run the window** (shard order): every shard's queue runs against
    ///    that shard alone, in queue order. Stage-then-run is modelled state,
    ///    not a host detail: all of a window's replicas are staged before its
    ///    first operation runs, and that is what each shard's allocator and
    ///    timeline see.
    /// 3. **Settle** (once, after the last window): the cached aggregate is
    ///    dropped, to be folded at the next `stats()`. Materialised results
    ///    are then registered in batch order.
    ///
    /// Returns one [`Outcome`] per operation, in batch order: a materialised
    /// result's global ID, or a cardinality.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not name a live set.
    pub fn execute(&mut self, ops: &[BatchOp]) -> Vec<Outcome> {
        let n = self.shards.len();
        let mut results: Vec<Option<(usize, Outcome)>> = vec![None; ops.len()];
        let mut queues: Vec<Vec<(usize, ResolvedBinary)>> = (0..n).map(|_| Vec::new()).collect();
        for (w, window) in ops.chunks(Self::EXECUTE_WINDOW).enumerate() {
            for (off, &op) in window.iter().enumerate() {
                let site = self.resolve_binary(op.into());
                queues[site.shard].push((w * Self::EXECUTE_WINDOW + off, site));
            }
            for (engine, queue) in self.shards.iter_mut().zip(&mut queues) {
                for (index, site) in queue.drain(..) {
                    results[index] = Some((site.shard, site.run(engine)));
                }
            }
        }

        self.settle();

        results
            .into_iter()
            .map(|slot| {
                let (shard, outcome) = slot.expect("every batch op produces an outcome");
                self.publish(shard, outcome)
            })
            .collect()
    }

    /// Evaluates a batch of **counting** operations with the host kernels
    /// alone: results are computed directly on the shard-resident
    /// representations, in place and in batch order, without issuing
    /// instructions or advancing the simulated machine — no cycles, energy,
    /// traffic or metadata change.
    ///
    /// This is the raw-speed functional layer beneath the priced paths. Use
    /// it when only the answers matter (validation sweeps, result-only
    /// analyses, wall-clock kernel benchmarking); use [`Self::execute`] or
    /// the per-op [`SetEngine`] calls when the run must be priced. The priced
    /// paths compute every count through the same [`SetRepr`] kernels, so
    /// this evaluator returns exactly what they would.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not name a live set, or if the batch
    /// contains a materialising form.
    #[must_use]
    pub fn host_count_batch(&self, ops: &[BatchOp]) -> Vec<usize> {
        ops.iter()
            .map(|&op| {
                let op = SetOp::from(op);
                assert!(
                    op.dest == Dest::Count,
                    "host_count_batch evaluates counting forms only"
                );
                op.op.count(self.repr_of(op.a), self.repr_of(op.b))
            })
            .collect()
    }
}

impl ShardedEngine<SisaRuntime> {
    /// A sharded SISA platform: `shards` independent [`SisaRuntime`]s (each a
    /// vault group / cube slice of the configured platform) behind the given
    /// placement strategy, with the link model taken from the platform's PNM
    /// configuration.
    #[must_use]
    pub fn sisa(shards: usize, strategy: PartitionStrategy, config: SisaConfig) -> Self {
        let link = LinkModel::new(config.platform.pnm);
        let engines = (0..shards.max(1))
            .map(|_| SisaRuntime::new(config))
            .collect();
        Self::from_shards(engines, strategy, link)
    }

    /// Attaches a telemetry collector to the wrapper and every shard:
    /// shard `i` reports instruction events under track group
    /// `group_base + i`, and the wrapper reports link-transfer events under
    /// `group_base`. Collectors are strictly observers (results, work
    /// counters and energy are bit-exact with or without one).
    pub fn attach_collector(
        &mut self,
        collector: crate::telemetry::SharedCollector,
        group_base: u32,
    ) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.attach_collector(collector.clone(), group_base + i as u32);
        }
        self.collector = Some(collector);
        self.telemetry_group = group_base;
    }

    /// Detaches the collector from the wrapper and every shard.
    pub fn detach_collector(&mut self) {
        for shard in &mut self.shards {
            let _ = shard.detach_collector();
        }
        self.collector = None;
    }
}

impl<E: SetEngine> SetEngine for ShardedEngine<E> {
    fn backend_name(&self) -> &'static str {
        "sharded"
    }

    fn set_universe(&mut self, n: usize) {
        self.universe = self.universe.max(n);
        for shard in &mut self.shards {
            shard.set_universe(n);
        }
        self.settle();
    }

    fn universe(&self) -> usize {
        self.universe
    }

    fn stats(&self) -> &ExecStats {
        self.folded.get_or_init(|| self.fold())
    }

    fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_stats();
        }
        self.traffic = LinkTraffic::new(self.shards.len());
        self.task_mark = 0;
        self.settle();
    }

    /// The live global IDs. Shards handed to [`ShardedEngine::from_shards`]
    /// may already hold sets no global ID names; those are not counted.
    fn live_sets(&self) -> usize {
        self.placement.iter().filter(|slot| slot.is_some()).count()
    }

    fn create(&mut self, repr: SetRepr) -> SetId {
        let global = self.allocate_global();
        let shard = self
            .strategy
            .shard_for(global.raw(), self.universe, &self.created_load);
        self.created_load[shard] += repr.len() as u64;
        let local = self.shards[shard].create(repr);
        self.settle();
        self.placement[global.raw() as usize] = Some((shard, local));
        global
    }

    fn clone_set(&mut self, id: SetId) -> SetId {
        let (shard, local) = self.locate(id);
        self.created_load[shard] += self.shards[shard].repr(local).len() as u64;
        let new_local = self.shards[shard].clone_set(local);
        self.settle();
        self.register_global(shard, new_local)
    }

    fn delete(&mut self, id: SetId) {
        let (shard, local) = self.locate(id);
        self.shards[shard].delete(local);
        self.settle();
        crate::slots::release(&mut self.placement, &mut self.free_ids, id);
    }

    fn cardinality(&mut self, id: SetId) -> usize {
        let (shard, local) = self.locate(id);
        let out = self.shards[shard].cardinality(local);
        self.settle();
        out
    }

    fn contains(&mut self, id: SetId, v: Vertex) -> bool {
        let (shard, local) = self.locate(id);
        let out = self.shards[shard].contains(local, v);
        self.settle();
        out
    }

    fn members(&mut self, id: SetId) -> Vec<Vertex> {
        let (shard, local) = self.locate(id);
        let out = self.shards[shard].members(local);
        self.settle();
        out
    }

    fn repr(&self, id: SetId) -> &SetRepr {
        let (shard, local) = self.locate(id);
        self.shards[shard].repr(local)
    }

    fn insert(&mut self, id: SetId, v: Vertex) -> bool {
        let (shard, local) = self.locate(id);
        let out = self.shards[shard].insert(local, v);
        self.settle();
        out
    }

    fn remove(&mut self, id: SetId, v: Vertex) -> bool {
        let (shard, local) = self.locate(id);
        let out = self.shards[shard].remove(local, v);
        self.settle();
        out
    }

    crate::engine::named_binary_ops!();

    fn apply(&mut self, op: SetOp) -> Outcome {
        let site = self.resolve_binary(op);
        let outcome = site.run(&mut self.shards[site.shard]);
        self.settle();
        if op.dest == Dest::InPlace {
            // The shard answered with its local ID of `A`, which did not move.
            Outcome::Set(op.a)
        } else {
            self.publish(site.shard, outcome)
        }
    }

    fn host_ops(&mut self, n: u64) {
        // Host-side scalar work executes on the host core, modelled next to
        // shard 0.
        self.shards[0].host_ops(n);
        self.settle();
    }

    fn task_begin(&mut self) {
        self.task_mark = self.total_cycles();
    }

    fn task_end(&mut self) -> TaskRecord {
        // Task records are compute-only, like the flat SISA runtime's: a task
        // can span shards, so inner task boundaries are never delegated, and
        // per-task stall/DRAM components an inner engine would report (e.g.
        // `HostEngine`) are not reconstructed. Sharding targets the PIM
        // platform, whose cost models fold memory time into cycles; wrap
        // `HostEngine`s only where `schedule_cpu`'s bandwidth-contention
        // modelling is not needed.
        TaskRecord::compute_only(self.total_cycles() - self.task_mark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SisaConfig;

    fn sharded(n: usize, strategy: PartitionStrategy) -> ShardedEngine<SisaRuntime> {
        let mut e = ShardedEngine::sisa(n, strategy, SisaConfig::default());
        e.set_universe(256);
        e
    }

    /// A workload touching every trait method family.
    fn run_workload<E: SetEngine>(engine: &mut E) -> Vec<Vec<Vertex>> {
        let mut observed = Vec::new();
        let a = engine.create_sorted([1, 2, 3, 40, 90]);
        let b = engine.create_dense([2, 3, 4, 80]);
        let c = engine.create_sorted([3, 4, 5, 6]);
        engine.task_begin();
        let i = engine.intersect(a, b);
        let u = engine.union(b, c);
        let d = engine.difference(c, a);
        observed.push(engine.members(i));
        observed.push(engine.members(u));
        observed.push(engine.members(d));
        observed.push(vec![engine.intersect_count(a, c) as Vertex]);
        observed.push(vec![engine.union_count(a, b) as Vertex]);
        observed.push(vec![engine.difference_count(b, c) as Vertex]);
        engine.union_assign(d, b);
        engine.insert(d, 100);
        engine.remove(d, 2);
        observed.push(engine.members(d));
        observed.push(vec![engine.cardinality(d) as Vertex]);
        observed.push(vec![Vertex::from(engine.contains(d, 100))]);
        let k = engine.clone_set(d);
        observed.push(engine.members(k));
        engine.host_ops(13);
        let record = engine.task_end();
        observed.push(vec![Vertex::from(record.cycles > 0)]);
        engine.delete(i);
        engine.delete(u);
        engine.delete(k);
        observed
    }

    #[test]
    fn one_shard_matches_the_flat_runtime_cycle_for_cycle() {
        for strategy in PartitionStrategy::ALL {
            let mut flat = SisaRuntime::with_defaults();
            flat.set_universe(256);
            let from_flat = run_workload(&mut flat);

            let mut one = sharded(1, strategy);
            let from_sharded = run_workload(&mut one);

            assert_eq!(from_flat, from_sharded, "{strategy:?}");
            assert_eq!(flat.stats(), one.stats(), "{strategy:?}");
            assert_eq!(flat.live_sets(), one.live_sets());
            assert_eq!(one.traffic().cross_ops, 0);
            assert_eq!(one.stats().link_cycles, 0);
        }
    }

    #[test]
    fn all_strategies_and_shard_counts_agree_with_the_flat_runtime() {
        let mut flat = SisaRuntime::with_defaults();
        flat.set_universe(256);
        let reference = run_workload(&mut flat);
        for strategy in PartitionStrategy::ALL {
            for n in [2usize, 3, 8] {
                let mut engine = sharded(n, strategy);
                let observed = run_workload(&mut engine);
                assert_eq!(reference, observed, "{strategy:?} x{n}");
                assert_eq!(engine.live_sets(), flat.live_sets());
            }
        }
    }

    #[test]
    fn cross_shard_operations_charge_link_transfers() {
        let mut engine = sharded(2, PartitionStrategy::Modulo);
        let a = engine.create_sorted([1, 2, 3]); // id 0 -> shard 0
        let b = engine.create_sorted([2, 3, 4]); // id 1 -> shard 1
        assert_ne!(engine.shard_of(a), engine.shard_of(b));
        let c = engine.intersect(a, b);
        assert_eq!(engine.members(c), vec![2, 3]);
        assert_eq!(engine.traffic().cross_ops, 1);
        assert!(engine.stats().link_cycles > 0);
        assert!(engine.stats().link_bytes > 0);
        assert_eq!(
            engine.traffic().cycles_by_shard.iter().sum::<u64>(),
            engine.stats().link_cycles
        );
        // Same-shard operations stay free of link charges.
        let d = engine.create_sorted([5, 6]); // id 3 -> shard 1... depends on ids
        let before = engine.stats().link_bytes;
        let _ = engine.intersect_count(d, d);
        assert_eq!(engine.stats().link_bytes, before);
    }

    #[test]
    fn the_smaller_operand_is_the_one_transferred() {
        let mut engine = sharded(2, PartitionStrategy::Modulo);
        let small = engine.create_sorted([1, 2]); // shard 0
        let large = engine.create_sorted((0..200).collect::<Vec<_>>()); // shard 1
        let result = engine.intersect(small, large);
        // Only the small operand's bytes moved (2 elements * 4 bytes).
        assert_eq!(engine.stats().link_bytes, 8);
        assert_eq!(engine.traffic().bytes, 8);
        // The result lives with the large operand.
        assert_eq!(engine.shard_of(result), engine.shard_of(large));
    }

    #[test]
    fn in_place_forms_execute_on_the_mutated_operand_shard() {
        let mut engine = sharded(2, PartitionStrategy::Modulo);
        let a = engine.create_sorted([1, 2, 3, 4, 5, 6, 7, 8]); // shard 0
        let big = engine.create_sorted((0..100).collect::<Vec<_>>()); // shard 1
        let home = engine.shard_of(a);
        engine.intersect_assign(a, big);
        assert_eq!(engine.shard_of(a), home, "a must not migrate");
        assert_eq!(engine.members(a), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // The (larger) right operand was transferred because a is pinned.
        assert_eq!(engine.stats().link_bytes, 400);
    }

    #[test]
    fn link_transfers_become_lane_work_on_the_receiving_shard() {
        let mut engine = sharded(2, PartitionStrategy::Modulo);
        let a = engine.create_sorted([1, 2, 3]); // shard 0
        let b = engine.create_sorted((0..50).collect::<Vec<_>>()); // shard 1
        let c = engine.intersect(a, b); // the smaller operand crosses the link
        assert_eq!(engine.members(c), vec![1, 2, 3]);
        let dst = engine.shard_of(b);
        let waited = engine.traffic().cycles_by_shard[dst];
        assert!(waited > 0);
        // The wait was absorbed into the receiving shard's overlap timeline:
        // at the default issue depth (1) the inner engine serialises it, so
        // its makespan is its own work plus the link cycles it waited for —
        // while its work counters stay untouched by the transfer.
        assert_eq!(
            engine.shard_stats(dst).makespan_cycles,
            engine.shard_stats(dst).total_cycles() + waited
        );
        // The aggregate's makespan view tracks the slowest shard.
        assert_eq!(
            engine.stats().makespan_cycles,
            (0..engine.shard_count())
                .map(|s| engine.shard_stats(s).makespan_cycles)
                .max()
                .unwrap()
        );
    }

    #[test]
    fn pipelined_shards_keep_consumers_behind_their_transfers() {
        // On pipelined inner engines the transfer must act as a producer of
        // the staged replica: the consuming operation stalls until the
        // operand has actually crossed the link, rather than racing its own
        // transfer on a free lane.
        let mut engine = ShardedEngine::sisa(
            2,
            PartitionStrategy::Modulo,
            SisaConfig::with_pipeline(8, 4),
        );
        engine.set_universe(2048);
        let small = engine.create_sorted([1, 2, 3]); // shard 0
        let large = engine.create_sorted((0..1000).collect::<Vec<_>>()); // shard 1
        let _ = engine.intersect(small, large); // the small operand crosses
        let dst = engine.shard_of(large);
        let waited = engine.traffic().cycles_by_shard[dst];
        assert!(waited > 0);
        // The consumer's RAW stall on the replica covers at least the whole
        // transfer duration (the transfer finishes no earlier than `waited`
        // cycles in, and the intersect could otherwise have started at ~0).
        assert!(
            engine.shard_stats(dst).dep_stall_cycles >= waited,
            "consumer stalled {} cycles, transfer took {}",
            engine.shard_stats(dst).dep_stall_cycles,
            waited
        );
        // Every stall recorded on a shard timeline — including any recorded
        // by the absorbed transfer itself — survives into the aggregate.
        let summed: u64 = (0..engine.shard_count())
            .map(|s| engine.shard_stats(s).dep_stall_cycles)
            .sum();
        assert_eq!(engine.stats().dep_stall_cycles, summed);
    }

    #[test]
    fn aggregate_stats_are_conserved_across_shards() {
        let mut engine = sharded(4, PartitionStrategy::DegreeBalanced);
        let _ = run_workload(&mut engine);
        let mut recomputed = ExecStats::default();
        for shard in 0..engine.shard_count() {
            recomputed.merge(engine.shard_stats(shard));
        }
        recomputed.link_cycles += engine.traffic().cycles;
        recomputed.link_bytes += engine.traffic().bytes;
        recomputed.energy_nj += engine.traffic().energy_nj;
        assert_eq!(recomputed, *engine.stats());
    }

    /// Two runtimes that each created two sets and intersected them.
    fn used_shards() -> Vec<SisaRuntime> {
        (0..2)
            .map(|_| {
                let mut rt = SisaRuntime::with_defaults();
                rt.set_universe(256);
                let a = rt.create_sorted([1, 2, 3]);
                let b = rt.create_sorted([2, 3, 4]);
                let _ = rt.intersect(a, b);
                assert!(rt.stats().energy_nj > 0.0);
                rt
            })
            .collect()
    }

    fn wrap(shards: Vec<SisaRuntime>) -> ShardedEngine<SisaRuntime> {
        let link = LinkModel::new(SisaConfig::default().platform.pnm);
        ShardedEngine::from_shards(shards, PartitionStrategy::Modulo, link)
    }

    #[test]
    fn energy_counts_from_the_wrap_like_every_other_counter() {
        let mut engine = wrap(used_shards());
        assert_eq!(engine.stats().energy_nj, 0.0, "nothing ran through it yet");

        engine.set_universe(256);
        let a = engine.create_sorted([1, 2, 3]); // shard 0
        let b = engine.create_sorted([2, 3, 4, 5]); // shard 1
        let _ = engine.intersect_count(a, b);
        assert_eq!(engine.traffic().cross_ops, 1);
        let mut expected = 0.0;
        for shard in 0..engine.shard_count() {
            expected += engine.shard_stats(shard).energy_nj;
        }
        expected += engine.traffic().energy_nj;
        assert_eq!(engine.stats().energy_nj.to_bits(), expected.to_bits());
    }

    #[test]
    fn schedule_runs_one_task_per_shard() {
        let mut engine = sharded(3, PartitionStrategy::Modulo);
        let _ = run_workload(&mut engine);
        let schedule = engine.schedule();
        assert_eq!(schedule.threads, 3);
        assert_eq!(schedule.per_thread.len(), 3);
        let loads: Vec<u64> = (0..3)
            .map(|s| engine.shard_stats(s).total_cycles() + engine.traffic().cycles_by_shard[s])
            .collect();
        assert_eq!(
            schedule.makespan_cycles,
            loads.iter().copied().max().unwrap()
        );
        assert!(schedule.imbalance() >= 1.0);
        // Link cycles are attributed to shards, so the per-shard loads add up
        // to the full aggregate — communication is not free in the makespan.
        assert_eq!(schedule.total_task_cycles, engine.stats().total_cycles());
    }

    #[test]
    fn from_shards_resets_the_shards_it_takes_over() {
        let mut engine = wrap(used_shards());
        assert_eq!(*engine.stats(), ExecStats::default());
        for shard in 0..engine.shard_count() {
            assert_eq!(*engine.shard_stats(shard), ExecStats::default());
        }
        engine.set_universe(256);
        let a = engine.create_sorted([1, 5, 9]);
        let b = engine.create_sorted([5, 9, 12]);
        assert_ne!(engine.shard_of(a), engine.shard_of(b), "a cross-shard op");
        assert_eq!(engine.intersect_count(a, b), 2);
        assert_eq!(
            engine.schedule().total_task_cycles,
            engine.stats().total_cycles()
        );
    }

    #[test]
    fn live_sets_counts_global_ids_not_sets_the_shards_held_before() {
        let shards = used_shards();
        let held: usize = shards.iter().map(SetEngine::live_sets).sum();
        assert_eq!(held, 6, "two seeds and their intersection per shard");
        let mut engine = wrap(shards);
        assert_eq!(engine.live_sets(), 0);
        let a = engine.create_sorted([4, 5]);
        let b = engine.create_sorted([6]);
        assert_eq!(engine.live_sets(), 2);
        engine.delete(a);
        assert_eq!(engine.live_sets(), 1);
        engine.delete(b);
        assert_eq!(engine.live_sets(), 0);
    }

    #[test]
    fn reset_stats_clears_shards_and_traffic() {
        let mut engine = sharded(2, PartitionStrategy::Modulo);
        let a = engine.create_sorted([1, 2]);
        let b = engine.create_sorted([2, 3]);
        let _ = engine.intersect(a, b);
        assert!(engine.stats().total_cycles() > 0);
        engine.reset_stats();
        assert_eq!(*engine.stats(), ExecStats::default());
        assert_eq!(engine.traffic().cross_ops, 0);
        for shard in 0..engine.shard_count() {
            assert_eq!(engine.shard_stats(shard).total_cycles(), 0);
        }
        // The engine still works after a reset.
        assert_eq!(engine.members(a), vec![1, 2]);
    }

    /// Seed sets plus a batch touching every [`BatchOp`] form, with both
    /// same-shard and cross-shard operand pairs.
    fn batch_fixture(engine: &mut ShardedEngine<SisaRuntime>) -> (Vec<SetId>, Vec<BatchOp>) {
        let ids = vec![
            engine.create_sorted([1, 2, 3, 40, 90]),
            engine.create_dense([2, 3, 4, 80]),
            engine.create_sorted([3, 4, 5, 6]),
            engine.create_sorted((0..120).collect::<Vec<_>>()),
        ];
        let ops = vec![
            BatchOp::Intersect(ids[0], ids[1]),
            BatchOp::Union(ids[1], ids[2]),
            BatchOp::Difference(ids[3], ids[0]),
            BatchOp::IntersectCount(ids[0], ids[3]),
            BatchOp::UnionCount(ids[1], ids[3]),
            BatchOp::DifferenceCount(ids[2], ids[1]),
            BatchOp::Intersect(ids[2], ids[3]),
        ];
        (ids, ops)
    }

    #[test]
    fn execute_matches_the_per_op_results() {
        let mut batched = sharded(3, PartitionStrategy::Modulo);
        let (_, ops) = batch_fixture(&mut batched);
        let results = batched.execute(&ops);

        let mut reference = sharded(3, PartitionStrategy::Modulo);
        let (ids, _) = batch_fixture(&mut reference);
        let expected_sets = [
            reference.intersect(ids[0], ids[1]),
            reference.union(ids[1], ids[2]),
            reference.difference(ids[3], ids[0]),
        ];
        let expected_counts = [
            reference.intersect_count(ids[0], ids[3]),
            reference.union_count(ids[1], ids[3]),
            reference.difference_count(ids[2], ids[1]),
        ];
        let last = reference.intersect(ids[2], ids[3]);

        for (i, &id) in expected_sets.iter().enumerate() {
            assert_eq!(
                batched.members(results[i].set()),
                reference.members(id),
                "op {i}"
            );
        }
        for (i, &count) in expected_counts.iter().enumerate() {
            assert_eq!(results[i + 3].count(), count, "op {}", i + 3);
        }
        assert_eq!(batched.members(results[6].set()), reference.members(last));
        // Staged replicas were all released: only seeds + materialised
        // results remain live.
        assert_eq!(batched.live_sets(), reference.live_sets());
    }

    #[test]
    fn repr_of_reads_the_shard_resident_representation() {
        let mut engine = sharded(3, PartitionStrategy::Modulo);
        let a = engine.create_sorted([1, 5, 9]);
        let b = engine.create_dense([2, 4]);
        let before = *engine.stats();
        assert_eq!(engine.repr_of(a).to_sorted_vec(), vec![1, 5, 9]);
        assert_eq!(engine.repr_of(b).to_sorted_vec(), vec![2, 4]);
        assert_eq!(*engine.stats(), before, "inspection prices nothing");
    }

    #[test]
    fn host_count_batch_matches_the_priced_paths_and_prices_nothing() {
        let mut engine = sharded(3, PartitionStrategy::Modulo);
        let (ids, _) = batch_fixture(&mut engine);
        let ops = vec![
            BatchOp::IntersectCount(ids[0], ids[3]),
            BatchOp::UnionCount(ids[1], ids[3]),
            BatchOp::DifferenceCount(ids[2], ids[1]),
            BatchOp::IntersectCount(ids[2], ids[2]),
        ];
        let before = *engine.stats();
        let before_live = engine.live_sets();
        let counts = engine.host_count_batch(&ops);
        assert_eq!(*engine.stats(), before, "functional layer advances nothing");
        assert_eq!(engine.live_sets(), before_live);
        let expected = vec![
            engine.intersect_count(ids[0], ids[3]),
            engine.union_count(ids[1], ids[3]),
            engine.difference_count(ids[2], ids[1]),
            engine.intersect_count(ids[2], ids[2]),
        ];
        assert_eq!(counts, expected);
    }

    #[test]
    #[should_panic(expected = "counting forms only")]
    fn host_count_batch_rejects_materialising_forms() {
        let mut engine = sharded(2, PartitionStrategy::Modulo);
        let a = engine.create_sorted([1, 2]);
        let b = engine.create_sorted([2, 3]);
        let _ = engine.host_count_batch(&[BatchOp::Intersect(a, b)]);
    }

    #[test]
    fn execute_conserves_the_aggregate_like_the_per_op_path() {
        let mut engine = sharded(4, PartitionStrategy::DegreeBalanced);
        let (_, ops) = batch_fixture(&mut engine);
        let _ = engine.execute(&ops);
        let mut recomputed = ExecStats::default();
        for shard in 0..engine.shard_count() {
            recomputed.merge(engine.shard_stats(shard));
        }
        recomputed.link_cycles += engine.traffic().cycles;
        recomputed.link_bytes += engine.traffic().bytes;
        recomputed.energy_nj += engine.traffic().energy_nj;
        assert_eq!(recomputed, *engine.stats());
    }

    #[test]
    fn freed_global_ids_are_reused() {
        let mut engine = sharded(2, PartitionStrategy::Modulo);
        let a = engine.create_sorted([1]);
        engine.delete(a);
        let b = engine.create_sorted([2]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn using_a_deleted_global_id_panics() {
        let mut engine = sharded(2, PartitionStrategy::Modulo);
        let a = engine.create_sorted([1]);
        engine.delete(a);
        let _ = engine.cardinality(a);
    }

    #[test]
    fn strategies_place_graph_sets_differently() {
        // 8 sets over 4 shards with skewed sizes: modulo round-robins, range
        // blocks, degree-balanced equalises created cardinality.
        let sizes = [100usize, 90, 80, 1, 1, 1, 1, 1];
        let mut placements = Vec::new();
        for strategy in PartitionStrategy::ALL {
            let mut engine = ShardedEngine::sisa(4, strategy, SisaConfig::default());
            engine.set_universe(8);
            let ids: Vec<SetId> = sizes
                .iter()
                .map(|&s| engine.create_sorted(0..s as Vertex))
                .collect();
            placements.push(
                ids.iter()
                    .map(|&id| engine.shard_of(id))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(placements[0], vec![0, 1, 2, 3, 0, 1, 2, 3]); // modulo
        assert_eq!(placements[1], vec![0, 0, 1, 1, 2, 2, 3, 3]); // range
                                                                 // Degree-balanced: the three big sets land on three different shards.
        let degree = &placements[2];
        assert_eq!(degree[0], 0);
        assert_eq!(degree[1], 1);
        assert_eq!(degree[2], 2);
        assert_eq!(degree[3], 3);
    }
}
