//! The SISA Controller Unit (SCU).
//!
//! The SCU "receives SISA instructions from the CPU, and it appropriately
//! schedules their execution on SISA-PNM and SISA-PUM" (§3). Its decisions
//! (§8.2) are:
//!
//! 1. **PUM vs. PNM** — two dense bitvectors are always processed in situ;
//!    everything else runs on the logic-layer cores.
//! 2. **Merge vs. galloping** — for two sparse arrays the SCU consults the
//!    §8.3 performance models (or a fixed size-ratio threshold / forced
//!    variant, for the sensitivity studies) and picks the cheaper algorithm.
//!
//! Each dispatch also charges the SCU's own overheads: a fixed decode delay
//! plus set-metadata lookups that hit in the SMB or fall through to a memory
//! access (§8.4).
//!
//! The §8.3 sparse costs are closed forms over operand lengths, and each
//! splits into terms of one length alone: merge streaming depends on the
//! longer operand only, a galloping search on the larger one, SA ∩ DB
//! probing on the sparse length plus a per-bit probe of the universe. The
//! SCU keeps one table per such term, indexed by length and filled from the
//! closed form itself the first time a length is priced, so a dispatch looks
//! its costs up instead of evaluating floating-point divides and roundings;
//! every entry is the closed form's value, bit for bit.

use crate::config::VariantSelection;
use crate::metadata::{SetMetadata, SmbCache};
use crate::{SetId, Vertex};
use sisa_pim::pum::BulkOp;
use sisa_pim::{Cycles, EnergyModel, PimPlatform, PnmModel, PumModel};
use sisa_sets::{RepresentationKind, SetRepr};

/// The abstract binary set operation being dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinarySetOp {
    /// `A ∩ B`.
    Intersection,
    /// `A ∪ B`.
    Union,
    /// `A \ B`.
    Difference,
}

impl BinarySetOp {
    /// The in-situ bulk bitwise primitive implementing this operation on two
    /// dense bitvectors (§8.1).
    #[must_use]
    pub fn bulk_op(self) -> BulkOp {
        match self {
            Self::Intersection => BulkOp::And,
            Self::Union => BulkOp::Or,
            Self::Difference => BulkOp::AndNot,
        }
    }

    /// Functionally applies the operation to two representations. A result
    /// the kernels write as a sparse array takes over `buf`'s buffer (see
    /// [`SetRepr::intersect_into`]); otherwise `buf` is left as it was.
    #[must_use]
    pub fn combine(self, a: &SetRepr, b: &SetRepr, buf: &mut Vec<Vertex>) -> SetRepr {
        match self {
            Self::Intersection => a.intersect_into(b, buf),
            Self::Union => a.union(b),
            Self::Difference => a.difference_into(b, buf),
        }
    }

    /// The cardinality of the operation's result, without materialising it.
    #[must_use]
    pub fn count(self, a: &SetRepr, b: &SetRepr) -> usize {
        match self {
            Self::Intersection => a.intersect_count(b),
            Self::Union => a.union_count(b),
            Self::Difference => a.difference_count(b),
        }
    }
}

/// Which memory accelerator executed an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionTarget {
    /// In-situ bulk bitwise DRAM processing.
    Pum,
    /// Near-memory logic-layer cores.
    Pnm,
}

/// The concrete execution variant the SCU selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionChoice {
    /// Bulk bitwise operation over dense bitvectors.
    PumBulk(BulkOp),
    /// Merge-based streaming over two sparse arrays.
    PnmMerge,
    /// Galloping (binary-search) processing of two sparse arrays.
    PnmGalloping,
    /// Per-element probing of a dense bitvector by a sparse array.
    PnmProbe,
    /// A direct single access (element update, membership, metadata).
    PnmDirect,
}

impl ExecutionChoice {
    /// The accelerator that executes this choice.
    #[must_use]
    pub fn target(self) -> ExecutionTarget {
        match self {
            Self::PumBulk(_) => ExecutionTarget::Pum,
            _ => ExecutionTarget::Pnm,
        }
    }
}

/// The outcome of dispatching one SISA instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DispatchOutcome {
    /// The execution variant chosen.
    pub choice: ExecutionChoice,
    /// Cycles spent in the SCU itself (decode + metadata lookups).
    pub scu_cycles: Cycles,
    /// Cycles spent executing the operation on the chosen accelerator.
    pub exec_cycles: Cycles,
    /// Estimated energy in nanojoules.
    pub energy_nj: f64,
    /// SMB hits incurred by this dispatch.
    pub smb_hits: u64,
    /// SMB misses incurred by this dispatch.
    pub smb_misses: u64,
}

impl DispatchOutcome {
    /// End-to-end latency of this dispatch: SCU front-end plus accelerator
    /// execution. This is the duration the instruction occupies a virtual
    /// vault lane in the scoreboarded issue queue; the same cycles are also
    /// absorbed into the per-unit work counters, so at issue depth 1 the
    /// queue's makespan equals the serial total exactly.
    #[must_use]
    pub fn latency(&self) -> Cycles {
        self.scu_cycles + self.exec_cycles
    }
}

/// Lengths below which the SCU tabulates a per-length cost; a longer operand
/// is priced from the closed form directly, so a table holds at most this
/// many entries.
const TABLE_LENGTHS: usize = 1 << 16;

/// One per-length cost term, tabulated: `costs[len]` is the term's closed
/// form at `len`, for every length up to the longest priced so far.
#[derive(Clone, Debug, Default)]
struct LengthTable {
    costs: Vec<Cycles>,
}

impl LengthTable {
    /// The term at `len`: `cost(len)`, looked up once it has been computed.
    #[inline]
    fn get(&mut self, len: usize, cost: impl Fn(usize) -> Cycles) -> Cycles {
        match self.costs.get(len) {
            Some(&cycles) => cycles,
            None if len < TABLE_LENGTHS => self.fill(len, cost),
            None => cost(len),
        }
    }

    /// Extends the table through `len` from the closed form.
    #[cold]
    fn fill(&mut self, len: usize, cost: impl Fn(usize) -> Cycles) -> Cycles {
        self.costs.extend((self.costs.len()..=len).map(cost));
        self.costs[len]
    }
}

/// The SISA Controller Unit.
#[derive(Clone, Debug)]
pub struct Scu {
    platform: PimPlatform,
    pnm: PnmModel,
    pum: PumModel,
    smb: SmbCache,
    selection: VariantSelection,
    energy: EnergyModel,
    /// [`PnmModel::streaming_cost`] by the longer operand's length.
    streaming: LengthTable,
    /// [`PnmModel::galloping_search_cost`] by the larger operand's length.
    search: LengthTable,
    /// [`PnmModel::probe_stream_cost`] by the sparse operand's length.
    probe_stream: LengthTable,
    /// The last universe probed and [`PnmModel::bit_probe_cost`] at it.
    bit_probe: Option<(usize, Cycles)>,
}

impl Scu {
    /// Creates an SCU for the given platform and variant-selection policy.
    #[must_use]
    pub fn new(platform: PimPlatform, selection: VariantSelection) -> Self {
        Self {
            platform,
            pnm: PnmModel::new(platform.pnm),
            pum: PumModel::new(platform.pum),
            smb: SmbCache::new(platform.smb_entries),
            selection,
            energy: EnergyModel::default(),
            streaming: LengthTable::default(),
            search: LengthTable::default(),
            probe_stream: LengthTable::default(),
            bit_probe: None,
        }
    }

    /// The platform this SCU drives.
    #[must_use]
    pub fn platform(&self) -> &PimPlatform {
        &self.platform
    }

    /// The in-situ cost model.
    #[must_use]
    pub(crate) fn pum_model(&self) -> &PumModel {
        &self.pum
    }

    /// Charges SCU decode plus metadata lookups for the given operand set IDs.
    fn frontend(&mut self, ids: &[SetId]) -> (Cycles, u64, u64) {
        let mut cycles = self.platform.scu_delay;
        let mut hits = 0;
        let mut misses = 0;
        for &id in ids {
            if !self.platform.smb_enabled {
                // Without the SMB every lookup is an SM memory access.
                cycles += self.platform.sm_miss_latency;
                misses += 1;
                continue;
            }
            if self.smb.lookup(id) {
                cycles += self.platform.smb_hit_latency;
                hits += 1;
            } else {
                cycles += self.platform.sm_miss_latency;
                misses += 1;
            }
        }
        (cycles, hits, misses)
    }

    /// Removes a deleted set from the SMB.
    pub fn invalidate(&mut self, id: SetId) {
        self.smb.invalidate(id);
    }

    /// Marks a freshly created set's metadata as resident in the SMB (the SCU
    /// wrote the entry itself, so the first lookup should not be a miss).
    pub fn prime(&mut self, id: SetId) {
        if self.platform.smb_enabled {
            self.smb.prime(id);
        }
    }

    /// [`PnmModel::streaming_cost`] of operands of `a_len` and `b_len`
    /// elements, which depends on the longer one only.
    pub(crate) fn streaming_cost(&mut self, a_len: usize, b_len: usize) -> Cycles {
        let pnm = self.pnm;
        self.streaming
            .get(a_len.max(b_len), |len| pnm.streaming_cost(len, 0))
    }

    /// [`PnmModel::random_access_cost`] of operands of `a_len` and `b_len`
    /// elements: a galloping search of the larger per element of the smaller.
    fn random_access_cost(&mut self, a_len: usize, b_len: usize) -> Cycles {
        let (small, large) = (a_len.min(b_len), a_len.max(b_len));
        let latency = self.pnm.config().dram_latency;
        if small == 0 {
            return latency;
        }
        let pnm = self.pnm;
        let search = self.search.get(large, |len| pnm.galloping_search_cost(len));
        latency + small as u64 * search
    }

    /// [`PnmModel::probe_cost`] of probing `sparse_len` elements into a
    /// dense bitvector of `db_bits` bits.
    fn probe_cost(&mut self, sparse_len: usize, db_bits: usize) -> Cycles {
        let bit_probe = match self.bit_probe {
            Some((bits, cycles)) if bits == db_bits => cycles,
            _ => {
                let cycles = self.pnm.bit_probe_cost(db_bits);
                self.bit_probe = Some((db_bits, cycles));
                cycles
            }
        };
        let pnm = self.pnm;
        let stream = self
            .probe_stream
            .get(sparse_len, |len| pnm.probe_stream_cost(len));
        stream + sparse_len as u64 * bit_probe
    }

    /// The merge-vs-galloping choice with the §8.3 cost of the chosen
    /// variant, each model evaluated at most once.
    fn sparse_variant(&mut self, a_len: usize, b_len: usize) -> (ExecutionChoice, Cycles) {
        let merge = |scu: &mut Self| (ExecutionChoice::PnmMerge, scu.streaming_cost(a_len, b_len));
        let gallop = |scu: &mut Self| {
            (
                ExecutionChoice::PnmGalloping,
                scu.random_access_cost(a_len, b_len),
            )
        };
        match self.selection {
            VariantSelection::AlwaysMerge => merge(self),
            VariantSelection::AlwaysGalloping => gallop(self),
            VariantSelection::SizeRatio(threshold) => {
                let small = a_len.min(b_len).max(1) as f64;
                let large = a_len.max(b_len) as f64;
                if large / small >= threshold {
                    gallop(self)
                } else {
                    merge(self)
                }
            }
            VariantSelection::PerformanceModel => {
                let (merge, gallop) = (merge(self), gallop(self));
                if gallop.1 < merge.1 {
                    gallop
                } else {
                    merge
                }
            }
        }
    }

    /// Dispatches a binary set operation (`∩`, `∪`, `\` or their counting
    /// twins) on operands described by their metadata.
    pub fn dispatch_binary(
        &mut self,
        op: BinarySetOp,
        count_only: bool,
        a_id: SetId,
        a: &SetMetadata,
        b_id: SetId,
        b: &SetMetadata,
    ) -> DispatchOutcome {
        let (scu_cycles, smb_hits, smb_misses) = self.frontend(&[a_id, b_id]);
        let universe_bits = a.universe.max(b.universe);
        let (choice, exec_cycles, energy_nj) = match (a.kind, b.kind) {
            (RepresentationKind::DenseBitvector, RepresentationKind::DenseBitvector) => {
                let bulk = op.bulk_op();
                let cycles = if count_only {
                    self.pum.bulk_op_count_cost(bulk, universe_bits)
                } else {
                    self.pum.bulk_op_cost(bulk, universe_bits)
                };
                let energy = self
                    .energy
                    .pum_energy(self.pum.row_activations(bulk, universe_bits));
                (ExecutionChoice::PumBulk(bulk), cycles, energy)
            }
            (RepresentationKind::DenseBitvector, _) | (_, RepresentationKind::DenseBitvector) => {
                let sparse_len = if a.kind == RepresentationKind::DenseBitvector {
                    b.cardinality
                } else {
                    a.cardinality
                };
                let mut cycles = self.probe_cost(sparse_len, universe_bits);
                let mut energy = self
                    .energy
                    .pnm_energy((sparse_len * 4) as u64, sparse_len as u64);
                // Union with a dense operand (and difference producing a dense
                // result) additionally row-clones the dense operand into the
                // result rows, an in-situ copy.
                if op != BinarySetOp::Intersection && !count_only {
                    cycles += self.pum.bulk_op_cost(BulkOp::Or, universe_bits);
                    energy += self
                        .energy
                        .pum_energy(self.pum.row_activations(BulkOp::Or, universe_bits));
                }
                (ExecutionChoice::PnmProbe, cycles, energy)
            }
            _ => {
                let (choice, cycles) = self.sparse_variant(a.cardinality, b.cardinality);
                let bytes = ((a.cardinality + b.cardinality) * 4) as u64;
                let energy = self
                    .energy
                    .pnm_energy(bytes, (a.cardinality + b.cardinality) as u64);
                (choice, cycles, energy)
            }
        };
        DispatchOutcome {
            choice,
            scu_cycles,
            exec_cycles,
            energy_nj,
            smb_hits,
            smb_misses,
        }
    }

    /// Dispatches a single-element operation (`A ∪ {x}`, `A \ {x}`, `x ∈ A`).
    pub fn dispatch_element(&mut self, id: SetId, meta: &SetMetadata) -> DispatchOutcome {
        let (scu_cycles, smb_hits, smb_misses) = self.frontend(&[id]);
        let exec_cycles = match meta.kind {
            // Setting / clearing / probing one bit: one DRAM access (§8.1).
            RepresentationKind::DenseBitvector => self.pum.bit_update_cost(),
            // Sorted arrays: a near-memory access plus the element shifting
            // the paper notes costs O(|A|); we charge the streaming cost of
            // half the array.
            RepresentationKind::SortedArray => {
                self.pnm.element_update_cost() + self.streaming_cost(meta.cardinality / 2, 0)
            }
        };
        DispatchOutcome {
            choice: ExecutionChoice::PnmDirect,
            scu_cycles,
            exec_cycles,
            energy_nj: self.energy.pnm_energy(64, 4),
            smb_hits,
            smb_misses,
        }
    }

    /// Dispatches a metadata-only operation (cardinality, create, delete,
    /// clone bookkeeping).
    pub fn dispatch_metadata(&mut self, ids: &[SetId]) -> DispatchOutcome {
        let (scu_cycles, smb_hits, smb_misses) = self.frontend(ids);
        DispatchOutcome {
            choice: ExecutionChoice::PnmDirect,
            scu_cycles,
            exec_cycles: 0,
            energy_nj: self.energy.pnm_energy(16, 1),
            smb_hits,
            smb_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_isa::SetId;

    fn meta(kind: RepresentationKind, cardinality: usize, universe: usize) -> SetMetadata {
        SetMetadata {
            kind,
            cardinality,
            universe,
            address: 0,
        }
    }

    fn scu() -> Scu {
        Scu::new(PimPlatform::default(), VariantSelection::PerformanceModel)
    }

    #[test]
    fn dense_dense_goes_to_pum() {
        let mut s = scu();
        let a = meta(RepresentationKind::DenseBitvector, 500, 10_000);
        let b = meta(RepresentationKind::DenseBitvector, 700, 10_000);
        let out = s.dispatch_binary(BinarySetOp::Intersection, false, SetId(1), &a, SetId(2), &b);
        assert_eq!(out.choice, ExecutionChoice::PumBulk(BulkOp::And));
        assert_eq!(out.choice.target(), ExecutionTarget::Pum);
        assert!(out.exec_cycles > 0);
        assert!(out.energy_nj > 0.0);
        assert_eq!(out.latency(), out.scu_cycles + out.exec_cycles);
    }

    #[test]
    fn sparse_dense_probes_on_pnm() {
        let mut s = scu();
        let a = meta(RepresentationKind::SortedArray, 50, 10_000);
        let b = meta(RepresentationKind::DenseBitvector, 4000, 10_000);
        let out = s.dispatch_binary(BinarySetOp::Intersection, true, SetId(1), &a, SetId(2), &b);
        assert_eq!(out.choice, ExecutionChoice::PnmProbe);
        assert_eq!(out.choice.target(), ExecutionTarget::Pnm);
    }

    #[test]
    fn sparse_sparse_picks_merge_or_gallop_by_size_ratio() {
        let mut s = scu();
        let similar_a = meta(RepresentationKind::SortedArray, 5_000, 100_000);
        let similar_b = meta(RepresentationKind::SortedArray, 6_000, 100_000);
        let out = s.dispatch_binary(
            BinarySetOp::Intersection,
            false,
            SetId(1),
            &similar_a,
            SetId(2),
            &similar_b,
        );
        assert_eq!(out.choice, ExecutionChoice::PnmMerge);

        let tiny = meta(RepresentationKind::SortedArray, 4, 100_000);
        let huge = meta(RepresentationKind::SortedArray, 900_000, 1_000_000);
        let out = s.dispatch_binary(
            BinarySetOp::Intersection,
            false,
            SetId(3),
            &tiny,
            SetId(4),
            &huge,
        );
        assert_eq!(out.choice, ExecutionChoice::PnmGalloping);
    }

    #[test]
    fn selection_policies_are_respected() {
        let platform = PimPlatform::default();
        let mut merge_only = Scu::new(platform, VariantSelection::AlwaysMerge);
        assert_eq!(
            merge_only.sparse_variant(1, 1_000_000).0,
            ExecutionChoice::PnmMerge
        );
        let mut gallop_only = Scu::new(platform, VariantSelection::AlwaysGalloping);
        assert_eq!(
            gallop_only.sparse_variant(500, 500).0,
            ExecutionChoice::PnmGalloping
        );
        let mut ratio = Scu::new(platform, VariantSelection::SizeRatio(5.0));
        assert_eq!(ratio.sparse_variant(10, 49).0, ExecutionChoice::PnmMerge);
        assert_eq!(
            ratio.sparse_variant(10, 51).0,
            ExecutionChoice::PnmGalloping
        );
    }

    /// What [`Scu::dispatch_binary`] must charge, computed from the PNM,
    /// PUM and energy models directly: the choice, the execution cycles and
    /// the energy's bits.
    fn priced_by_the_models(
        selection: VariantSelection,
        op: BinarySetOp,
        count_only: bool,
        a: &SetMetadata,
        b: &SetMetadata,
    ) -> (ExecutionChoice, Cycles, u64) {
        let platform = PimPlatform::default();
        let (pnm, pum) = (PnmModel::new(platform.pnm), PumModel::new(platform.pum));
        let energy = EnergyModel::default();
        let bits = a.universe.max(b.universe);
        let dense = |m: &SetMetadata| m.kind == RepresentationKind::DenseBitvector;
        let (choice, cycles, nj) = match (dense(a), dense(b)) {
            (true, true) => {
                let bulk = op.bulk_op();
                let cycles = if count_only {
                    pum.bulk_op_count_cost(bulk, bits)
                } else {
                    pum.bulk_op_cost(bulk, bits)
                };
                let nj = energy.pum_energy(pum.row_activations(bulk, bits));
                (ExecutionChoice::PumBulk(bulk), cycles, nj)
            }
            (true, false) | (false, true) => {
                let len = if dense(a) {
                    b.cardinality
                } else {
                    a.cardinality
                };
                let mut cycles = pnm.probe_cost(len, bits);
                let mut nj = energy.pnm_energy((len * 4) as u64, len as u64);
                if op != BinarySetOp::Intersection && !count_only {
                    cycles += pum.bulk_op_cost(BulkOp::Or, bits);
                    nj += energy.pum_energy(pum.row_activations(BulkOp::Or, bits));
                }
                (ExecutionChoice::PnmProbe, cycles, nj)
            }
            (false, false) => {
                let (x, y) = (a.cardinality, b.cardinality);
                let merge = (ExecutionChoice::PnmMerge, pnm.streaming_cost(x, y));
                let gallop = (ExecutionChoice::PnmGalloping, pnm.random_access_cost(x, y));
                let (choice, cycles) = match selection {
                    VariantSelection::AlwaysMerge => merge,
                    VariantSelection::AlwaysGalloping => gallop,
                    VariantSelection::SizeRatio(t) => {
                        if x.max(y) as f64 / x.min(y).max(1) as f64 >= t {
                            gallop
                        } else {
                            merge
                        }
                    }
                    VariantSelection::PerformanceModel => {
                        if gallop.1 < merge.1 {
                            gallop
                        } else {
                            merge
                        }
                    }
                };
                let nj = energy.pnm_energy(((x + y) * 4) as u64, (x + y) as u64);
                (choice, cycles, nj)
            }
        };
        (choice, cycles, nj.to_bits())
    }

    #[test]
    fn dispatch_prices_the_chosen_sparse_variant_under_every_policy() {
        let platform = PimPlatform::default();
        let pnm = PnmModel::new(platform.pnm);
        // Sizes at which the two §8.3 models cost exactly the same.
        let tie = (1..64)
            .flat_map(|a| (a..4_096).map(move |b| (a, b)))
            .find(|&(a, b)| pnm.streaming_cost(a, b) == pnm.random_access_cost(a, b))
            .expect("the models tie at some small size pair");
        assert_eq!(
            scu().sparse_variant(tie.0, tie.1).0,
            ExecutionChoice::PnmMerge,
            "a tie keeps merge"
        );
        // Every length through 4 096, and a few past the tables' reach; each
        // against a few partners, so both orders and both ends are priced.
        let lengths = (0..=4_096).chain([65_535, 65_536, 100_000, 250_000, 1_000_000]);
        let pairs: Vec<(usize, usize)> = lengths
            .flat_map(|n| [(n, n), (n, 3), (4_096 - n.min(4_096), n), (n, 1_000_000)])
            .chain([tie])
            .collect();
        let kinds = [
            RepresentationKind::SortedArray,
            RepresentationKind::DenseBitvector,
        ];
        let ops = [
            BinarySetOp::Intersection,
            BinarySetOp::Union,
            BinarySetOp::Difference,
        ];
        let policies = [
            VariantSelection::AlwaysMerge,
            VariantSelection::AlwaysGalloping,
            VariantSelection::SizeRatio(5.0),
            VariantSelection::PerformanceModel,
        ];
        for selection in policies {
            // One SCU meets the lengths in order and one in reverse, so no
            // entry depends on how far a table had grown when it was read.
            let mut scus = [Scu::new(platform, selection), Scu::new(platform, selection)];
            for (k, (ka, kb)) in kinds
                .iter()
                .flat_map(|&ka| kinds.map(|kb| (ka, kb)))
                .enumerate()
            {
                for (s, scu) in scus.iter_mut().enumerate() {
                    let mut order: Vec<usize> = (0..pairs.len()).collect();
                    if s == 1 {
                        order.reverse();
                    }
                    for i in order {
                        let (a_len, b_len) = pairs[i];
                        let op = ops[(i + k) % 3];
                        let count_only = (i / 3) % 2 == 0;
                        // The universe changes from pair to pair too.
                        let universe = [5_000, 1 << 20, 300_000][i % 3];
                        let a = meta(ka, a_len, universe);
                        let b = meta(kb, b_len, 1 << 12);
                        let out = scu.dispatch_binary(op, count_only, SetId(1), &a, SetId(2), &b);
                        assert_eq!(
                            (out.choice, out.exec_cycles, out.energy_nj.to_bits()),
                            priced_by_the_models(selection, op, count_only, &a, &b),
                            "{selection:?} {op:?} count {count_only} {ka:?} {a_len} x {kb:?} {b_len}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn smb_warm_lookups_get_cheaper() {
        let mut s = scu();
        let a = meta(RepresentationKind::SortedArray, 100, 1_000);
        let b = meta(RepresentationKind::SortedArray, 100, 1_000);
        let cold = s.dispatch_binary(BinarySetOp::Union, false, SetId(1), &a, SetId(2), &b);
        let warm = s.dispatch_binary(BinarySetOp::Union, false, SetId(1), &a, SetId(2), &b);
        assert_eq!((cold.smb_hits, cold.smb_misses), (0, 2));
        assert_eq!((warm.smb_hits, warm.smb_misses), (2, 0));
        assert!(warm.scu_cycles < cold.scu_cycles);
    }

    #[test]
    fn disabling_the_smb_makes_every_lookup_a_memory_access() {
        let platform = PimPlatform {
            smb_enabled: false,
            ..PimPlatform::default()
        };
        let mut s = Scu::new(platform, VariantSelection::PerformanceModel);
        let a = meta(RepresentationKind::SortedArray, 10, 100);
        let out1 = s.dispatch_binary(BinarySetOp::Intersection, false, SetId(1), &a, SetId(2), &a);
        let out2 = s.dispatch_binary(BinarySetOp::Intersection, false, SetId(1), &a, SetId(2), &a);
        assert_eq!(out1.scu_cycles, out2.scu_cycles);
        assert_eq!(out1.smb_hits, 0);
        assert_eq!(out2.smb_hits, 0);
    }

    #[test]
    fn element_dispatch_depends_on_representation() {
        let mut s = scu();
        let dense = meta(RepresentationKind::DenseBitvector, 100, 1_000_000);
        let sorted = meta(RepresentationKind::SortedArray, 100_000, 1_000_000);
        let d = s.dispatch_element(SetId(1), &dense);
        let so = s.dispatch_element(SetId(2), &sorted);
        assert!(
            d.exec_cycles < so.exec_cycles,
            "bit update should be cheaper than array shifting"
        );
        assert_eq!(d.choice, ExecutionChoice::PnmDirect);
    }

    #[test]
    fn metadata_dispatch_has_no_exec_cost() {
        let mut s = scu();
        let out = s.dispatch_metadata(&[SetId(1)]);
        assert_eq!(out.exec_cycles, 0);
        assert!(out.scu_cycles > 0);
    }
}
