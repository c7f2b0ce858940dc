//! SISA-PUM: in-situ bulk bitwise processing (Ambit-style).
//!
//! Dense-bitvector set operations are executed entirely inside DRAM: Ambit
//! copies the two operand rows onto designated triple rows with RowClone,
//! performs a majority-based AND/OR (NOT via dual-contact cells), and copies
//! the result back (§8.1). The paper's simulation models the runtime of one
//! such in-situ operation as
//!
//! ```text
//! l_M + l_I * ceil(n / (q * R))
//! ```
//!
//! where `l_M` is the DRAM access latency to initiate the operation, `l_I` the
//! latency of one bulk bitwise step, `n` the bitvector length, `q` the number
//! of rows processable in parallel and `R` the DRAM row size (§9.1). This
//! module implements exactly that model plus the corresponding row-activation
//! counts used for energy accounting.

use crate::config::PumConfig;
use crate::Cycles;

/// Which bulk bitwise primitive an operation maps to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BulkOp {
    /// Intersection: bulk AND.
    And,
    /// Union: bulk OR.
    Or,
    /// Difference: AND with the negated second operand (`A ∩ B'`).
    AndNot,
}

impl BulkOp {
    /// Number of triple-row activation steps one chunk of this operation
    /// needs (AND/OR need one, AND-NOT needs a NOT first).
    #[must_use]
    pub fn steps(self) -> u64 {
        match self {
            Self::And | Self::Or => 1,
            Self::AndNot => 2,
        }
    }
}

/// The Ambit-style bulk bitwise cost model.
#[derive(Clone, Copy, Debug)]
pub struct PumModel {
    cfg: PumConfig,
}

impl PumModel {
    /// Creates the model from a configuration.
    #[must_use]
    pub fn new(cfg: PumConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PumConfig {
        &self.cfg
    }

    /// Number of sequential in-situ chunks needed for an `n_bits` bitvector:
    /// `ceil(n / (q * R))` (at least one for non-empty inputs).
    #[must_use]
    pub fn chunks(&self, n_bits: usize) -> u64 {
        if n_bits == 0 {
            return 0;
        }
        let per_chunk = self.cfg.parallel_rows * self.cfg.row_bits;
        n_bits.div_ceil(per_chunk) as u64
    }

    /// Cycles to execute `op` over two `n_bits` dense bitvectors
    /// (`l_M + l_I * steps * ceil(n/(q*R))`).
    #[must_use]
    pub fn bulk_op_cost(&self, op: BulkOp, n_bits: usize) -> Cycles {
        if n_bits == 0 {
            return self.cfg.dram_latency;
        }
        self.cfg.dram_latency + self.cfg.insitu_op_latency * op.steps() * self.chunks(n_bits)
    }

    /// Cycles to execute `op` and then obtain the cardinality of the result.
    ///
    /// The popcount is performed by the logic-layer core streaming the result
    /// row(s); we fold that into a per-row constant since rows are read at
    /// full internal bandwidth.
    #[must_use]
    pub fn bulk_op_count_cost(&self, op: BulkOp, n_bits: usize) -> Cycles {
        let rows = n_bits.div_ceil(self.cfg.row_bits) as u64;
        self.bulk_op_cost(op, n_bits) + rows * 32
    }

    /// Cycles for a single-bit update (`A ∪ {x}` / `A \ {x}` on a DB): one
    /// DRAM access (§8.1 "a single DRAM access to a specific memory cell").
    #[must_use]
    pub fn bit_update_cost(&self) -> Cycles {
        self.cfg.dram_latency
    }

    /// Total DRAM row activations for `op` over `n_bits` bits: each processed
    /// row needs two RowClone copies in, one triple-row activation per step and
    /// one copy out — we count 3 activations per step plus 1 for the copy-out,
    /// matching Ambit's AAP sequences. Used by the energy model.
    #[must_use]
    pub fn row_activations(&self, op: BulkOp, n_bits: usize) -> u64 {
        if n_bits == 0 {
            return 0;
        }
        let rows = n_bits.div_ceil(self.cfg.row_bits) as u64;
        rows * (3 * op.steps() + 1)
    }
}

impl Default for PumModel {
    fn default() -> Self {
        Self::new(PumConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bitvectors_cost_one_chunk() {
        let m = PumModel::default();
        let cfg = *m.config();
        assert_eq!(m.chunks(1), 1);
        assert_eq!(m.chunks(cfg.row_bits), 1);
        assert_eq!(
            m.bulk_op_cost(BulkOp::And, 1024),
            cfg.dram_latency + cfg.insitu_op_latency
        );
    }

    #[test]
    fn cost_grows_only_past_the_parallel_capacity() {
        let m = PumModel::default();
        let cfg = *m.config();
        let capacity_bits = cfg.parallel_rows * cfg.row_bits;
        assert_eq!(m.chunks(capacity_bits), 1);
        assert_eq!(m.chunks(capacity_bits + 1), 2);
        assert!(
            m.bulk_op_cost(BulkOp::Or, capacity_bits)
                < m.bulk_op_cost(BulkOp::Or, 2 * capacity_bits)
        );
    }

    #[test]
    fn andnot_costs_twice_the_steps_of_and() {
        let m = PumModel::default();
        let cfg = *m.config();
        let and = m.bulk_op_cost(BulkOp::And, 4096);
        let andnot = m.bulk_op_cost(BulkOp::AndNot, 4096);
        assert_eq!(andnot - cfg.dram_latency, 2 * (and - cfg.dram_latency));
    }

    #[test]
    fn count_adds_popcount_cost() {
        let m = PumModel::default();
        assert!(m.bulk_op_count_cost(BulkOp::And, 100_000) > m.bulk_op_cost(BulkOp::And, 100_000));
    }

    #[test]
    fn bit_update_is_one_access() {
        let m = PumModel::default();
        assert_eq!(m.bit_update_cost(), m.config().dram_latency);
    }

    #[test]
    fn row_activations_scale_with_rows_and_steps() {
        let m = PumModel::default();
        let row = m.config().row_bits;
        assert_eq!(m.row_activations(BulkOp::And, row), 4);
        assert_eq!(m.row_activations(BulkOp::And, 2 * row), 8);
        assert_eq!(m.row_activations(BulkOp::AndNot, row), 7);
        assert_eq!(m.row_activations(BulkOp::And, 0), 0);
    }

    #[test]
    fn empty_input_costs_only_initiation() {
        let m = PumModel::default();
        assert_eq!(m.bulk_op_cost(BulkOp::And, 0), m.config().dram_latency);
    }
}
