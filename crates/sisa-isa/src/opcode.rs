//! SISA opcodes: the concrete instruction variants of Table 5 and §6.3.2.

/// The abstract set operation an instruction performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SetOperation {
    /// `A ∩ B`, materialising the result set.
    Intersection,
    /// `A ∪ B`, materialising the result set.
    Union,
    /// `A \ B`, materialising the result set.
    Difference,
    /// `|A ∩ B|` without materialising the intersection.
    IntersectionCount,
    /// `|A ∪ B|` without materialising the union.
    UnionCount,
    /// `|A \ B|` without materialising the difference.
    DifferenceCount,
    /// `|A|` (kept in metadata, `O(1)`).
    Cardinality,
    /// `x ∈ A`.
    Membership,
    /// `A ∪ {x}` in place.
    InsertElement,
    /// `A \ {x}` in place.
    RemoveElement,
    /// Set lifecycle: create a new set.
    Create,
    /// Set lifecycle: delete a set.
    Delete,
    /// Set lifecycle: clone a set.
    Clone,
}

/// The set algorithm a concrete instruction variant prescribes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SetAlgorithm {
    /// Stream both sorted inputs simultaneously (`O(|A| + |B|)`).
    Merge,
    /// Iterate the smaller input, binary-search the larger
    /// (`O(min log max)`).
    Galloping,
    /// Probe a dense bitvector per element of a sparse array.
    Probe,
    /// Bulk bitwise processing of two dense bitvectors (in-situ PIM).
    Bitwise,
    /// Single bit/element update or metadata lookup.
    Direct,
    /// Let the SISA Controller Unit pick the algorithm at run time using its
    /// performance models (§8.3).
    Auto,
}

/// The operand-representation combination an instruction variant expects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// Both operands are sparse arrays.
    SparseSparse,
    /// A sparse array combined with a dense bitvector.
    SparseDense,
    /// Both operands are dense bitvectors.
    DenseDense,
    /// A set and a single vertex.
    SetElement,
    /// A single set (cardinality, clone, delete) or none (create).
    SetOnly,
    /// The SCU inspects the set metadata to determine the representations.
    Any,
}

/// A concrete SISA instruction opcode (the `funct7` field of the encoding).
///
/// Opcodes `0x00`–`0x06` match Table 5 verbatim; the remaining opcodes cover
/// the union/difference/cardinality/membership/lifecycle variants that §6.2
/// and §6.3.2 describe but do not tabulate. The total stays below the 128
/// values the 7-bit field allows and below the paper's "less than 20
/// instructions" plus a small number of counting variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SisaOpcode {
    /// `0x0`: SA ∩ SA via merging.
    IntersectMerge = 0x00,
    /// `0x1`: SA ∩ SA via galloping.
    IntersectGallop = 0x01,
    /// `0x2`: SA ∩ SA, SCU picks merge or galloping.
    IntersectAuto = 0x02,
    /// `0x3`: SA ∩ DB via probing.
    IntersectSaDb = 0x03,
    /// `0x4`: DB ∩ DB via bulk bitwise AND.
    IntersectDbDb = 0x04,
    /// `0x5`: `A ∪ {x}` — set a bit / insert an element.
    InsertElement = 0x05,
    /// `0x6`: `A \ {x}` — clear a bit / remove an element.
    RemoveElement = 0x06,

    /// SA ∪ SA via merging.
    UnionMerge = 0x10,
    /// SA ∪ DB.
    UnionSaDb = 0x11,
    /// DB ∪ DB via bulk bitwise OR.
    UnionDbDb = 0x12,
    /// Union, SCU picks the variant.
    UnionAuto = 0x13,

    /// SA \ SA via merging.
    DifferenceMerge = 0x18,
    /// SA \ SA via galloping.
    DifferenceGallop = 0x19,
    /// SA \ DB via probing.
    DifferenceSaDb = 0x1A,
    /// DB \ DB via bulk bitwise AND-NOT.
    DifferenceDbDb = 0x1B,
    /// Difference, SCU picks the variant.
    DifferenceAuto = 0x1C,

    /// `|A ∩ B|`, SCU picks the variant.
    IntersectCountAuto = 0x20,
    /// `|A ∪ B|`, SCU picks the variant.
    UnionCountAuto = 0x21,
    /// `|A \ B|`, SCU picks the variant.
    DifferenceCountAuto = 0x22,
    /// `|A|` from set metadata.
    Cardinality = 0x23,
    /// `x ∈ A`.
    Membership = 0x24,

    /// Create a new (empty or pre-sized) set; returns its set ID.
    CreateSet = 0x30,
    /// Delete a set and free its storage.
    DeleteSet = 0x31,
    /// Clone a set into a fresh set ID.
    CloneSet = 0x32,
}

impl SisaOpcode {
    /// Every defined opcode, in ascending `funct7` order.
    pub const ALL: [SisaOpcode; 24] = [
        Self::IntersectMerge,
        Self::IntersectGallop,
        Self::IntersectAuto,
        Self::IntersectSaDb,
        Self::IntersectDbDb,
        Self::InsertElement,
        Self::RemoveElement,
        Self::UnionMerge,
        Self::UnionSaDb,
        Self::UnionDbDb,
        Self::UnionAuto,
        Self::DifferenceMerge,
        Self::DifferenceGallop,
        Self::DifferenceSaDb,
        Self::DifferenceDbDb,
        Self::DifferenceAuto,
        Self::IntersectCountAuto,
        Self::UnionCountAuto,
        Self::DifferenceCountAuto,
        Self::Cardinality,
        Self::Membership,
        Self::CreateSet,
        Self::DeleteSet,
        Self::CloneSet,
    ];

    /// The 7-bit `funct7` value identifying this opcode in the encoding.
    #[must_use]
    pub fn funct7(self) -> u8 {
        self as u8
    }

    /// Looks up an opcode from its `funct7` value.
    #[must_use]
    pub(crate) fn from_funct7(value: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|op| op.funct7() == value)
    }

    /// The abstract set operation this opcode performs.
    #[must_use]
    pub fn operation(self) -> SetOperation {
        use SisaOpcode::*;
        match self {
            IntersectMerge | IntersectGallop | IntersectAuto | IntersectSaDb | IntersectDbDb => {
                SetOperation::Intersection
            }
            UnionMerge | UnionSaDb | UnionDbDb | UnionAuto => SetOperation::Union,
            DifferenceMerge | DifferenceGallop | DifferenceSaDb | DifferenceDbDb
            | DifferenceAuto => SetOperation::Difference,
            IntersectCountAuto => SetOperation::IntersectionCount,
            UnionCountAuto => SetOperation::UnionCount,
            DifferenceCountAuto => SetOperation::DifferenceCount,
            Cardinality => SetOperation::Cardinality,
            Membership => SetOperation::Membership,
            InsertElement => SetOperation::InsertElement,
            RemoveElement => SetOperation::RemoveElement,
            CreateSet => SetOperation::Create,
            DeleteSet => SetOperation::Delete,
            CloneSet => SetOperation::Clone,
        }
    }

    /// The set algorithm this opcode prescribes.
    #[must_use]
    pub fn algorithm(self) -> SetAlgorithm {
        use SisaOpcode::*;
        match self {
            IntersectMerge | UnionMerge | DifferenceMerge => SetAlgorithm::Merge,
            IntersectGallop | DifferenceGallop => SetAlgorithm::Galloping,
            IntersectSaDb | UnionSaDb | DifferenceSaDb => SetAlgorithm::Probe,
            IntersectDbDb | UnionDbDb | DifferenceDbDb => SetAlgorithm::Bitwise,
            IntersectAuto | UnionAuto | DifferenceAuto | IntersectCountAuto | UnionCountAuto
            | DifferenceCountAuto => SetAlgorithm::Auto,
            InsertElement | RemoveElement | Cardinality | Membership | CreateSet | DeleteSet
            | CloneSet => SetAlgorithm::Direct,
        }
    }

    /// The operand-representation combination this opcode expects.
    #[must_use]
    pub fn operands(self) -> OperandKind {
        use SisaOpcode::*;
        match self {
            IntersectMerge | IntersectGallop | UnionMerge | DifferenceMerge | DifferenceGallop => {
                OperandKind::SparseSparse
            }
            IntersectSaDb | UnionSaDb | DifferenceSaDb => OperandKind::SparseDense,
            IntersectDbDb | UnionDbDb | DifferenceDbDb => OperandKind::DenseDense,
            IntersectAuto | UnionAuto | DifferenceAuto | IntersectCountAuto | UnionCountAuto
            | DifferenceCountAuto => OperandKind::Any,
            InsertElement | RemoveElement | Membership => OperandKind::SetElement,
            Cardinality | CreateSet | DeleteSet | CloneSet => OperandKind::SetOnly,
        }
    }

    /// Whether the SCU is responsible for choosing the algorithm variant.
    #[must_use]
    pub fn is_auto(self) -> bool {
        self.algorithm() == SetAlgorithm::Auto
    }

    /// Whether the instruction only produces a scalar (count / boolean), i.e.
    /// never materialises a result set.
    #[must_use]
    pub fn is_scalar_result(self) -> bool {
        matches!(
            self.operation(),
            SetOperation::IntersectionCount
                | SetOperation::UnionCount
                | SetOperation::DifferenceCount
                | SetOperation::Cardinality
                | SetOperation::Membership
        )
    }

    /// The assembly mnemonic used by [`crate::SisaProgram::to_assembly`].
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        use SisaOpcode::*;
        match self {
            IntersectMerge => "sisa.int.m",
            IntersectGallop => "sisa.int.g",
            IntersectAuto => "sisa.int",
            IntersectSaDb => "sisa.int.sd",
            IntersectDbDb => "sisa.int.dd",
            InsertElement => "sisa.ins",
            RemoveElement => "sisa.rem",
            UnionMerge => "sisa.uni.m",
            UnionSaDb => "sisa.uni.sd",
            UnionDbDb => "sisa.uni.dd",
            UnionAuto => "sisa.uni",
            DifferenceMerge => "sisa.dif.m",
            DifferenceGallop => "sisa.dif.g",
            DifferenceSaDb => "sisa.dif.sd",
            DifferenceDbDb => "sisa.dif.dd",
            DifferenceAuto => "sisa.dif",
            IntersectCountAuto => "sisa.intc",
            UnionCountAuto => "sisa.unic",
            DifferenceCountAuto => "sisa.difc",
            Cardinality => "sisa.card",
            Membership => "sisa.member",
            CreateSet => "sisa.new",
            DeleteSet => "sisa.del",
            CloneSet => "sisa.clone",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_opcodes_have_their_published_codes() {
        assert_eq!(SisaOpcode::IntersectMerge.funct7(), 0x0);
        assert_eq!(SisaOpcode::IntersectGallop.funct7(), 0x1);
        assert_eq!(SisaOpcode::IntersectAuto.funct7(), 0x2);
        assert_eq!(SisaOpcode::IntersectSaDb.funct7(), 0x3);
        assert_eq!(SisaOpcode::IntersectDbDb.funct7(), 0x4);
        assert_eq!(SisaOpcode::InsertElement.funct7(), 0x5);
        assert_eq!(SisaOpcode::RemoveElement.funct7(), 0x6);
    }

    #[test]
    fn funct7_round_trips_and_fits_in_seven_bits() {
        for op in SisaOpcode::ALL {
            assert!(op.funct7() < 128, "{op:?} exceeds the 7-bit field");
            assert_eq!(SisaOpcode::from_funct7(op.funct7()), Some(op));
        }
        assert_eq!(SisaOpcode::from_funct7(0x7F), None);
    }

    #[test]
    fn opcode_values_are_unique() {
        let mut values: Vec<u8> = SisaOpcode::ALL.iter().map(|op| op.funct7()).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), SisaOpcode::ALL.len());
    }

    #[test]
    fn classification_is_consistent() {
        use SisaOpcode::*;
        assert_eq!(IntersectMerge.operation(), SetOperation::Intersection);
        assert_eq!(IntersectMerge.algorithm(), SetAlgorithm::Merge);
        assert_eq!(IntersectDbDb.algorithm(), SetAlgorithm::Bitwise);
        assert_eq!(IntersectDbDb.operands(), OperandKind::DenseDense);
        assert!(IntersectAuto.is_auto());
        assert!(!IntersectMerge.is_auto());
        assert!(IntersectCountAuto.is_scalar_result());
        assert!(Membership.is_scalar_result());
        assert!(!UnionMerge.is_scalar_result());
        assert_eq!(CreateSet.operation(), SetOperation::Create);
        assert_eq!(InsertElement.operands(), OperandKind::SetElement);
    }

    #[test]
    fn mnemonics_are_unique_and_prefixed() {
        let mut names: Vec<&str> = SisaOpcode::ALL.iter().map(|op| op.mnemonic()).collect();
        assert!(names.iter().all(|m| m.starts_with("sisa.")));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SisaOpcode::ALL.len());
    }

    #[test]
    fn instruction_count_stays_small() {
        // The paper: "The number of SISA instructions is less than 20, leaving
        // space for potential new variants" — we add counting/lifecycle
        // variants but stay far below the 128-opcode budget.
        assert!(SisaOpcode::ALL.len() <= 32);
    }
}
