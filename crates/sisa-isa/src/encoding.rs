//! RISC-V-compatible binary encoding of SISA instructions (Figure 5).
//!
//! SISA instructions are encoded in the RISC-V *custom* opcode space using the
//! RoCC-style R-format layout the paper shows in Figure 5:
//!
//! ```text
//!  31       25 24   20 19   15 14 13 12 11    7 6      0
//! +-----------+-------+-------+--+--+--+-------+--------+
//! |  funct7   |  rs2  |  rs1  |xd|xs1|xs2|  rd  | opcode |
//! +-----------+-------+-------+--+--+--+-------+--------+
//!      7          5       5    1  1  1     5        7
//! ```
//!
//! * `funct7` selects one of up to 128 SISA operations;
//! * `opcode` is fixed to the custom value `0x16` the paper chooses;
//! * `xd`, `xs1`, `xs2` are set when the corresponding register operands are
//!   used (SISA always uses all three, matching the paper's "set to 1 if SISA
//!   uses the register operands").

use crate::instruction::{Register, SisaInstruction};
use crate::opcode::SisaOpcode;

/// The 7-bit custom opcode value the paper assigns to SISA instructions
/// (§6.3.5: "the latter are set to 0x16 to represent the custom characteristic
/// of the instruction").
pub const CUSTOM_OPCODE: u32 = 0x16;

/// Errors arising while decoding a 32-bit word as a SISA instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The low 7 bits are not the SISA custom opcode.
    NotSisa {
        /// The opcode bits that were found instead.
        found: u32,
    },
    /// The `funct7` field does not name a defined SISA operation.
    UnknownFunct7 {
        /// The unrecognised `funct7` value.
        funct7: u8,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotSisa { found } => write!(
                f,
                "not a SISA instruction: opcode bits 0x{found:02x} != 0x{CUSTOM_OPCODE:02x}"
            ),
            Self::UnknownFunct7 { funct7 } => {
                write!(f, "unknown SISA funct7 value 0x{funct7:02x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes an instruction into its 32-bit machine word.
#[must_use]
pub fn encode(instr: &SisaInstruction) -> u32 {
    let funct7 = u32::from(instr.opcode.funct7());
    let rs2 = u32::from(instr.rs2.index());
    let rs1 = u32::from(instr.rs1.index());
    let rd = u32::from(instr.rd.index());
    // xd/xs1/xs2 = 1: SISA uses all register operands.
    (funct7 << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (1 << 14)
        | (1 << 13)
        | (1 << 12)
        | (rd << 7)
        | CUSTOM_OPCODE
}

/// Decodes a 32-bit machine word into a SISA instruction.
///
/// # Errors
///
/// Returns [`DecodeError::NotSisa`] when the opcode bits are not the SISA
/// custom opcode, and [`DecodeError::UnknownFunct7`] when `funct7` is not a
/// defined SISA operation.
pub fn decode(word: u32) -> Result<SisaInstruction, DecodeError> {
    let opcode_bits = word & 0x7F;
    if opcode_bits != CUSTOM_OPCODE {
        return Err(DecodeError::NotSisa { found: opcode_bits });
    }
    let funct7 = ((word >> 25) & 0x7F) as u8;
    let opcode = SisaOpcode::from_funct7(funct7).ok_or(DecodeError::UnknownFunct7 { funct7 })?;
    let rs2 = Register::new(((word >> 20) & 0x1F) as u8);
    let rs1 = Register::new(((word >> 15) & 0x1F) as u8);
    let rd = Register::new(((word >> 7) & 0x1F) as u8);
    Ok(SisaInstruction::new(opcode, rd, rs1, rs2))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extracts the field values of an encoded word by shift and mask, one field
    /// at a time: the reference the layout test compares `encode` against.
    fn fields(word: u32) -> EncodedFields {
        EncodedFields {
            funct7: ((word >> 25) & 0x7F) as u8,
            rs2: ((word >> 20) & 0x1F) as u8,
            rs1: ((word >> 15) & 0x1F) as u8,
            xd: (word >> 14) & 1 == 1,
            xs1: (word >> 13) & 1 == 1,
            xs2: (word >> 12) & 1 == 1,
            rd: ((word >> 7) & 0x1F) as u8,
            opcode: word & 0x7F,
        }
    }

    /// The raw fields of an encoded SISA instruction word.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct EncodedFields {
        /// Operation selector.
        funct7: u8,
        /// Second source register index.
        rs2: u8,
        /// First source register index.
        rs1: u8,
        /// Destination-register-used flag.
        xd: bool,
        /// First-source-register-used flag.
        xs1: bool,
        /// Second-source-register-used flag.
        xs2: bool,
        /// Destination register index.
        rd: u8,
        /// The 7-bit major opcode.
        opcode: u32,
    }

    fn sample() -> SisaInstruction {
        SisaInstruction::new(
            SisaOpcode::IntersectAuto,
            Register::new(3),
            Register::new(1),
            Register::new(2),
        )
    }

    #[test]
    fn encoding_places_fields_where_figure5_says() {
        let word = encode(&sample());
        let f = fields(word);
        assert_eq!(f.opcode, CUSTOM_OPCODE);
        assert_eq!(f.funct7, 0x02);
        assert_eq!(f.rd, 3);
        assert_eq!(f.rs1, 1);
        assert_eq!(f.rs2, 2);
        assert!(f.xd && f.xs1 && f.xs2);
    }

    #[test]
    fn every_opcode_round_trips_through_all_register_corners() {
        for op in SisaOpcode::ALL {
            for &(rd, rs1, rs2) in &[(0u8, 0u8, 0u8), (31, 31, 31), (1, 2, 3), (30, 15, 7)] {
                let instr = SisaInstruction::new(
                    op,
                    Register::new(rd),
                    Register::new(rs1),
                    Register::new(rs2),
                );
                let decoded = decode(encode(&instr)).unwrap();
                assert_eq!(decoded, instr);
            }
        }
    }

    #[test]
    fn non_sisa_words_are_rejected() {
        // A standard RISC-V ADDI has opcode 0x13.
        let err = decode(0x0000_0013).unwrap_err();
        assert_eq!(err, DecodeError::NotSisa { found: 0x13 });
        assert!(err.to_string().contains("not a SISA instruction"));
    }

    #[test]
    fn unknown_funct7_is_rejected() {
        // Craft a word with the SISA opcode but an undefined funct7 (0x7F).
        let word = (0x7Fu32 << 25) | CUSTOM_OPCODE;
        let err = decode(word).unwrap_err();
        assert_eq!(err, DecodeError::UnknownFunct7 { funct7: 0x7F });
        assert!(err.to_string().contains("funct7"));
    }

    #[test]
    fn custom_opcode_is_the_papers_value() {
        assert_eq!(CUSTOM_OPCODE, 0x16);
    }
}
