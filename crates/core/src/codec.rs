//! Data codec: bytes ↔ per-cell level codes.
//!
//! The paper stores 4 bits/cell, so a byte occupies two cells (the 8-bit
//! word of Fig 6 becomes two physical QLC cells). The codec generalizes to
//! any power-of-two level count for the 5- and 6-bit projections.

use crate::levels::LevelAllocation;
use crate::MlcError;

/// How data bits map onto the physically adjacent levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CodeMapping {
    /// Plain binary: the paper's Table 2 layout.
    #[default]
    Binary,
    /// Gray code: physically adjacent levels differ in exactly one data
    /// bit, so a ±1-level misread corrupts one bit instead of up to four —
    /// the standard hardening used in MLC NAND, applicable unchanged here.
    Gray,
}

/// Packs/unpacks bit strings into per-cell codes for a given allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct MlcCodec {
    bits_per_cell: u32,
    mapping: CodeMapping,
}

impl MlcCodec {
    /// Builds a codec for an allocation (binary mapping).
    ///
    /// # Errors
    ///
    /// Returns [`MlcError::InvalidAllocation`] if the level count is not a
    /// power of two (fractional bits are out of scope).
    pub fn for_allocation(alloc: &LevelAllocation) -> Result<Self, MlcError> {
        Self::with_mapping(alloc, CodeMapping::Binary)
    }

    /// Builds a codec with an explicit level mapping.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MlcCodec::for_allocation`].
    pub fn with_mapping(alloc: &LevelAllocation, mapping: CodeMapping) -> Result<Self, MlcError> {
        let n = alloc.n_levels();
        if !n.is_power_of_two() {
            return Err(MlcError::InvalidAllocation {
                reason: format!("codec needs a power-of-two level count, got {n}"),
            });
        }
        Ok(MlcCodec {
            bits_per_cell: n.trailing_zeros(),
            mapping,
        })
    }

    /// The level mapping in use.
    pub fn mapping(&self) -> CodeMapping {
        self.mapping
    }

    /// Maps a data value to its physical level index: level `l` stores the
    /// data `gray(l)`, so walking adjacent levels flips exactly one data
    /// bit. `to_level` is therefore the *inverse* Gray transform.
    fn to_level(&self, data: u16) -> u16 {
        match self.mapping {
            CodeMapping::Binary => data,
            CodeMapping::Gray => {
                let mut l = data;
                let mut shift = 1;
                while (data >> shift) > 0 {
                    l ^= data >> shift;
                    shift += 1;
                }
                l
            }
        }
    }

    fn code_of_level(&self, level: u16) -> u16 {
        match self.mapping {
            CodeMapping::Binary => level,
            CodeMapping::Gray => level ^ (level >> 1),
        }
    }

    /// Bits stored per cell.
    pub fn bits_per_cell(&self) -> u32 {
        self.bits_per_cell
    }

    /// Encodes bytes into per-cell codes (most-significant bits first).
    pub fn encode(&self, data: &[u8]) -> Vec<u16> {
        let bpc = self.bits_per_cell as usize;
        let total_bits = data.len() * 8;
        let mut codes = Vec::with_capacity(total_bits.div_ceil(bpc));
        let mut acc: u32 = 0;
        let mut acc_bits = 0usize;
        for &byte in data {
            acc = (acc << 8) | byte as u32;
            acc_bits += 8;
            while acc_bits >= bpc {
                let shift = acc_bits - bpc;
                codes.push(self.to_level(((acc >> shift) & ((1 << bpc) - 1)) as u16));
                acc_bits -= bpc;
                acc &= (1 << acc_bits) - 1;
            }
        }
        if acc_bits > 0 {
            // Pad the final partial cell with zeros on the right.
            codes.push(self.to_level(((acc << (bpc - acc_bits)) & ((1 << bpc) - 1)) as u16));
        }
        codes
    }

    /// Decodes per-cell codes back into bytes (truncating trailing pad
    /// bits).
    pub fn decode(&self, codes: &[u16], n_bytes: usize) -> Vec<u8> {
        let bpc = self.bits_per_cell as usize;
        let mut out = Vec::with_capacity(n_bytes);
        let mut acc: u32 = 0;
        let mut acc_bits = 0usize;
        for &code in codes {
            acc = (acc << bpc) | self.code_of_level(code) as u32;
            acc_bits += bpc;
            while acc_bits >= 8 && out.len() < n_bytes {
                let shift = acc_bits - 8;
                out.push(((acc >> shift) & 0xFF) as u8);
                acc_bits -= 8;
                acc &= (1 << acc_bits) - 1;
            }
            if out.len() == n_bytes {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::{AllocationScheme, LevelAllocation};

    fn qlc_codec() -> MlcCodec {
        MlcCodec::for_allocation(&LevelAllocation::paper_qlc()).unwrap()
    }

    #[test]
    fn qlc_byte_uses_two_cells() {
        let codec = qlc_codec();
        assert_eq!(codec.bits_per_cell(), 4);
        let codes = codec.encode(&[0xA7]);
        assert_eq!(codes, vec![0xA, 0x7]);
    }

    #[test]
    fn round_trip_random_bytes() {
        let codec = qlc_codec();
        let data: Vec<u8> = (0..=255).collect();
        let codes = codec.encode(&data);
        assert_eq!(codes.len(), 512);
        let back = codec.decode(&codes, data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn five_bit_cells_round_trip() {
        let alloc =
            LevelAllocation::new(32, 6e-6, 36e-6, AllocationScheme::IsoDeltaI, |_| Vec::new())
                .unwrap();
        let codec = MlcCodec::for_allocation(&alloc).unwrap();
        assert_eq!(codec.bits_per_cell(), 5);
        let data = vec![0xDE, 0xAD, 0xBE, 0xEF, 0x42];
        // 40 bits → exactly 8 cells of 5 bits.
        let codes = codec.encode(&data);
        assert_eq!(codes.len(), 8);
        assert!(codes.iter().all(|&c| c < 32));
        assert_eq!(codec.decode(&codes, data.len()), data);
    }

    #[test]
    fn partial_tail_is_padded() {
        let alloc =
            LevelAllocation::new(32, 6e-6, 36e-6, AllocationScheme::IsoDeltaI, |_| Vec::new())
                .unwrap();
        let codec = MlcCodec::for_allocation(&alloc).unwrap();
        let data = vec![0xFF]; // 8 bits → 2 cells (5 + 3 padded)
        let codes = codec.encode(&data);
        assert_eq!(codes.len(), 2);
        assert_eq!(codec.decode(&codes, 1), data);
    }

    #[test]
    fn gray_mapping_round_trips() {
        let alloc = LevelAllocation::paper_qlc();
        let codec = MlcCodec::with_mapping(&alloc, CodeMapping::Gray).unwrap();
        assert_eq!(codec.mapping(), CodeMapping::Gray);
        let data: Vec<u8> = (0..=255).collect();
        let codes = codec.encode(&data);
        assert_eq!(codec.decode(&codes, data.len()), data);
    }

    #[test]
    fn gray_adjacent_levels_differ_in_one_bit() {
        let alloc = LevelAllocation::paper_qlc();
        let codec = MlcCodec::with_mapping(&alloc, CodeMapping::Gray).unwrap();
        // Walk physically adjacent levels and check the *decoded data*
        // differs in exactly one bit — the Gray property.
        for level in 0u16..15 {
            let a = codec.code_of_level(level);
            let b = codec.code_of_level(level + 1);
            assert_eq!((a ^ b).count_ones(), 1, "levels {level}/{}", level + 1);
        }
    }

    #[test]
    fn gray_halves_misread_bit_damage() {
        // A ±1-level misread under binary mapping can flip up to 4 bits
        // (e.g. 0111→1000); under Gray it always flips exactly one.
        let alloc = LevelAllocation::paper_qlc();
        let binary = MlcCodec::for_allocation(&alloc).unwrap();
        let gray = MlcCodec::with_mapping(&alloc, CodeMapping::Gray).unwrap();
        let worst_binary = (0u16..15)
            .map(|l| (binary.code_of_level(l) ^ binary.code_of_level(l + 1)).count_ones())
            .max()
            .unwrap();
        let worst_gray = (0u16..15)
            .map(|l| (gray.code_of_level(l) ^ gray.code_of_level(l + 1)).count_ones())
            .max()
            .unwrap();
        assert_eq!(worst_binary, 4);
        assert_eq!(worst_gray, 1);
    }

    #[test]
    fn non_power_of_two_rejected() {
        let alloc =
            LevelAllocation::new(10, 6e-6, 36e-6, AllocationScheme::IsoDeltaI, |_| Vec::new())
                .unwrap();
        assert!(MlcCodec::for_allocation(&alloc).is_err());
    }
}
