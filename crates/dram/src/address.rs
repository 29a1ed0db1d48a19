//! Physical-address → DRAM coordinate mapping.
//!
//! The decomposition follows the open-page-friendly row-major
//! interleave: consecutive cache lines fill a row buffer (8 KB at rank
//! level), rows interleave across banks, then ranks. A sequential
//! stream camps on one bank for a whole row (127 row hits after the
//! activation), and independent streams usually occupy different banks.

use crate::config::DramConfig;

/// A decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCoord {
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (line offset within the row buffer).
    pub column: usize,
}

/// Maps channel-local byte addresses to DRAM coordinates.
///
/// # Example
///
/// ```
/// use dve_dram::address::AddressMapper;
/// use dve_dram::config::DramConfig;
///
/// let m = AddressMapper::new(DramConfig::ddr4_2400());
/// let a = m.decode(0);
/// let b = m.decode(64); // next line: same open row
/// assert_eq!(a.bank, b.bank);
/// assert_eq!(a.row, b.row);
/// assert_eq!(b.column, a.column + 1);
/// ```
#[derive(Debug, Clone)]
pub struct AddressMapper {
    cfg: DramConfig,
    /// log2 of the line size: byte address → line index.
    line_shift: u32,
    /// log2 of lines per row: the column field's width.
    col_bits: u32,
    /// log2 of banks per rank: the bank field's width.
    bank_bits: u32,
    /// log2 of ranks per channel: the rank field's width.
    rank_bits: u32,
}

/// log2 of `n`, which must be a power of two.
fn log2_exact(n: usize, what: &str) -> u32 {
    assert!(
        n.is_power_of_two(),
        "AddressMapper needs power-of-two DRAM geometry: {what} = {n}"
    );
    n.trailing_zeros()
}

impl AddressMapper {
    /// Creates a mapper for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics unless the line size, lines per row, banks per rank and
    /// ranks per channel are all powers of two: the address fields are
    /// cut with shifts and masks.
    pub fn new(cfg: DramConfig) -> AddressMapper {
        let line_shift = log2_exact(cfg.line_bytes, "line_bytes");
        let col_bits = log2_exact(cfg.lines_per_row(), "lines per row");
        let bank_bits = log2_exact(cfg.banks_per_rank, "banks_per_rank");
        let rank_bits = log2_exact(cfg.ranks_per_channel, "ranks_per_channel");
        AddressMapper {
            cfg,
            line_shift,
            col_bits,
            bank_bits,
            rank_bits,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Decodes a channel-local byte address.
    ///
    /// Layout (low → high bits): line offset | column | bank | rank |
    /// row (row-major, open-page friendly).
    #[inline]
    pub fn decode(&self, addr: u64) -> DramCoord {
        let line = self.line_of(addr);
        let field = |shift: u32, bits: u32| ((line >> shift) & ((1u64 << bits) - 1)) as usize;
        let bank_shift = self.col_bits;
        let rank_shift = bank_shift + self.bank_bits;
        let row_shift = rank_shift + self.rank_bits;
        DramCoord {
            rank: field(rank_shift, self.rank_bits),
            bank: field(bank_shift, self.bank_bits),
            row: line >> row_shift,
            column: field(0, self.col_bits),
        }
    }

    /// The channel-local line index of byte address `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Re-encodes a coordinate to the lowest byte address it covers
    /// (inverse of [`Self::decode`] up to line granularity).
    pub fn encode(&self, coord: DramCoord) -> u64 {
        let bank_shift = self.col_bits;
        let rank_shift = bank_shift + self.bank_bits;
        let row_shift = rank_shift + self.rank_bits;
        let line = coord.column as u64
            + ((coord.bank as u64) << bank_shift)
            + ((coord.rank as u64) << rank_shift)
            + (coord.row << row_shift);
        line << self.line_shift
    }

    /// Flat bank identifier (rank-major) for indexing bank state arrays.
    #[inline]
    pub fn flat_bank(&self, coord: DramCoord) -> usize {
        coord.rank * self.cfg.banks_per_rank + coord.bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramConfig::ddr4_2400())
    }

    #[test]
    fn decode_encode_roundtrip() {
        let m = mapper();
        for addr in [0u64, 64, 1024, 65536, 1 << 20, (8u64 << 30) - 64] {
            let coord = m.decode(addr);
            assert_eq!(m.encode(coord), addr & !63, "addr={addr:#x}");
        }
    }

    #[test]
    fn sequential_lines_share_a_row() {
        let m = mapper();
        let base = m.decode(0x10000);
        let lines_per_row = m.config().lines_per_row() as u64;
        for i in 1..lines_per_row {
            let c = m.decode(0x10000 + i * 64);
            assert_eq!(c.row, base.row);
            assert_eq!(c.bank, base.bank);
        }
        // The next line rolls to the next bank.
        let next = m.decode(0x10000 + lines_per_row * 64);
        assert_ne!(next.bank, base.bank);
    }

    #[test]
    fn rows_interleave_across_banks() {
        let m = mapper();
        let row_span = m.config().row_buffer_bytes as u64;
        let mut banks_seen = std::collections::HashSet::new();
        for i in 0..16 {
            banks_seen.insert(m.decode(i * row_span).bank);
        }
        assert_eq!(banks_seen.len(), 16, "16 consecutive rows hit 16 banks");
    }

    #[test]
    fn flat_bank_is_dense_and_unique() {
        let m = mapper();
        let mut seen = std::collections::HashSet::new();
        for bank in 0..16 {
            let coord = DramCoord {
                rank: 0,
                bank,
                row: 0,
                column: 0,
            };
            assert!(seen.insert(m.flat_bank(coord)));
        }
        assert_eq!(seen.len(), m.config().total_banks());
    }
}
