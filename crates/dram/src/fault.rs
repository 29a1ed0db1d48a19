//! Persistent fault state for the memory subsystem.
//!
//! §II of the paper argues that failures occur at *every* level of the
//! memory path: cells, chips, DIMM-shared circuitry, channels, and the
//! memory controller itself. [`FaultState`] records failed components at
//! each of those granularities; the controller consults it on every read
//! and reports how many codeword symbols the active faults corrupt, which
//! the attached ECC code then translates into a corrected / detected /
//! silent outcome. Dvé's recovery path (in the `dve` crate) reads the
//! replica whenever detection fires.

use crate::address::{AddressMapper, DramCoord};
use dve_sim::hash::FastSet;

/// A failed hardware component, mirroring Fig. 2's anatomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// The whole memory controller (subsumes everything behind it).
    Controller,
    /// One channel behind this controller.
    Channel {
        /// Channel index.
        channel: usize,
    },
    /// One DRAM device (chip) — a chipkill-class fault: corrupts one
    /// 8-bit symbol of every codeword in the rank.
    Chip {
        /// Channel index.
        channel: usize,
        /// Rank within the channel.
        rank: usize,
        /// Device index within the rank.
        chip: usize,
    },
    /// One row in one bank (e.g. row-hammer victim / wordline failure).
    Row {
        /// Channel index.
        channel: usize,
        /// Rank within the channel.
        rank: usize,
        /// Bank within the rank.
        bank: usize,
        /// Row index.
        row: u64,
    },
    /// A single cache line (cell cluster failure).
    Line {
        /// Channel index.
        channel: usize,
        /// Channel-local line address (byte address / 64).
        line: u64,
    },
}

/// How a read is affected by active faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultImpact {
    /// Number of codeword symbols corrupted (chip-granularity count; a
    /// controller or channel fault corrupts all of them).
    pub symbols_corrupted: usize,
    /// Whether the fault wipes the entire codeword (controller/channel
    /// class faults — beyond any local code's reach).
    pub whole_codeword: bool,
}

/// The set of currently failed components for one memory controller.
///
/// # Example
///
/// ```
/// use dve_dram::fault::{FaultDomain, FaultState};
/// use dve_dram::address::AddressMapper;
/// use dve_dram::config::DramConfig;
///
/// let mapper = AddressMapper::new(DramConfig::ddr4_2400());
/// let mut faults = FaultState::new();
/// faults.fail(FaultDomain::Chip { channel: 0, rank: 0, chip: 3 });
/// let impact = faults.impact(0, 0x1000, &mapper).unwrap();
/// assert_eq!(impact.symbols_corrupted, 1); // one chip = one symbol
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultState {
    domains: FastSet<FaultDomain>,
}

impl FaultState {
    /// Creates an empty (fault-free) state.
    pub fn new() -> FaultState {
        FaultState::default()
    }

    /// Marks a component as failed.
    ///
    /// # Edge contract
    ///
    /// `fail` is a set insert: failing an already-failed domain is a
    /// no-op on the state, and the return value reports it accurately —
    /// `true` only when the domain transitions healthy → failed,
    /// `false` when it was already failed (double-`fail`). Callers that
    /// count injected faults (campaign samplers, the chaos schedule
    /// executor) must branch on this bool rather than assume every call
    /// planted something new.
    pub fn fail(&mut self, domain: FaultDomain) -> bool {
        self.domains.insert(domain)
    }

    /// Repairs a component (e.g. after a successful scrub of a transient
    /// fault, §V-B2).
    ///
    /// # Edge contract
    ///
    /// `repair` is a set remove: repairing a domain that is not failed
    /// is a no-op on the state, and the return value reports it
    /// accurately — `true` only when the domain transitions
    /// failed → healthy, `false` when it was absent (spurious repair).
    /// Recovery ledgers must only count a repair when this returns
    /// `true`.
    pub fn repair(&mut self, domain: FaultDomain) -> bool {
        self.domains.remove(&domain)
    }

    /// Repairs every component: back to the fault-free state `new`
    /// returns, keeping the set's storage for reuse.
    pub(crate) fn clear(&mut self) {
        self.domains.clear();
    }

    /// Whether `domain` is currently failed.
    pub fn is_failed(&self, domain: FaultDomain) -> bool {
        self.domains.contains(&domain)
    }

    /// Whether any fault is active.
    pub fn any(&self) -> bool {
        !self.domains.is_empty()
    }

    /// Number of active fault domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether no fault is active.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Iterates over the currently failed domains (arbitrary order).
    ///
    /// Fault campaigns use this to enumerate what to repair when
    /// simulating transients cleared by a scrub pass.
    pub fn iter(&self) -> impl Iterator<Item = FaultDomain> + '_ {
        self.domains.iter().copied()
    }

    /// Whether failed-or-not domain `d` would affect a read of
    /// channel-local byte address described by (`channel`, `coord`,
    /// `line`). Pure geometry — does not consult the failed set.
    fn domain_covers(d: FaultDomain, channel: usize, coord: &DramCoord, line: u64) -> bool {
        match d {
            FaultDomain::Controller => true,
            FaultDomain::Channel { channel: c } => c == channel,
            FaultDomain::Chip {
                channel: c,
                rank,
                chip: _,
            } => c == channel && rank == coord.rank,
            FaultDomain::Row {
                channel: c,
                rank,
                bank,
                row,
            } => c == channel && rank == coord.rank && bank == coord.bank && row == coord.row,
            FaultDomain::Line {
                channel: c,
                line: l,
            } => c == channel && l == line,
        }
    }

    /// The currently failed domains whose footprint covers a read of
    /// channel-local byte address `addr` on `channel`, in no particular
    /// order. The §V-B2 repair step uses this to know which transient
    /// domains a successful rewrite clears.
    pub fn domains_hitting(
        &self,
        channel: usize,
        addr: u64,
        mapper: &AddressMapper,
    ) -> Vec<FaultDomain> {
        if self.domains.is_empty() {
            return Vec::new();
        }
        let coord: DramCoord = mapper.decode(addr);
        let line = mapper.line_of(addr);
        self.domains
            .iter()
            .copied()
            .filter(|&d| Self::domain_covers(d, channel, &coord, line))
            .collect()
    }

    /// Computes the impact of active faults on a read of channel-local
    /// byte address `addr` on `channel`. `None` means the read is clean.
    pub fn impact(&self, channel: usize, addr: u64, mapper: &AddressMapper) -> Option<FaultImpact> {
        if self.domains.is_empty() {
            return None;
        }
        self.impact_at(
            channel,
            &mapper.decode(addr),
            mapper.line_of(addr),
            mapper.config().devices_per_rank,
        )
    }

    /// [`Self::impact`] for an address the caller has already decoded
    /// to `coord` and line index `line`.
    pub(crate) fn impact_at(
        &self,
        channel: usize,
        coord: &DramCoord,
        line: u64,
        devices_per_rank: usize,
    ) -> Option<FaultImpact> {
        let mut symbols = 0usize;
        let mut whole = false;
        for d in &self.domains {
            if !Self::domain_covers(*d, channel, coord, line) {
                continue;
            }
            match *d {
                FaultDomain::Chip { .. } => symbols += 1,
                // Controller/channel faults wipe the codeword; a dead
                // row or dead line loses the whole line.
                _ => whole = true,
            }
        }
        if whole {
            Some(FaultImpact {
                symbols_corrupted: devices_per_rank + 1,
                whole_codeword: true,
            })
        } else if symbols > 0 {
            Some(FaultImpact {
                symbols_corrupted: symbols,
                whole_codeword: false,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn mapper() -> AddressMapper {
        AddressMapper::new(DramConfig::ddr4_2400())
    }

    #[test]
    fn clean_state_has_no_impact() {
        let f = FaultState::new();
        assert!(f.impact(0, 0, &mapper()).is_none());
        assert!(!f.any());
        assert!(f.is_empty());
    }

    #[test]
    fn controller_fault_hits_everything() {
        let mut f = FaultState::new();
        f.fail(FaultDomain::Controller);
        for addr in [0u64, 4096, 1 << 24] {
            let i = f.impact(0, addr, &mapper()).unwrap();
            assert!(i.whole_codeword);
        }
        let i = f.impact(1, 0, &mapper()).unwrap();
        assert!(i.whole_codeword, "controller fault covers all channels");
    }

    #[test]
    fn channel_fault_is_channel_local() {
        let mut f = FaultState::new();
        f.fail(FaultDomain::Channel { channel: 1 });
        assert!(f.impact(0, 0, &mapper()).is_none());
        assert!(f.impact(1, 0, &mapper()).unwrap().whole_codeword);
    }

    #[test]
    fn chip_fault_corrupts_one_symbol() {
        let mut f = FaultState::new();
        f.fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 2,
        });
        let i = f.impact(0, 0x40, &mapper()).unwrap();
        assert_eq!(i.symbols_corrupted, 1);
        assert!(!i.whole_codeword);
    }

    #[test]
    fn two_chip_faults_corrupt_two_symbols() {
        let mut f = FaultState::new();
        f.fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 2,
        });
        f.fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 7,
        });
        let i = f.impact(0, 0x40, &mapper()).unwrap();
        assert_eq!(i.symbols_corrupted, 2);
    }

    #[test]
    fn row_fault_only_hits_that_row() {
        let m = mapper();
        let mut f = FaultState::new();
        let coord = m.decode(0x123400);
        f.fail(FaultDomain::Row {
            channel: 0,
            rank: coord.rank,
            bank: coord.bank,
            row: coord.row,
        });
        assert!(f.impact(0, 0x123400, &m).unwrap().whole_codeword);
        // A different row in the same bank is unaffected: advance by one
        // full row span across all banks.
        let other = 0x123400 + 1024 * 16;
        assert!(f.impact(0, other, &m).is_none());
    }

    #[test]
    fn line_fault_is_line_exact() {
        let m = mapper();
        let mut f = FaultState::new();
        f.fail(FaultDomain::Line {
            channel: 0,
            line: 0x1000 / 64,
        });
        assert!(f.impact(0, 0x1000, &m).is_some());
        assert!(f.impact(0, 0x1040, &m).is_none());
    }

    #[test]
    fn repair_restores_cleanliness() {
        let mut f = FaultState::new();
        let d = FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 0,
        };
        assert!(f.fail(d));
        assert!(!f.fail(d), "double-fail is idempotent");
        assert!(f.repair(d));
        assert!(!f.repair(d));
        assert!(f.impact(0, 0, &mapper()).is_none());
    }

    #[test]
    fn double_fail_reports_false_and_keeps_one_domain() {
        let mut f = FaultState::new();
        let d = FaultDomain::Row {
            channel: 0,
            rank: 1,
            bank: 3,
            row: 7,
        };
        assert!(f.fail(d), "first fail transitions healthy -> failed");
        assert!(!f.fail(d), "second fail reports already-failed");
        assert_eq!(f.len(), 1, "no duplicate domain recorded");
        assert!(f.is_failed(d));
        // One repair fully heals it — the double-fail did not stack.
        assert!(f.repair(d));
        assert!(f.is_empty());
    }

    #[test]
    fn repair_of_absent_domain_reports_false_and_is_noop() {
        let mut f = FaultState::new();
        let present = FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 4,
        };
        let absent = FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 5,
        };
        f.fail(present);
        assert!(!f.repair(absent), "spurious repair reports false");
        assert_eq!(f.len(), 1, "state untouched by spurious repair");
        assert!(f.is_failed(present));
        assert!(!f.is_failed(absent));
    }

    #[test]
    fn domains_hitting_selects_exactly_the_covering_faults() {
        let m = mapper();
        let mut f = FaultState::new();
        let chip = FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 2,
        };
        let line = FaultDomain::Line {
            channel: 0,
            line: 0x1000 / 64,
        };
        let other_chan = FaultDomain::Channel { channel: 1 };
        f.fail(chip);
        f.fail(line);
        f.fail(other_chan);
        let hits = f.domains_hitting(0, 0x1000, &m);
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&chip) && hits.contains(&line));
        // The neighbouring line only sees the rank-wide chip fault.
        assert_eq!(f.domains_hitting(0, 0x1040, &m), vec![chip]);
        // Channel 1 only sees the channel fault.
        assert_eq!(f.domains_hitting(1, 0x1000, &m), vec![other_chan]);
    }
}
