//! DRAM energy accounting and the energy-delay product metric (§VII).
//!
//! The paper measures the energy-delay product (EDP) of the DRAM
//! subsystem "using the Micron datasheet" and computes system EDP
//! assuming memory is ~18% of total system power in a 2-socket NUMA box
//! [Barroso et al.]. We use representative per-operation energies derived
//! from Micron 8 Gb DDR4-2400 IDD figures (VDD = 1.2 V); absolute joules
//! are not the point — the *relative* EDP between baseline and replicated
//! configurations is.

use dve_sim::time::{Cycles, Frequency};

/// Per-operation and background energy constants, in picojoules /
/// picowatts terms (stored as nanojoules and milliwatts for readability).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyParams {
    /// Energy of one activate+precharge pair (nJ).
    pub act_pre_nj: f64,
    /// Energy of one 64-byte read burst, incl. I/O (nJ).
    pub read_nj: f64,
    /// Energy of one 64-byte write burst (nJ).
    pub write_nj: f64,
    /// Energy of one per-rank refresh command (nJ).
    pub refresh_nj: f64,
    /// Background (standby + peripheral) power per rank (mW).
    pub background_mw_per_rank: f64,
}

impl EnergyParams {
    /// Background (standby + peripheral) power per DRAM rank, in
    /// milliwatts — the Micron 8 Gb DDR4-2400 standby figure (IDD2N/3N
    /// class at VDD = 1.2 V plus peripheral overheads, ≈150 mW). This is
    /// the single source of truth for the standby term: the system
    /// runner's region-level background-energy accounting and
    /// [`EnergyModel::total_joules`] both derive from it.
    pub const BACKGROUND_MW_PER_RANK: f64 = 150.0;

    /// Background energy of `ranks` ranks held in standby for
    /// `seconds`, in joules.
    pub fn background_joules(ranks: usize, seconds: f64) -> f64 {
        Self::BACKGROUND_MW_PER_RANK * 1e-3 * ranks as f64 * seconds
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        // Micron 8Gb DDR4-2400 approximations: IDD0-based ACT/PRE ~2 nJ,
        // IDD4R/W bursts ~3.5/3.8 nJ per line, tRFC*IDD5 ~28 nJ/refresh,
        // BACKGROUND_MW_PER_RANK standby per rank.
        EnergyParams {
            act_pre_nj: 2.0,
            read_nj: 3.5,
            write_nj: 3.8,
            refresh_nj: 28.0,
            background_mw_per_rank: EnergyParams::BACKGROUND_MW_PER_RANK,
        }
    }
}

/// Accumulates DRAM energy over a simulation and computes EDP.
///
/// # Example
///
/// ```
/// use dve_dram::energy::EnergyModel;
/// use dve_sim::time::{Cycles, Frequency};
///
/// let mut e = EnergyModel::new(1); // one rank
/// e.count_read();
/// e.count_activate();
/// let joules = e.total_joules(Cycles(3_000_000_000), Frequency::ghz(3.0));
/// assert!(joules > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    params: EnergyParams,
    ranks: usize,
    activates: u64,
    reads: u64,
    writes: u64,
    refreshes: u64,
}

impl EnergyModel {
    /// Creates a model for a subsystem with `ranks` total DRAM ranks.
    pub fn new(ranks: usize) -> EnergyModel {
        Self::with_params(ranks, EnergyParams::default())
    }

    /// Creates a model with explicit energy parameters.
    pub fn with_params(ranks: usize, params: EnergyParams) -> EnergyModel {
        EnergyModel {
            params,
            ranks,
            activates: 0,
            reads: 0,
            writes: 0,
            refreshes: 0,
        }
    }

    /// Zeroes the event counts, keeping the parameters and rank count.
    pub(crate) fn reset(&mut self) {
        self.activates = 0;
        self.reads = 0;
        self.writes = 0;
        self.refreshes = 0;
    }

    /// Records one activate+precharge.
    pub fn count_activate(&mut self) {
        self.activates += 1;
    }

    /// Records one read burst.
    pub fn count_read(&mut self) {
        self.reads += 1;
    }

    /// Records one write burst.
    pub fn count_write(&mut self) {
        self.writes += 1;
    }

    /// Records one refresh command.
    pub fn count_refresh(&mut self) {
        self.refreshes += 1;
    }

    /// Merges counts from another model (e.g. per-channel submodels).
    pub fn merge(&mut self, other: &EnergyModel) {
        self.activates += other.activates;
        self.reads += other.reads;
        self.writes += other.writes;
        self.refreshes += other.refreshes;
        self.ranks += other.ranks;
    }

    /// Number of read bursts recorded.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write bursts recorded.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of activates recorded.
    pub fn activates(&self) -> u64 {
        self.activates
    }

    /// Dynamic energy only (no background), in joules.
    pub fn dynamic_joules(&self) -> f64 {
        (self.activates as f64 * self.params.act_pre_nj
            + self.reads as f64 * self.params.read_nj
            + self.writes as f64 * self.params.write_nj
            + self.refreshes as f64 * self.params.refresh_nj)
            * 1e-9
    }

    /// Total energy (dynamic + background) over an execution of
    /// `duration` at `clock`, in joules.
    pub fn total_joules(&self, duration: Cycles, clock: Frequency) -> f64 {
        let seconds = clock.nanos_for(duration) * 1e-9;
        self.dynamic_joules()
            + self.params.background_mw_per_rank * 1e-3 * self.ranks as f64 * seconds
    }

    /// Memory energy-delay product: total energy × execution time (J·s).
    pub fn memory_edp(&self, duration: Cycles, clock: Frequency) -> f64 {
        let seconds = clock.nanos_for(duration) * 1e-9;
        self.total_joules(duration, clock) * seconds
    }
}

/// System-level EDP from memory EDP using the paper's assumption that
/// memory is `memory_fraction` (≈0.18) of total system power: scaling the
/// memory power term and holding the rest constant.
///
/// Given memory energy `e_mem` over time `t`, system energy is
/// `e_mem / memory_fraction` for the *baseline*; for a variant with
/// memory energy `e_mem'` and time `t'`, the non-memory power is the same
/// `P_rest = e_mem * (1 - f) / (f * t)`, so
/// `E_sys' = e_mem' + P_rest * t'` and `EDP_sys' = E_sys' * t'`.
pub fn system_edp(
    baseline_mem_joules: f64,
    baseline_seconds: f64,
    variant_mem_joules: f64,
    variant_seconds: f64,
    memory_fraction: f64,
) -> f64 {
    assert!(
        memory_fraction > 0.0 && memory_fraction < 1.0,
        "memory fraction must be in (0,1)"
    );
    let rest_power =
        baseline_mem_joules * (1.0 - memory_fraction) / (memory_fraction * baseline_seconds);
    let system_energy = variant_mem_joules + rest_power * variant_seconds;
    system_energy * variant_seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_energy_adds_up() {
        let mut e = EnergyModel::new(1);
        e.count_activate();
        e.count_read();
        e.count_write();
        e.count_refresh();
        let expected = (2.0 + 3.5 + 3.8 + 28.0) * 1e-9;
        assert!((e.dynamic_joules() - expected).abs() < 1e-18);
    }

    #[test]
    fn background_constant_is_single_source_of_truth() {
        // The named constant, the default params and the helper must all
        // agree, so total energy computed through any of them is
        // identical to the historical inline `150.0e-3 * ranks * s`.
        assert_eq!(EnergyParams::BACKGROUND_MW_PER_RANK, 150.0);
        assert_eq!(
            EnergyParams::default().background_mw_per_rank,
            EnergyParams::BACKGROUND_MW_PER_RANK
        );
        let seconds = 0.25;
        let ranks = 4;
        let via_helper = EnergyParams::background_joules(ranks, seconds);
        let via_literal = 150.0e-3 * ranks as f64 * seconds;
        assert_eq!(via_helper, via_literal);
        // And the model's total = dynamic + the same background term.
        let mut e = EnergyModel::new(ranks);
        e.count_read();
        let t = Cycles(750_000_000); // 0.25 s at 3 GHz
        let f = Frequency::ghz(3.0);
        let total = e.total_joules(t, f);
        assert!((total - (e.dynamic_joules() + via_helper)).abs() < 1e-15);
    }

    #[test]
    fn background_scales_with_ranks_and_time() {
        let e1 = EnergyModel::new(1);
        let e2 = EnergyModel::new(2);
        let t = Cycles(3_000_000_000); // 1 s at 3 GHz
        let f = Frequency::ghz(3.0);
        let j1 = e1.total_joules(t, f);
        let j2 = e2.total_joules(t, f);
        assert!((j2 / j1 - 2.0).abs() < 1e-9);
        assert!((j1 - 0.150).abs() < 1e-9); // 150 mW for 1 s
    }

    #[test]
    fn edp_is_energy_times_delay() {
        let mut e = EnergyModel::new(1);
        e.count_read();
        let t = Cycles(3_000_000);
        let f = Frequency::ghz(3.0);
        let edp = e.memory_edp(t, f);
        let expect = e.total_joules(t, f) * 1e-3;
        assert!((edp - expect).abs() < 1e-15);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = EnergyModel::new(1);
        a.count_read();
        let mut b = EnergyModel::new(1);
        b.count_read();
        b.count_write();
        a.merge(&b);
        assert_eq!(a.reads(), 2);
        assert_eq!(a.writes(), 1);
    }

    #[test]
    fn system_edp_baseline_identity() {
        // With identical variant == baseline, system EDP reduces to
        // (e_mem / f) * t.
        let edp = system_edp(1.0, 2.0, 1.0, 2.0, 0.18);
        let expect = (1.0 / 0.18) * 2.0;
        assert!((edp - expect).abs() < 1e-9);
    }

    #[test]
    fn faster_variant_lowers_system_edp_despite_higher_mem_energy() {
        // The paper's §VII result in miniature: +40% memory energy but
        // -15% runtime still lowers system EDP.
        let base = system_edp(1.0, 2.0, 1.0, 2.0, 0.18);
        let variant = system_edp(1.0, 2.0, 1.4, 1.7, 0.18);
        assert!(variant < base);
    }

    #[test]
    #[should_panic(expected = "memory fraction")]
    fn bad_fraction_rejected() {
        system_edp(1.0, 1.0, 1.0, 1.0, 1.5);
    }
}
