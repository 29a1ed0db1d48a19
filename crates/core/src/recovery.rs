//! The §V-B2 recovery flow.
//!
//! "When a memory read fails in one of the replicas ... the home/replica
//! directory diverts the request to the other memory controller for
//! recovery. If the other copy's read also fails, the data is lost (DUE)
//! and a machine check exception is logged. If the copy is good, data is
//! returned and the system logs a Corrected Error (CE). The initial
//! memory controller attempts to fix its copy by updating it with the
//! correct data and then re-reading the DRAM. If the error was
//! temporary, this read will succeed, else the system is placed in a
//! degraded state with only one working copy."
//!
//! [`RecoverableMemory`] wraps the two controllers holding a replicated
//! region and implements exactly that state machine, including the
//! degraded-mode bookkeeping that funnels later reads to the surviving
//! copy (§V-E).

use dve_dram::config::DramConfig;
use dve_dram::controller::{EccProfile, MemoryController};
use dve_ecc::code::CheckOutcome;
use dve_sim::hash::FastSet;
use dve_sim::time::Cycles;
use std::collections::VecDeque;

/// What a recoverable read observed end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The primary copy read cleanly (or its local ECC repaired it).
    Clean,
    /// The primary failed detection; the replica supplied the data and
    /// the subsequent repair-and-reread of the primary *succeeded*
    /// (transient error). Logged as a CE.
    CorrectedTransient,
    /// The primary failed, the replica supplied the data, but the
    /// repair re-read failed again (hard error): the line's region is
    /// now degraded to one working copy. Logged as a CE + degradation.
    CorrectedDegraded,
    /// Both copies failed: data lost; machine-check exception (DUE).
    MachineCheck,
}

/// Recovery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Clean reads.
    pub clean: u64,
    /// Corrected errors (replica supplied data).
    pub corrected: u64,
    /// Transient errors repaired in place.
    pub repaired: u64,
    /// Regions placed in degraded (single-copy) mode.
    pub degraded: u64,
    /// Machine-check exceptions (both copies bad).
    pub machine_checks: u64,
}

/// A replicated memory region backed by one controller per socket.
///
/// # Example
///
/// ```
/// use dve::recovery::{RecoverableMemory, RecoveryOutcome};
/// use dve_dram::fault::FaultDomain;
///
/// let mut mem = RecoverableMemory::new_dve_tsd();
/// // A whole memory controller dies on socket 0:
/// mem.primary_mut().faults_mut().fail(FaultDomain::Controller);
/// let (outcome, _) = mem.read(0x1000, 0);
/// // The replica recovers the data; socket 0's copy stays bad (hard
/// // fault), so the region degrades to one copy.
/// assert_eq!(outcome, RecoveryOutcome::CorrectedDegraded);
/// ```
/// One recovery-relevant read, as recorded by the event log.
///
/// Fault campaigns drain these with
/// [`RecoverableMemory::take_events`] to build per-trial recovery
/// traces; the log only records non-clean reads, so steady-state
/// workloads cost nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Byte address of the read.
    pub addr: u64,
    /// Time the read was issued (cycles).
    pub at: u64,
    /// What the recovery state machine concluded.
    pub outcome: RecoveryOutcome,
}

#[derive(Debug, Clone)]
pub struct RecoverableMemory {
    primary: MemoryController,
    replica: MemoryController,
    /// Line addresses known degraded (one working copy only).
    degraded: FastSet<u64>,
    stats: RecoveryStats,
    /// Non-clean reads observed since the last [`Self::take_events`],
    /// bounded at `event_cap` entries: when full, the *oldest* event is
    /// dropped (and counted) so a long undrained run keeps the most
    /// recent history instead of growing without bound.
    events: VecDeque<RecoveryEvent>,
    log_events: bool,
    event_cap: usize,
    dropped: u64,
}

impl RecoverableMemory {
    /// Default bound on the undrained event log (entries). Chosen so a
    /// campaign that forgets to drain between trials caps at ~100 KiB
    /// of log instead of growing with run length.
    pub const EVENT_LOG_CAP: usize = 4096;
    /// Builds a replicated region with the given ECC at both
    /// controllers, in the initial state [`Self::reset`] defines.
    pub fn new(cfg: DramConfig, ecc: EccProfile) -> RecoverableMemory {
        let mut mem = RecoverableMemory {
            primary: MemoryController::new(0, cfg.clone()),
            replica: MemoryController::new(1, cfg),
            degraded: FastSet::default(),
            stats: RecoveryStats::default(),
            events: VecDeque::new(),
            log_events: false,
            event_cap: Self::EVENT_LOG_CAP,
            dropped: 0,
        };
        mem.primary.set_ecc(ecc);
        mem.replica.set_ecc(ecc);
        mem.reset();
        mem
    }

    /// Returns the region to its initial state without reallocating:
    /// both controllers [`MemoryController::reset`], no degraded lines,
    /// zeroed statistics, an empty event log and no dropped events. The
    /// geometry, ECC profile, event-logging switch and log bound are
    /// kept. A reset region behaves exactly as a freshly built one.
    pub fn reset(&mut self) {
        self.primary.reset();
        self.replica.reset();
        self.degraded.clear();
        self.stats = RecoveryStats::default();
        self.events.clear();
        self.dropped = 0;
    }

    /// Dvé+TSD: detect-only codes, correction via replica.
    pub fn new_dve_tsd() -> RecoverableMemory {
        Self::new(DramConfig::ddr4_2400_no_refresh(), EccProfile::tsd())
    }

    /// Dvé+Chipkill: local single-symbol repair plus replica recovery.
    pub fn new_dve_chipkill() -> RecoverableMemory {
        Self::new(DramConfig::ddr4_2400_no_refresh(), EccProfile::chipkill())
    }

    /// The primary-side controller.
    pub fn primary_mut(&mut self) -> &mut MemoryController {
        &mut self.primary
    }

    /// The replica-side controller.
    pub fn replica_mut(&mut self) -> &mut MemoryController {
        &mut self.replica
    }

    /// Recovery statistics.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Whether `addr`'s region is degraded to a single copy.
    pub fn is_degraded(&self, addr: u64) -> bool {
        self.degraded.contains(&(addr / 64))
    }

    /// Enables (or disables) the recovery event log consumed by
    /// [`Self::take_events`]. Off by default.
    pub fn set_event_logging(&mut self, on: bool) {
        self.log_events = on;
    }

    /// Overrides the event-log bound ([`Self::EVENT_LOG_CAP`] by
    /// default). A cap of 0 records nothing (every event counts as
    /// dropped while logging is on).
    pub fn set_event_log_cap(&mut self, cap: usize) {
        self.event_cap = cap;
        while self.events.len() > cap {
            self.events.pop_front();
            self.dropped += 1;
        }
    }

    /// Events evicted from the bounded log before they were drained
    /// (cumulative over the run; never reset by [`Self::take_events`]).
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Drains and returns all recovery events logged since the last
    /// call (or since logging was enabled), oldest first. If the
    /// bounded log overflowed in between, [`Self::dropped_events`]
    /// says how many were lost.
    pub fn take_events(&mut self) -> Vec<RecoveryEvent> {
        std::mem::take(&mut self.events).into()
    }

    /// Reads `addr` with full recovery semantics. Returns the outcome
    /// and the completion time.
    pub fn read(&mut self, addr: u64, now: u64) -> (RecoveryOutcome, u64) {
        let (outcome, done) = self.read_inner(addr, now);
        if self.log_events && outcome != RecoveryOutcome::Clean {
            if self.events.len() >= self.event_cap {
                self.events.pop_front();
                self.dropped += 1;
            }
            if self.event_cap > 0 {
                self.events.push_back(RecoveryEvent {
                    addr,
                    at: now,
                    outcome,
                });
            }
        }
        (outcome, done)
    }

    fn read_inner(&mut self, addr: u64, now: u64) -> (RecoveryOutcome, u64) {
        // Degraded lines go straight to the surviving copy.
        if self.is_degraded(addr) {
            let (t, outcome) = self.replica.read_with_check(addr, Cycles(now));
            return match outcome {
                CheckOutcome::DetectedUncorrectable { .. } => {
                    self.stats.machine_checks += 1;
                    (RecoveryOutcome::MachineCheck, t.complete_at.raw())
                }
                _ => {
                    self.stats.clean += 1;
                    (RecoveryOutcome::Clean, t.complete_at.raw())
                }
            };
        }
        let (t1, first) = self.primary.read_with_check(addr, Cycles(now));
        match first {
            CheckOutcome::NoError | CheckOutcome::Corrected { .. } => {
                self.stats.clean += 1;
                (RecoveryOutcome::Clean, t1.complete_at.raw())
            }
            CheckOutcome::DetectedUncorrectable { .. } => {
                // Divert to the replica controller.
                let (t2, second) = self.replica.read_with_check(addr, t1.complete_at);
                match second {
                    CheckOutcome::DetectedUncorrectable { .. } => {
                        self.stats.machine_checks += 1;
                        (RecoveryOutcome::MachineCheck, t2.complete_at.raw())
                    }
                    _ => {
                        self.stats.corrected += 1;
                        // Attempt to fix the primary: write the good data
                        // back and re-read.
                        let t3 = self.primary.access(
                            addr,
                            dve_dram::controller::AccessKind::Write,
                            t2.complete_at,
                        );
                        let (t4, reread) = self.primary.read_with_check(addr, t3.complete_at);
                        if reread.is_good() {
                            self.stats.repaired += 1;
                            (RecoveryOutcome::CorrectedTransient, t4.complete_at.raw())
                        } else {
                            self.stats.degraded += 1;
                            self.degraded.insert(addr / 64);
                            (RecoveryOutcome::CorrectedDegraded, t4.complete_at.raw())
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dve_dram::fault::FaultDomain;

    #[test]
    fn event_log_records_non_clean_reads_only() {
        let mut mem = RecoverableMemory::new_dve_tsd();
        mem.set_event_logging(true);
        mem.read(0x40, 0); // clean — not logged
        mem.primary_mut().faults_mut().fail(FaultDomain::Controller);
        mem.read(0x80, 100);
        let events = mem.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].addr, 0x80);
        assert_eq!(events[0].outcome, RecoveryOutcome::CorrectedDegraded);
        assert!(mem.take_events().is_empty(), "drain empties the log");
    }

    #[test]
    fn event_log_is_bounded_with_dropped_counter() {
        let mut mem = RecoverableMemory::new_dve_tsd();
        mem.set_event_logging(true);
        mem.set_event_log_cap(8);
        mem.primary_mut().faults_mut().fail(FaultDomain::Controller);
        // 20 distinct lines: every first read is CorrectedDegraded and
        // gets logged; the ring keeps only the newest 8.
        for i in 0..20u64 {
            mem.read(i * 64, i * 100_000);
        }
        assert_eq!(mem.dropped_events(), 12);
        let events = mem.take_events();
        assert_eq!(events.len(), 8, "log stays within the cap");
        assert_eq!(events[0].addr, 12 * 64, "oldest entries were evicted");
        assert_eq!(events[7].addr, 19 * 64, "newest entry survives");
        assert_eq!(
            mem.dropped_events(),
            12,
            "drain does not reset the cumulative counter"
        );
        // A long undrained run with the default cap stays within it.
        let mut mem = RecoverableMemory::new_dve_tsd();
        mem.set_event_logging(true);
        mem.primary_mut().faults_mut().fail(FaultDomain::Controller);
        for i in 0..(RecoverableMemory::EVENT_LOG_CAP as u64 + 100) {
            mem.read(i * 64, i * 100_000);
        }
        assert_eq!(mem.take_events().len(), RecoverableMemory::EVENT_LOG_CAP);
        assert_eq!(mem.dropped_events(), 100);
    }

    #[test]
    fn zero_cap_records_nothing_and_counts_everything() {
        let mut mem = RecoverableMemory::new_dve_tsd();
        mem.set_event_logging(true);
        mem.set_event_log_cap(0);
        mem.primary_mut().faults_mut().fail(FaultDomain::Controller);
        for i in 0..5u64 {
            mem.read(i * 64, i * 100_000);
        }
        assert!(mem.take_events().is_empty());
        assert_eq!(mem.dropped_events(), 5);
    }

    #[test]
    fn clean_reads_stay_clean() {
        let mut mem = RecoverableMemory::new_dve_tsd();
        let (o, _) = mem.read(0x40, 0);
        assert_eq!(o, RecoveryOutcome::Clean);
        assert_eq!(mem.stats().clean, 1);
    }

    #[test]
    fn chip_fault_with_chipkill_repairs_locally() {
        let mut mem = RecoverableMemory::new_dve_chipkill();
        mem.primary_mut().faults_mut().fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 3,
        });
        let (o, _) = mem.read(0x40, 0);
        // Chipkill corrects one symbol locally: no replica involvement.
        assert_eq!(o, RecoveryOutcome::Clean);
    }

    #[test]
    fn chip_fault_with_tsd_recovers_from_replica_and_degrades() {
        let mut mem = RecoverableMemory::new_dve_tsd();
        mem.primary_mut().faults_mut().fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 3,
        });
        let (o, _) = mem.read(0x40, 0);
        // Hard chip fault: replica corrects, repair re-read still fails.
        assert_eq!(o, RecoveryOutcome::CorrectedDegraded);
        assert!(mem.is_degraded(0x40));
        assert_eq!(mem.stats().corrected, 1);
        assert_eq!(mem.stats().degraded, 1);
    }

    #[test]
    fn fault_repaired_before_the_read_reads_clean() {
        let mut mem = RecoverableMemory::new_dve_tsd();
        let fault = FaultDomain::Line {
            channel: 0,
            line: 1,
        };
        mem.primary_mut().faults_mut().fail(fault);
        mem.primary_mut().faults_mut().repair(fault);
        let (o, _) = mem.read(0x40, 0);
        assert_eq!(o, RecoveryOutcome::Clean);
    }

    #[test]
    fn controller_failure_recovers_every_read() {
        let mut mem = RecoverableMemory::new_dve_tsd();
        mem.primary_mut().faults_mut().fail(FaultDomain::Controller);
        for i in 0..10u64 {
            let (o, _) = mem.read(i * 64, i * 10_000);
            assert_eq!(o, RecoveryOutcome::CorrectedDegraded, "read {i}");
        }
        assert_eq!(mem.stats().corrected, 10);
        // Subsequent reads of degraded lines go straight to the replica.
        let (o, _) = mem.read(0, 1_000_000);
        assert_eq!(o, RecoveryOutcome::Clean);
    }

    #[test]
    fn both_copies_failing_is_machine_check() {
        let mut mem = RecoverableMemory::new_dve_tsd();
        mem.primary_mut().faults_mut().fail(FaultDomain::Controller);
        mem.replica_mut().faults_mut().fail(FaultDomain::Controller);
        let (o, _) = mem.read(0x80, 0);
        assert_eq!(o, RecoveryOutcome::MachineCheck);
        assert_eq!(mem.stats().machine_checks, 1);
    }

    #[test]
    fn degraded_region_with_failed_replica_is_machine_check() {
        let mut mem = RecoverableMemory::new_dve_tsd();
        mem.primary_mut().faults_mut().fail(FaultDomain::Controller);
        mem.read(0x80, 0); // degrade
        mem.replica_mut().faults_mut().fail(FaultDomain::Controller);
        let (o, _) = mem.read(0x80, 100_000);
        assert_eq!(o, RecoveryOutcome::MachineCheck);
    }

    #[test]
    fn recovery_adds_latency() {
        let mut clean = RecoverableMemory::new_dve_tsd();
        let (_, t_clean) = clean.read(0x40, 0);
        let mut faulty = RecoverableMemory::new_dve_tsd();
        faulty
            .primary_mut()
            .faults_mut()
            .fail(FaultDomain::Controller);
        let (_, t_recovered) = faulty.read(0x40, 0);
        assert!(t_recovered > t_clean, "recovery path must cost more");
    }

    /// A faulted replay over 64 lines, with a transient fault cleared
    /// halfway; returns every read's outcome and completion time.
    fn faulted_replay(mem: &mut RecoverableMemory) -> Vec<(RecoveryOutcome, u64)> {
        let transient = FaultDomain::Line {
            channel: 0,
            line: 9,
        };
        mem.primary_mut().faults_mut().fail(FaultDomain::Chip {
            channel: 0,
            rank: 0,
            chip: 3,
        });
        mem.primary_mut().faults_mut().fail(transient);
        mem.replica_mut().faults_mut().fail(FaultDomain::Line {
            channel: 1,
            line: 5,
        });
        let mut t = 0;
        let mut out = Vec::new();
        for i in 0..192u64 {
            if i == 96 {
                mem.primary_mut().faults_mut().repair(transient);
            }
            let (o, done) = mem.read((i * 37 % 64) * 64, t);
            out.push((o, done));
            t = done;
        }
        out
    }

    #[test]
    fn reset_region_replays_like_a_fresh_one() {
        let mut used = RecoverableMemory::new_dve_tsd();
        used.set_event_logging(true);
        // Dirty it: machine checks, degraded lines, undrained events and
        // busy banks far in the future on both controllers.
        used.primary_mut()
            .faults_mut()
            .fail(FaultDomain::Controller);
        for i in 0..50u64 {
            used.read(i * 64, i * 1_000_000);
        }
        used.replica_mut()
            .faults_mut()
            .fail(FaultDomain::Controller);
        for i in 0..50u64 {
            used.read(i * 8192, 60_000_000 + i * 1_000);
        }
        assert!(used.is_degraded(0) && used.stats().machine_checks > 0);
        used.reset();

        let mut fresh = RecoverableMemory::new_dve_tsd();
        fresh.set_event_logging(true);
        assert_eq!(faulted_replay(&mut used), faulted_replay(&mut fresh));
        assert_eq!(used.stats(), fresh.stats());
        assert!(fresh.stats().degraded > 0 && fresh.stats().machine_checks > 0);
        assert_eq!(used.dropped_events(), fresh.dropped_events());
        let events = fresh.take_events();
        assert!(!events.is_empty());
        assert_eq!(used.take_events(), events);
        for line in 0..64u64 {
            assert_eq!(used.is_degraded(line * 64), fresh.is_degraded(line * 64));
        }
        for (a, b) in [
            (used.primary_mut().clone(), fresh.primary_mut().clone()),
            (used.replica_mut().clone(), fresh.replica_mut().clone()),
        ] {
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.energy(), b.energy());
            assert_eq!(a.faults(), b.faults());
            assert_eq!(
                a.rowhammer().max_activations(),
                b.rowhammer().max_activations()
            );
            assert_eq!(a.rowhammer().rows_over(0), b.rowhammer().rows_over(0));
        }
    }
}
