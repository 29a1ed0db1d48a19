//! Scenario tests: multi-step protocol flows through the engine that the
//! unit tests don't reach — coarse-grain region semantics, dynamic
//! switching under load, degraded-mode funneling, owner-forward chains,
//! and inclusive-hierarchy back-invalidation.

use dve_coherence::engine::{EngineConfig, Mode, ProtocolEngine};
use dve_coherence::fabric::TestFabric;
use dve_coherence::replica_dir::ReplicaPolicy;
use dve_coherence::types::{ReqType, RequestClass, ServiceLevel};

const HOME0: u64 = 0; // page 0 → socket 0
const HOME1: u64 = 64; // page 1 → socket 1

fn dve(policy: ReplicaPolicy) -> Mode {
    Mode::Dve {
        policy,
        speculative: false,
    }
}

// ---- coarse-grain regions ---------------------------------------------

#[test]
fn coarse_region_pull_covers_sibling_lines() {
    let cfg = EngineConfig {
        replica_region_lines: 16,
        ..Default::default()
    };
    let mut e = ProtocolEngine::new(dve(ReplicaPolicy::Allow), cfg);
    let mut f = TestFabric::default();
    // One pull on line 64 grants the whole region 64..80.
    let o = e.access(0, HOME1, ReqType::Read, 0, &mut f);
    assert_eq!(
        o.service,
        ServiceLevel::RemoteDram,
        "first pull goes to home"
    );
    for (i, l) in (65..80).enumerate() {
        let o = e.access(
            1 + (i % 7),
            l,
            ReqType::Read,
            10_000 + i as u64 * 1000,
            &mut f,
        );
        assert_eq!(
            o.service,
            ServiceLevel::LocalDram,
            "line {l} covered by the region"
        );
    }
}

#[test]
fn coarse_region_install_skipped_when_region_dirty() {
    let cfg = EngineConfig {
        replica_region_lines: 16,
        ..Default::default()
    };
    let mut e = ProtocolEngine::new(dve(ReplicaPolicy::Allow), cfg);
    let mut f = TestFabric::default();
    // Home side dirties one line of the region first.
    e.access(8, HOME1 + 3, ReqType::Write, 0, &mut f);
    // A replica-side read of a *different* line in the same region must
    // not install region read permission (§V-C5's condition).
    let o = e.access(0, HOME1 + 7, ReqType::Read, 10_000, &mut f);
    assert_eq!(o.service, ServiceLevel::RemoteDram);
    assert!(
        !e.replica_dir(0).replica_readable(HOME1 + 7),
        "no region entry while a line in it is writable at home"
    );
}

#[test]
fn coarse_region_invalidated_by_one_write() {
    let cfg = EngineConfig {
        replica_region_lines: 16,
        ..Default::default()
    };
    let mut e = ProtocolEngine::new(dve(ReplicaPolicy::Allow), cfg);
    let mut f = TestFabric::default();
    e.access(0, HOME1, ReqType::Read, 0, &mut f); // pulls region
    assert!(e.replica_dir(0).replica_readable(HOME1 + 9));
    // One home-side write anywhere in the region revokes all 16 lines.
    e.access(8, HOME1 + 9, ReqType::Write, 10_000, &mut f);
    for l in HOME1..HOME1 + 16 {
        assert!(
            !e.replica_dir(0).replica_readable(l),
            "line {l} still readable"
        );
    }
    assert_eq!(e.stats().replica_invalidations, 1);
}

// ---- dynamic switching under load ---------------------------------------

#[test]
fn dynamic_switch_preserves_correct_service_under_load() {
    let mut e = ProtocolEngine::new(dve(ReplicaPolicy::Allow), EngineConfig::default());
    let mut f = TestFabric::default();
    let mut t = 0;
    // Mixed traffic under allow.
    for i in 0..200u64 {
        let core = (i % 16) as usize;
        let req = if i % 5 == 0 {
            ReqType::Write
        } else {
            ReqType::Read
        };
        let o = e.access(core, i % 64, req, t, &mut f);
        t = o.complete_at;
    }
    // Switch to deny; dirty home-side lines must be RM-protected.
    e.switch_policy(ReplicaPolicy::Deny, false, t, &mut f);
    for socket in 0..2 {
        let home = socket;
        let replica = 1 - socket;
        for line in 0..64u64 {
            if e.home_of(line) != home {
                continue;
            }
            let entry = e.home_dir(home).entry(line);
            if entry.state.writable() && entry.owner == Some(home) {
                assert!(
                    !e.replica_dir(replica).replica_readable(line),
                    "line {line}: dirty at home but replica readable after switch"
                );
            }
        }
    }
    // Keep running under deny: all operations still complete, time moves.
    for i in 0..200u64 {
        let core = (i % 16) as usize;
        let o = e.access(core, i % 64, ReqType::Read, t, &mut f);
        assert!(o.complete_at >= t);
        t = o.complete_at;
    }
    // And back to allow.
    e.switch_policy(ReplicaPolicy::Allow, true, t, &mut f);
    let o = e.access(0, HOME1, ReqType::Read, t, &mut f);
    assert!(o.complete_at > t);
}

// ---- degraded mode across service levels --------------------------------

#[test]
fn degraded_mode_matches_baseline_service_levels() {
    let mut deg = ProtocolEngine::new(dve(ReplicaPolicy::Deny), EngineConfig::default());
    let mut base = ProtocolEngine::new(Mode::Baseline, EngineConfig::default());
    let mut f1 = TestFabric::default();
    deg.set_degraded(true, 0, &mut f1);
    let mut f2 = TestFabric::default();
    let mut rng = dve_sim::rng::SplitMix64::new(11);
    let mut t = 0;
    for _ in 0..500 {
        let core = rng.next_below(16) as usize;
        let line = rng.next_below(128);
        let req = if rng.chance(0.3) {
            ReqType::Write
        } else {
            ReqType::Read
        };
        let a = deg.access(core, line, req, t, &mut f1);
        let b = base.access(core, line, req, t, &mut f2);
        assert_eq!(a.service, b.service, "line {line}");
        assert_eq!(a.complete_at, b.complete_at, "line {line}");
        t = a.complete_at;
    }
    assert_eq!(deg.stats().replica_reads, 0);
}

// ---- owner-forward chains ------------------------------------------------

#[test]
fn read_chain_through_remote_owner_then_shared() {
    let mut e = ProtocolEngine::new(Mode::Baseline, EngineConfig::default());
    let mut f = TestFabric::default();
    // Socket 1 core dirties a socket-0-homed line.
    let o = e.access(8, HOME0, ReqType::Write, 0, &mut f);
    assert_eq!(o.service, ServiceLevel::RemoteDram);
    // Socket 0 core reads: forwarded to the remote owner (3-hop).
    let o = e.access(0, HOME0, ReqType::Read, 100_000, &mut f);
    assert_eq!(o.service, ServiceLevel::RemoteOwner);
    // Another socket-1 core reads: LLC hit on its socket.
    let o = e.access(9, HOME0, ReqType::Read, 200_000, &mut f);
    assert_eq!(o.service, ServiceLevel::Llc);
    // Now the line is in O at socket 1 and S at socket 0: a fresh
    // socket-0 L1 still hits its LLC.
    let o = e.access(1, HOME0, ReqType::Read, 300_000, &mut f);
    assert_eq!(o.service, ServiceLevel::Llc);
}

#[test]
fn write_after_remote_owner_transfers_ownership() {
    let mut e = ProtocolEngine::new(Mode::Baseline, EngineConfig::default());
    let mut f = TestFabric::default();
    e.access(8, HOME0, ReqType::Write, 0, &mut f); // socket 1 owns
                                                   // Socket 0 writes: FwdGetX — ownership moves with the dirty data.
    let o = e.access(0, HOME0, ReqType::Write, 100_000, &mut f);
    assert_eq!(o.service, ServiceLevel::RemoteOwner);
    let entry = e.home_dir(0).entry(HOME0);
    assert_eq!(entry.owner, Some(0));
    // The old owner was invalidated: its next read goes to the new owner.
    let o = e.access(8, HOME0, ReqType::Read, 200_000, &mut f);
    assert_eq!(o.service, ServiceLevel::RemoteOwner);
}

// ---- inclusive hierarchy --------------------------------------------------

#[test]
fn llc_eviction_back_invalidates_l1() {
    // 1-way LLC with 16 sets: lines 16 apart conflict.
    let cfg = EngineConfig {
        llc_bytes: 1024,
        llc_ways: 1,
        ..Default::default()
    };
    let mut e = ProtocolEngine::new(Mode::Baseline, cfg);
    let mut f = TestFabric::default();
    e.access(0, 0, ReqType::Read, 0, &mut f);
    // Same core: L1 hit confirms residency.
    let o = e.access(0, 0, ReqType::Read, 10_000, &mut f);
    assert_eq!(o.service, ServiceLevel::L1);
    // Conflict line evicts line 0 from the LLC → L1 must be purged too
    // (inclusive), so the next access misses past L1.
    e.access(0, 16, ReqType::Read, 20_000, &mut f);
    let o = e.access(0, 0, ReqType::Read, 30_000, &mut f);
    assert_ne!(
        o.service,
        ServiceLevel::L1,
        "stale L1 copy after LLC eviction"
    );
}

// ---- on-chip directory cache (§V-A) ----------------------------------------

#[test]
fn dir_cache_miss_adds_a_memory_fetch() {
    let cfg = EngineConfig {
        dir_cache_entries: Some(64),
        ..Default::default()
    };
    let mut e = ProtocolEngine::new(Mode::Baseline, cfg);
    let mut f = TestFabric::default();
    // Cold: directory-entry fetch + data read = 2 memory reads at home.
    e.access(0, HOME0, ReqType::Read, 0, &mut f);
    assert_eq!(f.mem_reads[0], 2, "entry fetch + data");
    // A remote core touches the same line: the entry is now on-chip, so
    // only the data read hits memory.
    e.access(8, HOME0, ReqType::Read, 100_000, &mut f);
    assert_eq!(f.mem_reads[0], 3, "warm directory: data only");
}

#[test]
fn ideal_directory_never_fetches_entries() {
    let mut e = ProtocolEngine::new(Mode::Baseline, EngineConfig::default());
    let mut f = TestFabric::default();
    e.access(0, HOME0, ReqType::Read, 0, &mut f);
    assert_eq!(f.mem_reads[0], 1, "all-SRAM directory: data read only");
}

// ---- classification coverage ----------------------------------------------

#[test]
fn all_four_request_classes_observed() {
    let mut e = ProtocolEngine::new(Mode::Baseline, EngineConfig::default());
    let mut f = TestFabric::default();
    e.access(0, HOME0, ReqType::Read, 0, &mut f); // private-read (I)
    e.access(8, HOME0, ReqType::Read, 1_000, &mut f); // read-only (S)
    e.access(8, HOME0, ReqType::Write, 2_000, &mut f); // read/write (S+GETX)
    e.access(0, HOME0, ReqType::Read, 3_000, &mut f); // read/write (M+GETS)
    e.access(0, HOME0 + 1, ReqType::Write, 4_000, &mut f); // private-rw (I+GETX)
    let counts = e.home_dir(0).class_counts();
    for (i, class) in RequestClass::ALL.iter().enumerate() {
        assert!(counts[i] > 0, "{class} never observed");
    }
}

// ---- speculative access bookkeeping ----------------------------------------

#[test]
fn speculation_confirms_clean_and_squashes_dirty() {
    let mut e = ProtocolEngine::new(
        Mode::Dve {
            policy: ReplicaPolicy::Allow,
            speculative: true,
        },
        EngineConfig::default(),
    );
    let mut f = TestFabric::default();
    // Clean line: speculation confirmed, no data response crosses.
    let o = e.access(0, HOME1, ReqType::Read, 0, &mut f);
    assert_eq!(o.service, ServiceLevel::LocalDram);
    // Dirty a different line from the home side, then read it from the
    // replica side: squash.
    e.access(8, HOME1 + 5, ReqType::Write, 50_000, &mut f);
    let o = e.access(0, HOME1 + 5, ReqType::Read, 100_000, &mut f);
    assert_eq!(o.service, ServiceLevel::RemoteOwner);
    let s = e.stats();
    assert_eq!(s.spec_confirmed, 1);
    assert_eq!(s.spec_squashed, 1);
    // A squashed speculation still performed a replica DRAM read
    // (bandwidth cost the paper accepts).
    assert_eq!(f.replica_reads[0], 2);
}

// ---- selective replication (§V-D) ------------------------------------------

#[test]
fn selective_replication_serves_covered_pages_only() {
    use dve_coherence::engine::ReplicationScope;
    // Replicate only page 1 (lines 64..128).
    let mut pages = dve_sim::hash::FastSet::default();
    pages.insert(1u64);
    let cfg = EngineConfig {
        replication_scope: ReplicationScope::Pages(pages),
        ..Default::default()
    };
    let mut e = ProtocolEngine::new(dve(ReplicaPolicy::Deny), cfg);
    let mut f = TestFabric::default();
    // A covered line homed on socket 1: served from the local replica.
    let o = e.access(0, HOME1, ReqType::Read, 0, &mut f);
    assert_eq!(o.service, ServiceLevel::LocalDram);
    // An uncovered line homed on socket 1 (page 3): single-copy fallback
    // — full remote access, exactly like baseline NUMA.
    let o = e.access(0, 3 * 64, ReqType::Read, 100_000, &mut f);
    assert_eq!(o.service, ServiceLevel::RemoteDram);
    // Writes to uncovered pages push no RM entries and skip the replica
    // writeback.
    let before = e.stats().rm_installs;
    e.access(8, 3 * 64 + 1, ReqType::Write, 200_000, &mut f);
    assert_eq!(e.stats().rm_installs, before);
    assert_eq!(f.replica_writes, [0, 0]);
}

#[test]
fn selective_replication_covered_writes_stay_consistent() {
    use dve_coherence::engine::ReplicationScope;
    let mut pages = dve_sim::hash::FastSet::default();
    pages.insert(1u64);
    let cfg = EngineConfig {
        replication_scope: ReplicationScope::Pages(pages),
        llc_bytes: 1024,
        llc_ways: 1,
        l1_bytes: 512,
        l1_ways: 1,
        ..Default::default()
    };
    let mut e = ProtocolEngine::new(dve(ReplicaPolicy::Deny), cfg);
    let mut f = TestFabric::default();
    // Dirty a covered line, then thrash the tiny caches to force the
    // writeback: both copies must be written.
    e.access(8, HOME1, ReqType::Write, 0, &mut f);
    let mut t = 100_000;
    for i in 1..40u64 {
        e.access(8, HOME1 + i * 16 * 64 * 64, ReqType::Read, t, &mut f);
        t += 100_000;
    }
    assert!(
        f.replica_writes[0] > 0,
        "covered dirty line propagated to the replica"
    );
}
