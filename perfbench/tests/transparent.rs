//! The timing `Fabric` wrapper and the traced replay change nothing the
//! simulation computes.

use dve::config::Scheme;
use dve::fabric_impl::SystemFabric;
use dve_coherence::engine::ProtocolEngine;
use dve_coherence::types::ReqType;
use dve_perfbench::sim::{self, layer, Cell, SimOutcome};
use dve_perfbench::span::{FabricLayers, Stopwatch, TimedFabric};
use dve_workloads::op::{MemReq, Op};
use dve_workloads::TraceGenerator;

fn small(mut cell: Cell, ops: u64) -> Cell {
    cell.cfg.ops_per_thread = ops;
    cell.cfg.warmup_per_thread = ops / 10;
    cell
}

#[test]
fn wrapper_is_bit_identical_access_by_access() {
    let cell = small(sim::fig6_cells(7).swap_remove(2), 300);
    assert_eq!(cell.cfg.scheme, Scheme::DveDeny);
    let sw = Stopwatch::new(layer::COUNT, layer::SYSTEM);
    let layers = FabricLayers {
        noc: layer::NOC,
        dram: layer::DRAM,
    };
    let mut plain_engine = ProtocolEngine::new(cell.cfg.engine_mode(), cell.cfg.engine.clone());
    let mut timed_engine = ProtocolEngine::new(cell.cfg.engine_mode(), cell.cfg.engine.clone());
    let mut plain_fabric = SystemFabric::new(&cell.cfg);
    let mut timed_fabric = SystemFabric::new(&cell.cfg);
    let mut gen = TraceGenerator::new(&cell.profile, cell.cfg.engine.cores, cell.seed);
    let mut now = 0u64;
    let mut accesses = 0;
    for i in 0..40_000usize {
        let core = i % cell.cfg.engine.cores;
        if let Op::Mem { line, req } = gen.next_op(core) {
            let r = match req {
                MemReq::Read => ReqType::Read,
                MemReq::Write => ReqType::Write,
            };
            let a = plain_engine.access(core, line, r, now, &mut plain_fabric);
            let mut wrapped = TimedFabric {
                inner: &mut timed_fabric,
                sw: &sw,
                layers,
            };
            let b = timed_engine.access(core, line, r, now, &mut wrapped);
            assert_eq!(a, b, "access {i} differs through the wrapper");
            now = a.complete_at;
            accesses += 1;
        }
    }
    assert!(accesses > 1_000);
    assert_eq!(plain_engine.stats(), timed_engine.stats());
    assert_eq!(plain_fabric.traffic(), timed_fabric.traffic());
    assert_eq!(plain_fabric.ledger(), timed_fabric.ledger());
    assert!(sw.calls(layer::NOC) > 0 && sw.calls(layer::DRAM) > 0);
}

#[test]
fn traced_replay_reproduces_fig6_cells() {
    for cell in sim::fig6_cells(11).into_iter().take(6) {
        let cell = small(cell, 400);
        let untraced = sim::run_untraced(&cell).result;
        let sw = Stopwatch::new(layer::COUNT, layer::ROOT);
        let (traced, ops, accesses) = sim::run_traced(&cell, &sw);
        assert_eq!(traced, SimOutcome::of(&untraced), "{}", cell.profile.name);
        assert_eq!(accesses, untraced.mem_ops * 11 / 10);
        assert!(ops >= accesses);
        assert_eq!(sw.calls(layer::CHAOS), 0, "chaos is disarmed on fig6 cells");
        assert_eq!(sw.raw_ns(layer::CHAOS), 0.0);
    }
}

#[test]
fn traced_replay_reproduces_chaos_cells() {
    for cell in sim::chaos_cells(5) {
        let cell = small(cell, 2_000);
        let untraced = sim::run_untraced(&cell).result;
        let sw = Stopwatch::new(layer::COUNT, layer::ROOT);
        let (traced, _, _) = sim::run_traced(&cell, &sw);
        assert_eq!(traced, SimOutcome::of(&untraced), "{}", cell.profile.name);
        assert!(sw.calls(layer::CHAOS) > 0 && sw.ns(layer::CHAOS) > 0.0);
    }
}

#[test]
fn epoch_phases_match_system_run() {
    let cell = small(sim::fig6_cells(3).swap_remove(4), 500);
    let phased = sim::run_untraced(&cell).result;
    let whole = dve::System::new(cell.cfg.clone(), &cell.profile, cell.seed).run();
    assert_eq!(sim::digest(&phased), sim::digest(&whole));
}
