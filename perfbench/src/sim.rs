//! The two timed-system workloads, `fig6-matrix` and `chaos-replay`.
//!
//! A cell is one `(profile, scheme, config)` run of the timed system. The
//! untraced pass runs each cell through the epoch API that
//! [`System::run`] is documented to compose (`warm_up`, `begin_region`,
//! `step_ops`, `finish_region`), so that build + warm-up can be timed as
//! set-up apart from the measured region. The traced pass replays the same
//! cells through [`Replay`], a copy of the runner's blocking-core
//! scheduler built from public calls only, with every layer boundary on a
//! [`Stopwatch`]; it must reproduce the untraced result exactly.

use crate::hostspeed::{HostClock, Pin};
use crate::metrics::{self, Report};
use crate::span::{FabricLayers, Layer, Stopwatch, TimedFabric};
use dve::chaos::{
    AgingParams, ChaosConfig, ChaosParams, CorrelatedConfig, FaultEvent, FaultSourceKind,
    HammerParams, RecoveryLedger, ScrubConfig, ThermalParams,
};
use dve::config::{Scheme, SystemConfig};
use dve::fabric_impl::SystemFabric;
use dve::fault_source::{build_sources, FaultSource};
use dve::metrics::GroupedSpeedups;
use dve::system::{RunResult, System};
use dve_coherence::engine::ProtocolEngine;
use dve_coherence::types::ReqType;
use dve_dram::controller::EccProfile;
use dve_sim::event::EventQueue;
use dve_sim::latency::{Component, LatencyBreakdown, LatencyHists};
use dve_sim::resource::Resource;
use dve_workloads::op::{MemReq, Op};
use dve_workloads::{catalog, TraceGenerator, WorkloadProfile};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Memory operations per core in a `fig6-matrix` cell (the warm-up adds a
/// tenth on top, as `run_workload` does).
pub(crate) const FIG6_OPS: u64 = 10_000;
/// Memory operations per core in a `chaos-replay` cell.
pub(crate) const CHAOS_OPS: u64 = 20_000;
/// Deny-winner profiles replayed under chaos.
pub(crate) const CHAOS_PROFILES: [&str; 4] = ["backprop", "graph500", "xsbench", "rsbench"];
/// Simulated cycles the chaos schedule spans: a little more than the
/// longest chaos cell (warm-up included), so faults land throughout.
pub(crate) const CHAOS_HORIZON: u64 = 3_500_000;

/// The paper's Fig. 6 all-20 speedups over baseline NUMA (allow, deny).
pub(crate) const PAPER_FIG6_ALL20: (f64, f64) = (1.12, 1.15);

/// Which timed-system workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// 20 profiles × {baseline-numa, dve-allow, dve-deny}, no faults.
    Fig6,
    /// Deny-winner profiles under `dve-deny` with TSD and live chaos.
    Chaos,
}

/// One timed-system run.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The workload profile.
    pub profile: WorkloadProfile,
    /// Its full configuration.
    pub cfg: SystemConfig,
    /// The trace seed.
    pub seed: u64,
}

fn base_cfg(scheme: Scheme, ops: u64) -> SystemConfig {
    let mut cfg = SystemConfig::table_ii(scheme);
    cfg.ops_per_thread = ops;
    cfg.warmup_per_thread = ops / 10;
    cfg.mshrs = 1;
    cfg
}

/// The Fig. 6 matrix: every Table III profile under baseline NUMA, Dvé
/// allow and Dvé deny (mirror2, one MSHR, no faults), profile-major.
pub fn fig6_cells(seed: u64) -> Vec<Cell> {
    catalog()
        .into_iter()
        .flat_map(|profile| {
            [Scheme::BaselineNuma, Scheme::DveAllow, Scheme::DveDeny].map(|scheme| Cell {
                profile: profile.clone(),
                cfg: base_cfg(scheme, FIG6_OPS),
                seed,
            })
        })
        .collect()
}

/// The chaos cells: each deny-winner profile under `dve-deny` with
/// detect-only TSD ECC, a seed-derived schedule of transient and hard
/// faults (hard ones heal) over the whole run, paced patrol scrub, the
/// correlated hammer, thermal and aging sources, and one link outage.
pub fn chaos_cells(seed: u64) -> Vec<Cell> {
    let cat = catalog();
    CHAOS_PROFILES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let profile = cat
                .iter()
                .find(|p| p.name == *name)
                .expect("chaos profile in the catalog")
                .clone();
            let mut cfg = base_cfg(Scheme::DveDeny, CHAOS_OPS);
            cfg.ecc = EccProfile::tsd();
            let span = TraceGenerator::new(&profile, cfg.engine.cores, seed).span_lines();
            let cell_seed = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
            let mut chaos = ChaosConfig::random(
                cell_seed,
                &ChaosParams {
                    faults: 12,
                    horizon: CHAOS_HORIZON,
                    transient_fraction: 0.5,
                    heal_after: Some(CHAOS_HORIZON / 8),
                    channels_per_socket: cfg.channels_per_socket(),
                    line_span: span,
                    nodes: cfg.nodes(),
                },
            );
            chaos.link_outages = vec![(CHAOS_HORIZON / 2, CHAOS_HORIZON / 2 + 200_000)];
            chaos.scrub = Some(ScrubConfig {
                region_bytes: 1 << 16,
                lines_per_slice: 16,
                interval: 20_000,
            });
            chaos.correlated = Some(CorrelatedConfig {
                seed: cell_seed,
                hammer: Some(HammerParams {
                    threshold: 128,
                    transient: true,
                    both_copies: false,
                    poll_interval: 50_000,
                }),
                thermal: Some(ThermalParams {
                    base_rate: 0.01,
                    transient_fraction: 1.0,
                    poll_interval: 50_000,
                    ..ThermalParams::inert()
                }),
                aging: Some(AgingParams {
                    base_rate: 0.002,
                    ramp_per_mcycle: 0.002,
                    line_span: span,
                    poll_interval: 50_000,
                }),
            });
            cfg.chaos = Some(chaos);
            Cell { profile, cfg, seed }
        })
        .collect()
}

/// The cells of `w` for `seed`.
pub(crate) fn cells(w: SimWorkload, seed: u64) -> Vec<Cell> {
    match w {
        SimWorkload::Fig6 => fig6_cells(seed),
        SimWorkload::Chaos => chaos_cells(seed),
    }
}

/// One untraced cell run: its result and host times.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The system's result.
    pub result: RunResult,
    /// `System::new` + warm-up, ns.
    pub setup_ns: u64,
    /// The measured region, ns.
    pub region_ns: u64,
}

/// Runs one cell untraced: build + warm-up (set-up), then the measured
/// region — exactly the phases [`System::run`] composes for a fixed scheme.
pub fn run_untraced(cell: &Cell) -> CellRun {
    assert_ne!(cell.cfg.scheme, Scheme::DveDynamic, "no dynamic cells");
    let t0 = Instant::now();
    let mut sys = System::new(cell.cfg.clone(), &cell.profile, cell.seed);
    sys.warm_up();
    let t1 = Instant::now();
    sys.begin_region();
    sys.step_ops(cell.cfg.ops_per_thread);
    let result = sys.finish_region();
    let t2 = Instant::now();
    CellRun {
        result,
        setup_ns: (t1 - t0).as_nanos() as u64,
        region_ns: (t2 - t1).as_nanos() as u64,
    }
}

/// Memory operations a cell executes, warm-up included.
pub(crate) fn total_mem_ops(cell: &Cell) -> u64 {
    cell.cfg.engine.cores as u64 * (cell.cfg.ops_per_thread + cell.cfg.warmup_per_thread)
}

/// What the traced replay must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Measured-region cycles.
    pub cycles: u64,
    /// Measured-region ops and memory ops.
    pub ops: (u64, u64),
    /// Measured-region latency breakdown.
    pub latency: LatencyBreakdown,
    /// Measured-region per-op latency distributions.
    pub hists: LatencyHists,
    /// Whole-run recovery ledger.
    pub recovery: RecoveryLedger,
}

impl SimOutcome {
    /// The comparable part of a [`RunResult`].
    pub fn of(r: &RunResult) -> SimOutcome {
        SimOutcome {
            cycles: r.cycles,
            ops: (r.ops, r.mem_ops),
            latency: r.latency,
            hists: r.latency_hist.clone(),
            recovery: r.recovery,
        }
    }
}

/// Stopwatch layers of the traced replay.
pub mod layer {
    use crate::span::Layer;
    /// `TraceGenerator::next_op`.
    pub const WORKLOADS: Layer = 0;
    /// `ProtocolEngine::access`, fabric calls excluded.
    pub const COHERENCE: Layer = 1;
    /// Mesh and link calls on the fabric.
    pub const NOC: Layer = 2;
    /// Memory-controller calls on the fabric.
    pub const DRAM: Layer = 3;
    /// The scheduler (heap, MSHRs, histograms), construction and teardown.
    pub const SYSTEM: Layer = 4;
    /// Fault application, source polling, scrub, degraded flips.
    pub const CHAOS: Layer = 5;
    /// Outside every span: the benchmark's own loop between cells.
    pub const ROOT: Layer = 6;
    /// Number of layers.
    pub const COUNT: usize = 7;
}

/// The traced replay of one cell: [`System`]'s construction and
/// blocking-core scheduler, rebuilt from public calls, with every call
/// into a layer on the stopwatch.
pub(crate) struct Replay<'a> {
    cfg: SystemConfig,
    engine: ProtocolEngine,
    fabric: SystemFabric,
    gen: TraceGenerator,
    core_time: Vec<u64>,
    mshrs: Vec<Resource>,
    chaos_events: Vec<FaultEvent>,
    chaos_cursor: usize,
    sources: Vec<Box<dyn FaultSource>>,
    scrub_queue: EventQueue<(usize, usize)>,
    scrub: Option<ScrubConfig>,
    outage_degraded: bool,
    fault_degraded: bool,
    hists: LatencyHists,
    sw: &'a Stopwatch,
    accesses: u64,
    ops: u64,
}

impl<'a> Replay<'a> {
    /// Builds the replay exactly as `System::new` builds a system.
    pub(crate) fn new(cell: &Cell, sw: &'a Stopwatch) -> Replay<'a> {
        let cfg = cell.cfg.clone();
        assert!(!cfg.degraded && cfg.pdes_workers <= 1 && cfg.scheme != Scheme::DveDynamic);
        let engine = ProtocolEngine::new(cfg.engine_mode(), cfg.engine.clone());
        let fabric = SystemFabric::new(&cfg);
        let gen = TraceGenerator::new(&cell.profile, cfg.engine.cores, cell.seed);
        let cores = cfg.engine.cores;
        let mut chaos_events = Vec::new();
        let mut scrub_queue = EventQueue::new();
        let mut scrub = None;
        let mut sources: Vec<Box<dyn FaultSource>> = Vec::new();
        if let Some(chaos) = &cfg.chaos {
            chaos.validate();
            chaos_events = chaos.schedule.events().to_vec();
            scrub = chaos.scrub;
            if let Some(s) = &chaos.scrub {
                for node in 0..cfg.nodes() {
                    for ch in 0..cfg.channels_per_socket() {
                        scrub_queue.push(s.interval, (node, ch));
                    }
                }
            }
            if let Some(correlated) = &chaos.correlated {
                sources = build_sources(correlated, &fabric);
            }
        }
        Replay {
            mshrs: (0..cores).map(|_| Resource::new(cfg.mshrs)).collect(),
            core_time: vec![0; cores],
            cfg,
            engine,
            fabric,
            gen,
            chaos_events,
            chaos_cursor: 0,
            sources,
            scrub_queue,
            scrub,
            outage_degraded: false,
            fault_degraded: false,
            hists: LatencyHists::new(),
            sw,
            accesses: 0,
            ops: 0,
        }
    }

    /// The runner's chaos step at `now`, all charged to the chaos layer.
    fn advance_chaos(&mut self, now: u64) {
        if self.cfg.chaos.is_some() {
            let sw = self.sw;
            sw.span(layer::CHAOS, || self.chaos_step(now));
        }
    }

    fn chaos_step(&mut self, now: u64) {
        while self.chaos_cursor < self.chaos_events.len()
            && self.chaos_events[self.chaos_cursor].at <= now
        {
            let ev = self.chaos_events[self.chaos_cursor];
            self.fabric.apply_fault_event(&ev);
            self.chaos_cursor += 1;
        }
        if !self.sources.is_empty() {
            let mut emitted: Vec<(FaultSourceKind, FaultEvent)> = Vec::new();
            for src in &mut self.sources {
                if src.next_poll() <= now {
                    let kind = src.kind();
                    emitted.extend(src.poll(now, &self.fabric).into_iter().map(|e| (kind, e)));
                }
            }
            for (kind, ev) in &emitted {
                self.fabric.apply_sourced_event(ev, Some(*kind));
            }
        }
        if let Some(scrub) = self.scrub {
            while self.scrub_queue.peek_time().is_some_and(|t| t <= now) {
                let (at, (node, ch)) = self.scrub_queue.pop().expect("peeked");
                let end = self.fabric.scrub_tick(node, ch, at, scrub.lines_per_slice);
                self.scrub_queue
                    .push(end.max(at) + scrub.interval, (node, ch));
            }
        }
        let in_outage = self.fabric.link_outage_until(now).is_some();
        let mut changed = in_outage != self.outage_degraded;
        self.outage_degraded = in_outage;
        if self.fabric.take_pending_degrade() {
            changed |= !self.fault_degraded;
            self.fault_degraded = true;
        } else if self.fault_degraded && !self.fabric.has_degraded_lines() {
            self.fault_degraded = false;
            changed = true;
        }
        if changed {
            let want = self.outage_degraded || self.fault_degraded;
            if want != self.engine.is_degraded() {
                self.engine.set_degraded(want, now, &mut self.fabric);
            }
        }
    }

    /// The runner's `run_ops`: every core executes `per_core` memory
    /// operations, earliest local clock first. Returns (cycles, ops, mem).
    fn run_ops(&mut self, per_core: u64) -> (u64, u64, u64) {
        if per_core == 0 {
            return (0, 0, 0);
        }
        let layers = FabricLayers {
            noc: layer::NOC,
            dram: layer::DRAM,
        };
        let cores = self.core_time.len();
        let start_max = *self.core_time.iter().max().expect("cores");
        let mut heap: BinaryHeap<(Reverse<u64>, usize)> = (0..cores)
            .map(|c| (Reverse(self.core_time[c]), c))
            .collect();
        let mut remaining = vec![per_core; cores];
        let mut live = cores;
        let (mut ops, mut mems) = (0u64, 0u64);
        while live > 0 {
            let (Reverse(now), core) = heap.pop().expect("live cores remain");
            self.advance_chaos(now);
            let op = self.sw.span(layer::WORKLOADS, || self.gen.next_op(core));
            ops += 1;
            let next = match op {
                Op::Compute(c) => now + c as u64,
                Op::Sync => self.mshrs[core].drained_at().max(now) + Op::SYNC_CYCLES as u64,
                Op::Mem { line, req } => {
                    mems += 1;
                    remaining[core] -= 1;
                    let r = match req {
                        MemReq::Read => ReqType::Read,
                        MemReq::Write => ReqType::Write,
                    };
                    let mut fabric = TimedFabric {
                        inner: &mut self.fabric,
                        sw: self.sw,
                        layers,
                    };
                    let engine = &mut self.engine;
                    let outcome = self.sw.span(layer::COHERENCE, || {
                        engine.access(core, line, r, now, &mut fabric)
                    });
                    self.accesses += 1;
                    self.hists.record(&outcome.breakdown);
                    let done = outcome.complete_at;
                    self.mshrs[core].acquire(now, done - now);
                    (now + 1).max(self.mshrs[core].earliest_available())
                }
            };
            self.core_time[core] = next;
            if remaining[core] == 0 {
                live -= 1;
            } else {
                heap.push((Reverse(next), core));
            }
        }
        for (t, m) in self.core_time.iter_mut().zip(&self.mshrs) {
            *t = (*t).max(m.drained_at());
        }
        self.ops += ops;
        let end_max = *self.core_time.iter().max().expect("cores");
        (end_max - start_max, ops, mems)
    }

    /// Warm-up, then the measured region. Returns what `finish_region`
    /// would report, the trace ops consumed and the engine accesses made.
    pub(crate) fn run(mut self) -> (SimOutcome, u64, u64) {
        if self.cfg.warmup_per_thread > 0 {
            self.run_ops(self.cfg.warmup_per_thread);
        }
        self.hists = LatencyHists::new();
        let before = self.engine.stats().latency_breakdown;
        let (cycles, ops, mems) = self.run_ops(self.cfg.ops_per_thread);
        let outcome = SimOutcome {
            cycles,
            ops: (ops, mems),
            latency: self.engine.stats().latency_breakdown.delta_since(&before),
            hists: self.hists,
            recovery: self.fabric.ledger(),
        };
        (outcome, self.ops, self.accesses)
    }
}

/// Replays `cell` on `sw`; construction, the scheduler and teardown are
/// charged to the system layer.
pub fn run_traced(cell: &Cell, sw: &Stopwatch) -> (SimOutcome, u64, u64) {
    sw.span(layer::SYSTEM, || Replay::new(cell, sw).run())
}

/// FNV-1a over a result's simulated values: equal digests across passes
/// (and across runs of one seed) show the simulation is deterministic.
pub fn digest(r: &RunResult) -> u64 {
    let text = format!(
        "{:?}",
        (
            r.cycles,
            r.ops,
            r.mem_ops,
            r.engine,
            r.latency,
            &r.traffic,
            r.recovery,
            r.dram_rows,
            r.dram_queue,
            r.max_row_activations,
            &r.latency_hist,
        )
    );
    fnv(text.as_bytes(), 0xcbf2_9ce4_8422_2325)
}

/// FNV-1a, continuing from `h`.
pub(crate) fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Host times of one untraced cell run: set-up ns, region ns, and the
/// [`HostClock`] factor that turns them into reference time.
type CellTimes = (u64, u64, f64);

/// Checks one cell's invariants and that it repeats pass 0 (`reference`
/// is pass 0's digest of the same cell).
fn check_cell(cell: &Cell, r: &RunResult, reference: u64, pass: usize, rep: &mut Report) {
    let name = format!("{} {:?} pass {pass}", cell.profile.name, cell.cfg.scheme);
    let conserves = r.latency_hist.conserves(&r.latency);
    let consistent = r.recovery.consistent();
    let repeats = digest(r) == reference;
    rep.check(
        conserves,
        format!("{name}: latency histograms do not conserve"),
    );
    rep.check(consistent, format!("{name}: recovery ledger inconsistent"));
    rep.check(repeats, format!("{name}: simulation differs from pass 0"));
    rep.attempted += 1;
    if !(conserves && consistent && repeats) {
        rep.failed += 1;
    }
}

/// Runs workload `w`: untraced passes over its cells for `seconds`, or,
/// when `trace` is set, untraced passes for half of it and then one traced
/// replay that must reproduce them. Pass 0's results are kept; later
/// passes keep only their host times, so memory does not grow with the
/// number of passes. Each cell is bracketed by [`HostClock`] probes, and
/// its times are taken in reference time, as the median over passes.
pub fn run(w: SimWorkload, seed: u64, seconds: f64, trace: bool, rep: &mut Report) {
    let cells = cells(w, seed);
    let budget = if trace { seconds / 2.0 } else { seconds };
    // One thread throughout: the probes and the cells share a vCPU.
    let _pin = Pin::here();
    let mut clock = HostClock::new();
    let start = Instant::now();
    let mut first: Vec<CellRun> = Vec::with_capacity(cells.len());
    let mut digests: Vec<u64> = Vec::with_capacity(cells.len());
    let mut passes: Vec<Vec<CellTimes>> = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < budget {
        let mut pass = Vec::with_capacity(cells.len());
        clock.start();
        for (i, cell) in cells.iter().enumerate() {
            let c = run_untraced(cell);
            pass.push((c.setup_ns, c.region_ns, clock.factor()));
            if passes.is_empty() {
                digests.push(digest(&c.result));
                check_cell(cell, &c.result, digests[i], 0, rep);
                first.push(c);
            } else {
                check_cell(cell, &c.result, digests[i], passes.len(), rep);
            }
        }
        passes.push(pass);
    }
    let all = digests
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, d| fnv(&d.to_le_bytes(), h));
    println!("sim digest (repeats exactly for a fixed seed): {all:016x}");
    sim_values(w, &cells, &first, rep);

    // The passes run the same cells, so cell i of one pass is cell i of
    // every other.
    let per_cell = |pick: &dyn Fn(&CellTimes) -> f64| -> Vec<f64> {
        (0..cells.len())
            .map(|i| metrics::median(&passes.iter().map(|p| pick(&p[i])).collect::<Vec<_>>()))
            .collect()
    };
    let region_ns = per_cell(&|c| c.1 as f64 * c.2);
    // Raw host times, for the report, and each cell's fastest pass: the
    // base of the tracing overhead, which compares raw times.
    let cell_raw_ns = per_cell(&|c| (c.0 + c.1) as f64);
    let cell_raw_min: Vec<f64> = (0..cells.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| (p[i].0 + p[i].1) as f64)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let mems: u64 = first.iter().map(|c| c.result.mem_ops).sum();
    let rate = mems as f64 * 1e9 / region_ns.iter().sum::<f64>();
    let cell_ms: Vec<f64> = region_ns.iter().map(|&n| n * 1e-6).collect();
    let pass_rate = |scaled: bool| -> Vec<f64> {
        passes
            .iter()
            .map(|p| {
                let ns: f64 = p
                    .iter()
                    .map(|c| c.1 as f64 * if scaled { c.2 } else { 1.0 })
                    .sum();
                mems as f64 * 1e9 / ns
            })
            .collect()
    };
    let setup: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().map(|c| c.0 as f64 * c.2).sum::<f64>() * 1e-9)
        .collect();
    println!(
        "{}",
        metrics::describe("host-clock probe", "ns", clock.probes())
    );
    println!(
        "{}",
        metrics::describe(
            "set-up per pass (build + warm-up), reference time",
            "s",
            &setup
        )
    );
    for (label, scaled) in [("raw", false), ("reference time", true)] {
        let rates = pass_rate(scaled);
        println!(
            "{}",
            metrics::describe(
                &format!("simulated mem-ops per host s, per pass, {label}"),
                "1/s",
                &rates
            )
        );
        let series: Vec<String> = rates.iter().map(|r| format!("{:.2}", r * 1e-6)).collect();
        println!("  in order, M/s: {}", series.join(" "));
    }
    println!(
        "simulated mem-ops per reference s, median pass of each cell: {rate:.1} 1/s over {} passes",
        passes.len()
    );
    println!(
        "{}",
        metrics::describe("median pass of each cell, reference time", "ms", &cell_ms)
    );
    println!(
        "{}",
        metrics::describe(
            "median pass of each cell, raw",
            "ms",
            &cell_raw_ns.iter().map(|n| n * 1e-6).collect::<Vec<_>>()
        )
    );
    rep.set("sim_mops_s", rate * 1e-6);
    if !trace {
        rep.set("setup_s", metrics::median(&setup));
        rep.set("work_per_s", rate);
        rep.set("work_p50_ms", metrics::median(&cell_ms));
        return;
    }

    // The traced replay of the same cells.
    let sw = Stopwatch::new(layer::COUNT, layer::ROOT);
    let (mut ops, mut accesses) = (0u64, 0u64);
    for (cell, untraced) in cells.iter().zip(&first) {
        let (outcome, o, a) = run_traced(cell, &sw);
        ops += o;
        accesses += a;
        rep.check(
            outcome == SimOutcome::of(&untraced.result),
            format!(
                "traced replay of {} {:?} diverged from the untraced run",
                cell.profile.name, cell.cfg.scheme
            ),
        );
    }
    let raw_wall = sw.stop() as f64;
    layer_values(&sw, raw_wall, ops, accesses, rep);
    let untraced_wall = cell_raw_min.iter().sum::<f64>();
    rep.set("trace.overhead", raw_wall / untraced_wall - 1.0);
    count_values(&cells, &first, rep);
}

/// The simulated headline values (identical for a fixed seed).
fn sim_values(w: SimWorkload, cells: &[Cell], runs: &[CellRun], rep: &mut Report) {
    let mut hists = LatencyHists::new();
    for (cell, run) in cells.iter().zip(runs) {
        if cell.cfg.scheme == Scheme::DveDeny {
            hists.merge(&run.result.latency_hist);
        }
    }
    let p99 = hists.total.percentile(0.99);
    rep.set("sim_p99_cycles", p99 as f64);
    println!("sim p99 per-op latency (deny cells): {p99} cycles");
    match w {
        SimWorkload::Fig6 => {
            let (mut allow, mut deny) = (Vec::new(), Vec::new());
            for triple in runs.chunks(3) {
                let base = &triple[0].result;
                allow.push(triple[1].result.speedup_over(base));
                deny.push(triple[2].result.speedup_over(base));
            }
            let allow = GroupedSpeedups::from_ordered(&allow).all20;
            let deny = GroupedSpeedups::from_ordered(&deny).all20;
            rep.set("sim_speedup_allow", allow);
            rep.set("sim_speedup_deny", deny);
            let (pa, pd) = PAPER_FIG6_ALL20;
            println!(
                "Fig. 6 all-20 geomean speedup over baseline-numa: allow {allow:.4} \
                 (paper {pa:.2}, gap {:+.4}), deny {deny:.4} (paper {pd:.2}, gap {:+.4})",
                allow - pa,
                deny - pd
            );
            println!(
                "note: the timing model is otherwise unvalidated against hardware; \
                 statistics start after the 10% warm-up (System::warm_up), not from \
                 empty caches"
            );
        }
        SimWorkload::Chaos => {
            for (cell, run) in cells.iter().zip(runs) {
                let (r, l) = (&run.result, &run.result.recovery);
                println!(
                    "chaos cell {:<9} cycles {:>9} planted {:>3} detected {:>5} corrected {:>5} \
                     repaired {:>4} degraded {:>3} mce {:>4} scrub_lines {:>6} flips {:>3} \
                     (hammer {}, thermal {}, aging {})",
                    cell.profile.name,
                    r.cycles,
                    l.faults_planted,
                    l.detected_reads,
                    l.corrected,
                    l.repaired,
                    l.degraded,
                    l.machine_checks,
                    l.scrub_lines,
                    r.engine.degraded_transitions,
                    l.hammer_plants,
                    l.thermal_plants,
                    l.aging_plants
                );
            }
            let mce: u64 = runs.iter().map(|r| r.result.recovery.machine_checks).sum();
            let mops: u64 = cells.iter().map(total_mem_ops).sum();
            let per_mop = mce as f64 * 1e6 / mops as f64;
            rep.set("sim_mce_per_mop", per_mop);
            println!("machine checks: {mce} over {mops} mem ops ({per_mop:.3} per 10^6)");
        }
    }
}

/// Host-time split of the traced replay, net of the stopwatch's own cost.
fn layer_values(sw: &Stopwatch, raw_wall: f64, ops: u64, accesses: u64, rep: &mut Report) {
    let wall = sw.net_wall();
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let frac = |l: Layer| sw.ns(l) / wall;
    rep.set("workloads.ns_per_op", per(sw.ns(layer::WORKLOADS), ops));
    rep.set("workloads.frac", frac(layer::WORKLOADS));
    rep.set(
        "coherence.ns_per_access",
        per(sw.ns(layer::COHERENCE), accesses),
    );
    rep.set("coherence.frac", frac(layer::COHERENCE));
    rep.set(
        "noc.ns_per_call",
        per(sw.ns(layer::NOC), sw.calls(layer::NOC)),
    );
    rep.set(
        "noc.calls_per_access",
        sw.calls(layer::NOC) as f64 / accesses as f64,
    );
    rep.set("noc.frac", frac(layer::NOC));
    rep.set(
        "dram.ns_per_call",
        per(sw.ns(layer::DRAM), sw.calls(layer::DRAM)),
    );
    rep.set(
        "dram.calls_per_access",
        sw.calls(layer::DRAM) as f64 / accesses as f64,
    );
    rep.set("dram.frac", frac(layer::DRAM));
    rep.set("system.frac", frac(layer::SYSTEM));
    rep.set("chaos.ns_per_op", per(sw.ns(layer::CHAOS), ops));
    rep.set("chaos.frac", frac(layer::CHAOS));
    rep.set("trace.coverage", sw.coverage(layer::ROOT));
    let cost = sw.cost();
    println!(
        "traced replay: {:.3} s wall, {:.3} s net of {:.1} ns per span ({} spans); \
         self-time split: workloads {:.3}, coherence {:.3}, noc {:.3}, dram {:.3}, \
         system {:.3}, chaos {:.3}, outside spans {:.3}",
        raw_wall * 1e-9,
        wall * 1e-9,
        cost.inner + cost.outer,
        (0..layer::COUNT).map(|l| sw.calls(l)).sum::<u64>(),
        frac(layer::WORKLOADS),
        frac(layer::COHERENCE),
        frac(layer::NOC),
        frac(layer::DRAM),
        frac(layer::SYSTEM),
        frac(layer::CHAOS),
        frac(layer::ROOT)
    );
}

/// Simulated counts of one untraced pass.
fn count_values(cells: &[Cell], runs: &[CellRun], rep: &mut Report) {
    let mut served = [0u64; 6];
    let (mut replica, mut rm, mut eng_ops, mut msgs, mut mems) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut rows, mut queue) = ((0u64, 0u64, 0u64), (0u64, 0u64));
    let mut ledger = RecoveryLedger::default();
    let mut degraded = 0u64;
    let mut latency = LatencyBreakdown::default();
    let mut total_mems = 0u64;
    for (cell, run) in cells.iter().zip(runs) {
        let r = &run.result;
        for (s, v) in served.iter_mut().zip(r.engine.served) {
            *s += v;
        }
        replica += r.engine.replica_reads;
        rm += r.engine.rm_installs;
        eng_ops += r.engine.ops;
        msgs += r.traffic.total_messages();
        mems += r.mem_ops;
        total_mems += total_mem_ops(cell);
        rows = (
            rows.0 + r.dram_rows.0,
            rows.1 + r.dram_rows.1,
            rows.2 + r.dram_rows.2,
        );
        queue = (queue.0 + r.dram_queue.0, queue.1 + r.dram_queue.1);
        let l = &r.recovery;
        ledger.faults_planted += l.faults_planted;
        ledger.detected_reads += l.detected_reads;
        ledger.corrected += l.corrected;
        ledger.repaired += l.repaired;
        ledger.machine_checks += l.machine_checks;
        ledger.scrub_lines += l.scrub_lines;
        degraded += r.engine.degraded_transitions;
        latency.merge(&r.latency);
    }
    let all: u64 = served.iter().sum();
    let names = [
        "coherence.served_frac.l1",
        "coherence.served_frac.llc",
        "coherence.served_frac.local_dram",
        "coherence.served_frac.remote_dram",
        "coherence.served_frac.local_owner",
        "coherence.served_frac.remote_owner",
    ];
    for (name, s) in names.into_iter().zip(served) {
        rep.set(name, s as f64 / all as f64);
    }
    let dram_served = served[2] + served[3];
    rep.set(
        "coherence.replica_read_ratio",
        replica as f64 / dram_served.max(1) as f64,
    );
    rep.set(
        "coherence.rm_installs_per_kop",
        rm as f64 * 1e3 / eng_ops as f64,
    );
    rep.set("noc.link_msgs_per_kop", msgs as f64 * 1e3 / mems as f64);
    let row_total = rows.0 + rows.1 + rows.2;
    rep.set(
        "dram.row_hit_ratio",
        rows.0 as f64 / row_total.max(1) as f64,
    );
    rep.set(
        "dram.queue_cycles_per_access",
        queue.1 as f64 / queue.0.max(1) as f64,
    );
    rep.set("chaos.faults_planted", ledger.faults_planted as f64);
    rep.set(
        "chaos.detected_per_kop",
        ledger.detected_reads as f64 * 1e3 / total_mems as f64,
    );
    rep.set("chaos.corrected", ledger.corrected as f64);
    rep.set("chaos.repaired", ledger.repaired as f64);
    rep.set("chaos.machine_checks", ledger.machine_checks as f64);
    rep.set("chaos.scrub_lines", ledger.scrub_lines as f64);
    rep.set("chaos.degraded_transitions", degraded as f64);
    let names = [
        (Component::Mesh, "sim.frac.mesh"),
        (Component::Link, "sim.frac.link"),
        (Component::BankQueue, "sim.frac.bank_queue"),
        (Component::BankService, "sim.frac.bank_service"),
        (Component::Protocol, "sim.frac.protocol"),
        (Component::Recovery, "sim.frac.recovery"),
    ];
    for (c, name) in names {
        rep.set(name, latency.fraction(c));
    }
}
