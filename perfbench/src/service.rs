//! The `service-open` workload, in two phases over one request stream
//! (Dvé deny, mirror2, 4 MSHRs, no faults; requests of [`REQ_OPS`]
//! uniformly drawn lines, 70 % reads):
//!
//! 1. In process, on one thread: a [`Pipeline`] serves requests back to
//!    back through the service's data path, doing per request exactly what
//!    a session and the epoch runner do per epoch (`decode_ops`, admission,
//!    `run_batch`, the telemetry counters and snapshot, `encode_batch`).
//!    The same requests are served in several passes from a fresh
//!    pipeline; each request's median pass, in the reference time of
//!    [`crate::hostspeed`], gives the bounded throughput and per-request
//!    time, and each pass's build + warm-up is a set-up.
//! 2. Live: a `dve_service::Service` fed over its TCP op protocol by the
//!    [open-loop generator](crate::openloop), one connection and two
//!    threads: the `light` and `heavy` steps, then a ladder of rates 5 %
//!    apart. Goodput is the highest ladder rate whose p99 stays within
//!    [`P99_LIMIT_MS`] with no shed request and no growing backlog. These
//!    numbers, and the service's own checks, are reported without a bound:
//!    on a 2-vCPU host they follow thread wake-ups and steal time more than
//!    the service.
//!
//! The service cuts an epoch every [`REQ_OPS`] ops, so every epoch is cut
//! by size and the ladder never measures the epoch deadline. The traced
//! pass replays the stream through a [`Pipeline`] on the stopwatch and
//! must reproduce the completions the live service returned over TCP.

use crate::hostspeed::{HostClock, Pin};
use crate::metrics::{self, percentile, Report};
use crate::openloop::{self, ReplySource, RequestSink, Timing};
use crate::span::Stopwatch;
use dve::config::{Scheme, SystemConfig, TopologySpec};
use dve::system::{ClientOp, System};
use dve_service::proto::{self, TAG_BATCH, TAG_HELLO_OK};
use dve_service::telemetry::{EdgeOccupancy, TelemetrySnapshot};
use dve_service::{Completion, EpochBatcher, Service, ServiceConfig, ServiceReport, Telemetry};
use dve_sim::rng::{derive_seed, SplitMix64};
use dve_workloads::op::MemReq;
use dve_workloads::{catalog, TraceGenerator, WorkloadProfile};
use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Ops per request, and the service's `epoch_ops`: large enough that the
/// simulation, not thread hand-offs, dominates a request's service time.
pub(crate) const REQ_OPS: usize = 512;
/// Lines requests draw from, uniformly. The set-up warm-up touches most
/// of them, so the simulated directories (and the process's memory) stop
/// growing before measurement starts.
pub(crate) const FOOTPRINT_LINES: u64 = 1 << 16;
/// Requests that warm the service up during set-up.
pub(crate) const WARMUP_REQS: usize = 300;
/// Requests each in-process pass serves after its warm-up.
pub(crate) const PASS_REQS: usize = 3_000;
/// Requests between two host-clock probes in the in-process phase (about
/// 20 ms of serving).
const CHUNK_REQS: usize = 100;
/// The service's admission queue, ops: 4 096 requests, seconds of backlog
/// at the `heavy` step, so host stalls delay requests instead of shedding
/// them.
pub(crate) const QUEUE_CAP: usize = 1 << 21;
/// The `light` step, requests per second: about a third of the goodput
/// measured when the benchmark was defined (about 2 000 req/s of 512 ops
/// on a 2-vCPU Xeon VM).
pub(crate) const LIGHT_RPS: f64 = 670.0;
/// The `heavy` step, requests per second: about two thirds of it.
pub(crate) const HEAVY_RPS: f64 = 1_330.0;
/// The p99 latency limit a ladder step must meet, ms. Latency at `light`
/// met it in every run when the benchmark was defined (host scheduling
/// stalls put that p99 between 1 and 16 ms).
pub(crate) const P99_LIMIT_MS: f64 = 20.0;
/// Lowest ladder rate, requests per second.
pub(crate) const LADDER_BASE_RPS: f64 = 1_200.0;
/// Ratio between adjacent ladder rates (less than 10 % apart).
pub(crate) const LADDER_RATIO: f64 = 1.05;
/// Ladder steps (the top rate is about 1.8 times the defining goodput).
pub(crate) const LADDER_STEPS: usize = 24;
/// Consecutive failing steps that end the ladder.
pub(crate) const LADDER_STOP_AFTER: usize = 2;
/// Ladder steps the time budget is divided among; the ladder also ends
/// when its budget is spent.
const BUDGET_STEPS: usize = 20;
/// Light-step requests whose completions the traced pass replays.
const REPLAY_REQS: usize = 1_000;
/// The trace profile whose address span client lines fold into.
pub(crate) const PROFILE: &str = "backprop";
/// The connection's client id (the service shards ops by `client % cores`).
const CLIENT: u64 = 1;
/// Random stream of request ops, for `derive_seed`.
const REQUEST_STREAM: u64 = 0x5E4F_1CE0;

/// The ladder's rates, requests per second.
pub(crate) fn ladder_rates() -> Vec<f64> {
    (0..LADDER_STEPS)
        .map(|i| LADDER_BASE_RPS * LADDER_RATIO.powi(i as i32))
        .collect()
}

/// Request `id`'s ops: `(seq, line, req)` with seqs `id * REQ_OPS ..`,
/// lines uniform over the first [`FOOTPRINT_LINES`] of `[0, span)`, 70 %
/// reads; a pure function of the seed and `id`.
pub(crate) fn request_ops(seed: u64, id: usize, span: u64) -> Vec<(u64, u64, MemReq)> {
    let mut rng = SplitMix64::new(derive_seed(seed, REQUEST_STREAM, id as u64));
    (0..REQ_OPS)
        .map(|k| {
            let seq = (id * REQ_OPS + k) as u64;
            let req = if rng.chance(0.7) {
                MemReq::Read
            } else {
                MemReq::Write
            };
            (seq, rng.next_below(span.min(FOOTPRINT_LINES)), req)
        })
        .collect()
}

/// The service configuration under test.
pub(crate) fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        scheme: Scheme::DveDeny,
        topology: TopologySpec::Mirror2,
        workload: PROFILE.to_string(),
        seed,
        mshrs: 4,
        epoch_ops: REQ_OPS,
        epoch_wait_ms: 5,
        queue_cap: QUEUE_CAP,
        port: 0,
        chaos_seed: None,
        tenants: None,
    }
}

/// The system configuration, profile and client line span
/// `Service::start` derives from `cfg`.
fn system_setup(cfg: &ServiceConfig) -> (SystemConfig, WorkloadProfile, u64) {
    let profile = catalog()
        .into_iter()
        .find(|p| p.name == cfg.workload)
        .expect("service profile in the catalog");
    let mut sys_cfg = SystemConfig::table_ii(cfg.scheme);
    sys_cfg.engine.cores -= sys_cfg.engine.cores % cfg.topology.sockets();
    sys_cfg.set_topology(cfg.topology);
    sys_cfg.mshrs = cfg.mshrs;
    let span = TraceGenerator::new(&profile, sys_cfg.engine.cores, cfg.seed).span_lines();
    (sys_cfg, profile, span)
}

/// The simulated part of a completion, compared between the TCP run and
/// the in-process replay.
fn sim_key(c: &Completion) -> (u64, bool, u64, u64, [u64; 6]) {
    let b = c.breakdown;
    (
        c.seq,
        c.shed,
        c.issued_at,
        c.complete_at,
        [
            b.mesh,
            b.link,
            b.bank_queue,
            b.bank_service,
            b.protocol,
            b.recovery,
        ],
    )
}

/// Encodes and writes OPS frames; request `id` of a step is global
/// request `first_id + id`.
struct FrameSink {
    stream: TcpStream,
    first_id: usize,
    seed: u64,
    span: u64,
}

impl RequestSink for FrameSink {
    fn send(&mut self, id: usize) -> io::Result<()> {
        let ops = request_ops(self.seed, self.first_id + id, self.span);
        proto::write_frame(&mut self.stream, &proto::encode_ops(&ops))
    }
}

/// Reads BATCH frames and yields a request once all its ops are answered,
/// executed or shed. Keeps the completions of the first `keep` requests.
struct BatchSource {
    stream: TcpStream,
    first_id: usize,
    /// Per request of the step: ops answered, and whether one was shed.
    answered: Vec<(usize, bool)>,
    ready: VecDeque<usize>,
    kept: Vec<Vec<Completion>>,
}

impl BatchSource {
    fn new(stream: TcpStream, first_id: usize, n: usize, keep: usize) -> BatchSource {
        BatchSource {
            stream,
            first_id,
            answered: vec![(0, false); n],
            ready: VecDeque::new(),
            kept: vec![Vec::new(); keep.min(n)],
        }
    }

    /// Requests of the step with at least one shed op.
    fn shed_requests(&self) -> usize {
        self.answered.iter().filter(|a| a.1).count()
    }
}

impl ReplySource for BatchSource {
    fn recv(&mut self) -> io::Result<usize> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        while self.ready.is_empty() {
            let body = proto::read_frame(&mut self.stream)?;
            if body.first() != Some(&TAG_BATCH) {
                return Err(bad("expected BATCH"));
            }
            for c in proto::decode_batch(&body, CLIENT)? {
                let id = (c.seq as usize / REQ_OPS)
                    .checked_sub(self.first_id)
                    .filter(|&id| id < self.answered.len())
                    .ok_or_else(|| bad("answer to a request outside the step"))?;
                let slot = &mut self.answered[id];
                slot.0 += 1;
                slot.1 |= c.shed;
                if slot.0 > REQ_OPS {
                    return Err(bad("request answered more than once"));
                }
                if slot.0 == REQ_OPS {
                    self.ready.push_back(id);
                }
                if let Some(kept) = self.kept.get_mut(id) {
                    kept.push(c);
                }
            }
        }
        Ok(self.ready.pop_front().expect("a request is ready"))
    }
}

/// A connected client: HELLO done, plus the next global request id.
struct Client {
    stream: TcpStream,
    next_id: usize,
    seed: u64,
    span: u64,
}

impl Client {
    fn connect(service: &Service, seed: u64, span: u64) -> io::Result<Client> {
        let mut stream = TcpStream::connect(service.addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        proto::write_frame(&mut stream, &proto::encode_hello(CLIENT))?;
        let rsp = proto::read_frame(&mut stream)?;
        if rsp.first() != Some(&TAG_HELLO_OK) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad HELLO_OK"));
        }
        Ok(Client {
            stream,
            next_id: 0,
            seed,
            span,
        })
    }

    /// Closed-loop requests (set-up warm-up).
    fn closed_loop(&mut self, n: usize) -> io::Result<()> {
        for _ in 0..n {
            let ops = request_ops(self.seed, self.next_id, self.span);
            self.next_id += 1;
            proto::write_frame(&mut self.stream, &proto::encode_ops(&ops))?;
            let body = proto::read_frame(&mut self.stream)?;
            let comps = proto::decode_batch(&body, CLIENT)?;
            if comps.len() != REQ_OPS || comps.iter().any(|c| c.shed) {
                return Err(io::Error::other("warm-up request not fully served"));
            }
        }
        Ok(())
    }

    /// One open-loop step at `rps` for `seconds`; keeps the completions of
    /// its first `keep` requests, sorted by seq.
    fn step(&mut self, rps: f64, seconds: f64, keep: usize) -> io::Result<Step> {
        let n = ((rps * seconds) as usize).max(11);
        let first_id = self.next_id;
        self.next_id += n;
        let mut sink = FrameSink {
            stream: self.stream.try_clone()?,
            first_id,
            seed: self.seed,
            span: self.span,
        };
        let source = BatchSource::new(self.stream.try_clone()?, first_id, n, keep);
        let dues = openloop::schedule(rps, n);
        let (timings, mut source) = openloop::run(&dues, &mut sink, source)?;
        for kept in &mut source.kept {
            kept.sort_by_key(|c| c.seq);
        }
        Ok(Step {
            stats: StepStats::of(rps, &timings, source.shed_requests()),
            timings,
            kept: source.kept,
        })
    }
}

/// What one open-loop step returned.
struct Step {
    stats: StepStats,
    timings: Vec<Timing>,
    kept: Vec<Vec<Completion>>,
}

/// Latency statistics of one open-loop step.
#[derive(Debug, Clone)]
pub(crate) struct StepStats {
    /// Offered rate, requests per second.
    pub rps: f64,
    /// Per-request latency from the due time, ms.
    pub latency_ms: Vec<f64>,
    /// p99 of `latency_ms`.
    pub p99_ms: f64,
    /// Whether latency grew across the step (a growing backlog): the
    /// median of the last quarter exceeds the first quarter's by 1 ms.
    pub backlog: bool,
    /// Requests with a shed op.
    pub shed: usize,
}

impl StepStats {
    fn of(rps: f64, timings: &[Timing], shed: usize) -> StepStats {
        let latency_ms: Vec<f64> = timings
            .iter()
            .map(|t| t.latency().as_secs_f64() * 1e3)
            .collect();
        let p99_ms = percentile(&latency_ms, 0.99);
        let q = (latency_ms.len() / 4).max(1);
        let first = metrics::median(&latency_ms[..q]);
        let last = metrics::median(&latency_ms[latency_ms.len() - q..]);
        StepStats {
            rps,
            p99_ms,
            backlog: last > first + 1.0,
            latency_ms,
            shed,
        }
    }

    /// Whether the step meets the goodput criteria.
    pub fn passes(&self) -> bool {
        self.p99_ms <= P99_LIMIT_MS && !self.backlog && self.shed == 0
    }
}

/// Everything the live TCP run measured.
struct TcpRun {
    light: StepStats,
    heavy: StepStats,
    ladder: Vec<StepStats>,
    late_ms: Vec<f64>,
    requests: usize,
    /// Requests with a shed op, over every step.
    shed_requests: usize,
    /// Completions of the first light-step requests, for the replay check.
    light_completions: Vec<Vec<Completion>>,
    report: ServiceReport,
}

fn tcp_run(cfg: &ServiceConfig, span: u64, seconds: f64, keep_light: usize) -> io::Result<TcpRun> {
    let svc = Service::start(cfg)?;
    let mut client = Client::connect(&svc, cfg.seed, span)?;
    client.closed_loop(WARMUP_REQS)?;
    let ladder_s = seconds * 0.5;
    let step_s = ladder_s / BUDGET_STEPS as f64;
    let mut late_ms = Vec::new();
    let mut shed_requests = 0;
    let mut account = |step: &Step| {
        late_ms.extend(
            step.timings
                .iter()
                .map(|t| t.lateness().as_secs_f64() * 1e3),
        );
        shed_requests += step.stats.shed;
    };
    let light = client.step(LIGHT_RPS, seconds * 0.25, keep_light)?;
    account(&light);
    let heavy = client.step(HEAVY_RPS, seconds * 0.25, 0)?;
    account(&heavy);
    let mut ladder: Vec<StepStats> = Vec::new();
    let began = Instant::now();
    for rps in ladder_rates() {
        if began.elapsed().as_secs_f64() >= ladder_s {
            break;
        }
        let step = client.step(rps, step_s, 0)?;
        account(&step);
        ladder.push(step.stats);
        let tail = &ladder[ladder.len().saturating_sub(LADDER_STOP_AFTER)..];
        if tail.len() == LADDER_STOP_AFTER && tail.iter().all(|s| !s.passes()) {
            break;
        }
    }
    let requests = client.next_id;
    drop(client);
    let report = svc.shutdown();
    Ok(TcpRun {
        light: light.stats,
        heavy: heavy.stats,
        ladder,
        late_ms,
        requests,
        shed_requests,
        light_completions: light.kept,
        report,
    })
}

/// Pipeline layers.
mod layer {
    use crate::span::Layer;
    /// Outside every span: generating requests, comparing answers.
    pub const ROOT: Layer = 0;
    /// `encode_ops`, `decode_ops`, `encode_batch`, `decode_batch`.
    pub const PROTO: Layer = 1;
    /// `EpochBatcher::submit` + `take_epoch`.
    pub const BATCHER: Layer = 2;
    /// `System::run_batch`.
    pub const RUN_BATCH: Layer = 3;
    /// The snapshot `Telemetry::publish` takes, and `render_metrics`.
    pub const TELEMETRY: Layer = 4;
    /// The runner's own glue: op mapping, completions, counters.
    pub const RUNNER: Layer = 5;
    /// Number of layers.
    pub const COUNT: usize = 6;
}

fn timed<R>(sw: Option<&Stopwatch>, layer: usize, f: impl FnOnce() -> R) -> R {
    match sw {
        Some(sw) => sw.span(layer, f),
        None => f(),
    }
}

/// The service's data path in process, on one thread: the system
/// `Service::start` builds and, per request, what a session and the epoch
/// runner do per epoch, in their order.
pub(crate) struct Pipeline {
    system: System,
    span: u64,
    batcher: EpochBatcher,
    telemetry: Telemetry,
}

impl Pipeline {
    /// Builds the pipeline for `cfg`, as `Service::start` builds its
    /// system.
    pub fn new(cfg: &ServiceConfig) -> Pipeline {
        let (sys_cfg, profile, span) = system_setup(cfg);
        Pipeline {
            system: System::new(sys_cfg, &profile, cfg.seed),
            span,
            batcher: EpochBatcher::new(cfg.queue_cap, cfg.epoch_ops),
            telemetry: Telemetry::new(),
        }
    }

    /// Serves one OPS frame: decode, admit, cut the epoch, `run_batch`,
    /// build the completions, count, publish the telemetry snapshot and
    /// encode the BATCH answer.
    pub fn serve(&mut self, frame: &[u8], sw: Option<&Stopwatch>) -> io::Result<Vec<u8>> {
        let submitted = timed(sw, layer::PROTO, || proto::decode_ops(frame, CLIENT))?;
        let (batcher, telemetry) = (&mut self.batcher, &self.telemetry);
        let admitted = timed(sw, layer::BATCHER, || {
            submitted
                .into_iter()
                .filter(|op| batcher.submit(*op).admitted())
                .count()
        });
        timed(sw, layer::RUNNER, || {
            telemetry
                .submitted
                .fetch_add(REQ_OPS as u64, Ordering::Relaxed);
            telemetry
                .admitted
                .fetch_add(admitted as u64, Ordering::Relaxed);
        });
        let epoch = timed(sw, layer::BATCHER, || batcher.take_epoch());
        if admitted != REQ_OPS || epoch.len() != REQ_OPS {
            return Err(io::Error::other("epoch is not one whole request"));
        }
        let (cores, span) = (self.system.cores() as u64, self.span.max(1));
        let client_ops: Vec<ClientOp> = timed(sw, layer::RUNNER, || {
            epoch
                .iter()
                .map(|op| ClientOp {
                    core: (op.client % cores) as usize,
                    line: op.line % span,
                    req: op.req,
                })
                .collect()
        });
        let system = &mut self.system;
        let outcomes = timed(sw, layer::RUN_BATCH, || system.run_batch(&client_ops));
        let done: Vec<Completion> = timed(sw, layer::RUNNER, || {
            let done: Vec<Completion> = epoch
                .iter()
                .zip(outcomes)
                .map(|(op, out)| Completion {
                    client: op.client,
                    seq: op.seq,
                    shed: false,
                    issued_at: out.issued_at,
                    complete_at: out.complete_at,
                    breakdown: out.breakdown,
                })
                .collect();
            telemetry
                .completed
                .fetch_add(done.len() as u64, Ordering::Relaxed);
            telemetry.epochs.fetch_add(1, Ordering::Relaxed);
            done
        });
        timed(sw, layer::TELEMETRY, || publish_snapshot(system, telemetry));
        Ok(timed(sw, layer::PROTO, || proto::encode_batch(&done)))
    }

    /// Epochs cut so far.
    pub fn epochs(&self) -> u64 {
        self.batcher.epochs()
    }
}

/// The snapshot the epoch runner publishes after every epoch (no tenant
/// mix), per-edge link occupancy included.
fn publish_snapshot(system: &System, telemetry: &Telemetry) {
    let engine = system.engine_stats();
    let ledger = system.recovery_ledger();
    let link = system.fabric().link_table();
    let nodes = system.config().nodes();
    let edge_occupancy = (0..nodes)
        .flat_map(|from| (0..nodes).map(move |to| (from, to)))
        .filter(|&(from, to)| from != to)
        .map(|(from, to)| {
            let s = link.edge_stats(from, to);
            EdgeOccupancy {
                from,
                to,
                messages: s.grants,
                busy_cycles: s.busy_cycles,
            }
        })
        .collect();
    telemetry.publish(TelemetrySnapshot {
        hists: system.latency_hists().clone(),
        engine_latency: engine.latency_breakdown,
        cycles: system.now(),
        degraded_transitions: engine.degraded_transitions,
        recovery_consistent: ledger.consistent(),
        detected_reads: ledger.detected_reads,
        machine_checks: ledger.machine_checks,
        node_replica_entries: system.node_replica_entries(),
        edge_occupancy,
        tenants: Vec::new(),
    });
}

/// The encoded OPS frame of request `id` (the client's work).
fn request_frame(cfg: &ServiceConfig, span: u64, id: usize, sw: Option<&Stopwatch>) -> Vec<u8> {
    let ops = request_ops(cfg.seed, id, span);
    timed(sw, layer::PROTO, || proto::encode_ops(&ops))
}

/// Serves requests `0..upto` through a fresh pipeline as a client would
/// see them: every answer decoded, and `/metrics` rendered after each
/// epoch as a scrape would. Returns the answers to requests `from..` and
/// the epochs cut.
fn replay(
    cfg: &ServiceConfig,
    span: u64,
    upto: usize,
    from: usize,
    sw: Option<&Stopwatch>,
) -> io::Result<(Vec<Vec<Completion>>, u64)> {
    let mut p = timed(sw, layer::RUNNER, || Pipeline::new(cfg));
    let mut kept = Vec::new();
    for id in 0..upto {
        let frame = request_frame(cfg, span, id, sw);
        let answer = p.serve(&frame, sw)?;
        let mut comps = timed(sw, layer::PROTO, || proto::decode_batch(&answer, CLIENT))?;
        timed(sw, layer::TELEMETRY, || {
            std::hint::black_box(p.telemetry.render_metrics());
        });
        if id >= from {
            comps.sort_by_key(|c| c.seq);
            kept.push(comps);
        }
    }
    Ok((kept, p.epochs()))
}

/// What the in-process phase measured.
struct PipelineRun {
    /// Build + warm-up of each pass, reference s.
    setups: Vec<f64>,
    /// Each measured request's median serve time over the passes,
    /// reference ns.
    request_ns: Vec<f64>,
    /// Ops per raw host second of each whole pass.
    pass_rate: Vec<f64>,
    /// Every host-clock probe, ns.
    probes: Vec<f64>,
}

/// The in-process phase: passes of build + [`WARMUP_REQS`] (set-up), then
/// [`PASS_REQS`] requests back to back, each timed, until `seconds` are
/// spent (at least two passes). Every pass serves the same requests and
/// must answer them identically. Set-up and every [`CHUNK_REQS`] requests
/// are bracketed by [`HostClock`] probes, and their times are taken in
/// reference time.
fn pipeline_run(cfg: &ServiceConfig, span: u64, seconds: f64) -> io::Result<PipelineRun> {
    // The probes and the requests share a vCPU; the live phase, which
    // starts threads, runs after the pin is dropped.
    let _pin = Pin::here();
    let mut clock = HostClock::new();
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut pass_rate = Vec::new();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    while passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        clock.start();
        let t = Instant::now();
        let mut p = Pipeline::new(cfg);
        for id in 0..WARMUP_REQS {
            p.serve(&request_frame(cfg, span, id, None), None)?;
        }
        setups.push(t.elapsed().as_secs_f64() * clock.factor());
        let mut busy = 0;
        let mut last = Vec::new();
        let mut times = Vec::with_capacity(PASS_REQS);
        for chunk in (0..PASS_REQS).collect::<Vec<_>>().chunks(CHUNK_REQS) {
            let from = times.len();
            for &i in chunk {
                let frame = request_frame(cfg, span, WARMUP_REQS + i, None);
                let t = Instant::now();
                last = p.serve(&frame, None)?;
                let ns = t.elapsed().as_nanos() as u64;
                busy += ns;
                times.push(ns as f64);
            }
            let f = clock.factor();
            times[from..].iter_mut().for_each(|n| *n *= f);
        }
        pass_rate.push((PASS_REQS * REQ_OPS) as f64 * 1e9 / busy as f64);
        passes.push(times);
        // The last answer depends on every request before it.
        match &reference {
            None => reference = Some(last),
            Some(r) if *r == last => {}
            Some(_) => return Err(io::Error::other("a pass answered differently")),
        }
    }
    let request_ns = (0..PASS_REQS)
        .map(|i| metrics::median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect();
    Ok(PipelineRun {
        setups,
        request_ns,
        pass_rate,
        probes: clock.probes().to_vec(),
    })
}

/// Runs the `service-open` workload: the in-process phase (the bounded
/// end-to-end metrics), then the live service over TCP (the open-loop
/// numbers and the service checks). An untraced run gives the in-process
/// phase four fifths of `seconds`, so its medians rest on more passes; a
/// traced run, whose open-loop numbers are reported, splits it in half.
pub fn run(seed: u64, seconds: f64, trace: bool, rep: &mut Report) {
    let cfg = service_config(seed);
    let span = system_setup(&cfg).2;
    println!("service: {cfg}; {REQ_OPS} ops per request, one connection, open loop");
    let in_process = if trace { 0.5 } else { 0.8 };
    let pipe = match pipeline_run(&cfg, span, seconds * in_process) {
        Ok(p) => p,
        Err(e) => {
            rep.check(false, format!("in-process pipeline failed: {e}"));
            rep.attempted += 1;
            rep.failed += 1;
            return;
        }
    };
    rep.attempted += (pipe.setups.len() * (WARMUP_REQS + PASS_REQS)) as u64;
    let request_ms: Vec<f64> = pipe.request_ns.iter().map(|&n| n * 1e-6).collect();
    let rate = (PASS_REQS * REQ_OPS) as f64 * 1e9 / pipe.request_ns.iter().sum::<f64>();
    println!(
        "{}",
        metrics::describe("host-clock probe", "ns", &pipe.probes)
    );
    println!(
        "{}",
        metrics::describe(
            "in-process set-up (build + warm-up), reference time",
            "s",
            &pipe.setups
        )
    );
    println!(
        "{}",
        metrics::describe("in-process ops per raw s, per pass", "1/s", &pipe.pass_rate)
    );
    println!(
        "in-process ops per reference s, median pass of each request: {rate:.1} 1/s over {} passes",
        pipe.setups.len()
    );
    println!(
        "{}",
        metrics::describe(
            "in-process median time per request, reference time",
            "ms",
            &request_ms
        )
    );

    let keep = if trace { REPLAY_REQS } else { 0 };
    let run = match tcp_run(&cfg, span, seconds * (1.0 - in_process), keep) {
        Ok(r) => r,
        Err(e) => {
            rep.check(false, format!("service run failed: {e}"));
            rep.attempted += 1;
            rep.failed += 1;
            return;
        }
    };
    let sent_ops = (run.requests * REQ_OPS) as u64;
    rep.attempted += run.requests as u64;
    rep.failed += run.shed_requests as u64;
    let r = &run.report;
    rep.check(r.conserves(), "ServiceReport::conserves() is false");
    rep.check(
        r.completed + r.shed == sent_ops,
        format!(
            "{} completed + {} shed of {sent_ops} ops sent",
            r.completed, r.shed
        ),
    );
    println!(
        "{}",
        metrics::describe("light step latency", "ms", &run.light.latency_ms)
    );
    println!(
        "{}",
        metrics::describe("heavy step latency", "ms", &run.heavy.latency_ms)
    );
    println!(
        "{}",
        metrics::describe("generator lateness", "ms", &run.late_ms)
    );
    println!(
        "requests with a shed op: {} of {}",
        run.shed_requests, run.requests
    );
    println!("ladder (p99 limit {P99_LIMIT_MS} ms):");
    let mut goodput = 0.0f64;
    for s in &run.ladder {
        println!(
            "  {:>6.0} req/s {:>8.0} ops/s  n={:<4} p50 {:>7.3} ms  p99 {:>7.3} ms  \
             backlog {:<5} shed {:<4} {}",
            s.rps,
            s.rps * REQ_OPS as f64,
            s.latency_ms.len(),
            metrics::median(&s.latency_ms),
            s.p99_ms,
            s.backlog,
            s.shed,
            if s.passes() { "pass" } else { "FAIL" }
        );
        if s.passes() {
            goodput = goodput.max(s.rps * REQ_OPS as f64);
        }
    }
    println!(
        "goodput: {goodput:.0} ops/s; {} epochs of {:.1} ops",
        r.epochs,
        r.completed as f64 / r.epochs.max(1) as f64
    );
    rep.set("svc_goodput_ops_s", goodput);
    rep.set("svc_p50_ms", metrics::median(&run.light.latency_ms));
    rep.set("svc_p99_ms", run.light.p99_ms);
    rep.set("svc_p99_ms_heavy", run.heavy.p99_ms);
    rep.set("loadgen.late_p99_ms", percentile(&run.late_ms, 0.99));
    if !trace {
        rep.set("setup_s", metrics::median(&pipe.setups));
        rep.set("work_per_s", rate);
        rep.set("work_p50_ms", metrics::median(&request_ms));
        return;
    }

    rep.set(
        "service.ops_per_epoch",
        r.completed as f64 / r.epochs.max(1) as f64,
    );
    rep.set("service.epochs", r.epochs as f64);
    rep.set("service.shed", r.shed as f64);
    // In-process replay of the warm-up and the first light-step requests,
    // once plain and once traced; both must match what the service
    // answered over TCP.
    let light_n = run.light_completions.len();
    let upto = WARMUP_REQS + light_n;
    // Plain and traced replays alternate twice; the faster of each is
    // kept, so one-off host stalls do not skew the overhead.
    let mut plain_ns = f64::INFINITY;
    let mut best: Option<(Stopwatch, f64)> = None;
    let (mut plain, mut traced) = (Ok((Vec::new(), 0)), Ok((Vec::new(), 0)));
    for _ in 0..2 {
        let t0 = Instant::now();
        plain = replay(&cfg, span, upto, WARMUP_REQS, None);
        plain_ns = plain_ns.min(t0.elapsed().as_nanos() as f64);
        let sw = Stopwatch::new(layer::COUNT, layer::ROOT);
        traced = replay(&cfg, span, upto, WARMUP_REQS, Some(&sw));
        let raw = sw.stop() as f64;
        if best.as_ref().is_none_or(|b| raw < b.1) {
            best = Some((sw, raw));
        }
    }
    let (sw, raw_wall) = best.expect("two traced replays ran");
    let (plain, traced) = match (plain, traced) {
        (Ok(p), Ok(t)) => (p, t),
        (Err(e), _) | (_, Err(e)) => {
            rep.check(false, format!("in-process replay failed: {e}"));
            return;
        }
    };
    let keys = |v: &[Vec<Completion>]| -> Vec<_> { v.iter().flatten().map(sim_key).collect() };
    let tcp_keys = keys(&run.light_completions);
    rep.check(
        keys(&plain.0) == tcp_keys && keys(&traced.0) == tcp_keys,
        "in-process replay differs from the completions served over TCP",
    );
    let ops = (upto * REQ_OPS) as f64;
    let epochs = traced.1 as f64;
    let wall = sw.net_wall();
    rep.set("service.proto_ns_per_op", sw.ns(layer::PROTO) / ops);
    rep.set("service.batcher_ns_per_op", sw.ns(layer::BATCHER) / ops);
    rep.set("service.run_batch_ns_per_op", sw.ns(layer::RUN_BATCH) / ops);
    rep.set(
        "service.telemetry_ns_per_epoch",
        sw.ns(layer::TELEMETRY) / epochs,
    );
    rep.set("system.frac", sw.ns(layer::RUN_BATCH) / wall);
    rep.set("sim_p99_cycles", {
        let lat: Vec<f64> = run
            .light_completions
            .iter()
            .flatten()
            .map(|c| (c.complete_at - c.issued_at) as f64)
            .collect();
        percentile(&lat, 0.99)
    });
    rep.set("trace.coverage", sw.coverage(layer::ROOT));
    rep.set("trace.overhead", raw_wall / plain_ns - 1.0);
    let frac = |l| sw.ns(l) / wall;
    println!(
        "replay of {upto} requests: plain {:.3} s, traced {:.3} s ({:.3} s net of the \
         stopwatch); split: proto {:.3}, batcher {:.3}, run_batch {:.3}, telemetry {:.3}, \
         runner glue {:.3}, outside spans {:.3}",
        plain_ns * 1e-9,
        raw_wall * 1e-9,
        wall * 1e-9,
        frac(layer::PROTO),
        frac(layer::BATCHER),
        frac(layer::RUN_BATCH),
        frac(layer::TELEMETRY),
        frac(layer::RUNNER),
        frac(layer::ROOT),
    );
}
