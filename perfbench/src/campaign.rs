//! The `campaign-strat` workload: `dve_campaign::run_campaign` for
//! Chipkill, Dvé+DSD, Dvé+TSD and Dvé+Chipkill under stratified sampling,
//! with the system replay on (16 ops per faulty trial, the campaign
//! binary's default) and one worker per core. Stratified trials almost
//! all carry faults, so the RS/TSD decoders, the `RecoverableMemory`
//! replay and the work-stealing runner do the work; the timed system is
//! idle.
//!
//! The traced pass runs the trials of a smaller campaign on one thread,
//! calling the sampler and a `TrialExecutor` with replay off and on for
//! every trial, and must reproduce the runner's outcome counts.

use crate::hostspeed::HostClock;
use crate::metrics::{self, Report};
use crate::span::Stopwatch;
use dve_campaign::{
    run_campaign, CampaignConfig, CampaignReport, CampaignResult, CampaignScheme, FaultSampler,
    OutcomeCounts, SamplingMode, TrialExecutor, DEFAULT_TAIL_MIN,
};
use dve_reliability::accel::AccelParams;
use dve_sim::rng::{derive_seed, SplitMix64};
use std::time::Instant;

/// Trials per scheme in one campaign call.
pub(crate) const TRIALS: u64 = 20_000;
/// Trials per scheme of the set-up warm-up campaign.
pub(crate) const WARMUP_TRIALS: u64 = 5_000;
/// Memory operations replayed per faulty trial.
pub(crate) const REPLAY_OPS: u64 = 16;

/// The campaign configuration for `seed` with `trials` per scheme.
pub(crate) fn config(seed: u64, trials: u64, workers: usize) -> CampaignConfig {
    CampaignConfig {
        master_seed: seed,
        trials,
        workers,
        params: AccelParams::paper_accelerated(),
        replay_ops: REPLAY_OPS,
        sampling: SamplingMode::stratified_default(),
    }
}

/// One round: every scheme's campaign; returns results and per-call host
/// ns, each scaled to reference time by `clock` when one is given.
fn round(
    cfg: &CampaignConfig,
    mut clock: Option<&mut HostClock>,
) -> (Vec<CampaignResult>, Vec<f64>) {
    if let Some(c) = clock.as_deref_mut() {
        c.start();
    }
    CampaignScheme::ALL
        .iter()
        .map(|&scheme| {
            let t = Instant::now();
            let r = run_campaign(cfg, scheme);
            let ns = t.elapsed().as_nanos() as f64;
            (r, ns * clock.as_deref_mut().map_or(1.0, HostClock::factor))
        })
        .unzip()
}

/// The campaign's set-up: every scheme's executor and strata plan, and a
/// small warm-up campaign that spawns the workers and fills the caches.
/// Returns the seconds it took, in reference time.
fn setup_once(cfg: &CampaignConfig, clock: &mut HostClock) -> f64 {
    clock.start();
    let t = Instant::now();
    for scheme in CampaignScheme::ALL {
        let plan = TrialExecutor::new(scheme, cfg.params, cfg.replay_ops)
            .strata_plan(DEFAULT_TAIL_MIN, cfg.trials);
        std::hint::black_box(plan);
        let warm = CampaignConfig {
            trials: WARMUP_TRIALS,
            ..*cfg
        };
        std::hint::black_box(run_campaign(&warm, scheme));
    }
    let secs = t.elapsed().as_secs_f64();
    secs * clock.factor()
}

/// Traced-pass layers.
mod layer {
    use crate::span::Layer;
    /// Loop bookkeeping.
    pub const LOOP: Layer = 0;
    /// `FaultSampler::sample_stratum`.
    pub const SAMPLE: Layer = 1;
    /// `run_stratified_with` at replay 0: sampling + adjudication.
    pub const ADJUDICATE: Layer = 2;
    /// `run_stratified_with` at replay on: sampling + adjudication + replay.
    pub const REPLAY: Layer = 3;
    /// Number of layers.
    pub const COUNT: usize = 4;
}

/// One thread over every trial of `cfg`: sample, adjudicate with replay
/// off, then with replay on. Returns per-scheme outcome counts (replay on)
/// and faulty trials.
fn single_thread_pass(cfg: &CampaignConfig, sw: Option<&Stopwatch>) -> (Vec<OutcomeCounts>, u64) {
    let timed = |layer, f: &mut dyn FnMut()| match sw {
        Some(sw) => sw.span(layer, f),
        None => f(),
    };
    let mut faulty = 0;
    let counts = CampaignScheme::ALL
        .iter()
        .map(|&scheme| {
            let off = TrialExecutor::new(scheme, cfg.params, 0);
            let on = TrialExecutor::new(scheme, cfg.params, cfg.replay_ops);
            let plan = on.strata_plan(DEFAULT_TAIL_MIN, cfg.trials);
            let sampler = FaultSampler::new(cfg.params);
            let (mut s_off, mut s_on) = (off.make_scratch(), on.make_scratch());
            let mut counts = OutcomeCounts::default();
            for trial in 0..cfg.trials {
                timed(layer::SAMPLE, &mut || {
                    let seed = derive_seed(cfg.master_seed, scheme.stream(), trial);
                    let spec = &plan.strata[plan.stratum_of(trial)];
                    let sample = sampler.sample_stratum(&plan, spec, &mut SplitMix64::new(seed));
                    std::hint::black_box(sample);
                });
                timed(layer::ADJUDICATE, &mut || {
                    let r = off.run_stratified_with(cfg.master_seed, trial, &plan, &mut s_off);
                    std::hint::black_box(r);
                });
                let mut result = None;
                timed(layer::REPLAY, &mut || {
                    result = Some(on.run_stratified_with(cfg.master_seed, trial, &plan, &mut s_on));
                });
                let r = result.expect("trial ran");
                faulty += u64::from(r.fault_count > 0);
                counts.record(r.outcome);
            }
            counts
        })
        .collect();
    (counts, faulty)
}

/// Runs the `campaign-strat` workload.
pub fn run(seed: u64, seconds: f64, trace: bool, rep: &mut Report) {
    let workers = crate::provenance::nproc();
    let cfg = config(seed, TRIALS, workers);
    println!(
        "campaign: {} schemes x {TRIALS} stratified trials, replay {REPLAY_OPS} ops, {workers} workers",
        CampaignScheme::ALL.len()
    );
    // The workers run on every vCPU, so the clock probes each of them.
    let mut clock = HostClock::across_cpus();
    let setups: Vec<f64> = (0..5).map(|_| setup_once(&cfg, &mut clock)).collect();
    let budget = if trace { seconds * 0.3 } else { seconds };
    let start = Instant::now();
    // Round 0's results are kept; every later round must repeat them.
    let (first, ns) = round(&cfg, Some(&mut clock));
    let mut round_ns = vec![ns];
    let report = CampaignReport::build(&cfg, &first);
    for row in &report.rows {
        println!(
            "  {:<14} DUE {:.3e} [{:.3e}, {:.3e}] model {:.3e} {}; SDC {:.3e} model {:.3e} {}",
            row.scheme.label(),
            row.empirical_due,
            row.due_ci.0,
            row.due_ci.1,
            row.analytical_due,
            row.due_verdict,
            row.empirical_sdc,
            row.analytical_sdc,
            row.sdc_verdict
        );
        rep.check(
            row.agrees(),
            format!(
                "{}: verdict disagrees with the analytic model",
                row.scheme.label()
            ),
        );
    }
    let agree = report.rows.iter().all(|r| r.agrees());
    let per_round = TRIALS * CampaignScheme::ALL.len() as u64;
    rep.attempted += per_round;
    if !agree {
        rep.failed += per_round;
    }
    while start.elapsed().as_secs_f64() < budget {
        let (results, ns) = round(&cfg, Some(&mut clock));
        let repeats = results == first;
        rep.check(
            repeats,
            format!(
                "round {}: campaign results differ from round 0",
                round_ns.len()
            ),
        );
        rep.attempted += per_round;
        if !repeats || !agree {
            rep.failed += per_round;
        }
        round_ns.push(ns);
    }
    let rounds = round_ns;

    // Each scheme's median round, in reference time.
    let median_ns: Vec<f64> = (0..CampaignScheme::ALL.len())
        .map(|i| metrics::median(&rounds.iter().map(|ns| ns[i]).collect::<Vec<_>>()))
        .collect();
    let rate = (TRIALS * median_ns.len() as u64) as f64 * 1e9 / median_ns.iter().sum::<f64>();
    let round_rate: Vec<f64> = rounds
        .iter()
        .map(|ns| (TRIALS * ns.len() as u64) as f64 * 1e9 / ns.iter().sum::<f64>())
        .collect();
    let median_ms: Vec<f64> = median_ns.iter().map(|&n| n * 1e-6).collect();
    println!(
        "{}",
        metrics::describe("host-clock probe", "ns", clock.probes())
    );
    println!(
        "{}",
        metrics::describe(
            "set-up (plans + warm-up campaign), reference time",
            "s",
            &setups
        )
    );
    println!(
        "{}",
        metrics::describe("trials per reference s, per round", "1/s", &round_rate)
    );
    println!(
        "trials per reference s, median round of each scheme: {rate:.1} 1/s over {} rounds",
        rounds.len()
    );
    println!(
        "{}",
        metrics::describe(
            "median round of each scheme's campaign, reference time",
            "ms",
            &median_ms
        )
    );
    rep.set("trials_s", rate);
    if !trace {
        rep.set("setup_s", metrics::median(&setups));
        rep.set("work_per_s", rate);
        rep.set("work_p50_ms", metrics::median(&median_ms));
        return;
    }

    // Parallel efficiency: the same round on one worker, which must also
    // reproduce round 0 (results do not depend on the worker count).
    let one_cfg = config(seed, TRIALS, 1);
    let (one, one_ns) = round(&one_cfg, None);
    rep.check(one == first, "campaign results depend on the worker count");
    let one_rate = (TRIALS * one_ns.len() as u64) as f64 * 1e9 / one_ns.iter().sum::<f64>();
    // A raw round at `nproc` workers right after it, so both sides see the
    // same host.
    let (_, n_ns) = round(&cfg, None);
    let n_rate = (TRIALS * n_ns.len() as u64) as f64 * 1e9 / n_ns.iter().sum::<f64>();
    let parallel_eff = n_rate / (one_rate * workers as f64);
    rep.set("campaign.parallel_eff", parallel_eff);

    // The single-threaded pass, untimed and on the stopwatch, alternating
    // twice; the faster of each is kept so one-off host stalls do not skew
    // the overhead.
    let runner: Vec<OutcomeCounts> = first.iter().map(|r| r.counts).collect();
    let mut plain_ns = f64::INFINITY;
    let mut best: Option<(Stopwatch, f64, u64)> = None;
    // (The stopwatch with the lowest raw wall time is kept.)
    for _ in 0..2 {
        let t = Instant::now();
        let (plain, _) = single_thread_pass(&one_cfg, None);
        plain_ns = plain_ns.min(t.elapsed().as_nanos() as f64);
        let sw = Stopwatch::new(layer::COUNT, layer::LOOP);
        let (traced, faulty) = single_thread_pass(&one_cfg, Some(&sw));
        let wall = sw.stop() as f64;
        rep.check(
            plain == runner && traced == runner,
            "single-threaded trial pass differs from the campaign runner",
        );
        if best.as_ref().is_none_or(|b| wall < b.1) {
            best = Some((sw, wall, faulty));
        }
    }
    let (sw, wall, faulty) = best.expect("two traced passes ran");
    let trials = (TRIALS * CampaignScheme::ALL.len() as u64) as f64;
    let (sample, adjudicate, replay) = (
        sw.ns(layer::SAMPLE),
        sw.ns(layer::ADJUDICATE),
        sw.ns(layer::REPLAY),
    );
    rep.set("campaign.sample_ns", sample / trials);
    rep.set("campaign.faulty_frac", faulty as f64 / trials);
    rep.set(
        "ecc.ns_per_trial",
        ((adjudicate - sample) / trials).max(0.0),
    );
    rep.set(
        "recovery.ns_per_trial",
        ((replay - adjudicate) / trials).max(0.0),
    );
    rep.set("trace.coverage", sw.coverage(layer::LOOP));
    rep.set("trace.overhead", wall / plain_ns - 1.0);
    println!(
        "single-threaded pass over {trials} trials: plain {:.3} s, traced {:.3} s; per trial: \
         sample {:.0} ns, adjudicate {:.0} ns, adjudicate + replay {:.0} ns; parallel \
         efficiency {:.3} at {workers} workers",
        plain_ns * 1e-9,
        wall * 1e-9,
        sample / trials,
        adjudicate / trials,
        replay / trials,
        parallel_eff
    );
}
