//! Metric names, units, sample summaries and the result line.
//!
//! The two name lists below are the benchmark's contract: `BENCHMARK.json`
//! lists exactly these names (a test checks it), an untraced run prints
//! every [`END_TO_END`] metric and a traced run every [`PER_LAYER`] one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them;
/// what one unit of work is depends on the workload (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("work_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer that a
/// workload leaves idle reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-specific end-to-end values, defined on one or two workloads
    // only (0 elsewhere). `sim_*` values are simulated and repeat exactly
    // for a fixed seed.
    ("sim_mops_s", "Mops/s"),
    ("sim_speedup_allow", "x"),
    ("sim_speedup_deny", "x"),
    ("sim_p99_cycles", "cycles"),
    ("sim_mce_per_mop", "1/Mop"),
    ("svc_goodput_ops_s", "ops/s"),
    ("svc_p50_ms", "ms"),
    ("svc_p99_ms", "ms"),
    ("svc_p99_ms_heavy", "ms"),
    ("trials_s", "1/s"),
    // Trace generator.
    ("workloads.ns_per_op", "ns/op"),
    ("workloads.frac", "frac"),
    // Coherence engine (self time, fabric calls excluded).
    ("coherence.ns_per_access", "ns/access"),
    ("coherence.frac", "frac"),
    ("coherence.served_frac.l1", "frac"),
    ("coherence.served_frac.llc", "frac"),
    ("coherence.served_frac.local_dram", "frac"),
    ("coherence.served_frac.remote_dram", "frac"),
    ("coherence.served_frac.local_owner", "frac"),
    ("coherence.served_frac.remote_owner", "frac"),
    ("coherence.replica_read_ratio", "frac"),
    ("coherence.rm_installs_per_kop", "1/kop"),
    // Mesh and inter-socket link.
    ("noc.ns_per_call", "ns/call"),
    ("noc.calls_per_access", "count"),
    ("noc.frac", "frac"),
    ("noc.link_msgs_per_kop", "1/kop"),
    // DRAM controllers.
    ("dram.ns_per_call", "ns/call"),
    ("dram.calls_per_access", "count"),
    ("dram.frac", "frac"),
    ("dram.row_hit_ratio", "frac"),
    ("dram.queue_cycles_per_access", "cycles"),
    // The runner's scheduler (heap, MSHRs) and `System::run_batch`.
    ("system.frac", "frac"),
    // Chaos: fault application, source polling, scrub, degraded flips.
    ("chaos.ns_per_op", "ns/op"),
    ("chaos.frac", "frac"),
    ("chaos.faults_planted", "count"),
    ("chaos.detected_per_kop", "1/kop"),
    ("chaos.corrected", "count"),
    ("chaos.repaired", "count"),
    ("chaos.machine_checks", "count"),
    ("chaos.scrub_lines", "count"),
    ("chaos.degraded_transitions", "count"),
    // Simulated-time attribution (`LatencyBreakdown`).
    ("sim.frac.mesh", "frac"),
    ("sim.frac.link", "frac"),
    ("sim.frac.bank_queue", "frac"),
    ("sim.frac.bank_service", "frac"),
    ("sim.frac.protocol", "frac"),
    ("sim.frac.recovery", "frac"),
    // Service front end.
    ("service.proto_ns_per_op", "ns/op"),
    ("service.batcher_ns_per_op", "ns/op"),
    ("service.run_batch_ns_per_op", "ns/op"),
    ("service.telemetry_ns_per_epoch", "ns/epoch"),
    ("service.ops_per_epoch", "count"),
    ("service.epochs", "count"),
    ("service.shed", "count"),
    ("loadgen.late_p99_ms", "ms"),
    // Reliability campaign.
    ("campaign.sample_ns", "ns/trial"),
    ("campaign.faulty_frac", "frac"),
    ("campaign.parallel_eff", "frac"),
    ("ecc.ns_per_trial", "ns/trial"),
    ("recovery.ns_per_trial", "ns/trial"),
    // The tracing itself.
    ("trace.coverage", "frac"),
    ("trace.overhead", "frac"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn known(name: &str) -> bool {
    END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    assert!(!v.is_empty(), "statistic of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the two middle values for an even count).
pub(crate) fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `q` quantile of `v` (nearest rank).
pub(crate) fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest percentile of `v` that has at least ten samples above it:
/// `(percentile, value)`. With fewer than eleven samples no such
/// percentile exists and the maximum is returned as percentile 100.
pub(crate) fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 11 {
        return (100.0, s[n - 1]);
    }
    let i = n - 11;
    (100.0 * (i + 1) as f64 / n as f64, s[i])
}

/// A host-timed sample set, summarised the way every host timing is
/// reported: median, the highest percentile with ten samples beyond it,
/// and the sample count.
pub(crate) fn describe(label: &str, unit: &str, v: &[f64]) -> String {
    let (q, t) = tail(v);
    format!(
        "{label}: median {:.4} {unit}, p{q:.1} {t:.4} {unit}, n={}",
        median(v),
        v.len()
    )
}

/// Collects one run's outcome and renders the final result line.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations (cells, requests or trials) attempted.
    pub attempted: u64,
    /// Attempted operations that were shed, errored or failed a check.
    pub failed: u64,
    /// Failed correctness checks, with their reasons.
    check_failures: Vec<String>,
}

impl Report {
    /// Records one metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither list (a programming error: the lists
    /// are the contract) or the value is not finite.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(known(name), "unknown metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Records a correctness check; a failing check makes the run
    /// incorrect (and the process exit non-zero).
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("CHECK FAILED: {what}");
            self.check_failures.push(what);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Renders the result line. Per-layer metrics a workload did not set
    /// are idle layers and read 0; every end-to-end metric must be set
    /// unless a check failed.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing from a correct untraced
    /// run.
    pub fn json_line(&self, trace: bool) -> String {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
        .expect("write to String");
        for (i, (name, unit)) in list.iter().enumerate() {
            assert!(valid_name(name), "illegal metric name {name}");
            let value = match self.values.get(name) {
                Some(v) => *v,
                // An idle layer, or a run that failed before measuring.
                None if trace || !self.correct() => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

/// A finite `f64` as a JSON number with every significant digit (`{:?}`
/// prints the shortest round-trip form, e.g. `0.25`, `1.0`, `1e-7`).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_eleventh_largest() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, t) = tail(&v);
        assert_eq!(t, 90.0);
        assert!((q - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 1.0]), (100.0, 3.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(*n), "duplicate {n}");
            assert!(!u.is_empty() && u.len() <= 16);
        }
    }
}
