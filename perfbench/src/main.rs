//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero when a
//! correctness check fails.

use dve_perfbench::metrics::Report;
use dve_perfbench::sim::SimWorkload;
use dve_perfbench::{campaign, provenance, service, sim, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        provenance::line(&args.workload, args.seed, args.trace)
    );
    let mut rep = Report::default();
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "fig6-matrix" => sim::run(SimWorkload::Fig6, seed, secs, trace, &mut rep),
        "chaos-replay" => sim::run(SimWorkload::Chaos, seed, secs, trace, &mut rep),
        "service-open" => service::run(seed, secs, trace, &mut rep),
        "campaign-strat" => campaign::run(seed, secs, trace, &mut rep),
        _ => unreachable!("validated above"),
    }
    if !trace {
        rep.set("peak_rss_mb", provenance::peak_rss_mb());
    }
    println!(
        "fail_frac: {} failed of {} attempted",
        rep.failed, rep.attempted
    );
    println!("{}", rep.json_line(trace));
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
