//! The fx8 study stack's benchmark.
//!
//! ```text
//! perfbench --workload <serve_warm|disk_warm> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Untraced (`--trace 0`) a run prints the end-to-end metrics; traced
//! (`--trace 1`) it prints the per-layer metrics, which it gets by timing
//! calls into each module's public functions from here. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See `README.md` for the workloads and the metrics.

mod checks;
mod cold_study;
mod disk_warm;
mod host_speed;
mod plan;
mod report;
mod serve_warm;
mod stats;

use plan::Plan;
use report::{Outcome, COVERAGE_TOLERANCE};
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload <serve_warm|disk_warm> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["serve_warm", "disk_warm"];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// A fresh scratch directory for one run, under `.perfbench-work/` in the
/// current directory.
fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(".perfbench-work").join(format!("{name}-{}", std::process::id()))
}

/// Run one workload and finish its outcome: peak memory, success
/// fraction, and the layer-sum check of a traced run.
fn measure(workload: &str, plan: &Plan, trace: bool) -> Result<Outcome, String> {
    let work = work_dir(workload);
    std::fs::create_dir_all(&work).map_err(|e| format!("work dir: {e}"))?;
    let host_before = report::host_ticks();
    let result = match workload {
        "serve_warm" => serve_warm::run(plan, trace),
        "disk_warm" => disk_warm::run(plan, &work, trace),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run is using it.
    let _ = std::fs::remove_dir(".perfbench-work");
    let mut out = result?;
    // The host's speed is part of every timing: say how much of the run
    // the hypervisor took away.
    if let (Some((s0, t0)), Some((s1, t1))) = (host_before, report::host_ticks()) {
        if t1 > t0 {
            out.note(format!(
                "host: {:.1}% of the guest's CPU time was stolen by the hypervisor during the run",
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            ));
        }
    }
    if trace {
        let coverage = out.values.get("trace.coverage").copied().unwrap_or(0.0);
        if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
            out.note(format!(
                "FLAG {workload}: trace.coverage {coverage:.3} is outside 1 ± {COVERAGE_TOLERANCE}: \
                 the measured layers do not add up to the op (a measurement bug, or a layer not yet measured)"
            ));
        }
    } else {
        // serve_warm sets its own, over a fixed amount of work.
        if !out.values.contains_key("peak_rss_mb") {
            out.set("peak_rss_mb", report::peak_rss_mb());
        }
        out.set("success_frac", out.success_frac());
    }
    Ok(out)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let plan = Plan::for_seed(args.seed, args.seconds);
    match measure(&args.workload, &plan, args.trace) {
        Ok(out) => {
            for line in &out.notes {
                println!("{line}");
            }
            println!(
                "{} (seed {}, {} s, trace {}):",
                args.workload, args.seed, args.seconds, args.trace as u8
            );
            for line in report::human_lines(&out, args.trace) {
                println!("{line}");
            }
            println!("{}", report::result_line(&out, args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload disk_warm --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "disk_warm".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload disk_warm --trace 2").is_err());
        assert!(args("--workload disk_warm --seconds 0").is_err());
        assert!(args("--workload disk_warm --seed").is_err());
        assert!(args("").is_err());
    }

    /// Run a workload at tiny size and check its result line: every
    /// catalogue metric present, finite, with its unit, and the run
    /// correct.
    fn smoke(workload: &str, trace: bool) {
        let out = measure(workload, &Plan::tiny(), trace).expect("tiny run completes");
        let line = report::result_line(&out, trace);
        let v: Value = serde_json::from_str(&line).expect("result line is JSON");
        assert_eq!(
            v.get("correct"),
            Some(&Value::Bool(true)),
            "{line}\n{:#?}",
            out.notes
        );
        let Some(Value::Object(metrics)) = v.get("metrics") else {
            panic!("no metrics object in {line}");
        };
        let catalogue = report::catalogue(trace);
        assert_eq!(metrics.len(), catalogue.len());
        for &(name, unit) in catalogue {
            let m = v
                .get("metrics")
                .and_then(|m| m.get(name))
                .unwrap_or_else(|| panic!("{workload} misses {name}"));
            assert_eq!(m.get("unit"), Some(&Value::Str(unit.into())), "{name}");
            let Some(Value::Num(n)) = m.get("value") else {
                panic!("{name} has no numeric value");
            };
            let n: f64 = n.parse().expect("value parses");
            assert!(n.is_finite(), "{name} = {n}");
        }
        if !trace {
            for &(name, _) in report::END_TO_END {
                assert!(out.values[name] > 0.0, "{workload} {name} is 0");
            }
        }
    }

    #[test]
    fn serve_warm_emits_every_metric() {
        smoke("serve_warm", false);
        smoke("serve_warm", true);
    }

    #[test]
    fn disk_warm_emits_every_metric() {
        smoke("disk_warm", false);
        smoke("disk_warm", true);
    }
}
