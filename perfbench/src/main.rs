//! `perfbench`: the nufft workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the public API of the umbrella `nufft`
//! crate, checks every output, prints each metric with its unit and the
//! `host` block, and prints as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`). A traced run also
//! writes its spans to `perfbench/out/` in Chrome `trace_event` form.
//! Exits non-zero when any check fails. See README.md.

mod apply3d;
mod common;
mod host;
mod json;
mod probe;
mod recon2d;
mod report;
mod service2d;
mod stats;
mod trace;

use host::Host;
use report::Report;
use std::process::ExitCode;
use trace::Tracer;

/// Everything a workload reads and writes.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub report: Report,
}

/// A workload: runs and records everything into the context.
type Workload = fn(&mut Ctx);

/// The workloads by name, in `BENCHMARK.json` order.
pub const WORKLOADS: &[(&str, Workload)] = &[
    ("apply3d_random", apply3d::run),
    ("recon2d_sense", recon2d::run),
    ("service2d", service2d::run),
];

const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            eprintln!("perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", names.join("|"));
            return ExitCode::from(2);
        }
    };
    let Some(&(name, run)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };

    let host = Host::probe();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        report: Report::default(),
    };
    run(&mut ctx);
    if args.trace {
        ctx.report.set("trace.spans", ctx.tracer.spans().len() as f64);
    }
    ctx.report.check_complete(args.trace);

    let tag = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let result = ctx.report.result_json(args.trace);
    let host_json = host.to_json();
    if let Err(e) = write_outputs(&tag, &ctx.tracer, &host_json, &result) {
        eprintln!("perfbench: could not write {OUT_DIR}: {e}");
    }
    for line in ctx.report.human_lines(name, args.trace) {
        println!("{line}");
    }
    println!("{{\"host\": {host_json}}}");
    println!("{result}");
    if ctx.report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the result with its host block, and the trace of a traced run.
fn write_outputs(tag: &str, tracer: &Tracer, host: &str, result: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(
        format!("{OUT_DIR}/result-{tag}.json"),
        format!("{{\"host\": {host}, \"result\": {result}}}\n"),
    )?;
    if tracer.enabled() {
        std::fs::write(format!("{OUT_DIR}/trace-{tag}.json"), tracer.chrome_json())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn args_parse_the_documented_form() {
        let a =
            parse_args(&s(&["--workload", "x", "--seed", "7", "--seconds", "10", "--trace", "1"]))
                .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("x", 7, 10.0, true));
        assert!(parse_args(&s(&["--seed", "1"])).is_err());
        assert!(parse_args(&s(&["--workload", "x", "--trace", "2"])).is_err());
        assert!(parse_args(&s(&["--workload", "x", "--seconds", "0"])).is_err());
        assert!(parse_args(&s(&["--workload"])).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists exactly the workloads
    /// and metrics this program emits, within the contract's limits.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 << 10);
        let doc = parse(&text).unwrap();
        let Json::Obj(top) = &doc else { panic!("top level is not an object") };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        let names: Vec<&str> =
            workloads.iter().map(|w| w.get("name").unwrap().as_str().unwrap()).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ours);
        for w in workloads {
            assert!(w.get("why").unwrap().as_str().unwrap().len() <= 200);
        }

        for (list, ours) in [("end_to_end", report::END_TO_END), ("per_layer", report::PER_LAYER)] {
            let metrics = doc.get(list).unwrap().as_arr().unwrap();
            assert_eq!(metrics.len(), ours.len(), "{list} length");
            for (m, (name, unit)) in metrics.iter().zip(ours) {
                assert_eq!(m.get("name").unwrap().as_str(), Some(*name), "{list}");
                assert_eq!(m.get("unit").unwrap().as_str(), Some(*unit), "{name}");
                let better = m.get("better").unwrap().as_str().unwrap();
                assert!(better == "lower" || better == "higher", "{name}: better");
                if list == "end_to_end" {
                    let bound = m.get("bound").unwrap().as_f64().unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
                }
            }
        }
        let setup = &doc.get("end_to_end").unwrap().as_arr().unwrap()[0];
        assert_eq!(setup.get("name").unwrap().as_str(), Some("setup_s"));
        assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));

        let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
        let paths = doc.get("paths").unwrap().as_arr().unwrap();
        assert_eq!(paths, [Json::Str("perfbench".into())]);
        let command = doc.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);
        for arg in command {
            let arg = arg.as_str().unwrap();
            assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        }
    }
}
