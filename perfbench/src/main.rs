//! `perfbench`: the end-to-end benchmark of the ATLAS serving binaries.
//!
//! ```text
//! perfbench --workload cold|warm|edit_loop --seed N --seconds S --trace 0|1
//!           [--ladder-rps R1,R2,...] [--p90-limit-ms MS]
//! ```
//!
//! One run trains the model into a fresh registry, starts the shipped
//! `serve` (and, for `warm`, `atlas-shard`) binaries on loopback TCP,
//! drives them with the workload's seeded requests for `--seconds`,
//! checks the answers against the same model called in-process, and
//! prints one JSON result line. `--trace 1` prints the per-layer metrics
//! instead, from a traced in-process replay of the same requests.
//! `perfbench/README.md` documents the workloads and metrics.

mod check;
mod client;
mod cold;
mod edit;
mod gen;
mod report;
mod rng;
mod setup;
mod trace;
mod warm;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use atlas_perfbench::{procs, stats};
use serde::Value;

use crate::client::object;
use crate::report::Outcome;
use crate::setup::{Ctx, SetupTimes};
use crate::trace::Tracer;

/// Registry name of the trained model.
pub const MODEL: &str = "bench";

const USAGE: &str = "usage: perfbench --workload cold|warm|edit_loop --seed N --seconds S \
                     --trace 0|1 [--ladder-rps R1,R2,...] [--p90-limit-ms MS]";

/// Set-ups per untraced run; `setup_s` is their median. A traced run sets
/// up once.
const SETUPS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Cold,
    Warm,
    EditLoop,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Warm => "warm",
            Workload::EditLoop => "edit_loop",
        }
    }
}

fn parse_args() -> Result<(Workload, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut ladder = Vec::new();
    let mut p90_limit_ms = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "cold" => Workload::Cold,
                    "warm" => Workload::Warm,
                    "edit_loop" => Workload::EditLoop,
                    other => return Err(format!("unknown workload `{other}`")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            "--ladder-rps" => {
                ladder = value
                    .split(',')
                    .map(|r| r.parse::<f64>().map_err(|e| bad(&e)))
                    .collect::<Result<_, _>>()?;
            }
            "--p90-limit-ms" => p90_limit_ms = Some(value.parse().map_err(|e| bad(&e))?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let p90_limit_ms = p90_limit_ms.unwrap_or(0.0);
    if workload == Workload::Warm
        && (ladder.is_empty() || p90_limit_ms <= 0.0 || ladder.windows(2).any(|w| w[0] >= w[1]))
    {
        return Err("warm needs --ladder-rps (ascending) and --p90-limit-ms".to_owned());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .to_owned();
    let work = PathBuf::from(".bench_build")
        .join("perfbench")
        .join(format!("run-{}", std::process::id()));
    Ok((
        workload,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            ladder,
            p90_limit_ms,
            bin_dir,
            work,
        },
    ))
}

/// Run the workload's set-up [`SETUPS`] times (once when tracing),
/// keeping the last one and stopping the others before the next starts.
pub fn run_setups<S>(
    ctx: &Ctx,
    mut one: impl FnMut(&Path) -> Result<(S, SetupTimes), String>,
) -> Result<(S, Vec<SetupTimes>), String> {
    let rounds = if ctx.trace { 1 } else { SETUPS };
    let mut kept = None;
    let mut times = Vec::new();
    for k in 0..rounds {
        // Stop the previous set-up's servers before the next one starts.
        drop(kept.take());
        let dir = ctx.work.join(format!("setup-{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let (state, t) = one(&dir)?;
        times.push(t);
        kept = Some(state);
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// Print the self-time table and write the spans file of a traced run.
pub fn finish_trace(ctx: &Ctx, workload: &str, tr: &Tracer) -> Result<(), String> {
    let path = ctx
        .work
        .with_file_name(format!("spans-{workload}-seed{}.jsonl", ctx.seed));
    tr.write_jsonl(&path)?;
    print!("{}", tr.self_time_table());
    println!("spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    procs::install_signal_handlers();
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("error: create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let started = std::time::Instant::now();
    let result = match workload {
        Workload::Cold => cold::run(&ctx),
        Workload::Warm => warm::run(&ctx),
        Workload::EditLoop => edit::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {} run failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .failures
                .push(format!("metric {} is {}", m.name, m.value));
            m.value = 0.0;
        }
    }
    for failure in outcome.failures.iter().take(20) {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "{}",
        stamp(workload, &ctx, &outcome, started.elapsed().as_secs_f64())
    );
    println!("{}", report::result_line(&outcome));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run's stamp line: inputs, machine, sample counts and run length.
fn stamp(workload: Workload, ctx: &Ctx, outcome: &Outcome, run_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let samples = outcome
        .samples
        .iter()
        .map(|(k, n)| (k.to_string(), Value::UInt(*n as u64)))
        .collect();
    let line = object(vec![
        ("workload", Value::Str(workload.name().to_owned())),
        ("seed", Value::UInt(ctx.seed)),
        ("seconds", Value::Float(ctx.seconds)),
        ("trace", Value::Bool(ctx.trace)),
        ("nproc", Value::UInt(nproc as u64)),
        ("isa", Value::Str(atlas_nn::simd::isa_label().to_owned())),
        (
            "kernel",
            Value::Str(atlas_nn::simd::kernel_label(atlas_nn::simd::active_kernel()).to_owned()),
        ),
        ("samples", Value::Map(samples)),
        ("run_s", Value::Float(run_s)),
    ]);
    format!(
        "run {}",
        serde_json::to_string(&line).expect("stamp renders")
    )
}
