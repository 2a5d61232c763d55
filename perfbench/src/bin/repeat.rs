//! `repeat`: run one benchmark workload K times, each from a clean state
//! (its own registry, ephemeral ports, servers reaped on every exit
//! path), and print each metric's median and quartiles next to the
//! bound `BENCHMARK.json` fixes for it.
//!
//! ```text
//! repeat --workload NAME [--runs K] [--seed-start S]
//! ```
//!
//! Run from the repository root: the command, run length and bounds come
//! from `BENCHMARK.json` there, and seeds `S..S+K` are used in turn. The
//! spread is the quartile distance over the median, with quartiles as
//! Python's `statistics.quantiles(values, n=4)` computes them. A metric
//! is steady when its spread is within a third of its bound.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::Path;
use std::process::{Command, ExitCode};

use atlas_perfbench::procs::{self, Proc};
use atlas_perfbench::stats;
use serde::Value;

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Float(x) => Some(*x),
        Value::UInt(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        _ => None,
    }
}

struct Bench {
    command: Vec<String>,
    run_seconds: f64,
    /// End-to-end metric name → bound.
    bounds: BTreeMap<String, f64>,
}

fn read_bench(path: &Path) -> Result<Bench, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let json = serde_json::from_str_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let command = field(&json, "command")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no command list")?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or("command entries must be strings")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let run_seconds = field(&json, "run_seconds")
        .and_then(number)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let mut bounds = BTreeMap::new();
    for m in field(&json, "end_to_end")
        .and_then(Value::as_seq)
        .unwrap_or(&[])
    {
        let name = field(m, "name").and_then(Value::as_str);
        let bound = field(m, "bound").and_then(number);
        if let (Some(name), Some(bound)) = (name, bound) {
            bounds.insert(name.to_owned(), bound);
        }
    }
    if command.is_empty() {
        return Err("BENCHMARK.json has an empty command".to_owned());
    }
    Ok(Bench {
        command,
        run_seconds,
        bounds,
    })
}

struct Args {
    workload: String,
    runs: usize,
    seed_start: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        runs: 10,
        seed_start: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--runs" => args.runs = value.parse().map_err(|e| format!("--runs: {e}"))?,
            "--seed-start" => {
                args.seed_start = value.parse().map_err(|e| format!("--seed-start: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload.is_empty() || args.runs == 0 {
        return Err("usage: repeat --workload NAME [--runs K] [--seed-start S]".into());
    }
    Ok(args)
}

/// `(name, value, unit)` of each metric of a result line.
type Metrics = Vec<(String, f64, String)>;

fn run_once(bench: &Bench, args: &Args, seed: u64, out: &Path) -> Result<(bool, Metrics), String> {
    let mut cmd = Command::new(&bench.command[0]);
    cmd.args(&bench.command[1..])
        .args(["--workload", &args.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &bench.run_seconds.to_string()])
        .args(["--trace", "0"])
        .stdout(File::create(out).map_err(|e| format!("create {}: {e}", out.display()))?);
    let status = Proc::spawn_command(cmd, Path::new(&bench.command[0]))?.wait()?;
    let text = std::fs::read_to_string(out).map_err(|e| format!("read {}: {e}", out.display()))?;
    let last = text.lines().last().unwrap_or("");
    let json = serde_json::from_str_value(last)
        .map_err(|e| format!("seed {seed}: exit {status}, no result line ({e})"))?;
    let correct = matches!(field(&json, "correct"), Some(Value::Bool(true))) && status.success();
    let mut metrics = Vec::new();
    for (name, m) in field(&json, "metrics")
        .and_then(Value::as_map)
        .unwrap_or(&[])
    {
        let value = field(m, "value").and_then(number).unwrap_or(f64::NAN);
        let unit = field(m, "unit").and_then(Value::as_str).unwrap_or("");
        metrics.push((name.clone(), value, unit.to_owned()));
    }
    Ok((correct, metrics))
}

fn main() -> ExitCode {
    procs::install_signal_handlers();
    let result = parse_args().and_then(|args| {
        let bench = read_bench(Path::new("BENCHMARK.json"))?;
        let out_dir = Path::new(".bench_build").join("perfbench");
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        let mut incorrect = 0;
        for k in 0..args.runs {
            let seed = args.seed_start + k as u64;
            let out = out_dir.join(format!("repeat-{}-seed{seed}.out", args.workload));
            let (correct, metrics) = run_once(&bench, &args, seed, &out)?;
            if !correct {
                incorrect += 1;
            }
            let shown: Vec<String> = metrics.iter().map(|(n, v, _)| format!("{n}={v:.4}")).collect();
            println!("seed {seed}: correct={correct} {}", shown.join(" "));
            for (name, value, unit) in metrics {
                values.entry(name).or_insert_with(|| (unit, Vec::new())).1.push(value);
            }
        }
        println!(
            "\n{:<28} {:>8} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
            "metric", "unit", "n", "median", "q1", "q3", "spread", "bound"
        );
        for (name, (unit, v)) in &values {
            let median = stats::median(v);
            let (q1, q3) = stats::quartiles_exclusive(v).unwrap_or((median, median));
            let spread = (q3 - q1) / median.abs();
            let bound = bench.bounds.get(name);
            let verdict = match bound {
                None => "",
                Some(_) if name == "setup_s" => "(spread not bounded)",
                Some(&b) if spread <= b / 3.0 => "steady",
                Some(&b) if spread <= b => "within bound",
                Some(_) => "TOO WIDE",
            };
            println!(
                "{name:<28} {unit:>8} {:>3} {median:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {:>6}  {verdict}",
                v.len(),
                bound.map_or("-".to_owned(), |b| b.to_string()),
            );
        }
        if incorrect > 0 {
            return Err(format!("{incorrect} of {} runs were not correct", args.runs));
        }
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
