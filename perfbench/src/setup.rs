//! Set-up shared by every workload: train and save the model, start the
//! shipped server binaries on ephemeral loopback ports.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use atlas_core::pipeline::{train_atlas, ExperimentConfig};
use atlas_serve::ModelRegistry;

use crate::procs::Proc;
use crate::stats::median;
use crate::MODEL;

/// Everything a run needs to know about where it is.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Offered rates (req/s) of the `warm` open loop, ascending.
    pub ladder: Vec<f64>,
    /// `latency_p90_ms` limit a `warm` rate must meet.
    pub p90_limit_ms: f64,
    /// Directory holding the `serve` and `atlas-shard` executables.
    pub bin_dir: PathBuf,
    /// Scratch directory of this run (registries, server logs).
    pub work: PathBuf,
}

/// Wall-clock breakdown of one set-up.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    /// Training plus saving the model to the registry.
    pub train_s: f64,
    /// Spawning the servers until every one listens.
    pub ready_s: f64,
    /// Requests sent before timing starts.
    pub prewarm_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.train_s + self.ready_s + self.prewarm_s
    }
}

/// `setup_s`: the median total of a run's set-ups.
pub fn setup_s(times: &[SetupTimes]) -> f64 {
    median(&times.iter().map(SetupTimes::total_s).collect::<Vec<_>>())
}

/// Times a set-up's phases in order.
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Seconds since the previous lap.
    pub fn lap(&mut self) -> f64 {
        let s = self.0.elapsed().as_secs_f64();
        self.0 = Instant::now();
        s
    }
}

/// Train the model at the scale the serving benchmarks use and save it
/// as [`MODEL`] in a fresh registry at `registry`.
pub fn train(registry: &Path) -> Result<(), String> {
    let mut cfg = ExperimentConfig::quick();
    cfg.scale = 0.2;
    cfg.cycles = 48;
    let trained = train_atlas(&cfg);
    ModelRegistry::open(registry)
        .and_then(|r| r.save(MODEL, &trained.model, &cfg))
        .map(|_| ())
        .map_err(|e| format!("save model: {e}"))
}

/// Start `serve` on an ephemeral loopback port; returns it and its address.
pub fn serve(
    ctx: &Ctx,
    registry: &Path,
    log: &str,
    extra: &[&str],
) -> Result<(Proc, String), String> {
    let mut args: Vec<String> = [
        "--registry",
        &registry.display().to_string(),
        "--model",
        MODEL,
        "--tcp",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(extra.iter().map(|s| s.to_string()));
    spawn(ctx, "serve", &args, log)
}

/// Start `atlas-shard` in front of `shards` (id, address).
pub fn proxy(ctx: &Ctx, shards: &[String]) -> Result<(Proc, String), String> {
    let mut args = vec!["--tcp".to_owned(), "127.0.0.1:0".to_owned()];
    for (id, addr) in shards.iter().enumerate() {
        args.push("--shard".to_owned());
        args.push(format!("{id}={addr}"));
    }
    spawn(ctx, "atlas-shard", &args, "proxy")
}

fn spawn(ctx: &Ctx, exe: &str, args: &[String], log: &str) -> Result<(Proc, String), String> {
    let exe = ctx.bin_dir.join(exe);
    let log = ctx.work.join(format!("{log}.log"));
    let mut proc = Proc::spawn(&exe, args, &log)?;
    let addr = proc
        .wait_for("listening on ", Duration::from_secs(60))
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok((proc, addr))
}
