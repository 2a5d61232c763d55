//! `cold`: a closed loop of never-seen keys against one `serve`, so every
//! request pays simulate → encode → heads.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use atlas_serve::protocol::{self, RequestLine};
use atlas_serve::PredictResponse;
use atlas_sim::{simulate, PhasedWorkload};

use crate::check::{self, mismatch, well_formed, Watts};
use crate::client::{self, Conn, Reply};
use crate::gen::{self, CYCLES};
use crate::procs::Proc;
use crate::report::{self, ClosedLoop, Layers, Outcome, StatsDelta};
use crate::setup::{self, Ctx, SetupTimes, Stopwatch};
use crate::stats::median;
use crate::trace::{Pipeline, Tally, Tracer, REQUEST};
use crate::{run_setups, MODEL};

/// Concurrent clients (one connection each), matching the 2 workers.
const CLIENTS: usize = 2;
/// Replies compared bit for bit against the in-process model per run.
const CHECKED: usize = 6;
/// Requests replayed through the traced in-process pipeline.
const REPLAYED: usize = 6;
/// The timed phase runs past `--seconds` until this many replies are in,
/// so about 20 lie beyond p90 ...
const MIN_SAMPLES: usize = 200;
/// ... but stops after this many seconds (or `--seconds`, if longer).
const MAX_WINDOW_S: f64 = 50.0;
/// Fewer replies than this leave under 10 beyond p90; the run says so.
const FLOOR_SAMPLES: usize = 100;

struct Cold {
    server: Proc,
    addr: String,
    registry: PathBuf,
}

fn set_up(ctx: &Ctx, dir: &Path) -> Result<(Cold, SetupTimes), String> {
    let mut clock = Stopwatch::start();
    let registry = dir.join("registry");
    setup::train(&registry)?;
    let train_s = clock.lap();
    // A 32 MiB embedding cache fills within the first seconds and then
    // evicts, so memory reaches a steady state whatever the run length.
    let (server, addr) = setup::serve(
        ctx,
        &registry,
        "serve",
        &["--workers", "2", "--cache-mb", "32"],
    )?;
    let ready_s = clock.lap();
    // One request per design outside the timed key stream: builds the
    // design cache and finishes lazy initialisation.
    std::thread::scope(|s| {
        let jobs: Vec<_> = ["C2", "C4"]
            .iter()
            .map(|d| s.spawn(|| prewarm(&addr, d)))
            .collect();
        jobs.into_iter()
            .try_for_each(|j| j.join().expect("prewarm thread"))
    })?;
    let prewarm_s = clock.lap();
    Ok((
        Cold {
            server,
            addr,
            registry,
        },
        SetupTimes {
            train_s,
            ready_s,
            prewarm_s,
        },
    ))
}

fn prewarm(addr: &str, design: &str) -> Result<(), String> {
    let request = gen::prewarm_request(design);
    let (reply, _) = Conn::connect(addr)?.call(&client::line(None, &request))?;
    Reply::parse(&reply)?.predict().map(|_| ())
}

struct Sample {
    index: usize,
    client_ms: f64,
    text: String,
}

/// The timed phase: [`CLIENTS`] clients, each sending its next key as
/// soon as its previous answer arrives, for `seconds` and at least
/// [`MIN_SAMPLES`] requests. Returns the samples and the window in seconds.
fn closed_loop(addr: &str, seed: u64, seconds: f64) -> Result<(Vec<Sample>, f64), String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let cap = Duration::from_secs_f64(seconds.max(MAX_WINDOW_S));
    let more = || {
        let elapsed = start.elapsed();
        elapsed < cap && (elapsed < window || next.load(Ordering::Relaxed) < MIN_SAMPLES)
    };
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::connect(addr)?;
                    let mut out = Vec::new();
                    while more() {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let mut request = gen::cold_request(seed, index);
                        request.id = Some(index as u64);
                        let (text, client_ms) = conn.call(&client::line(None, &request))?;
                        out.push(Sample {
                            index,
                            client_ms,
                            text,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for client in per_client {
        samples.extend(client?);
    }
    samples.sort_by_key(|s| s.index);
    Ok((samples, window_s))
}

/// Check one cold reply: no error, its own id, never a cache hit.
fn check_reply(sample: &Sample) -> Result<PredictResponse, String> {
    let reply = Reply::parse(&sample.text)?.predict()?;
    if reply.id != Some(sample.index as u64) {
        return Err(format!("reply id {:?}", reply.id));
    }
    if reply.cache_hit {
        return Err("cold key answered from the cache".to_owned());
    }
    if let Some(bad) = well_formed(&Watts::from(&reply), CYCLES, reply.cycles) {
        return Err(bad);
    }
    Ok(reply)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (cold, times) = run_setups(ctx, |dir| set_up(ctx, dir))?;
    let before = ctx.trace.then(|| client::stats(&cold.addr)).transpose()?;
    let (samples, window_s) = closed_loop(&cold.addr, ctx.seed, ctx.seconds)?;
    if samples.len() < FLOOR_SAMPLES {
        eprintln!(
            "warning: {} cold replies in {window_s:.1} s; latency_p90_ms rests on fewer \
             than 10 samples beyond it",
            samples.len()
        );
    }

    let mut failures = Vec::new();
    let mut replies = Vec::new();
    for sample in &samples {
        match check_reply(sample) {
            Ok(reply) => replies.push((sample, reply)),
            Err(e) => failures.push(format!("cold request {}: {e}", sample.index)),
        }
    }
    let rss_mb = cold.server.peak_rss_mb()?;
    let mut stats_delta = StatsDelta::default();
    let mut reactor_overhead_ms = 0.0;
    if let Some(before) = &before {
        stats_delta = StatsDelta::between(before, &client::stats(&cold.addr)?);
        reactor_overhead_ms = reactor_overhead(&cold.addr, ctx.seed, &samples)?;
    }
    drop(cold.server);

    // Bit-for-bit checks against the in-process model, off the clock.
    let reference = check::reference_service(&cold.registry)?;
    let picked: Vec<_> = check::spread(replies.len(), CHECKED)
        .into_iter()
        .map(|k| &replies[k])
        .collect();
    let requests = picked
        .iter()
        .map(|(s, _)| gen::cold_request(ctx.seed, s.index))
        .collect();
    for ((sample, served), want) in picked.iter().zip(check::call_all(&reference, requests)) {
        match want {
            Ok(want) => {
                if let Some(bad) = mismatch(&Watts::from(served), &Watts::from(&want)) {
                    failures.push(format!("cold request {}: {bad}", sample.index));
                }
            }
            Err(e) => failures.push(format!("reference for cold request {}: {e}", sample.index)),
        }
    }
    drop(reference);

    let latency_ms: Vec<f64> = samples.iter().map(|s| s.client_ms).collect();
    let mut outcome = Outcome {
        attempted: samples.len(),
        failures,
        metrics: Vec::new(),
        samples: vec![("requests", samples.len()), ("checked", picked.len())],
    };
    if !ctx.trace {
        outcome.metrics = ClosedLoop {
            latency_ms,
            window_s,
        }
        .metrics(setup::setup_s(&times), rss_mb);
        return Ok(outcome);
    }

    let mut layers = Layers {
        server_ms: replies.iter().map(|(_, r)| r.latency_ms).collect(),
        wait_ms: replies
            .iter()
            .map(|(s, r)| s.client_ms - r.latency_ms)
            .collect(),
        stats: stats_delta,
        reactor_overhead_ms,
        shard_max_share: 1.0,
        setup: times[0],
        ..Layers::default()
    };
    let mut tr = Tracer::new();
    replay(
        ctx,
        &cold.registry,
        &mut tr,
        &mut layers,
        &mut outcome.failures,
    )?;
    crate::finish_trace(ctx, "cold", &tr)?;
    outcome.samples.push(("replayed", REPLAYED));
    outcome.metrics = report::per_layer(&tr, &layers);
    Ok(outcome)
}

/// Round trip minus reply `latency_ms` with one request outstanding, on
/// the keys served last (still in the cache).
fn reactor_overhead(addr: &str, seed: u64, samples: &[Sample]) -> Result<f64, String> {
    let mut conn = Conn::connect(addr)?;
    let mut overhead = Vec::new();
    for sample in samples.iter().rev().take(3) {
        let line = client::line(None, &gen::cold_request(seed, sample.index));
        for _ in 0..6 {
            let (text, rtt) = conn.call(&line)?;
            let reply = Reply::parse(&text)?.predict()?;
            if reply.cache_hit {
                overhead.push(rtt - reply.latency_ms);
            }
        }
    }
    if overhead.is_empty() {
        return Err("no cached key left for the reactor differential".to_owned());
    }
    Ok(median(&overhead))
}

/// Spans that lie inside the service's own `latency_ms` window.
const IN_SERVICE: [&str; 6] = [
    "designs.generate",
    "features.build",
    "sim.simulate",
    "model.embed",
    "heads.predict",
    "protocol.summarize",
];

/// One cold request through the layers, as the service runs it.
fn chain(
    p: &mut Pipeline,
    tr: &mut Tracer,
    rid: u64,
    line: &str,
) -> Result<(PredictResponse, usize), String> {
    tr.span(REQUEST, rid, |tr| {
        let request = match tr.span("protocol.parse", rid, |_| protocol::parse_line(line)) {
            Ok(RequestLine::Predict(r)) => r,
            other => return Err(format!("replayed line parsed as {other:?}")),
        };
        let design = p.preset(tr, rid, &request.design)?;
        let (gate, data) = (&design.0, &design.1);
        let label = request.workload.clone().unwrap_or_default();
        let phases = request.phases.clone().unwrap_or_default();
        let mut workload =
            PhasedWorkload::try_new(&label, phases, p.preset_seed(&request.design)?)?;
        let trace = tr
            .span("sim.simulate", rid, |_| {
                simulate(gate, &mut workload, request.cycles)
            })
            .map_err(|e| e.to_string())?;
        let embeddings = tr.span("model.embed", rid, |_| {
            p.model
                .embed_trace_with(&p.prepared, gate, &p.lib, data, &trace, 1)
        });
        let power = tr.span("heads.predict", rid, |_| {
            p.model.predict_from_embeddings(&embeddings)
        });
        let response = tr.span("protocol.summarize", rid, |_| {
            protocol::summarize(&request, MODEL, &label, &power, false, true, 0.0)
        });
        tr.span("protocol.render", rid, |_| {
            protocol::render_result(&Ok(response.clone()))
        });
        Ok((response, data.len() * request.cycles))
    })
}

/// Replay the first requests of the seed's stream in-process: each one
/// through a fresh in-process service (its `latency_ms`) and through the
/// traced and the untraced layer chain, in alternating order.
fn replay(
    ctx: &Ctx,
    registry: &Path,
    tr: &mut Tracer,
    layers: &mut Layers,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let service = check::reference_service(registry)?;
    let mut pipeline = Pipeline::open(registry)?;
    let mut tally = Tally::default();
    for index in 0..REPLAYED {
        let request = gen::cold_request(ctx.seed, index);
        let line = client::line(None, &request);
        let want = service.call(request).map_err(|e| e.to_string())?;
        let rid = index as u64;
        for pass in 0..2 {
            let on = (pass + index) % 2 == 0;
            let (got, rows) = tally.run(tr, on, |tr| chain(&mut pipeline, tr, rid, &line))?;
            layers.heads_rows.insert(rid, rows);
            if let Some(bad) = mismatch(&Watts::from(&got), &Watts::from(&want)) {
                failures.push(format!("replayed cold request {index}: {bad}"));
            }
        }
        tally.cover(tr, rid, &IN_SERVICE, want.latency_ms);
    }
    (layers.coverage_share, layers.overhead_share) = tally.shares();
    Ok(())
}
