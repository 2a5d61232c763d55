//! `edit_loop`: one designer waiting on each revision of an uploaded
//! design, each answered by `predict_delta` against the previous trace.
//! It goes direct to one `serve`: the shard proxy refuses `load_design`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atlas_core::features::{build_submodule_data, SubmoduleData};
use atlas_core::TraceEmbeddings;
use atlas_netlist::Design;
use atlas_serve::protocol::{self, RequestLine};
use atlas_serve::{LoadDesignRequest, PredictDeltaResponse, StatsResponse};
use atlas_sim::{simulate, PhasedWorkload};

use crate::check::{self, mismatch, well_formed, Watts};
use crate::client::{self, Conn, Reply};
use crate::gen::{self, EditKind, EditSession, Revision, Upload};
use crate::procs::Proc;
use crate::report::{self, ClosedLoop, Layers, Outcome, StatsDelta};
use crate::setup::{self, Ctx, SetupTimes, Stopwatch};
use crate::stats::median;
use crate::trace::{Pipeline, Tally, Tracer, REQUEST};
use crate::{run_setups, MODEL};

/// Revisions compared bit for bit against a full in-process `predict`.
const CHECKED: usize = 6;
/// Revisions of the first session replayed through the traced pipeline.
const REPLAYED: usize = 9;
/// The stimulus seed the service pins for every uploaded design, so an
/// edited re-upload keeps its stimulus. The replay must use the same one;
/// the bit-for-bit replay check fails if the service's value changes.
const UPLOADED_DESIGN_SEED: u64 = 0x0041_544c_4153;

/// One server lifetime and the session running on it.
struct Lifetime {
    server: Proc,
    addr: String,
    conn: Conn,
    session: EditSession,
    /// Counters when timing started (traced runs only).
    before: Option<StatsResponse>,
}

/// Start a server and open session `index` on it: upload the base design
/// and warm its trace. Returns the lifetime, ready and prewarm seconds.
fn start(ctx: &Ctx, registry: &Path, index: usize) -> Result<(Lifetime, f64, f64), String> {
    let mut clock = Stopwatch::start();
    // A 4 MiB embedding cache holds a few revisions, so every step both
    // writes to the cache and evicts from it.
    let (server, addr) = setup::serve(
        ctx,
        registry,
        &format!("serve-{index}"),
        &["--workers", "2", "--cache-mb", "4"],
    )?;
    let ready_s = clock.lap();
    let session = EditSession::new(ctx.seed, index);
    let mut conn = Conn::connect(&addr)?;
    upload(&mut conn, &upload_line(&session.base_upload())?)??;
    let (text, _) = conn.call(&client::line(None, &session.base_request()))?;
    Reply::parse(&text)?.predict()?;
    let prewarm_s = clock.lap();
    let before = ctx.trace.then(|| client::stats(&addr)).transpose()?;
    Ok((
        Lifetime {
            server,
            addr,
            conn,
            session,
            before,
        },
        ready_s,
        prewarm_s,
    ))
}

struct Edit {
    registry: PathBuf,
    life: Lifetime,
}

fn set_up(ctx: &Ctx, dir: &Path) -> Result<(Edit, SetupTimes), String> {
    let mut clock = Stopwatch::start();
    let registry = dir.join("registry");
    setup::train(&registry)?;
    let train_s = clock.lap();
    let (life, ready_s, prewarm_s) = start(ctx, &registry, 0)?;
    Ok((
        Edit { registry, life },
        SetupTimes {
            train_s,
            ready_s,
            prewarm_s,
        },
    ))
}

fn verilog(design: &Upload) -> Result<String, String> {
    Ok(gen::edit_design(&design.name, &design.tails)?.to_verilog())
}

fn upload_line(design: &Upload) -> Result<String, String> {
    let request = LoadDesignRequest {
        id: None,
        name: design.name.clone(),
        verilog: verilog(design)?,
    };
    Ok(client::line(Some("load_design"), &request))
}

/// Send a `load_design` line. The outer `Err` is a broken connection,
/// the inner one an error reply.
fn upload(conn: &mut Conn, line: &str) -> Result<Result<(), String>, String> {
    let (text, _) = conn.call(line)?;
    Ok(Reply::parse(&text).and_then(Reply::ok))
}

/// One revision as the designer sees it: the upload (netlist edits),
/// then the `predict_delta`.
fn step(
    conn: &mut Conn,
    upload_line: Option<&str>,
    revision: &Revision,
) -> Result<Result<PredictDeltaResponse, String>, String> {
    if let Some(line) = upload_line {
        if let Err(e) = upload(conn, line)? {
            return Ok(Err(format!("load_design: {e}")));
        }
    }
    let (text, _) = conn.call(&client::line(Some("predict_delta"), &revision.request))?;
    Ok(Reply::parse(&text).and_then(Reply::delta))
}

struct Step {
    revision: Revision,
    client_ms: f64,
    reply: Result<PredictDeltaResponse, String>,
}

/// A delta reply must be computed (not cached), reuse its base, and
/// carry the cycles asked for.
fn check_step(step: &Step) -> Result<(), String> {
    let reply = step.reply.as_ref().map_err(Clone::clone)?;
    if reply.cache_hit {
        return Err("revision answered from the cache".to_owned());
    }
    if !reply.base_hit || reply.reused_cycles == 0 {
        return Err(format!(
            "base_hit {} with {} reused cycles",
            reply.base_hit, reply.reused_cycles
        ));
    }
    match well_formed(
        &Watts::from(reply),
        step.revision.request.cycles,
        reply.cycles,
    ) {
        Some(bad) => Err(bad),
        None => Ok(()),
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (edit, times) = run_setups(ctx, |dir| set_up(ctx, dir))?;
    let Edit { registry, mut life } = edit;
    let window = Duration::from_secs_f64(ctx.seconds);
    let mut active = Duration::ZERO;
    let mut steps = Vec::new();
    let mut rss_mb = 0.0f64;
    let mut stats = StatsDelta::default();
    let mut lifetimes = 1;
    loop {
        let segment = Instant::now();
        while active + segment.elapsed() < window {
            let Some(revision) = life.session.next_revision() else {
                break;
            };
            let line = match revision.kind {
                EditKind::Netlist => Some(upload_line(&revision.design)?),
                _ => None,
            };
            let t = Instant::now();
            let reply = step(&mut life.conn, line.as_deref(), &revision)?;
            steps.push(Step {
                revision,
                client_ms: client::ms_since(t),
                reply,
            });
        }
        active += segment.elapsed();
        rss_mb = rss_mb.max(life.server.peak_rss_mb()?);
        if let Some(before) = &life.before {
            let delta = StatsDelta::between(before, &client::stats(&life.addr)?);
            stats.add(&delta);
            // Lifetimes run one after another: resident bytes are the
            // last one's, not a sum.
            stats.bytes = delta.bytes;
        }
        if active >= window {
            break;
        }
        // The server's design library is full: the session continues on a
        // fresh server, off the clock.
        drop(life);
        life = start(ctx, &registry, lifetimes)?.0;
        lifetimes += 1;
    }

    let mut failures = Vec::new();
    for (i, s) in steps.iter().enumerate() {
        if let Err(e) = check_step(s) {
            failures.push(format!("edit step {i} ({:?}): {e}", s.revision.kind));
        }
    }
    let reactor_overhead_ms = match (ctx.trace, steps.last()) {
        (true, Some(last)) => reactor_overhead(&mut life.conn, last)?,
        _ => 0.0,
    };
    drop(life);

    // Each sampled delta answer against a full in-process `predict` of
    // the same key.
    let reference = check::reference_service(&registry)?;
    let mut loaded = HashSet::new();
    let picked = check::spread(steps.len(), CHECKED);
    for &i in &picked {
        let s = &steps[i];
        let design = &s.revision.design;
        if loaded.insert(design.name.clone()) {
            reference
                .load_design(&design.name, &verilog(design)?)
                .map_err(|e| format!("reference load_design: {e}"))?;
        }
        match (reference.call(s.revision.request.target()), &s.reply) {
            (Ok(want), Ok(got)) => {
                if let Some(bad) = mismatch(&Watts::from(got), &Watts::from(&want)) {
                    failures.push(format!("edit step {i}: delta vs full predict: {bad}"));
                }
            }
            (Err(e), _) => failures.push(format!("reference for edit step {i}: {e}")),
            (Ok(_), Err(_)) => {}
        }
    }
    drop(reference);

    let mut outcome = Outcome {
        attempted: steps.len(),
        failures,
        metrics: Vec::new(),
        samples: vec![
            ("revisions", steps.len()),
            ("server_lifetimes", lifetimes),
            ("checked", picked.len()),
        ],
    };
    for kind in [EditKind::Netlist, EditKind::Extend, EditKind::Tail] {
        let ms: Vec<f64> = steps
            .iter()
            .filter(|s| s.revision.kind == kind)
            .map(|s| s.client_ms)
            .collect();
        eprintln!(
            "{kind:?} edits: {} revisions, p50 {:.2} ms, p90 {:.2} ms",
            ms.len(),
            median(&ms),
            crate::stats::quantile(&ms, 0.9)
        );
    }
    if !ctx.trace {
        outcome.metrics = ClosedLoop {
            latency_ms: steps.iter().map(|s| s.client_ms).collect(),
            window_s: active.as_secs_f64(),
        }
        .metrics(setup::setup_s(&times), rss_mb);
        return Ok(outcome);
    }

    let replies: Vec<(&Step, &PredictDeltaResponse)> = steps
        .iter()
        .filter_map(|s| s.reply.as_ref().ok().map(|r| (s, r)))
        .collect();
    let reused: usize = replies.iter().map(|(_, r)| r.reused_cycles).sum();
    let recomputed: usize = replies.iter().map(|(_, r)| r.recomputed_cycles).sum();
    let mut layers = Layers {
        reused_share: reused as f64 / (reused + recomputed).max(1) as f64,
        server_ms: replies.iter().map(|(_, r)| r.latency_ms).collect(),
        wait_ms: replies
            .iter()
            .map(|(s, r)| s.client_ms - r.latency_ms)
            .collect(),
        stats,
        reactor_overhead_ms,
        shard_max_share: 1.0,
        setup: times[0],
        ..Layers::default()
    };
    let mut tr = Tracer::new();
    replay(ctx, &registry, &mut tr, &mut layers, &mut outcome.failures)?;
    crate::finish_trace(ctx, "edit_loop", &tr)?;
    outcome.samples.push(("replayed", REPLAYED));
    outcome.metrics = report::per_layer(&tr, &layers);
    Ok(outcome)
}

/// Round trip minus reply `latency_ms` for plain `predict`s of the last
/// revision's key, which the previous step left in the cache.
fn reactor_overhead(conn: &mut Conn, last: &Step) -> Result<f64, String> {
    let line = client::line(None, &last.revision.request.target());
    let mut overhead = Vec::new();
    for _ in 0..12 {
        let (text, rtt) = conn.call(&line)?;
        let reply = Reply::parse(&text)?.predict()?;
        if reply.cache_hit {
            overhead.push(rtt - reply.latency_ms);
        }
    }
    if overhead.is_empty() {
        return Err("the last revision's key is not cached".to_owned());
    }
    Ok(median(&overhead))
}

/// The previous revision: its design and trace embeddings.
struct Base {
    design: Arc<(Design, Vec<SubmoduleData>)>,
    embeddings: TraceEmbeddings,
}

/// Spans inside the service's `latency_ms` window for a delta (the
/// upload's parse happens in `load_design`, before it).
const IN_SERVICE: [&str; 5] = [
    "features.build",
    "sim.simulate",
    "model.embed_delta",
    "heads.predict",
    "protocol.summarize",
];

/// Parse an uploaded design and build its sub-module data.
fn ingest(
    p: &Pipeline,
    tr: &mut Tracer,
    rid: u64,
    verilog: &str,
) -> Result<Arc<(Design, Vec<SubmoduleData>)>, String> {
    let gate = tr
        .span("netlist.from_verilog", rid, |_| {
            Design::from_verilog(verilog)
        })
        .map_err(|e| e.to_string())?;
    let data = tr.span("features.build", rid, |_| {
        build_submodule_data(&gate, &p.lib)
    });
    Ok(Arc::new((gate, data)))
}

/// One revision through the layers, as `load_design` plus the service's
/// delta path run it.
fn chain(
    p: &Pipeline,
    tr: &mut Tracer,
    rid: u64,
    upload_line: Option<&str>,
    delta_line: &str,
    base: &Base,
) -> Result<(PredictDeltaResponse, Base), String> {
    tr.span(REQUEST, rid, |tr| {
        let design = match upload_line {
            Some(line) => match tr.span("protocol.parse", rid, |_| protocol::parse_line(line)) {
                Ok(RequestLine::LoadDesign(r)) => ingest(p, tr, rid, &r.verilog)?,
                other => return Err(format!("upload line parsed as {other:?}")),
            },
            None => Arc::clone(&base.design),
        };
        let target = match tr.span("protocol.parse", rid, |_| protocol::parse_line(delta_line)) {
            Ok(RequestLine::PredictDelta(r)) => r.target(),
            other => return Err(format!("delta line parsed as {other:?}")),
        };
        let label = target.workload.clone().unwrap_or_default();
        let phases = target.phases.clone().unwrap_or_default();
        let mut workload = PhasedWorkload::try_new(&label, phases, UPLOADED_DESIGN_SEED)?;
        let trace = tr
            .span("sim.simulate", rid, |_| {
                simulate(&design.0, &mut workload, target.cycles)
            })
            .map_err(|e| e.to_string())?;
        let (embeddings, stats) = tr.span("model.embed_delta", rid, |_| {
            p.model.embed_trace_delta_with(
                &p.prepared,
                &design.0,
                &p.lib,
                &design.1,
                &trace,
                1,
                &base.embeddings,
            )
        });
        let power = tr.span("heads.predict", rid, |_| {
            p.model.predict_from_embeddings(&embeddings)
        });
        let response = tr.span("protocol.summarize", rid, |_| {
            let prediction = protocol::summarize(
                &target,
                MODEL,
                &label,
                &power,
                false,
                upload_line.is_none(),
                0.0,
            );
            protocol::delta_response(prediction, true, &stats)
        });
        tr.span("protocol.render", rid, |_| {
            protocol::render_delta_result(&Ok(response.clone()))
        });
        Ok((response, Base { design, embeddings }))
    })
}

/// Replay the first session's first revisions in-process: each through
/// an in-process service (its `latency_ms`) and through the traced and
/// the untraced chain, in alternating order.
fn replay(
    ctx: &Ctx,
    registry: &Path,
    tr: &mut Tracer,
    layers: &mut Layers,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let service = check::reference_service(registry)?;
    let p = Pipeline::open(registry)?;
    let mut session = EditSession::new(ctx.seed, 0);
    let first = session.base_upload();
    let base_request = session.base_request();
    let base_verilog = verilog(&first)?;
    service
        .load_design(&first.name, &base_verilog)
        .map_err(|e| format!("replay load_design: {e}"))?;
    service
        .call(base_request.clone())
        .map_err(|e| e.to_string())?;
    let mut base = tr.span("prewarm", 0, |tr| -> Result<Base, String> {
        let design = ingest(&p, tr, 0, &base_verilog)?;
        let label = base_request.workload.clone().unwrap_or_default();
        let phases = base_request.phases.clone().unwrap_or_default();
        let mut workload = PhasedWorkload::try_new(label, phases, UPLOADED_DESIGN_SEED)?;
        let trace =
            simulate(&design.0, &mut workload, base_request.cycles).map_err(|e| e.to_string())?;
        let embeddings =
            p.model
                .embed_trace_with(&p.prepared, &design.0, &p.lib, &design.1, &trace, 1);
        Ok(Base { design, embeddings })
    })?;

    let mut tally = Tally::default();
    for index in 0..REPLAYED {
        let revision = session.next_revision().ok_or("session ended early")?;
        let rid = index as u64 + 1;
        let upload = match revision.kind {
            EditKind::Netlist => {
                let line = upload_line(&revision.design)?;
                service
                    .load_design(&revision.design.name, &verilog(&revision.design)?)
                    .map_err(|e| format!("replay load_design: {e}"))?;
                Some(line)
            }
            _ => None,
        };
        let delta_line = client::line(Some("predict_delta"), &revision.request);
        let want = service
            .call_delta(revision.request.clone())
            .map_err(|e| e.to_string())?;
        let mut next = None;
        for pass in 0..2 {
            let on = (pass + index) % 2 == 0;
            let (got, advanced) = tally.run(tr, on, |tr| {
                chain(&p, tr, rid, upload.as_deref(), &delta_line, &base)
            })?;
            let rows = advanced.embeddings.per_submodule().len() * got.cycles;
            layers.heads_rows.insert(rid, rows);
            if let Some(bad) = mismatch(&Watts::from(&got), &Watts::from(&want)) {
                failures.push(format!("replayed edit step {index}: {bad}"));
            }
            next = Some(advanced);
        }
        base = next.expect("two passes ran");
        tally.cover(tr, rid, &IN_SERVICE, want.latency_ms);
    }
    (layers.coverage_share, layers.overhead_share) = tally.shares();
    Ok(())
}
