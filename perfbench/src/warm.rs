//! `warm`: a closed loop of one client sent through `atlas-shard` to two
//! `serve` shards whose caches hold the whole working set, so every
//! request is a cache hit. The traced run repeats the closed loop (for
//! the `service.*`, `cache.*` and `shard.max_share` metrics), then offers
//! an open loop of Poisson arrivals over a fixed ladder of rates (for
//! `loadgen.*`).

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use atlas_core::TraceEmbeddings;
use atlas_serve::protocol::{self, RequestLine};
use atlas_serve::shard::{trace_route_key, ShardRing};
use atlas_serve::{PredictRequest, PredictResponse, ShardInfo, StatsResponse};
use atlas_sim::{simulate, PhasedWorkload};

use crate::check::{self, mismatch, well_formed, Watts};
use crate::client::{self, recv_line, Conn, Reply};
use crate::gen::{self, WarmKey, CYCLES};
use crate::procs::Proc;
use crate::report::{self, ClosedLoop, Layers, Outcome, StatsDelta};
use crate::rng::Rng;
use crate::setup::{self, Ctx, SetupTimes, Stopwatch};
use crate::stats::{median, quantile};
use crate::trace::{Pipeline, Tally, Tracer, REQUEST};
use crate::{run_setups, MODEL};

const SHARDS: usize = 2;
/// Keys per shard of C2 and of C4: 2 shards × (6 + 2) = 16 keys. Three C2
/// keys to one C4 key put the median inside the C2 latency cluster and
/// p90 inside the C4 one; an even split would put the median in the gap
/// between them, where it jumps.
const PER_SHARD: [usize; 2] = [6, 2];
/// Working-set keys compared bit for bit against the in-process model.
const CHECKED: usize = 4;
/// Keys replayed through the traced pipeline, `REPS` times each.
const REPLAYED: usize = 4;
const REPS: usize = 5;
/// Probe keys of the proxied-vs-direct differentials.
const DIFFERENTIAL_KEYS: usize = 12;

struct Warm {
    shards: Vec<Proc>,
    shard_addrs: Vec<String>,
    proxy: Proc,
    addr: String,
    registry: PathBuf,
    keys: Vec<WarmKey>,
}

impl Warm {
    fn rss_mb(&self) -> Result<f64, String> {
        let mut total = self.proxy.peak_rss_mb()?;
        for shard in &self.shards {
            total += shard.peak_rss_mb()?;
        }
        Ok(total)
    }

    fn stats(&self) -> Result<Vec<StatsResponse>, String> {
        self.shard_addrs.iter().map(|a| client::stats(a)).collect()
    }
}

/// The ring `atlas-shard` builds over the same fleet (ids 0.., default
/// virtual nodes).
fn ring(addrs: &[String]) -> Result<ShardRing, String> {
    let shards = addrs
        .iter()
        .enumerate()
        .map(|(id, addr)| ShardInfo {
            id: id as u32,
            addr: addr.clone(),
            vnodes: 0,
        })
        .collect();
    ShardRing::new(shards).map_err(|e| e.to_string())
}

fn set_up(ctx: &Ctx, dir: &Path) -> Result<(Warm, SetupTimes), String> {
    let mut clock = Stopwatch::start();
    let registry = dir.join("registry");
    setup::train(&registry)?;
    let train_s = clock.lap();
    let mut shards = Vec::new();
    let mut shard_addrs = Vec::new();
    for id in 0..SHARDS {
        let id = id.to_string();
        let (proc, addr) = setup::serve(
            ctx,
            &registry,
            &format!("shard-{id}"),
            &["--workers", "1", "--shard-id", &id],
        )?;
        shards.push(proc);
        shard_addrs.push(addr);
    }
    let (proxy, addr) = setup::proxy(ctx, &shard_addrs)?;
    let ready_s = clock.lap();
    // Compute every key once, one client per shard's keys, then one warm
    // pass so connections and the warm path are initialised.
    let keys = gen::warm_keys(ctx.seed, &ring(&shard_addrs)?, PER_SHARD);
    for expect_hit in [false, true] {
        std::thread::scope(|s| {
            let jobs: Vec<_> = (0..SHARDS)
                .map(|shard| {
                    let (keys, addr) = (&keys, &addr);
                    s.spawn(move || -> Result<(), String> {
                        let mut conn = Conn::connect(addr)?;
                        for key in keys.iter().filter(|k| k.shard == shard) {
                            let (text, _) = conn.call(&client::line(None, &key.request))?;
                            let reply = Reply::parse(&text)?.predict()?;
                            if reply.cache_hit != expect_hit {
                                return Err(format!(
                                    "prewarm {}: cache_hit {}",
                                    reply.workload, reply.cache_hit
                                ));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            jobs.into_iter()
                .try_for_each(|j| j.join().expect("prewarm thread"))
        })?;
    }
    let prewarm_s = clock.lap();
    Ok((
        Warm {
            shards,
            shard_addrs,
            proxy,
            addr,
            registry,
            keys,
        },
        SetupTimes {
            train_s,
            ready_s,
            prewarm_s,
        },
    ))
}

/// One reply of the closed or the open loop.
struct Answer {
    key: usize,
    /// Closed loop: send to reply. Open loop: due time to reply.
    latency_ms: f64,
    reply: Result<PredictResponse, String>,
}

/// One rate of the ladder, as measured.
struct Rung {
    rate: f64,
    answers: Vec<Answer>,
    late_ms: Vec<f64>,
    backlog_max: usize,
    /// Least-squares trend of requests outstanding over the rung (req/s).
    backlog_slope: f64,
    /// Completions per second from the first due time to the last reply.
    completed_rps: f64,
}

impl Rung {
    fn latencies(&self) -> Vec<f64> {
        self.answers.iter().map(|a| a.latency_ms).collect()
    }

    fn p90(&self) -> f64 {
        quantile(&self.latencies(), 0.9)
    }
}

/// A backlog grows when requests outstanding trend up by more than this
/// share of the offered rate per second (completions fall behind arrivals
/// by that share).
const GROWTH: f64 = 0.1;

/// `values` made non-decreasing by pooling adjacent violators, so one
/// noisy rate cannot move the crossing on its own.
fn monotone(values: &[f64]) -> Vec<f64> {
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    for &v in values {
        blocks.push((v, 1));
        while blocks.len() > 1 && blocks[blocks.len() - 2].0 > blocks[blocks.len() - 1].0 {
            let (v2, n2) = blocks.pop().expect("two blocks");
            let (v1, n1) = blocks.pop().expect("two blocks");
            let n = n1 + n2;
            blocks.push(((v1 * n1 as f64 + v2 * n2 as f64) / n as f64, n));
        }
    }
    blocks
        .into_iter()
        .flat_map(|(v, n)| std::iter::repeat_n(v, n))
        .collect()
}

/// Offer `order.len()` requests at Poisson arrivals of `rate` per second
/// on one connection: this thread sends on schedule, one more thread
/// receives. Latency counts from each request's due time.
fn rung(
    conn: &mut Conn,
    keys: &[WarmKey],
    order: &[usize],
    rate: f64,
    rng: &mut Rng,
    first_id: u64,
) -> Result<Rung, String> {
    let n = order.len();
    let lines: Vec<String> = order
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let mut request = keys[k].request.clone();
            request.id = Some(first_id + i as u64);
            client::line(None, &request) + "\n"
        })
        .collect();
    let mut due = Vec::with_capacity(n);
    let mut at = Instant::now() + Duration::from_millis(5);
    for _ in 0..n {
        at += Duration::from_secs_f64(rng.exp(1.0 / rate));
        due.push(at);
    }
    let received = AtomicUsize::new(0);
    let mut late_ms = Vec::with_capacity(n);
    // (seconds since the first due time, requests outstanding) per send.
    let mut backlog = Vec::with_capacity(n);
    let Conn { reader, writer } = conn;
    let (sent, arrivals) = std::thread::scope(|s| {
        let receiver = s.spawn(|| -> Result<Vec<(Instant, String)>, String> {
            let mut arrivals = Vec::with_capacity(n);
            for _ in 0..n {
                let text = recv_line(reader)?;
                arrivals.push((Instant::now(), text));
                received.fetch_add(1, Ordering::SeqCst);
            }
            Ok(arrivals)
        });
        let mut sent = Ok(());
        for (line, &at) in lines.iter().zip(&due) {
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let outstanding = late_ms.len() - received.load(Ordering::SeqCst);
            backlog.push(((at - due[0]).as_secs_f64(), outstanding as f64));
            late_ms.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
            if let Err(e) = writer.write_all(line.as_bytes()) {
                sent = Err(format!("send: {e}"));
                // Unblock the receiver so the scope can end.
                let _ = writer.shutdown(std::net::Shutdown::Both);
                break;
            }
        }
        (sent, receiver.join().expect("receiver thread"))
    });
    sent?;
    let arrivals = arrivals?;
    let last = arrivals.iter().map(|a| a.0).max().unwrap_or(due[0]);
    let mut answers = Vec::with_capacity(n);
    for (t, text) in arrivals {
        let (id, reply) = match Reply::parse(&text)? {
            Reply::Predict(p) => (p.id, Ok(p)),
            Reply::Error(e) => (e.id, Err(format!("{}: {}", e.kind, e.error))),
            Reply::Delta(d) => (d.id, Err("unexpected predict_delta reply".to_owned())),
            Reply::Other => (None, Err("unexpected reply".to_owned())),
        };
        let i = id
            .and_then(|id| id.checked_sub(first_id))
            .map(|i| i as usize)
            .filter(|&i| i < n)
            .ok_or_else(|| format!("reply with unknown id `{}`", client::clip(&text)))?;
        answers.push(Answer {
            key: order[i],
            latency_ms: (t - due[i]).as_secs_f64() * 1e3,
            reply,
        });
    }
    Ok(Rung {
        rate,
        answers,
        late_ms,
        backlog_max: backlog.iter().map(|b| b.1 as usize).max().unwrap_or(0),
        backlog_slope: slope(&backlog),
        completed_rps: n as f64 / (last - due[0]).as_secs_f64(),
    })
}

/// Least-squares slope of `y` over `x`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mx, my) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x / n, sy + y / n));
    let (sxy, sxx) = points.iter().fold((0.0, 0.0), |(sxy, sxx), (x, y)| {
        (sxy + (x - mx) * (y - my), sxx + (x - mx) * (x - mx))
    });
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

/// The rate at which `score` (one value per rate, fitted non-decreasing)
/// first exceeds `limit`, interpolated linearly between the rates around
/// the crossing; the top rate when it never does.
fn crossing(rungs: &[Rung], score: impl Fn(&Rung) -> f64, limit: f64) -> f64 {
    let fit = monotone(&rungs.iter().map(score).collect::<Vec<_>>());
    match fit.iter().position(|&s| s > limit) {
        None => rungs[rungs.len() - 1].rate,
        Some(0) => rungs[0].rate,
        Some(j) => {
            let (ra, rb) = (rungs[j - 1].rate, rungs[j].rate);
            let (sa, sb) = (fit[j - 1], fit[j]);
            ra + (rb - ra) * ((limit - sa) / (sb - sa)).clamp(0.0, 1.0)
        }
    }
}

/// The highest rate that meets the p90 limit with no growing backlog:
/// the lower of where log p90 crosses the limit and where the backlog
/// trend crosses a tenth of the offered rate. Both scores are fitted
/// non-decreasing in rate (one noisy rate cannot move the answer alone)
/// and interpolated, so the answer moves smoothly between ladder rates.
fn max_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    let by_latency = crossing(rungs, |r| r.p90().ln(), limit_ms.ln());
    let by_backlog = crossing(rungs, |r| r.backlog_slope / r.rate, GROWTH);
    by_latency.min(by_backlog)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (warm, times) = run_setups(ctx, |dir| set_up(ctx, dir))?;
    let before = if ctx.trace { Some(warm.stats()?) } else { None };
    let (answers, window_s) = closed_loop(&warm, ctx.seed, ctx.seconds)?;
    let after = if ctx.trace { Some(warm.stats()?) } else { None };
    let rungs = if ctx.trace {
        ladder(ctx, &warm)?
    } else {
        Vec::new()
    };
    let all = || answers.iter().chain(rungs.iter().flat_map(|r| &r.answers));
    let rss_mb = warm.rss_mb()?;

    let mut failures = Vec::new();
    let mut first: HashMap<usize, PredictResponse> = HashMap::new();
    for a in all() {
        let fail = match &a.reply {
            Err(e) => Some(e.clone()),
            Ok(r) if !r.cache_hit => Some("working-set key missed the cache".to_owned()),
            Ok(r) => well_formed(&Watts::from(r), CYCLES, r.cycles).or_else(|| {
                let want = first.entry(a.key).or_insert_with(|| r.clone());
                mismatch(&Watts::from(r), &Watts::from(&*want))
                    .map(|bad| format!("differs from its first answer: {bad}"))
            }),
        };
        if let Some(bad) = fail {
            failures.push(format!("warm key {}: {bad}", a.key));
        }
    }
    let mut layers = if let (Some(before), Some(after)) = (before, after) {
        let deltas: Vec<StatsDelta> = before
            .iter()
            .zip(&after)
            .map(|(b, a)| StatsDelta::between(b, a))
            .collect();
        let (reactor_overhead_ms, shard_hop_ms) = differentials(&warm)?;
        let mut stats = StatsDelta::default();
        deltas.iter().for_each(|d| stats.add(d));
        let busiest = deltas.iter().map(|d| d.requests).max().unwrap_or(0);
        let served: Vec<(f64, f64)> = answers
            .iter()
            .filter_map(|a| a.reply.as_ref().ok().map(|r| (a.latency_ms, r.latency_ms)))
            .collect();
        let late: Vec<f64> = rungs
            .iter()
            .flat_map(|r| r.late_ms.iter().copied())
            .collect();
        Some(Layers {
            server_ms: served.iter().map(|s| s.1).collect(),
            wait_ms: served.iter().map(|s| s.0 - s.1).collect(),
            shard_max_share: busiest as f64 / stats.requests.max(1) as f64,
            stats,
            reactor_overhead_ms,
            shard_hop_ms,
            late_p99_ms: quantile(&late, 0.99),
            backlog_max: rungs.iter().map(|r| r.backlog_max).max().unwrap_or(0) as f64,
            max_rate_rps: max_rate(&rungs, ctx.p90_limit_ms),
            setup: times[0],
            ..Layers::default()
        })
    } else {
        None
    };
    let attempted = all().count();
    let registry = warm.registry.clone();
    let keys: Vec<PredictRequest> = warm.keys.iter().map(|k| k.request.clone()).collect();
    drop(warm);

    // Bit-for-bit checks of a few keys against the in-process model.
    let reference = check::reference_service(&registry)?;
    let picked = check::spread(keys.len(), CHECKED);
    let requests = picked.iter().map(|&k| keys[k].clone()).collect();
    for (&k, want) in picked.iter().zip(check::call_all(&reference, requests)) {
        match (want, first.get(&k)) {
            (Ok(want), Some(got)) => {
                if let Some(bad) = mismatch(&Watts::from(got), &Watts::from(&want)) {
                    failures.push(format!("warm key {k}: {bad}"));
                }
            }
            (Err(e), _) => failures.push(format!("reference for warm key {k}: {e}")),
            (Ok(_), None) => {}
        }
    }
    drop(reference);

    let mut outcome = Outcome {
        attempted,
        failures,
        metrics: Vec::new(),
        samples: vec![("requests", attempted), ("checked", picked.len())],
    };
    let Some(layers) = layers.as_mut() else {
        outcome.metrics = ClosedLoop {
            latency_ms: answers.iter().map(|a| a.latency_ms).collect(),
            window_s,
        }
        .metrics(setup::setup_s(&times), rss_mb);
        return Ok(outcome);
    };
    for r in &rungs {
        eprintln!(
            "rate {:>6.1} req/s: p50 {:>7.2} ms, p90 {:>7.2} ms, completed {:>6.1} req/s, backlog max {} trend {:+.1}/s",
            r.rate,
            median(&r.latencies()),
            r.p90(),
            r.completed_rps,
            r.backlog_max,
            r.backlog_slope,
        );
    }
    let mut tr = Tracer::new();
    replay(&registry, &keys, &mut tr, layers, &mut outcome.failures)?;
    crate::finish_trace(ctx, "warm", &tr)?;
    outcome.samples.push(("replayed", REPLAYED * REPS));
    outcome.metrics = report::per_layer(&tr, layers);
    Ok(outcome)
}

/// The timed phase: one client on one connection through the proxy,
/// sending its next working-set key as soon as its previous answer
/// arrives. One request at a time keeps queueing out of the latency, so
/// its spread is the requests' own. Returns the answers and the window in
/// seconds.
fn closed_loop(warm: &Warm, seed: u64, seconds: f64) -> Result<(Vec<Answer>, f64), String> {
    let order = gen::warm_order(seed, warm.keys.len(), warm.keys.len() * 256);
    let mut conn = Conn::connect(&warm.addr)?;
    let mut answers = Vec::new();
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    while start.elapsed() < window {
        let i = answers.len();
        let key = order[i % order.len()];
        let mut request = warm.keys[key].request.clone();
        request.id = Some(i as u64);
        let (text, latency_ms) = conn.call(&client::line(None, &request))?;
        let reply = Reply::parse(&text).and_then(Reply::predict);
        answers.push(Answer {
            key,
            latency_ms,
            reply,
        });
    }
    Ok((answers, start.elapsed().as_secs_f64()))
}

/// The traced run's open loop: the same number of requests at every rate
/// of the ladder, sized so the ladder offers `--seconds` of load in total.
fn ladder(ctx: &Ctx, warm: &Warm) -> Result<Vec<Rung>, String> {
    let per_rung = (ctx.seconds / ctx.ladder.iter().map(|r| 1.0 / r).sum::<f64>()).round() as usize;
    let per_rung = per_rung.max(1);
    let order = gen::warm_order(ctx.seed, warm.keys.len(), per_rung * ctx.ladder.len());
    let mut rng = gen::arrivals_rng(ctx.seed);
    let mut conn = Conn::connect(&warm.addr)?;
    let mut rungs = Vec::new();
    for (j, &rate) in ctx.ladder.iter().enumerate() {
        let slice = &order[j * per_rung..(j + 1) * per_rung];
        rungs.push(rung(
            &mut conn,
            &warm.keys,
            slice,
            rate,
            &mut rng,
            (j * per_rung) as u64,
        )?);
    }
    Ok(rungs)
}

/// `reactor.overhead_ms` (direct round trip minus reply `latency_ms`) and
/// `shard.hop_ms` (proxied minus direct round trip), one request
/// outstanding, the same short probe keys both ways in alternating order
/// (a short trace keeps head time from drowning a sub-millisecond hop).
fn differentials(warm: &Warm) -> Result<(f64, f64), String> {
    let ring = ring(&warm.shard_addrs)?;
    let mut proxied = Conn::connect(&warm.addr)?;
    let mut direct = warm
        .shard_addrs
        .iter()
        .map(|a| Conn::connect(a))
        .collect::<Result<Vec<_>, _>>()?;
    let (mut overhead, mut via_proxy, mut via_shard) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..DIFFERENTIAL_KEYS {
        let probe = gen::probe_request(i);
        let label = probe.workload.as_deref().unwrap_or_default();
        let shard = ring.route_index(trace_route_key(None, &probe.design, label, probe.cycles));
        let line = client::line(None, &probe);
        // The first call computes the probe on its shard; the rest hit.
        proxied.call(&line)?;
        for pass in 0..4 {
            if (i + pass) % 2 == 0 {
                let (text, rtt) = direct[shard].call(&line)?;
                let reply = Reply::parse(&text)?.predict()?;
                if !reply.cache_hit {
                    return Err(format!("probe {i} is not cached on shard {shard}"));
                }
                overhead.push(rtt - reply.latency_ms);
                via_shard.push(rtt);
            } else {
                via_proxy.push(proxied.call(&line)?.1);
            }
        }
    }
    Ok((median(&overhead), median(&via_proxy) - median(&via_shard)))
}

/// Spans inside the service's `latency_ms` window on a cache hit.
const IN_SERVICE: [&str; 2] = ["heads.predict", "protocol.summarize"];

/// One warm request through the layers: the embeddings come from the
/// cache, so only heads and rendering run.
fn chain(
    p: &Pipeline,
    tr: &mut Tracer,
    rid: u64,
    line: &str,
    embeddings: &TraceEmbeddings,
) -> Result<(PredictResponse, usize), String> {
    tr.span(REQUEST, rid, |tr| {
        let request = match tr.span("protocol.parse", rid, |_| protocol::parse_line(line)) {
            Ok(RequestLine::Predict(r)) => r,
            other => return Err(format!("replayed line parsed as {other:?}")),
        };
        let label = request.workload.clone().unwrap_or_default();
        let power = tr.span("heads.predict", rid, |_| {
            p.model.predict_from_embeddings(embeddings)
        });
        let response = tr.span("protocol.summarize", rid, |_| {
            protocol::summarize(&request, MODEL, &label, &power, true, true, 0.0)
        });
        tr.span("protocol.render", rid, |_| {
            protocol::render_result(&Ok(response.clone()))
        });
        Ok((response, embeddings.per_submodule().len() * request.cycles))
    })
}

/// Embed one key in-process: the cache-miss path of the key's first
/// request, so it counts toward the encoder's per-layer metrics.
fn embed(
    p: &mut Pipeline,
    tr: &mut Tracer,
    rid: u64,
    request: &PredictRequest,
) -> Result<TraceEmbeddings, String> {
    tr.span(REQUEST, rid, |tr| {
        let design = p.preset(tr, rid, &request.design)?;
        let label = request.workload.clone().unwrap_or_default();
        let phases = request.phases.clone().unwrap_or_default();
        let mut workload = PhasedWorkload::try_new(label, phases, p.preset_seed(&request.design)?)?;
        let trace = tr
            .span("sim.simulate", rid, |_| {
                simulate(&design.0, &mut workload, request.cycles)
            })
            .map_err(|e| e.to_string())?;
        Ok(tr.span("model.embed", rid, |_| {
            p.model
                .embed_trace_with(&p.prepared, &design.0, &p.lib, &design.1, &trace, 1)
        }))
    })
}

/// Replay a few working-set keys in-process: once down the miss path,
/// then `REPS` times each through a warm in-process service (its
/// `latency_ms`) and through the traced and the untraced chain, in
/// alternating order.
fn replay(
    registry: &Path,
    keys: &[PredictRequest],
    tr: &mut Tracer,
    layers: &mut Layers,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let service = check::reference_service(registry)?;
    let mut p = Pipeline::open(registry)?;
    let mut cached = Vec::new();
    for k in check::spread(keys.len(), REPLAYED) {
        service.call(keys[k].clone()).map_err(|e| e.to_string())?;
        // Request ids past those of the warm repetitions below.
        let rid = (REPS * keys.len() + k) as u64;
        cached.push((k, embed(&mut p, tr, rid, &keys[k])?));
    }
    let mut tally = Tally::default();
    for rep in 0..REPS {
        for (k, embeddings) in &cached {
            let rid = (rep * keys.len() + k) as u64;
            let line = client::line(None, &keys[*k]);
            let want = service.call(keys[*k].clone()).map_err(|e| e.to_string())?;
            for pass in 0..2 {
                let on = (pass + rep + k) % 2 == 0;
                let (got, rows) = tally.run(tr, on, |tr| chain(&p, tr, rid, &line, embeddings))?;
                layers.heads_rows.insert(rid, rows);
                if let Some(bad) = mismatch(&Watts::from(&got), &Watts::from(&want)) {
                    failures.push(format!("replayed warm key {k}: {bad}"));
                }
            }
            tally.cover(tr, rid, &IN_SERVICE, want.latency_ms);
        }
    }
    (layers.coverage_share, layers.overhead_share) = tally.shares();
    Ok(())
}
