//! Reactor scale acceptance test, in its own integration-test binary so
//! the OS-thread-count assertion is not perturbed by unrelated tests
//! running in the same process.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atlas_core::pipeline::{train_atlas, ExperimentConfig};
use atlas_serve::reactor::{Frontend, FrontendContext, ReactorConfig, ReactorPool};
use atlas_serve::{
    trace_route_key, AtlasService, PredictResponse, ServiceConfig, ShardInfo, ShardProxy,
    ShardRing, StatsResponse,
};

/// Every test in this binary reasons about the process-global OS thread
/// count, so they must not overlap; the harness may still run them on
/// concurrent threads, hence an explicit lock rather than relying on
/// `--test-threads=1`.
static SERIAL: Mutex<()> = Mutex::new(());

/// A configuration small enough to train inside the test suite.
fn micro_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.cycles = 16;
    cfg.scale = 0.12;
    cfg.pretrain.steps = 14;
    cfg.pretrain.hidden_dim = 12;
    cfg.finetune.cycles_per_design = 6;
    cfg.finetune.gbdt.n_estimators = 16;
    cfg
}

/// Current thread count of this process, from /proc (Linux).
fn os_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("Linux /proc")
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
        .expect("Threads: line")
}

/// Thread count once it has stopped moving: the test-boundary window
/// (the previous test's thread exiting, a queued test's thread being
/// spawned into its blocked state) settles out before the baseline is
/// taken.
fn settled_threads() -> u64 {
    let mut last = os_threads();
    let mut stable_since = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = os_threads();
        if now != last {
            last = now;
            stable_since = Instant::now();
        } else if stable_since.elapsed() >= Duration::from_millis(50) {
            return now;
        }
    }
}

fn ask(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    let framed = format!("{line}\n");
    stream.write_all(framed.as_bytes()).expect("writes");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reads");
    reply
}

/// The reactor acceptance test: ≥ 512 concurrent idle TCP connections on
/// one event-loop thread — zero thread growth — while requests on active
/// connections (including an inline-schedule one and the `stats` verb)
/// keep being answered.
#[test]
fn reactor_holds_512_idle_connections_without_threads() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = micro_config();
    let trained = train_atlas(&cfg);
    let workers = 2;
    let service = Arc::new(AtlasService::start_with(
        trained.model,
        cfg,
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    ));
    let frontend: Arc<AtlasService> = Arc::clone(&service);
    let handle =
        ReactorPool::spawn(frontend, "127.0.0.1:0", ReactorConfig::default(), 1).expect("spawns");

    // Service workers + reactor thread are already up; from here on the
    // thread count must not move.
    let before = os_threads();
    let idle: Vec<TcpStream> = (0..512)
        .map(|_| TcpStream::connect(handle.addr()).expect("connects"))
        .collect();
    for _ in 0..2000 {
        if handle.stats().active >= 512 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(
        handle.stats().active >= 512,
        "reactor admitted only {} connections",
        handle.stats().active
    );
    assert_eq!(
        os_threads(),
        before,
        "512 idle connections must not change the OS thread count"
    );

    // Requests still flow: a preset prediction, an inline schedule, and
    // the stats verb, all on a fresh 513th connection.
    let mut active = TcpStream::connect(handle.addr()).expect("connects");
    active.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(active.try_clone().expect("clones"));
    let resp: PredictResponse = serde_json::from_str(&ask(
        &mut active,
        &mut reader,
        r#"{"id":1,"design":"C2","workload":"W1","cycles":8}"#,
    ))
    .expect("prediction parses");
    assert_eq!(resp.id, Some(1));
    assert!(resp.mean_total_w > 0.0);

    // One request per line: the inline schedule must stay on one line.
    let inline: PredictResponse = serde_json::from_str(&ask(
        &mut active,
        &mut reader,
        r#"{"id":2,"design":"C2","workload":"burst","cycles":8,"phases":[{"activity":0.5,"min_len":2,"max_len":4},{"activity":0.02,"min_len":4,"max_len":8}]}"#,
    ))
    .expect("inline prediction parses");
    assert_eq!(inline.workload, "burst");
    assert_ne!(inline.per_cycle_total_w, resp.per_cycle_total_w);

    let stats: StatsResponse =
        serde_json::from_str(&ask(&mut active, &mut reader, r#"{"id":3,"verb":"stats"}"#))
            .expect("stats parses");
    assert_eq!(stats.requests, 2);
    assert!(stats.embedding_cache.weight > 0);
    assert!(stats.embedding_cache.weight <= stats.embedding_cache.budget);

    drop(idle);
    handle.shutdown().expect("clean shutdown");
}

/// The multi-reactor acceptance test: an N-thread [`ReactorPool`] holds
/// 512 idle connections spread across its reactors under an *exact*
/// serving-fleet thread bound — `workers` pool threads plus N reactor
/// threads, and zero growth from the connections themselves — while the
/// `stats` verb reports the pool shape (`reactor_threads`, per-reactor
/// counters) over the wire.
#[test]
fn reactor_pool_spreads_512_idle_connections_with_exact_thread_bound() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = micro_config();
    let trained = train_atlas(&cfg);
    let workers = 2usize;
    let reactors = 2usize;

    let base = settled_threads();
    let service = Arc::new(AtlasService::start_with(
        trained.model,
        cfg,
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    ));
    let frontend: Arc<AtlasService> = Arc::clone(&service);
    let handle = ReactorPool::spawn(frontend, "127.0.0.1:0", ReactorConfig::default(), reactors)
        .expect("spawns");
    let reuseport = handle.reuseport();
    let fleet = base + (workers + reactors) as u64;
    assert_eq!(
        os_threads(),
        fleet,
        "the serving fleet is exactly {workers} workers + {reactors} reactors"
    );

    let idle: Vec<TcpStream> = (0..512)
        .map(|_| TcpStream::connect(handle.addr()).expect("connects"))
        .collect();
    for _ in 0..2000 {
        if handle.stats().active >= 512 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        handle.stats().active >= 512,
        "pool admitted only {} connections",
        handle.stats().active
    );
    assert_eq!(
        os_threads(),
        fleet,
        "512 idle connections must not change the OS thread count"
    );

    // With SO_REUSEPORT the kernel hashes the 4-tuple, so 512 distinct
    // source ports land on every listener; under the shared-accept-queue
    // fallback the spread is whichever loop wins the race, so only the
    // per-reactor accounting (not the spread) is asserted there.
    let per = handle.reactor_stats();
    assert_eq!(per.len(), reactors);
    let accepted: u64 = per.iter().map(|r| r.accepted).sum();
    assert!(accepted >= 512, "accepted {accepted} < 512");
    if reuseport {
        for (i, r) in per.iter().enumerate() {
            assert!(
                r.accepted > 0,
                "reactor {i} accepted nothing — SO_REUSEPORT did not spread 512 connections"
            );
        }
    }

    // The pool shape is visible over the wire: requests flow, and the
    // stats verb reports the thread count and per-reactor counters.
    let mut active = TcpStream::connect(handle.addr()).expect("connects");
    active.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(active.try_clone().expect("clones"));
    let resp: PredictResponse = serde_json::from_str(&ask(
        &mut active,
        &mut reader,
        r#"{"id":1,"design":"C2","workload":"W1","cycles":8}"#,
    ))
    .expect("prediction parses");
    assert!(resp.mean_total_w > 0.0);
    let stats: StatsResponse =
        serde_json::from_str(&ask(&mut active, &mut reader, r#"{"id":2,"verb":"stats"}"#))
            .expect("stats parses");
    assert_eq!(stats.reactor_threads, reactors);
    assert_eq!(stats.reactors.len(), reactors);
    let wire_active: u64 = stats.reactors.iter().map(|r| r.active).sum();
    assert!(
        wire_active >= 513,
        "stats verb reports {wire_active} active connections, expected the 512 idle + this one"
    );

    drop(idle);
    handle.shutdown().expect("clean shutdown");
}

/// Back-pressure isolation across a pool: a client that pipelines
/// requests without ever reading replies trips the inflight cap and has
/// its read side paused — on its own reactor only — while a
/// well-behaved client on the same pool keeps getting timely answers.
/// Once the flooder finally reads, every one of its replies arrives.
#[test]
fn backpressured_connection_does_not_stall_the_pool() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = micro_config();
    let trained = train_atlas(&cfg);
    let service = Arc::new(AtlasService::start_with(
        trained.model,
        cfg,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    ));
    let frontend: Arc<AtlasService> = Arc::clone(&service);
    let handle = ReactorPool::spawn(
        frontend,
        "127.0.0.1:0",
        ReactorConfig {
            // Low enough that a pipelining client trips it, high enough
            // that a request-at-a-time client (inflight 1) never does.
            max_inflight: 2,
            ..ReactorConfig::default()
        },
        2,
    )
    .expect("spawns");

    // Warm the one key every client uses, so the flood drains through
    // the workers as cache hits rather than serial recomputes.
    let line = r#"{"design":"C2","workload":"W1","cycles":8}"#;
    let mut warm = TcpStream::connect(handle.addr()).expect("connects");
    warm.set_nodelay(true).expect("nodelay");
    let mut warm_reader = BufReader::new(warm.try_clone().expect("clones"));
    let _: PredictResponse =
        serde_json::from_str(&ask(&mut warm, &mut warm_reader, line)).expect("warmup parses");

    // The abuser pipelines 64 requests and reads nothing.
    const FLOOD: u64 = 64;
    let mut abuser = TcpStream::connect(handle.addr()).expect("connects");
    abuser.set_nodelay(true).expect("nodelay");
    let mut burst = String::new();
    for i in 0..FLOOD {
        burst.push_str(&format!(
            r#"{{"id":{i},"design":"C2","workload":"W1","cycles":8}}"#
        ));
        burst.push('\n');
    }
    abuser.write_all(burst.as_bytes()).expect("flood writes");

    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().pauses == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        handle.stats().pauses > 0,
        "the flooding connection was never paused"
    );

    // While the flooder sits paused with its replies unread, a
    // well-behaved client on the same pool is answered promptly.
    let mut victim = TcpStream::connect(handle.addr()).expect("connects");
    victim.set_nodelay(true).expect("nodelay");
    victim
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut victim_reader = BufReader::new(victim.try_clone().expect("clones"));
    for i in 0..8u64 {
        let resp: PredictResponse = serde_json::from_str(&ask(
            &mut victim,
            &mut victim_reader,
            &format!(
                r#"{{"id":{},"design":"C2","workload":"W1","cycles":8}}"#,
                1000 + i
            ),
        ))
        .expect("victim prediction parses while the flooder is paused");
        assert_eq!(resp.id, Some(1000 + i));
    }

    // Isolation is per-reactor: the request-at-a-time clients never
    // exceed inflight 1, so only the flooder's own reactor records
    // back-pressure pauses.
    let paused_reactors = handle
        .reactor_stats()
        .iter()
        .filter(|r| r.pauses > 0)
        .count();
    assert_eq!(
        paused_reactors, 1,
        "back-pressure must be confined to the flooder's own reactor"
    );

    // The flooder drains: every pipelined reply arrives (order may
    // interleave across the two workers).
    abuser
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut abuser_reader = BufReader::new(abuser.try_clone().expect("clones"));
    let mut ids = HashSet::new();
    for _ in 0..FLOOD {
        let mut reply = String::new();
        abuser_reader.read_line(&mut reply).expect("flood reply");
        let resp: PredictResponse = serde_json::from_str(&reply).expect("flood reply parses");
        ids.insert(resp.id.expect("flood replies carry ids"));
    }
    assert_eq!(
        ids.len(),
        FLOOD as usize,
        "every flooded request answered exactly once"
    );

    drop(warm);
    drop(victim);
    handle.shutdown().expect("clean shutdown");
}

/// Answers every line inline, so a pool needs no service behind it.
struct EchoStub;

impl Frontend for EchoStub {
    fn handle(&self, line: &str, _ctx: &FrontendContext<'_>) -> Option<String> {
        Some(line.to_owned())
    }
}

/// Dropping a running pool without calling `shutdown()` stops it: the
/// open connection reads EOF and every reactor thread is joined.
#[test]
fn dropping_the_pool_closes_connections_and_joins_its_threads() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = settled_threads();
    let pool = ReactorPool::spawn(
        Arc::new(EchoStub),
        "127.0.0.1:0",
        ReactorConfig::default(),
        2,
    )
    .expect("spawns");
    assert_eq!(os_threads(), before + 2, "one thread per reactor");

    let mut client = TcpStream::connect(pool.addr()).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(client.try_clone().expect("clones"));
    assert_eq!(ask(&mut client, &mut reader, "ping"), "ping\n");

    drop(pool);
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("the pool closes the connection");
    assert!(rest.is_empty(), "nothing follows the close: {rest:?}");
    let deadline = Instant::now() + Duration::from_secs(5);
    while os_threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(os_threads(), before, "every reactor thread exited");
}

/// The shard proxy's thread budget: its backend connections live in its
/// reactors' own connection tables, so after traffic to each of three
/// backends a two-reactor proxy has added exactly its two reactor
/// threads — no reader thread per backend.
#[test]
fn shard_proxy_runs_on_its_reactor_threads_alone() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let backends: Vec<ReactorPool> = (0..3)
        .map(|_| {
            ReactorPool::spawn(
                Arc::new(EchoStub),
                "127.0.0.1:0",
                ReactorConfig::default(),
                1,
            )
            .expect("spawns a backend")
        })
        .collect();
    let shards: Vec<ShardInfo> = backends
        .iter()
        .enumerate()
        .map(|(id, backend)| ShardInfo {
            id: id as u32,
            addr: backend.addr().to_string(),
            vnodes: 16,
        })
        .collect();
    let ring = ShardRing::new(shards.clone()).expect("ring");
    let design_on = |shard: u32| {
        (0..)
            .map(|i| format!("D{i}"))
            .find(|design| ring.route(trace_route_key(None, design, "W1", 6)).id == shard)
            .expect("some design routes to every shard")
    };

    let before = settled_threads();
    let proxy = ReactorPool::spawn(
        Arc::new(ShardProxy::new(shards).expect("proxy")),
        "127.0.0.1:0",
        ReactorConfig::default(),
        2,
    )
    .expect("spawns the proxy");
    // Several clients, so connections land on both reactors (with
    // SO_REUSEPORT), each sending to every backend.
    for client in 0..4u64 {
        let mut stream = TcpStream::connect(proxy.addr()).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        for shard in 0..3u32 {
            let id = client * 10 + u64::from(shard);
            let design = design_on(shard);
            let line = format!(r#"{{"id":{id},"design":"{design}","workload":"W1","cycles":6}}"#);
            let reply = ask(&mut stream, &mut reader, &line);
            assert!(reply.contains(&design), "got: {reply}");
            assert!(reply.contains(&format!(r#""id":{id},"#)), "got: {reply}");
        }
    }
    assert_eq!(
        settled_threads(),
        before + 2,
        "a 2-reactor proxy over 3 backends runs on its 2 reactor threads"
    );
    drop(proxy);
    drop(backends);
}
