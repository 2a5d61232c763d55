//! Shard-proxy wire tests: request aliasing must never split one trace
//! key across shards (registered vs inline schedule spellings, defaulted
//! vs explicit model), streamed verbs must pass through the proxy frame
//! by frame, and a dead shard's requests are answered exactly once.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use atlas_core::pipeline::{train_atlas, ExperimentConfig};
use atlas_serve::protocol::salvage_id;
use atlas_serve::reactor::{Frontend, FrontendContext, ReactorConfig, ReactorPool};
use atlas_serve::{
    trace_route_key, AtlasService, PredictDeltaResponse, PredictResponse, ServiceConfig, ShardInfo,
    ShardProxy, ShardRing, StatsResponse,
};

/// A configuration small enough to train inside the test suite.
fn micro_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    cfg.cycles = 12;
    cfg.scale = 0.12;
    cfg.pretrain.steps = 10;
    cfg.pretrain.hidden_dim = 12;
    cfg.finetune.cycles_per_design = 4;
    cfg.finetune.gbdt.n_estimators = 12;
    cfg
}

fn ask(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    let framed = format!("{line}\n");
    stream.write_all(framed.as_bytes()).expect("writes");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reads");
    reply
}

/// Two serve backends behind one proxy. An explicit-model request naming
/// a registered workload and the model-defaulted inline spelling of the
/// same schedule must land on the same shard's warm cache — the routing
/// bug this pins was each spelling hashing to its own shard, so the
/// "warm" request recomputed from scratch on a cold one.
#[test]
fn aliased_spellings_of_one_trace_key_share_a_shard_cache() {
    let cfg = micro_config();
    let trained = train_atlas(&cfg);
    let spawn_backend = || -> ReactorPool {
        let service = Arc::new(AtlasService::start_with(
            trained.model.clone(),
            cfg.clone(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ));
        ReactorPool::spawn(service, "127.0.0.1:0", ReactorConfig::default(), 1).expect("spawns")
    };
    let backends: Vec<ReactorPool> = (0..2).map(|_| spawn_backend()).collect();

    // Register the same schedule on every backend — the proxy refuses
    // mutating verbs, so clients talk to the shards directly for that.
    for handle in &backends {
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let reply = ask(
            &mut stream,
            &mut reader,
            r#"{"id":1,"verb":"register_workload","name":"spiky","phases":[{"activity":0.6,"min_len":1,"max_len":3}]}"#,
        );
        assert!(reply.contains(r#""name":"spiky""#), "got: {reply}");
    }

    let shards = backends
        .iter()
        .enumerate()
        .map(|(id, handle)| ShardInfo {
            id: id as u32,
            addr: handle.addr().to_string(),
            vnodes: 16,
        })
        .collect();
    let proxy = Arc::new(
        ShardProxy::new(shards)
            .expect("proxy")
            .with_default_model("default"),
    );
    let front =
        ReactorPool::spawn(proxy, "127.0.0.1:0", ReactorConfig::default(), 1).expect("spawns");
    let mut stream = TcpStream::connect(front.addr()).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));

    // Several distinct trace keys, so a lucky hash collision cannot mask
    // a routing split: the registered-name spelling (explicit model)
    // warms each key, and the inline spelling (defaulted model) must
    // find it warm.
    for (design, cycles) in [("C1", 6), ("C2", 6), ("C2", 9)] {
        let cold = ask(
            &mut stream,
            &mut reader,
            &format!(
                r#"{{"id":1,"model":"default","design":"{design}","workload_name":"spiky","cycles":{cycles}}}"#
            ),
        );
        let cold: PredictResponse = serde_json::from_str(&cold).expect("cold parses");
        assert!(!cold.cache_hit, "{design}/{cycles} starts cold");
        let warm = ask(
            &mut stream,
            &mut reader,
            &format!(
                r#"{{"id":2,"design":"{design}","workload":"spiky","cycles":{cycles},"phases":[{{"activity":0.6,"min_len":1,"max_len":3}}]}}"#
            ),
        );
        let warm: PredictResponse = serde_json::from_str(&warm).expect("warm parses");
        assert!(
            warm.cache_hit,
            "the inline spelling of {design}/{cycles} must hit the shard the named spelling warmed"
        );
        assert_eq!(warm.per_cycle_total_w, cold.per_cycle_total_w);
    }

    // `predict_delta` forwards verbatim (a proxy that re-rendered the
    // parsed request would silently degrade it to `predict`) and routes
    // by its *base* key, so it reuses the warm base computed above.
    let delta = ask(
        &mut stream,
        &mut reader,
        r#"{"id":3,"verb":"predict_delta","design":"C2","workload":"spiky","phases":[{"activity":0.6,"min_len":1,"max_len":3}],"cycles":12,"base":{"cycles":9}}"#,
    );
    let delta: PredictDeltaResponse = serde_json::from_str(&delta).expect("delta parses");
    assert_eq!(delta.id, Some(3));
    assert_eq!(delta.verb, "predict_delta");
    assert!(
        delta.base_hit,
        "the 9-cycle base was warmed through the proxy"
    );
    assert_eq!(delta.per_cycle_total_w.len(), 12);

    // A sweep streams back through the proxy frame by frame, id intact.
    stream
        .write_all(
            b"{\"id\":7,\"verb\":\"sweep\",\"design\":\"C2\",\"cycles\":6,\"chunk_cycles\":4,\"items\":[{\"workload_name\":\"spiky\"}]}\n",
        )
        .expect("writes");
    let mut frames = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads a frame");
        let done = line.contains(r#""frame":"end""#);
        frames.push(line);
        if done {
            break;
        }
    }
    assert!(frames[0].contains(r#""frame":"start""#), "got: {frames:?}");
    assert_eq!(
        frames
            .iter()
            .filter(|f| f.contains(r#""frame":"item""#))
            .count(),
        1
    );
    assert_eq!(
        frames
            .iter()
            .filter(|f| f.contains(r#""frame":"series""#))
            .count(),
        2,
        "6 cycles at chunk 4 is two series frames"
    );
    for frame in &frames {
        assert!(
            frame.contains(r#""id":7"#),
            "id must survive the proxy: {frame}"
        );
    }

    for handle in backends {
        handle.shutdown().expect("backend shutdown");
    }
    front.shutdown().expect("proxy shutdown");
}

/// A shard stand-in that answers every request inline, echoing its id.
struct EchoShard;

impl Frontend for EchoShard {
    fn handle(&self, line: &str, _ctx: &FrontendContext<'_>) -> Option<String> {
        let id = salvage_id(line).unwrap_or(0);
        Some(format!(r#"{{"id":{id},"verb":"predict","echo":true}}"#))
    }
}

/// A `predict` routed to a dead shard gets exactly one `unavailable`
/// line carrying its id — never that plus a second answer for the same
/// request — so the next reply on the connection belongs to the next
/// request, whether that one fails fast in the reconnect cooldown or is
/// served by a live shard.
#[test]
fn dead_shard_requests_are_answered_exactly_once() {
    let dead = {
        let sock = TcpListener::bind("127.0.0.1:0").expect("bind");
        sock.local_addr().expect("addr").to_string()
    };
    let live = ReactorPool::spawn(
        Arc::new(EchoShard),
        "127.0.0.1:0",
        ReactorConfig::default(),
        1,
    )
    .expect("spawns");
    let shards = vec![
        ShardInfo {
            id: 0,
            addr: dead,
            vnodes: 16,
        },
        ShardInfo {
            id: 1,
            addr: live.addr().to_string(),
            vnodes: 16,
        },
    ];
    let ring = ShardRing::new(shards.clone()).expect("ring");
    let design_on = |shard: u32| {
        (0..)
            .map(|i| format!("D{i}"))
            .find(|design| ring.route(trace_route_key(None, design, "W1", 6)).id == shard)
            .expect("some design routes to every shard")
    };
    let (on_dead, on_live) = (design_on(0), design_on(1));
    let front = ReactorPool::spawn(
        Arc::new(ShardProxy::new(shards).expect("proxy")),
        "127.0.0.1:0",
        ReactorConfig::default(),
        1,
    )
    .expect("spawns");
    let mut stream = TcpStream::connect(front.addr()).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let predict = |id: u64, design: &str| {
        format!(r#"{{"id":{id},"design":"{design}","workload":"W1","cycles":6}}"#)
    };

    // The first request dials the dead shard; the second fails fast
    // inside the reconnect cooldown. Each is answered once, in turn.
    for id in [1, 2] {
        let reply = ask(&mut stream, &mut reader, &predict(id, &on_dead));
        assert!(reply.contains(r#""kind":"unavailable""#), "got: {reply}");
        assert!(reply.contains(&format!(r#""id":{id},"#)), "got: {reply}");
    }
    let reply = ask(&mut stream, &mut reader, &predict(3, &on_live));
    assert!(reply.contains(r#""echo":true"#), "got: {reply}");
    assert!(reply.contains(r#""id":3,"#), "got: {reply}");
    // The proxy's own `stats` shows the two failed forwards.
    let stats: StatsResponse =
        serde_json::from_str(&ask(&mut stream, &mut reader, r#"{"verb":"stats"}"#))
            .expect("stats parses");
    let failed: u64 = stats.reactors.iter().map(|r| r.upstream_failures).sum();
    assert_eq!(failed, 2, "{stats:?}");

    front.shutdown().expect("proxy shutdown");
    live.shutdown().expect("shard shutdown");
}

/// A shard that answers every forwarded request with 2 MiB and no
/// newline gets the line-cap treatment a client would: each pending
/// request is answered with exactly one `unavailable` line and the
/// backend connection is dropped, so the proxy's memory stays bounded
/// and the next request is answered too (here by a fresh connection that
/// fails the same way).
#[test]
fn endless_backend_line_is_refused_like_a_disconnect() {
    use std::io::Read;
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let stub = std::thread::spawn(move || {
        for conn in listener.incoming() {
            let conn = conn.expect("accepts");
            let mut reader = BufReader::new(conn.try_clone().expect("clones"));
            let mut request = String::new();
            if reader.read_line(&mut request).unwrap_or(0) == 0 {
                return; // the test's own empty connection: stop
            }
            let mut writer = conn;
            // The proxy hangs up part-way through; its refusal, not this
            // write, ends the exchange.
            let _ = writer.write_all(&vec![b'x'; 2 << 20]);
            let _ = reader.read_to_end(&mut Vec::new());
        }
    });
    let shards = vec![ShardInfo {
        id: 0,
        addr: addr.clone(),
        vnodes: 1,
    }];
    let front = ReactorPool::spawn(
        Arc::new(ShardProxy::new(shards).expect("proxy")),
        "127.0.0.1:0",
        ReactorConfig::default(),
        1,
    )
    .expect("spawns");
    let mut stream = TcpStream::connect(front.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("sets a timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    for id in [1, 2] {
        let reply = ask(
            &mut stream,
            &mut reader,
            &format!(r#"{{"id":{id},"design":"C2","workload":"W1","cycles":6}}"#),
        );
        assert!(reply.contains(r#""kind":"unavailable""#), "got: {reply}");
        assert!(reply.contains(&format!(r#""id":{id},"#)), "got: {reply}");
    }
    // Nothing else was queued for either request: the next line on the
    // connection answers the next request.
    let stats = ask(&mut stream, &mut reader, r#"{"id":3,"verb":"stats"}"#);
    assert!(stats.contains(r#""verb":"stats""#), "got: {stats}");
    assert!(stats.contains(r#""id":3,"#), "got: {stats}");
    front.shutdown().expect("proxy shutdown");
    drop(TcpStream::connect(&addr).expect("connects to the stub"));
    stub.join().expect("stub shard");
}

/// The ring's first design that routes to shard `shard` (workload `W1`,
/// 6 cycles).
fn design_on(ring: &ShardRing, shard: u32) -> String {
    (0..)
        .map(|i| format!("D{i}"))
        .find(|design| ring.route(trace_route_key(None, design, "W1", 6)).id == shard)
        .expect("some design routes to every shard")
}

/// The `id` a reply line carries.
fn reply_id(line: &str) -> u64 {
    salvage_id(line).unwrap_or_else(|| panic!("reply without an id: {line}"))
}

/// A shard that accepts but never reads, flooded through a one-reactor
/// proxy with padded predicts: the proxy never blocks on it. A client of
/// a healthy shard on the same reactor is answered within 2 s throughout
/// the flood; requests beyond the stalled shard's write high-water mark
/// are refused with `unavailable` at once; and when the stalled shard
/// finally closes, each request still pending on it gets its one
/// `unavailable`, so every flooded request has exactly one reply.
#[test]
fn stalled_shard_flood_never_blocks_the_proxy() {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let stalled = TcpListener::bind("127.0.0.1:0").expect("bind");
    let stalled_addr = stalled.local_addr().expect("addr").to_string();
    let healthy = ReactorPool::spawn(
        Arc::new(EchoShard),
        "127.0.0.1:0",
        ReactorConfig::default(),
        1,
    )
    .expect("spawns");
    let shards = vec![
        ShardInfo {
            id: 0,
            addr: stalled_addr,
            vnodes: 16,
        },
        ShardInfo {
            id: 1,
            addr: healthy.addr().to_string(),
            vnodes: 16,
        },
    ];
    let ring = ShardRing::new(shards.clone()).expect("ring");
    let (on_stalled, on_healthy) = (design_on(&ring, 0), design_on(&ring, 1));
    let front = ReactorPool::spawn(
        Arc::new(ShardProxy::new(shards).expect("proxy")),
        "127.0.0.1:0",
        ReactorConfig::default(),
        1,
    )
    .expect("spawns");
    // Made after the proxy, so a failing assertion drops the sender, and
    // with it the stalled connection, before it stops the proxy.
    let (close_tx, close_rx) = mpsc::channel::<()>();
    let stub = std::thread::spawn(move || {
        let (conn, _) = stalled.accept().expect("accepts the proxy");
        let _ = close_rx.recv();
        drop(conn);
    });

    // 40 predicts padded to 256 KiB each: far more than the socket
    // buffers toward the stalled shard plus the proxy's 256 KiB write
    // high-water mark hold, and fewer than the 64 a client may have in
    // flight, so the flood is read in full.
    const FLOOD: u64 = 40;
    let mut flood = TcpStream::connect(front.addr()).expect("connects");
    let mut flood_reader = BufReader::new(flood.try_clone().expect("clones"));
    let pad = "x".repeat(256 << 10);
    let writer = std::thread::spawn(move || {
        for id in 0..FLOOD {
            let line = format!(
                "{{\"id\":{id},\"design\":\"{on_stalled}\",\"workload\":\"W1\",\"cycles\":6,\"pad\":\"{pad}\"}}\n"
            );
            flood.write_all(line.as_bytes()).expect("floods");
        }
        flood
    });

    let mut client = TcpStream::connect(front.addr()).expect("connects");
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("sets a timeout");
    let mut reader = BufReader::new(client.try_clone().expect("clones"));
    let mut asked = 0u64;
    while asked < 3 || !writer.is_finished() {
        let started = Instant::now();
        let line =
            format!(r#"{{"id":{asked},"design":"{on_healthy}","workload":"W1","cycles":6}}"#);
        let reply = ask(&mut client, &mut reader, &line);
        assert!(reply.contains(r#""echo":true"#), "got: {reply}");
        assert_eq!(reply_id(&reply), asked);
        assert!(started.elapsed() < Duration::from_secs(2));
        asked += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
    let _flood = writer.join().expect("flood writer");

    // Refusals come at once: read until the proxy has gone quiet.
    flood_reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("sets a timeout");
    let mut replies = Vec::new();
    loop {
        let mut line = String::new();
        match flood_reader.read_line(&mut line) {
            Ok(n) if n > 0 => replies.push(line),
            _ => break,
        }
    }
    let refused = replies.len();
    assert!(refused > 0, "nothing was refused at the high-water mark");
    for reply in &replies {
        assert!(reply.contains(r#""kind":"unavailable""#), "got: {reply}");
        assert!(reply.contains("not reading"), "got: {reply}");
    }

    // The stalled shard closes: what was pending on it fails, once each.
    close_tx.send(()).expect("signals the stub");
    stub.join().expect("stub shard");
    flood_reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("sets a timeout");
    while replies.len() < FLOOD as usize {
        let mut line = String::new();
        flood_reader.read_line(&mut line).expect("a pending reply");
        assert!(line.contains(r#""kind":"unavailable""#), "got: {line}");
        replies.push(line);
    }
    let mut ids: Vec<u64> = replies.iter().map(|r| reply_id(r)).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..FLOOD).collect::<Vec<_>>(), "one reply per request");
    assert!(refused < FLOOD as usize, "some requests reached the shard");

    front.shutdown().expect("proxy shutdown");
    healthy.shutdown().expect("shard shutdown");
}

/// A shard that dies right after the `start` frame of a sweep: the client
/// gets that frame and then exactly one `unavailable`, and its next
/// request is answered over a fresh connection to the restarted shard,
/// which the proxy closes when it stops.
#[test]
fn shard_killed_mid_sweep_answers_once_then_reconnects() {
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let stub = std::thread::spawn(move || {
        let read_request = |conn: &TcpStream| {
            let mut line = String::new();
            BufReader::new(conn).read_line(&mut line).expect("reads");
            salvage_id(&line).expect("the proxy's id")
        };
        // First connection: the sweep's start frame, then the shard dies.
        let (mut conn, _) = listener.accept().expect("accepts");
        let id = read_request(&conn);
        let start = format!("{{\"id\":{id},\"verb\":\"sweep\",\"frame\":\"start\",\"items\":1}}\n");
        conn.write_all(start.as_bytes()).expect("writes");
        drop(conn);
        // Second connection: one answer, then the proxy hangs up when it
        // stops.
        let (mut conn, _) = listener.accept().expect("accepts again");
        let id = read_request(&conn);
        let reply = format!("{{\"id\":{id},\"verb\":\"predict\",\"echo\":true}}\n");
        conn.write_all(reply.as_bytes()).expect("writes");
        conn.set_read_timeout(Some(Duration::from_secs(20)))
            .expect("sets a timeout");
        std::io::Read::read_to_end(&mut conn, &mut Vec::new())
            .expect("a stopped proxy closes its shard connections");
    });
    let shards = vec![ShardInfo {
        id: 0,
        addr,
        vnodes: 1,
    }];
    let front = ReactorPool::spawn(
        Arc::new(ShardProxy::new(shards).expect("proxy")),
        "127.0.0.1:0",
        ReactorConfig::default(),
        1,
    )
    .expect("spawns");
    let mut stream = TcpStream::connect(front.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("sets a timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let start = ask(
        &mut stream,
        &mut reader,
        r#"{"id":7,"verb":"sweep","design":"C2","cycles":6,"items":[{"workload":"W1"}]}"#,
    );
    assert!(start.contains(r#""frame":"start""#), "got: {start}");
    assert_eq!(reply_id(&start), 7);
    let mut failed = String::new();
    reader.read_line(&mut failed).expect("reads");
    assert!(failed.contains(r#""kind":"unavailable""#), "got: {failed}");
    assert_eq!(reply_id(&failed), 7);
    // The next line answers the next request: nothing else was owed.
    let reply = ask(
        &mut stream,
        &mut reader,
        r#"{"id":8,"design":"C2","workload":"W1","cycles":6}"#,
    );
    assert!(reply.contains(r#""echo":true"#), "got: {reply}");
    assert_eq!(reply_id(&reply), 8);
    front.shutdown().expect("proxy shutdown");
    stub.join().expect("stub shard");
}
