//! Shard-aware routing: a consistent-hash ring over N serve processes
//! and the [`ShardProxy`] front door that speaks it.
//!
//! One serve process scales vertically (worker pool, reactor threads)
//! but stays one address space; the shard layer removes that ceiling by
//! running N independent serve processes and routing every prediction by
//! its **trace key** — the same `(model, design, workload, cycles)`
//! tuple the embedding cache is keyed by. Routing by cache key is what
//! makes scale-out *warm*: all repeats of a key land on the shard whose
//! cache holds it, so N shards give ~N× aggregate warm throughput
//! instead of N cold caches each holding 1/N of the hit rate.
//!
//! The ring is classic consistent hashing: every shard owns
//! [`ShardInfo::vnodes`] pseudo-random points on a `u64` circle and a
//! key routes to the first point clockwise from its hash. Adding or
//! removing a shard therefore remaps only the keyspace adjacent to its
//! points (~1/N of traffic), not the whole fleet — restarted shards
//! keep most of their warm keys.
//!
//! [`ShardProxy`] implements the reactor's [`Frontend`] trait, so the
//! `atlas-shard` binary reuses the exact same epoll front door (and
//! multi-reactor pool) as `serve` itself: `predict` lines are forwarded
//! to the owning shard over a pooled TCP connection and answered
//! asynchronously through the reactor's [`Completer`]; `shard_map`
//! answers the full ring; `stats` answers the proxy's own counters.
//! Request ids are rewritten to proxy-internal ids on the way out and
//! restored on the way back, so concurrent clients can reuse ids freely.

use std::collections::HashMap;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use serde::Value;

use crate::error::ServeError;
use crate::protocol::{
    self, PredictRequest, RequestLine, ShardInfo, ShardMapResponse, StatsResponse,
};
use crate::reactor::{Completer, ConnCore, Frontend, FrontendContext, ReactorConfig};
use crate::service::fnv1a;

/// Virtual nodes per shard when the caller does not pick a count. 128
/// points per shard keeps the expected load imbalance of a small fleet
/// under a few percent while the ring stays tiny (N × 128 points).
pub const DEFAULT_VNODES: usize = 128;

/// The routing key of one prediction: a stable FNV-1a hash of the same
/// `(model, design, workload, cycles)` tuple the per-model embedding
/// cache is keyed by (the workload component is the request's
/// `workload_name` if set, else its `workload` label). Two requests that
/// could share a cache entry always hash identically, so they always
/// land on the same shard.
pub fn trace_route_key(model: Option<&str>, design: &str, workload: &str, cycles: usize) -> u64 {
    // `\0` separators keep the components prefix-free so ("ab", "c")
    // and ("a", "bc") cannot collide structurally.
    let parts = [model.unwrap_or(""), design, workload];
    let bytes = parts
        .iter()
        .flat_map(|p| p.bytes().chain([0u8]))
        .chain(cycles.to_le_bytes());
    fnv1a(bytes)
}

/// Routing key of a parsed request (the proxy's entry point). The
/// workload component prefers `workload_name`, so a request referencing
/// a registered schedule by name and one spelling the equivalent inline
/// schedule (same label in `workload`, same phases) hash identically —
/// they share a cache entry on the shard, so they must share a shard.
/// `default_model` is the fleet's default serving name, when the proxy
/// knows it: a request that omits `model` and one naming the default
/// explicitly are answered bit-identically by the shards, so they must
/// also route identically instead of aliasing onto two shards' caches.
fn request_route_key(request: &PredictRequest, default_model: Option<&str>) -> u64 {
    let workload = request
        .workload_name
        .as_deref()
        .or(request.workload.as_deref())
        .unwrap_or("");
    trace_route_key(
        request.model.as_deref().or(default_model),
        &request.design,
        workload,
        request.cycles,
    )
}

/// A consistent-hash ring over a fixed shard fleet.
#[derive(Debug, Clone)]
pub struct ShardRing {
    shards: Vec<ShardInfo>,
    /// `(point, shard index)` sorted by point; a key routes to the first
    /// point at or after its hash, wrapping at the top of the circle.
    points: Vec<(u64, usize)>,
}

impl ShardRing {
    /// Build a ring from the fleet description. Shards with `vnodes` of
    /// zero get [`DEFAULT_VNODES`].
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for an empty fleet or duplicate
    /// shard ids.
    pub fn new(shards: Vec<ShardInfo>) -> Result<ShardRing, ServeError> {
        if shards.is_empty() {
            return Err(ServeError::InvalidRequest(
                "a shard ring needs at least one shard".into(),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for shard in &shards {
            if !seen.insert(shard.id) {
                return Err(ServeError::InvalidRequest(format!(
                    "duplicate shard id {}",
                    shard.id
                )));
            }
        }
        let mut points = Vec::new();
        for (index, shard) in shards.iter().enumerate() {
            let vnodes = if shard.vnodes == 0 {
                DEFAULT_VNODES
            } else {
                shard.vnodes
            };
            for replica in 0..vnodes {
                // Point position depends only on (shard id, replica), so
                // every proxy over the same fleet builds the same ring.
                let bytes = shard
                    .id
                    .to_le_bytes()
                    .into_iter()
                    .chain(replica.to_le_bytes());
                points.push((fnv1a(bytes), index));
            }
        }
        // Ties (astronomically unlikely) resolve to the lower index on
        // every proxy identically, keeping routing deterministic.
        points.sort_unstable();
        Ok(ShardRing { shards, points })
    }

    /// The fleet, in construction order.
    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    /// Index (into [`ShardRing::shards`]) of the shard owning `key`.
    pub fn route_index(&self, key: u64) -> usize {
        let at = self.points.partition_point(|&(point, _)| point < key);
        let (_, index) = self.points[at % self.points.len()];
        index
    }

    /// The shard owning `key`.
    pub fn route(&self, key: u64) -> &ShardInfo {
        &self.shards[self.route_index(key)]
    }
}

/// One live backend connection: the writer half plus the pending map its
/// reader thread resolves, from proxy-internal id to the client's
/// [`Completer`] (which carries the client's original id). The map
/// belongs to *this* connection — when the connection dies, its reader
/// fails every entry with a structured `unavailable` error and a fresh
/// connection starts an empty map, so a reconnect can never leak or
/// misdeliver an old request.
struct Live {
    stream: TcpStream,
    pending: Arc<Mutex<HashMap<u64, Completer>>>,
}

/// How long a backend that failed to connect stays "down" before the
/// next request may try again. Without it, every request routed to a
/// dead shard pays its own connect attempt — a reconnect storm that
/// peaks exactly when the fleet is already degraded.
pub const RECONNECT_COOLDOWN: Duration = Duration::from_millis(500);

/// One shard of the fleet, as the proxy sees it: its ring identity and
/// a lazily-established connection.
struct Backend {
    info: ShardInfo,
    conn: Mutex<Option<Live>>,
    /// When the last connect attempt failed, if it did. Requests landing
    /// inside the cooldown window after it fail fast with `unavailable`
    /// instead of dialing again.
    last_failure: Mutex<Option<Instant>>,
    /// Connect attempts that reached the network and failed (fast-fails
    /// inside the cooldown window are not counted — that is the point).
    connect_failures: AtomicU64,
    cooldown: Duration,
}

impl Backend {
    fn new(info: ShardInfo, cooldown: Duration) -> Backend {
        Backend {
            info,
            conn: Mutex::new(None),
            last_failure: Mutex::new(None),
            connect_failures: AtomicU64::new(0),
            cooldown,
        }
    }

    /// Forward one rendered request line, connecting (and spawning the
    /// reply-reader thread) on first use. `completer` is registered
    /// under `internal` before the write so a fast reply cannot race it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unavailable`] when the shard cannot be reached. The
    /// request is then already answered with an error through its
    /// completer, so the caller must not answer it again.
    fn send(
        self: &Arc<Backend>,
        internal: u64,
        completer: Completer,
        line: &str,
    ) -> Result<(), ServeError> {
        let unavailable = |e: &dyn std::fmt::Display| {
            ServeError::Unavailable(format!("shard {} at {}: {e}", self.info.id, self.info.addr))
        };
        let mut guard = self.conn.lock().expect("backend lock");
        if guard.is_none() {
            if let Err(e) = self.connect(&mut guard) {
                let err = unavailable(&e);
                completer.fail(err.clone());
                return Err(err);
            }
        }
        let live = guard.as_mut().expect("connected above");
        live.pending
            .lock()
            .expect("pending lock")
            .insert(internal, completer);
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        if let Err(e) = live.stream.write_all(framed.as_bytes()) {
            let err = unavailable(&e);
            // Unless the reader already failed it in its disconnect drain.
            let completer = live.pending.lock().expect("pending lock").remove(&internal);
            if let Some(completer) = completer {
                completer.fail(err.clone());
            }
            // Wake the reader so it drains whatever else was in flight.
            let _ = live.stream.shutdown(Shutdown::Both);
            *guard = None;
            return Err(err);
        }
        Ok(())
    }

    /// Dial the shard and start its reply-reader thread. At most one
    /// dial per cooldown window: a dead shard answers `unavailable` from
    /// memory, not from a fresh (and possibly slow) dial per request.
    fn connect(self: &Arc<Backend>, slot: &mut Option<Live>) -> Result<(), String> {
        let cooling = self
            .last_failure
            .lock()
            .expect("cooldown lock")
            .is_some_and(|at| at.elapsed() < self.cooldown);
        if cooling {
            return Err("in reconnect cooldown after a failed connect".to_owned());
        }
        let stream = TcpStream::connect(&self.info.addr).map_err(|e| {
            self.connect_failures.fetch_add(1, Ordering::Relaxed);
            *self.last_failure.lock().expect("cooldown lock") = Some(Instant::now());
            e.to_string()
        })?;
        *self.last_failure.lock().expect("cooldown lock") = None;
        let _ = stream.set_nodelay(true);
        let reader = stream.try_clone().map_err(|e| e.to_string())?;
        let pending = Arc::new(Mutex::new(HashMap::new()));
        let backend = Arc::clone(self);
        let map = Arc::clone(&pending);
        thread::Builder::new()
            .name(format!("atlas-shard-io-{}", self.info.id))
            .spawn(move || backend.reader_loop(reader, &map))
            .map_err(|e| e.to_string())?;
        *slot = Some(Live { stream, pending });
        Ok(())
    }

    /// Resolve backend replies to their waiting clients until the
    /// connection dies or sends a line over the client line cap (replies
    /// frame through the same [`ConnCore`] as requests, so a broken shard
    /// cannot grow the proxy's memory), then fail all still pending.
    fn reader_loop(
        self: Arc<Backend>,
        mut stream: TcpStream,
        pending: &Arc<Mutex<HashMap<u64, Completer>>>,
    ) {
        let mut core = ConnCore::new(&ReactorConfig::default());
        let mut chunk = [0u8; 8192];
        let mut why = "disconnected mid-request";
        while !core.finished() {
            match stream.read(&mut chunk) {
                Ok(n) => core.feed(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
            while let Some(line) = core.next_line() {
                match line {
                    Ok(line) => resolve(&line, pending),
                    Err(_) => why = "sent an over-long reply line",
                }
            }
        }
        // Detach this connection (unless a reconnect already replaced
        // it), then fail its in-flight requests. A send racing this
        // drain either lands before it (failed here, structured error)
        // or after the detach (fresh connection, fresh map).
        {
            let mut guard = self.conn.lock().expect("backend lock");
            if guard
                .as_ref()
                .is_some_and(|live| Arc::ptr_eq(&live.pending, pending))
            {
                *guard = None;
            }
        }
        let drained = std::mem::take(&mut *pending.lock().expect("pending lock"));
        for completer in drained.into_values() {
            completer.fail(ServeError::Unavailable(format!(
                "shard {} at {} {why}",
                self.info.id, self.info.addr
            )));
        }
    }
}

/// Hand one backend reply line to the client waiting for it.
fn resolve(line: &str, pending: &Mutex<HashMap<u64, Completer>>) {
    // An unparsable or id-less line cannot be matched to a request; the
    // disconnect path will fail whatever was pending.
    let Ok(value) = serde_json::from_str::<Value>(line.trim()) else {
        return;
    };
    let Some(internal) = reply_id(&value) else {
        return;
    };
    // Streamed replies (sweep frames) keep their pending entry alive
    // until the final `end` frame — or a frameless line, which is a
    // single-shot reply (predict, error). Peeking instead of removing is
    // what lets one request map to many reply lines without
    // re-registering.
    let mut map = pending.lock().expect("pending lock");
    if frame_of(&value).is_some_and(|frame| frame != "end") {
        if let Some(completer) = map.get(&internal) {
            completer.stream(restore_id(value, completer.id()));
        }
    } else if let Some(completer) = map.remove(&internal) {
        drop(map);
        completer.complete(restore_id(value, completer.id()));
    }
}

/// The `frame` discriminator of a streamed reply line, when present.
fn frame_of(value: &Value) -> Option<&str> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k == "frame")
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

/// The proxy-internal id a backend reply carries.
fn reply_id(value: &Value) -> Option<u64> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k == "id")
        .and_then(|(_, v)| match v {
            Value::UInt(n) => Some(*n),
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        })
}

/// Re-render a backend reply with the client's original id in place of
/// the proxy-internal one.
fn restore_id(mut value: Value, original: Option<u64>) -> String {
    if let Value::Map(entries) = &mut value {
        let id_value = match original {
            Some(n) => Value::UInt(n),
            None => Value::Null,
        };
        match entries.iter_mut().find(|(k, _)| k == "id") {
            Some(slot) => slot.1 = id_value,
            None => entries.insert(0, ("id".to_owned(), id_value)),
        }
    }
    serde_json::to_string(&value)
        .unwrap_or_else(|e| format!(r#"{{"error":"render failure: {e}"}}"#))
}

/// The shard fleet's front door: a [`Frontend`] that routes every
/// `predict` line to the shard owning its trace key. Serve it with
/// [`ReactorPool::spawn`](crate::reactor::ReactorPool::spawn) — the
/// `atlas-shard` binary is exactly that.
pub struct ShardProxy {
    ring: ShardRing,
    backends: Vec<Arc<Backend>>,
    /// The fleet's default model serving name, when configured — see
    /// [`request_route_key`] for why omitted-model requests must
    /// normalize to it.
    default_model: Option<String>,
    next_id: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
}

impl ShardProxy {
    /// Build a proxy over the fleet. Connections are established lazily
    /// on the first request routed to each shard.
    ///
    /// # Errors
    ///
    /// The same fleet-validation errors as [`ShardRing::new`].
    pub fn new(shards: Vec<ShardInfo>) -> Result<ShardProxy, ServeError> {
        let ring = ShardRing::new(shards)?;
        let backends = ring
            .shards()
            .iter()
            .map(|info| Arc::new(Backend::new(info.clone(), RECONNECT_COOLDOWN)))
            .collect();
        Ok(ShardProxy {
            ring,
            backends,
            default_model: None,
            // Start above zero so proxy-internal ids are never confused
            // with common client-chosen ones in packet captures.
            next_id: AtomicU64::new(1 << 32),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// Declare the fleet's default model serving name, so a request that
    /// omits `model` and one naming the default explicitly land on the
    /// same shard (they share that shard's cache entry — routing them
    /// apart would aliase one trace onto two cold caches).
    pub fn with_default_model(mut self, name: impl Into<String>) -> ShardProxy {
        self.default_model = Some(name.into());
        self
    }

    /// The routing ring (for `shard_map` and observability).
    pub fn ring(&self) -> &ShardRing {
        &self.ring
    }

    fn fail(&self, id: Option<u64>, err: ServeError) -> Option<String> {
        self.errors.fetch_add(1, Ordering::Relaxed);
        Some(protocol::render_result(&Err((id, err))))
    }

    /// Forward `line` — with its id rewritten to a proxy-internal one —
    /// to the backend owning `key`, answering through the completer when
    /// the backend replies (possibly as a stream of frames). The raw
    /// client line is forwarded rather than a re-render of the parsed
    /// request, so verbs whose body types carry no `verb` field survive
    /// the hop intact.
    fn forward(
        &self,
        key: u64,
        original_id: Option<u64>,
        line: &str,
        ctx: &FrontendContext<'_>,
    ) -> Option<String> {
        let backend = &self.backends[self.ring.route_index(key)];
        let internal = self.next_id.fetch_add(1, Ordering::Relaxed);
        let Some(rendered) = rewrite_id(line, internal) else {
            return self.fail(
                original_id,
                ServeError::InvalidRequest("unrenderable request".to_owned()),
            );
        };
        if backend
            .send(internal, ctx.completer(original_id), &rendered)
            .is_err()
        {
            // Already answered through the completer.
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        None
    }
}

/// Re-render a request line with `internal` as its id (the proxy-internal
/// id the backend's reply will echo).
fn rewrite_id(line: &str, internal: u64) -> Option<String> {
    let mut value: Value = serde_json::from_str(line).ok()?;
    let Value::Map(entries) = &mut value else {
        return None;
    };
    match entries.iter_mut().find(|(k, _)| k == "id") {
        Some(slot) => slot.1 = Value::UInt(internal),
        None => entries.insert(0, ("id".to_owned(), Value::UInt(internal))),
    }
    serde_json::to_string(&value).ok()
}

/// `predict` forwarded to the owning shard (answered through the
/// completer when the backend replies); `shard_map` and `stats` answered
/// inline from the proxy itself; every other verb is per-shard state
/// (model catalogs, workload libraries) and must be addressed to a
/// shard directly, so it gets a structured `invalid_request`.
impl Frontend for ShardProxy {
    fn handle(&self, line: &str, ctx: &FrontendContext<'_>) -> Option<String> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let unroutable = |verb: &str| {
            ServeError::InvalidRequest(format!(
                "verb `{verb}` is per-shard state; address the shard's own port, not the proxy"
            ))
        };
        match protocol::parse_line(line) {
            Ok(RequestLine::Predict(request)) => {
                let key = request_route_key(&request, self.default_model.as_deref());
                self.forward(key, request.id, line, ctx)
            }
            // A delta routes by its BASE trace key: the whole point is
            // landing on the shard whose cache holds the base items.
            // (Target and base share design and model in the common
            // edit-loop case, so the target's fresh entry warms the same
            // shard for the next delta in the sequence.)
            Ok(RequestLine::PredictDelta(request)) => {
                let key = request_route_key(&request.base_request(), self.default_model.as_deref());
                self.forward(key, request.id, line, ctx)
            }
            // A sweep routes by (model, design) alone — every item shares
            // the design-side work, so the whole sweep belongs on one
            // shard regardless of its schedules.
            Ok(RequestLine::Sweep(request)) => {
                let model = request.model.as_deref().or(self.default_model.as_deref());
                let key = trace_route_key(model, &request.design, "", 0);
                self.forward(key, request.id, line, ctx)
            }
            Ok(RequestLine::ShardMap { id }) => {
                Some(protocol::render_line(&ShardMapResponse {
                    id,
                    verb: "shard_map".to_owned(),
                    // The proxy is the router, not a shard.
                    shard_id: None,
                    shards: self.ring.shards().to_vec(),
                }))
            }
            Ok(RequestLine::Stats { id }) => {
                // The proxy's own traffic counters — per-shard cache and
                // model stats live behind each shard's own `stats` verb.
                Some(protocol::render_stats(&StatsResponse {
                    id,
                    verb: "stats".to_owned(),
                    requests: self.requests.load(Ordering::Relaxed),
                    errors: self.errors.load(Ordering::Relaxed),
                    reactor_threads: ctx.reactor_threads(),
                    reactors: ctx.reactor_stats(),
                    ..StatsResponse::default()
                }))
            }
            Ok(RequestLine::Models { id }) => self.fail(id, unroutable("models")),
            Ok(RequestLine::Workloads { id }) => self.fail(id, unroutable("workloads")),
            Ok(RequestLine::LoadModel(req)) => self.fail(req.id, unroutable("load_model")),
            Ok(RequestLine::UnloadModel(req)) => self.fail(req.id, unroutable("unload_model")),
            Ok(RequestLine::RegisterWorkload(req)) => {
                self.fail(req.id, unroutable("register_workload"))
            }
            Ok(RequestLine::LoadDesign(req)) => self.fail(req.id, unroutable("load_design")),
            Err(e) => self.fail(protocol::salvage_id(line), e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: u32) -> Vec<ShardInfo> {
        (0..n)
            .map(|id| ShardInfo {
                id,
                addr: format!("127.0.0.1:{}", 9000 + id),
                vnodes: 0,
            })
            .collect()
    }

    #[test]
    fn ring_routes_deterministically() {
        let a = ShardRing::new(fleet(3)).expect("ring");
        let b = ShardRing::new(fleet(3)).expect("ring");
        for key in 0..1000u64 {
            let hashed = fnv1a(key.to_le_bytes());
            assert_eq!(a.route_index(hashed), b.route_index(hashed));
            assert!(a.route_index(hashed) < 3);
        }
    }

    #[test]
    fn ring_balances_across_shards() {
        let ring = ShardRing::new(fleet(3)).expect("ring");
        let mut counts = [0usize; 3];
        for key in 0..3000u64 {
            counts[ring.route_index(fnv1a(key.to_le_bytes()))] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count > 3000 / 10,
                "shard {shard} owns only {count}/3000 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn growing_the_fleet_remaps_a_minority_of_keys() {
        let before = ShardRing::new(fleet(3)).expect("ring");
        let after = ShardRing::new(fleet(4)).expect("ring");
        let moved = (0..4000u64)
            .filter(|key| {
                let hashed = fnv1a(key.to_le_bytes());
                before.route_index(hashed) != after.route_index(hashed)
            })
            .count();
        // Consistent hashing moves ~1/4 of the keyspace to the new
        // shard; a modulo router would move ~3/4.
        assert!(
            moved < 2000,
            "adding one shard remapped {moved}/4000 keys (expected ~1000)"
        );
        assert!(moved > 0, "the new shard must own something");
    }

    #[test]
    fn ring_rejects_bad_fleets() {
        assert!(matches!(
            ShardRing::new(Vec::new()),
            Err(ServeError::InvalidRequest(_))
        ));
        let mut dup = fleet(2);
        dup[1].id = 0;
        assert!(matches!(
            ShardRing::new(dup),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn route_key_separates_components() {
        let base = trace_route_key(None, "C2", "W1", 8);
        assert_eq!(base, trace_route_key(None, "C2", "W1", 8));
        assert_ne!(base, trace_route_key(Some("m"), "C2", "W1", 8));
        assert_ne!(base, trace_route_key(None, "C3", "W1", 8));
        assert_ne!(base, trace_route_key(None, "C2", "W2", 8));
        assert_ne!(base, trace_route_key(None, "C2", "W1", 9));
        // Prefix-freedom: shifting bytes between components changes the key.
        assert_ne!(
            trace_route_key(None, "ab", "c", 1),
            trace_route_key(None, "a", "bc", 1)
        );
    }

    #[test]
    fn requests_route_like_their_cache_key() {
        let mut named = PredictRequest::new("C2", "W1", 8);
        named.workload = None;
        named.workload_name = Some("lib-entry".to_owned());
        assert_eq!(
            request_route_key(&named, None),
            trace_route_key(None, "C2", "lib-entry", 8)
        );
        let preset = PredictRequest::new("C2", "W1", 8);
        assert_eq!(
            request_route_key(&preset, None),
            trace_route_key(None, "C2", "W1", 8)
        );
        let on_model = PredictRequest::new("C2", "W1", 8).on_model("canary");
        assert_eq!(
            request_route_key(&on_model, None),
            trace_route_key(Some("canary"), "C2", "W1", 8)
        );
    }

    #[test]
    fn default_model_requests_route_with_named_ones() {
        // The satellite bug: a client naming the fleet default explicitly
        // and one omitting `model` must warm the same shard's cache.
        let implicit = PredictRequest::new("C2", "W1", 8);
        let explicit = PredictRequest::new("C2", "W1", 8).on_model("atlas-v1");
        assert_eq!(
            request_route_key(&implicit, Some("atlas-v1")),
            request_route_key(&explicit, Some("atlas-v1"))
        );
        // Without a configured default the two are genuinely distinct keys
        // (the backend may resolve them differently), so they may split.
        assert_eq!(
            request_route_key(&implicit, None),
            trace_route_key(None, "C2", "W1", 8)
        );
        // A non-default model is never rewritten.
        let canary = PredictRequest::new("C2", "W1", 8).on_model("canary");
        assert_eq!(
            request_route_key(&canary, Some("atlas-v1")),
            trace_route_key(Some("canary"), "C2", "W1", 8)
        );
    }

    #[test]
    fn cooldown_suppresses_reconnect_storms() {
        // A backend nobody listens on: every dial fails. With the cooldown
        // in place, a burst of sends performs exactly one real connect per
        // window instead of one per request.
        let info = ShardInfo {
            id: 0,
            // Reserve a port, then drop the listener so the address is dead.
            addr: {
                let sock = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
                sock.local_addr().expect("addr").to_string()
            },
            vnodes: 1,
        };
        let entry = crate::reactor::test_completer;
        let backend = Arc::new(Backend::new(info, Duration::from_secs(60)));
        for internal in 0..5 {
            assert!(backend
                .send(internal, entry(), "{\"verb\":\"stats\"}")
                .is_err());
        }
        assert_eq!(
            backend.connect_failures.load(Ordering::Relaxed),
            1,
            "only the first send in the window may dial the dead backend"
        );
        // A zero cooldown restores the old always-retry behaviour.
        let eager = Arc::new(Backend::new(
            ShardInfo {
                id: 1,
                addr: backend.info.addr.clone(),
                vnodes: 1,
            },
            Duration::ZERO,
        ));
        for internal in 0..3 {
            assert!(eager
                .send(internal, entry(), "{\"verb\":\"stats\"}")
                .is_err());
        }
        assert_eq!(eager.connect_failures.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn reply_ids_are_restored() {
        let reply: Value = serde_json::from_str(r#"{"id":4294967297,"verb":"predict","cycles":8}"#)
            .expect("parses");
        assert_eq!(reply_id(&reply), Some(4294967297));
        let restored = restore_id(reply, Some(7));
        let value: Value = serde_json::from_str(&restored).expect("round-trips");
        assert_eq!(reply_id(&value), Some(7));
        // A client that sent no id gets `null` back, like talking to a
        // shard directly.
        let reply: Value = serde_json::from_str(r#"{"id":99,"verb":"stats"}"#).expect("parses");
        let restored = restore_id(reply, None);
        assert!(restored.contains(r#""id":null"#), "got: {restored}");
    }
}
