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
//! multi-reactor pool) as `serve` itself. Its shards are the frontend's
//! upstreams: `predict` lines go to the owning shard through
//! [`FrontendContext::forward`], on the reactor's own connection to it;
//! `shard_map` answers the full ring; `stats` answers the proxy's own
//! counters. Request ids are rewritten to proxy-internal ids on the way
//! out and restored on the way back, so concurrent clients can reuse ids
//! freely.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::ServeError;
use crate::protocol::{
    self, PredictRequest, RequestLine, ShardInfo, ShardMapResponse, StatsResponse,
};
use crate::reactor::{Frontend, FrontendContext};
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

/// The shard fleet's front door: a [`Frontend`] that routes every
/// `predict` line to the shard owning its trace key. Serve it with
/// [`ReactorPool::spawn`](crate::reactor::ReactorPool::spawn) — the
/// `atlas-shard` binary is exactly that.
pub struct ShardProxy {
    ring: ShardRing,
    /// The fleet's default model serving name, when configured — see
    /// [`request_route_key`] for why omitted-model requests must
    /// normalize to it.
    default_model: Option<String>,
    next_id: AtomicU64,
    requests: AtomicU64,
    /// Errors the proxy answered itself. A request its shard failed
    /// (dead, cooling down, stalled) is answered `unavailable` by the
    /// reactor and counted in `stats.reactors[].upstream_failures`.
    errors: AtomicU64,
}

impl ShardProxy {
    /// Build a proxy over the fleet. Each reactor serving it dials each
    /// shard on the first request it routes there.
    ///
    /// # Errors
    ///
    /// The same fleet-validation errors as [`ShardRing::new`].
    pub fn new(shards: Vec<ShardInfo>) -> Result<ShardProxy, ServeError> {
        Ok(ShardProxy {
            ring: ShardRing::new(shards)?,
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
    /// to the shard owning `key`, answered when the shard replies
    /// (possibly as a stream of frames). The raw client line is forwarded
    /// rather than a re-render of the parsed request, so verbs whose body
    /// types carry no `verb` field survive the hop intact.
    fn forward(
        &self,
        key: u64,
        original_id: Option<u64>,
        line: &str,
        ctx: &FrontendContext<'_>,
    ) -> Option<String> {
        let internal = self.next_id.fetch_add(1, Ordering::Relaxed);
        let Some(rendered) = protocol::rewrite_id(line, internal) else {
            return self.fail(
                original_id,
                ServeError::InvalidRequest("unrenderable request".to_owned()),
            );
        };
        let shard = self.ring.route_index(key);
        ctx.forward(shard, internal, ctx.completer(original_id), rendered);
        None
    }
}

/// `predict` forwarded to the owning shard (answered when the shard
/// replies); `shard_map` and `stats` answered
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
                Some(protocol::render_line(&StatsResponse {
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

    /// The shards, in ring order: [`FrontendContext::forward`] takes a
    /// [`ShardRing::route_index`].
    fn upstreams(&self) -> Vec<String> {
        self.ring.shards().iter().map(|s| s.addr.clone()).collect()
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
}
