//! Seeded workload inputs. The servers only ever see what this module
//! generates; the same seed always generates the same requests.

use atlas_liberty::{CellClass, Drive};
use atlas_netlist::{Design, NetlistBuilder};
use atlas_serve::shard::{trace_route_key, ShardRing};
use atlas_serve::{DeltaBase, PredictDeltaRequest, PredictRequest};
use atlas_sim::WorkloadPhase;

use crate::rng::Rng;

/// Cycles per request: the paper's trace length.
pub const CYCLES: usize = 300;

const COLD_STREAM: u64 = 1;
const WARM_STREAM: u64 = 2;
const EDIT_STREAM: u64 = 3;
const ARRIVAL_STREAM: u64 = 4;

/// A schedule of one busy phase per activity band plus an idle phase (no
/// input flips) taking 0–70% of each rotation, in shuffled order. Idle
/// cycles repeat one toggle pattern, so the encoder work left after
/// dedup varies widely and smoothly from request to request.
fn schedule(rng: &mut Rng) -> Vec<WorkloadPhase> {
    let bands = [(0.05, 0.15), (0.2, 0.4), (0.45, 0.7)];
    let mut phases: Vec<WorkloadPhase> = bands
        .iter()
        .map(|&(lo, hi)| {
            let min_len = 10 + rng.below(21);
            WorkloadPhase {
                activity: rng.range(lo, hi),
                min_len,
                max_len: min_len + 10 + rng.below(31),
            }
        })
        .collect();
    let busy: usize = phases.iter().map(|p| (p.min_len + p.max_len) / 2).sum();
    let idle_share = rng.range(0.0, 0.7);
    let idle = (busy as f64 * idle_share / (1.0 - idle_share)).round() as usize;
    phases.push(WorkloadPhase {
        activity: 0.0,
        min_len: idle.max(1),
        max_len: idle.max(1),
    });
    rng.shuffle(&mut phases);
    phases
}

/// Request `i` of the `cold` workload: a never-seen key. Every third
/// request is C4 and the rest C2, so the median falls inside the C2
/// latency cluster and the tail inside the C4 one on every seed.
pub fn cold_request(seed: u64, i: usize) -> PredictRequest {
    let mut rng = Rng::for_item(seed, COLD_STREAM, i as u64);
    let design = if i % 3 == 2 { "C4" } else { "C2" };
    PredictRequest::with_phases(
        design,
        format!("cold-s{seed}-r{i}"),
        CYCLES,
        schedule(&mut rng),
    )
}

/// A set-up request that warms `design` with a key outside every timed
/// key stream.
pub fn prewarm_request(design: &str) -> PredictRequest {
    PredictRequest::with_phases(design, "prewarm", CYCLES, schedule(&mut Rng::new(0)))
}

/// Probe `i` of the proxied-vs-direct differentials: an 8-cycle key
/// outside every timed key stream.
pub fn probe_request(i: usize) -> PredictRequest {
    let design = if i.is_multiple_of(2) { "C2" } else { "C4" };
    let mut rng = Rng::new(i as u64);
    PredictRequest::with_phases(design, format!("probe-{i}"), 8, schedule(&mut rng))
}

/// One key of the `warm` working set and the shard its route key maps to.
pub struct WarmKey {
    pub request: PredictRequest,
    pub shard: usize,
}

/// The designs of the `warm` working set.
const WARM_DESIGNS: [&str; 2] = ["C2", "C4"];

/// The `warm` working set: `per_shard[d]` keys of `WARM_DESIGNS[d]` for
/// each shard, drawn in seed order and kept or skipped by where the ring
/// routes them. Seeds change the keys but not the per-shard load.
pub fn warm_keys(seed: u64, ring: &ShardRing, per_shard: [usize; 2]) -> Vec<WarmKey> {
    let shards = ring.shards().len();
    let mut filled = vec![0usize; shards * WARM_DESIGNS.len()];
    let mut keys = Vec::new();
    let mut j = 0u64;
    while keys.len() < shards * per_shard.iter().sum::<usize>() {
        let mut rng = Rng::for_item(seed, WARM_STREAM, j);
        let d = (j % 2) as usize;
        let label = format!("warm-s{seed}-k{j}");
        j += 1;
        let shard = ring.route_index(trace_route_key(None, WARM_DESIGNS[d], &label, CYCLES));
        let bucket = shard * WARM_DESIGNS.len() + d;
        if filled[bucket] == per_shard[d] {
            continue;
        }
        filled[bucket] += 1;
        keys.push(WarmKey {
            request: PredictRequest::with_phases(
                WARM_DESIGNS[d],
                label,
                CYCLES,
                schedule(&mut rng),
            ),
            shard,
        });
    }
    keys
}

/// `n` key indices for a warm loop: whole passes over the working
/// set, each pass in a fresh seeded order, so every key carries equal load.
pub fn warm_order(seed: u64, keys: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng::for_item(seed, WARM_STREAM, u64::MAX);
    let mut order = Vec::with_capacity(n + keys);
    while order.len() < n {
        let mut pass: Vec<usize> = (0..keys).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    order.truncate(n);
    order
}

/// Inter-arrival gaps of the `warm` open loop.
pub fn arrivals_rng(seed: u64) -> Rng {
    Rng::for_item(seed, ARRIVAL_STREAM, 0)
}

/// Sub-modules of the edit-loop design.
pub const EDIT_BLOCKS: usize = 8;
/// Primary inputs every block reads (and nothing else: blocks share no
/// wiring, so editing one never changes another's toggles).
const EDIT_INPUTS: usize = 16;
/// Cells at the end of each block that edits swap between classes.
const EDIT_TAIL: usize = 4;
/// Netlist edits per server lifetime: the service's 64-design library
/// has no unload, and the session's base takes one slot.
pub const MAX_NETLIST_EDITS: usize = 60;
/// Workload label of every edit-loop request.
const EDIT_LABEL: &str = "edit";
/// Phase lengths of the edit schedule in play order: three fixed phases
/// cover cycles 0..260 and the tail phase covers the rest, so a tail
/// edit leaves the first 260 cycles' toggles untouched.
const HEAD_LENS: [usize; 3] = [90, 90, 80];
const TAIL_LEN: usize = 100;
/// Cycles after an `Extend` edit.
pub const EXTENDED_CYCLES: usize = CYCLES + 30;

/// The uploaded design of the edit loop: `EDIT_BLOCKS` blocks fed only
/// from shared primary inputs, each ending in `EDIT_TAIL` cells; bit `j`
/// of `tails[b]` makes tail cell `j` of block `b` a buffer instead of an
/// inverter. An edit swaps one cell's class, so every cell keeps its
/// index and the other blocks stay identical (the delta path's reuse
/// keys include cell indices).
pub fn edit_design(name: &str, tails: &[usize]) -> Result<Design, String> {
    let fail = |e: atlas_netlist::BuildError| format!("edit design: {e}");
    let mut b = NetlistBuilder::new(name);
    let pis = b.add_inputs(EDIT_INPUTS);
    for (s, &tail) in tails.iter().enumerate() {
        let sm = b.add_submodule(format!("top.u{s}"), "block");
        let mut regs = Vec::new();
        for (i, &pi) in pis.iter().enumerate() {
            let class = if i % 2 == 0 {
                CellClass::Xor2
            } else {
                CellClass::Nand2
            };
            let mixed = b
                .add_cell(class, Drive::X1, &[pi, pis[(i + 1) % pis.len()]], sm)
                .map_err(fail)?;
            regs.push(b.add_dff(mixed, sm).map_err(fail)?);
        }
        let mut layer = Vec::new();
        for (i, &q) in regs.iter().enumerate() {
            let peer = regs[(i + 3) % regs.len()];
            for class in [CellClass::And2, CellClass::Or2, CellClass::Xor2] {
                layer.push(b.add_cell(class, Drive::X1, &[q, peer], sm).map_err(fail)?);
            }
        }
        let mut depth = 0;
        while layer.len() > 1 {
            let class = [CellClass::Nand2, CellClass::Nor2, CellClass::Xnor2][depth % 3];
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                next.push(match pair {
                    [a, b2] => b.add_cell(class, Drive::X1, &[*a, *b2], sm).map_err(fail)?,
                    [a] => *a,
                    _ => unreachable!("chunks of two"),
                });
            }
            layer = next;
            depth += 1;
        }
        let mut out = layer[0];
        for j in 0..EDIT_TAIL {
            let class = if tail >> j & 1 == 1 {
                CellClass::Buf
            } else {
                CellClass::Inv
            };
            out = b.add_cell(class, Drive::X1, &[out], sm).map_err(fail)?;
        }
        b.mark_output(out);
    }
    b.finish().map_err(|e| format!("edit design: {e}"))
}

/// The three revision kinds of the edit loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EditKind {
    /// Upload a revision with one block changed, then predict it.
    Netlist,
    /// Append cycles to the trace.
    Extend,
    /// Change the activity of the phase that covers the trace's tail.
    Tail,
}

/// An uploaded design revision: library name plus its per-block edits.
#[derive(Debug, Clone)]
pub struct Upload {
    pub name: String,
    pub tails: Vec<usize>,
}

/// One step of a designer's session: a `predict_delta` against the
/// previous step's trace, after uploading `design` for a netlist edit.
#[derive(Debug, Clone)]
pub struct Revision {
    pub kind: EditKind,
    /// The design the request names.
    pub design: Upload,
    pub request: PredictDeltaRequest,
}

/// A seeded edit session on one server lifetime. Revisions repeat the
/// pattern netlist, extend, tail; each one's base is the previous trace.
pub struct EditSession {
    seed: u64,
    session: usize,
    rng: Rng,
    design: Upload,
    phases: Vec<WorkloadPhase>,
    cycles: usize,
    step: usize,
    netlist_edits: usize,
}

impl EditSession {
    pub fn new(seed: u64, session: usize) -> EditSession {
        let mut rng = Rng::for_item(seed, EDIT_STREAM, session as u64);
        let bands = [(0.05, 0.15), (0.3, 0.5), (0.15, 0.3)];
        let mut phases = vec![WorkloadPhase {
            activity: rng.range(0.05, 0.5),
            min_len: TAIL_LEN,
            max_len: TAIL_LEN,
        }];
        // The stimulus plays phase 1 first and phase 0 last.
        for (len, (lo, hi)) in HEAD_LENS.iter().zip(bands) {
            phases.push(WorkloadPhase {
                activity: rng.range(lo, hi),
                min_len: *len,
                max_len: *len,
            });
        }
        EditSession {
            seed,
            session,
            rng,
            design: Upload {
                name: format!("edit-s{seed}-x{session}-v0"),
                tails: vec![0; EDIT_BLOCKS],
            },
            phases,
            cycles: CYCLES,
            step: 0,
            netlist_edits: 0,
        }
    }

    /// The session's starting design (uploaded during set-up).
    pub fn base_upload(&self) -> Upload {
        self.design.clone()
    }

    /// The trace every later revision builds on (warmed during set-up).
    pub fn base_request(&self) -> PredictRequest {
        PredictRequest::with_phases(
            self.design.name.clone(),
            EDIT_LABEL,
            self.cycles,
            self.phases.clone(),
        )
    }

    /// The next revision, or `None` once this server lifetime's netlist
    /// edits are used up.
    pub fn next_revision(&mut self) -> Option<Revision> {
        let kind = [EditKind::Netlist, EditKind::Extend, EditKind::Tail][self.step % 3];
        if kind == EditKind::Netlist && self.netlist_edits == MAX_NETLIST_EDITS {
            return None;
        }
        self.step += 1;
        let base = DeltaBase {
            design: Some(self.design.name.clone()),
            workload: Some(EDIT_LABEL.to_owned()),
            workload_name: None,
            cycles: Some(self.cycles),
            phases: Some(self.phases.clone()),
        };
        let mut changed = None;
        match kind {
            EditKind::Netlist => {
                self.netlist_edits += 1;
                let block = self.rng.below(EDIT_BLOCKS);
                let mut tails = self.design.tails.clone();
                tails[block] ^= 1 << self.rng.below(EDIT_TAIL);
                self.design = Upload {
                    name: format!(
                        "edit-s{}-x{}-v{}",
                        self.seed, self.session, self.netlist_edits
                    ),
                    tails,
                };
                self.cycles = CYCLES;
                changed = Some(vec![block]);
            }
            EditKind::Extend => self.cycles = EXTENDED_CYCLES,
            EditKind::Tail => self.phases[0].activity = self.rng.range(0.05, 0.5),
        }
        Some(Revision {
            kind,
            design: self.design.clone(),
            request: PredictDeltaRequest {
                id: Some(self.step as u64),
                model: None,
                design: self.design.name.clone(),
                workload: Some(EDIT_LABEL.to_owned()),
                workload_name: None,
                cycles: self.cycles,
                phases: Some(self.phases.clone()),
                base: Some(base),
                changed_submodules: changed,
            },
        })
    }
}
