//! The deployable ATLAS model.

use std::collections::HashMap;

use atlas_liberty::{Library, PowerGroup};
use atlas_netlist::{Design, Stage, SubmoduleId};
use atlas_nn::{EncoderState, InferenceEncoder};
use atlas_power::PowerTrace;
use atlas_sim::ToggleTrace;
use serde::{Deserialize, Serialize};

use crate::features::{build_submodule_data, SideFeatures, SideTable, SubmoduleData};
use crate::finetune::{HeadScratch, PowerHeads};

/// Maximum per-element deviation of an f32-stored trace embedding from
/// its f64 counterpart, under the relative metric `|a − b| / (1 + |b|)`.
/// f32 rows are the f64 rows narrowed once, so the real deviation is one
/// f32 rounding (about 6e-8); the bound is shared by the model tests and
/// the `infer_bench` accuracy gate so the two cannot drift apart.
pub const F32_EMBED_TOLERANCE: f64 = 1e-3;

/// Rows per [`PowerHeads::predict_block`] call in
/// [`AtlasModel::predict_reusing`].
const HEAD_BLOCK: usize = 64;

/// Storage precision of cached embedding rows. The encoder always
/// computes in f64; [`Precision::F32`] narrows each finished row once, at
/// assembly, and the heads widen it back before evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// Full-precision rows: bit-parity guarantees, 8 bytes per element.
    #[default]
    F64,
    /// Narrowed rows: within [`F32_EMBED_TOLERANCE`] of f64, 4 bytes per
    /// element, half the cache cost per embedding.
    F32,
}

impl Precision {
    /// Stable lowercase name (`"f64"` / `"f32"`), for stats and flags.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Precision, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f64" | "double" => Ok(Precision::F64),
            "f32" | "single" => Ok(Precision::F32),
            other => Err(format!("unknown precision `{other}` (expected f64 or f32)")),
        }
    }
}

/// A frozen f64 inference encoder plus the [`Precision`] its embeddings
/// are stored at, built **once** per model load by
/// [`AtlasModel::prepare`] and reused for every trace embedded against
/// that model.
#[derive(Debug, Clone)]
pub struct PreparedEncoder {
    encoder: InferenceEncoder,
    precision: Precision,
}

impl PreparedEncoder {
    /// Freeze `state` into an f64 inference encoder whose embeddings are
    /// stored at `precision`.
    pub fn new(state: &EncoderState, precision: Precision) -> PreparedEncoder {
        PreparedEncoder {
            encoder: InferenceEncoder::from_state(state),
            precision,
        }
    }

    /// The precision this encoder's embeddings are stored at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Embedding width.
    pub(crate) fn embedding_dim(&self) -> usize {
        self.encoder.embedding_dim()
    }

    /// Inference stage one (expensive, cacheable): per-cycle feature
    /// construction, encoder forwards, and side features for every
    /// sub-module of the trace, evaluated in f64 and stored at this
    /// encoder's precision. Serving, deltas and fine-tuning all embed
    /// through here.
    ///
    /// Work runs in two parallel phases over `threads` std threads (`0` =
    /// auto: available parallelism capped at 8), both packed by estimated
    /// work (longest-first) so one huge sub-module splits across threads
    /// instead of straggling the scope:
    ///
    /// 1. **Scan** — (sub-module × cycle-range) items pack each cycle's
    ///    toggles into a bitset and compute its side features. The bitsets
    ///    are then merged per sub-module into one **whole-trace** unique
    ///    toggle-pattern set: workloads repeat patterns (idle phases
    ///    repeat them almost every cycle), and deduplicating across the
    ///    whole trace — not per item — encodes a pattern shared by two
    ///    items' ranges once, however finely thread balance split the
    ///    sub-module.
    /// 2. **Encode** — (sub-module × unique-pattern-range) items run the
    ///    encoder's cycle-blocked batched forward (one matmul per layer
    ///    per chunk) over the unique patterns `base` cannot donate,
    ///    expanding features from each pattern's bitset straight into the
    ///    chunk's stacked operand.
    ///
    /// A `base` donates a pattern's row when the sub-module's structural
    /// fingerprint, the storage precision and the pattern digest all
    /// match; the full scan is what proves it. Appended cycles, edited
    /// sub-modules, and bases of other lengths, designs or precisions all
    /// reduce to that rule (64-bit digest collisions treated as
    /// negligible). The [`DeltaStats`] count what was copied and what
    /// was encoded; without a base everything is encoded.
    ///
    /// Every cycle's embedding is then the copy of its pattern's — exact,
    /// because the encoder is a pure function of (graph, features). f64
    /// results are bit-identical to the per-cycle path for every thread
    /// count, chunking and base; f32 results are exactly those rows
    /// narrowed, so they are deterministic too and stay within
    /// [`F32_EMBED_TOLERANCE`] of f64.
    pub fn embed(
        &self,
        gate: &Design,
        lib: &Library,
        data: &[SubmoduleData],
        trace: &ToggleTrace,
        threads: usize,
        base: Option<&TraceEmbeddings>,
    ) -> (TraceEmbeddings, DeltaStats) {
        let threads = resolve_threads(threads);
        let scan = scan_trace(gate, lib, data, trace, threads);
        let donors = base.map(Donors::new);

        let mut stats = DeltaStats::default();
        let mut scratch = Vec::new();
        let mut uniq_rows: Vec<Vec<Vec<f64>>> = scan
            .uniq_bits
            .iter()
            .map(|u| vec![Vec::new(); u.len()])
            .collect();
        let mut missing_slots: Vec<Vec<usize>> = vec![Vec::new(); data.len()];
        for (sm, smd) in data.iter().enumerate() {
            // Within f32 a donated row is widened here and narrowed again
            // at assembly, which returns the same bits.
            let donor = donors.as_ref().and_then(|d| {
                d.table(
                    smd.submodule().index(),
                    smd.structural_fingerprint(),
                    self.precision,
                )
            });
            for (slot, bits) in scan.uniq_bits[sm].iter().enumerate() {
                let hit = donor.as_ref().and_then(|(b, first)| {
                    let &t = first.get(&pattern_digest(smd.node_count(), bits))?;
                    Some((*b, t))
                });
                match hit {
                    Some((b, t)) => {
                        uniq_rows[sm][slot] = b.embeddings.row_f64(t, &mut scratch).to_vec();
                        stats.reused_patterns += 1;
                    }
                    None => {
                        missing_slots[sm].push(slot);
                        stats.recomputed_patterns += 1;
                    }
                }
            }
        }

        let fresh = encode_unique(self, data, &scan.uniq_bits, &missing_slots, threads);
        for (sm, rows) in fresh.into_iter().enumerate() {
            for (i, r) in rows.into_iter().enumerate() {
                uniq_rows[sm][missing_slots[sm][i]] = r;
            }
        }
        for (slots, missing) in scan.pattern_of.iter().zip(&missing_slots) {
            // `missing` is ascending: slots were pushed in order.
            let fresh = slots
                .iter()
                .filter(|s| missing.binary_search(s).is_ok())
                .count();
            stats.recomputed_cycles += fresh;
            stats.reused_cycles += slots.len() - fresh;
        }
        let out = assemble_embeddings(gate, trace, self.precision, data, scan, &uniq_rows);
        (out, stats)
    }
}

/// Per-cycle graph embeddings of one sub-module at their storage
/// [`Precision`] — f32 rows (the f64 rows narrowed) cost half the cache
/// bytes of f64 rows, so more traces fit a byte-budgeted embedding
/// cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EmbeddingTable {
    /// Full-precision rows (8 bytes per element).
    F64(Vec<Vec<f64>>),
    /// The f64 rows narrowed (4 bytes per element).
    F32(Vec<Vec<f32>>),
}

impl EmbeddingTable {
    /// Number of cycles stored.
    pub fn len(&self) -> usize {
        match self {
            EmbeddingTable::F64(rows) => rows.len(),
            EmbeddingTable::F32(rows) => rows.len(),
        }
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage precision of the rows.
    pub fn precision(&self) -> Precision {
        match self {
            EmbeddingTable::F64(_) => Precision::F64,
            EmbeddingTable::F32(_) => Precision::F32,
        }
    }

    /// Cycle `t`'s embedding as f64, borrowing stored f64 rows directly
    /// and widening f32 rows through the caller's reusable scratch buffer.
    pub fn row_f64<'a>(&'a self, t: usize, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        match self {
            EmbeddingTable::F64(rows) => &rows[t],
            EmbeddingTable::F32(rows) => {
                scratch.clear();
                scratch.extend(rows[t].iter().map(|&v| v as f64));
                scratch
            }
        }
    }

    /// Approximate heap bytes of the stored rows (cache accounting).
    pub fn approx_bytes(&self) -> usize {
        match self {
            EmbeddingTable::F64(rows) => rows.iter().map(|r| r.len() * 8).sum(),
            EmbeddingTable::F32(rows) => rows.iter().map(|r| r.len() * 4).sum(),
        }
    }
}

/// Stage-one inference output for one sub-module across a whole trace:
/// per-cycle encoder embeddings and side features, plus the item-level
/// reuse keys ([`graph_fp`](Self::graph_fp) × per-cycle pattern digests)
/// that make the table delta-capable — any cycle of any cached trace
/// whose (structure, toggle pattern) keys match can donate its row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmoduleEmbeddings {
    /// Index of the sub-module in its design.
    pub submodule: usize,
    /// Per-cycle graph embeddings, at their storage precision.
    pub embeddings: EmbeddingTable,
    /// `sides[cycle]` — the toggle-weighted side features for that cycle.
    pub sides: Vec<SideFeatures>,
    /// [`SubmoduleData::structural_fingerprint`] of the graph these rows
    /// were encoded against. Rows are reusable only under an equal
    /// fingerprint (same cells, classes, static features, adjacency).
    pub graph_fp: u64,
    /// `pattern_digests[cycle]` — FNV-1a digest of that cycle's packed
    /// toggle bitset. Equal digests (under equal `graph_fp` and storage
    /// precision) mean bit-identical encoder input, so the delta path
    /// copies the row instead of re-encoding; 64-bit collisions are
    /// treated as negligible.
    pub pattern_digests: Vec<u64>,
}

/// Everything stage two (the power heads) needs, for every sub-module and
/// cycle of one (design, workload trace) pair.
///
/// This is the expensive, **cacheable** part of ATLAS inference: feature
/// construction and encoder forwards dominate the prediction cost, and
/// both are fully determined by the design and the toggle trace. A
/// serving layer can keep `TraceEmbeddings` keyed by (design, workload,
/// cycles), together with the [`PowerTrace`] the heads made of them
/// ([`AtlasModel::predict_from_embeddings`]), and answer repeat requests
/// from the pair without running either stage again.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceEmbeddings {
    design: String,
    workload: String,
    cycles: usize,
    n_submodules: usize,
    precision: Precision,
    per_submodule: Vec<SubmoduleEmbeddings>,
}

impl TraceEmbeddings {
    /// Number of cycles embedded.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Precision the embeddings are stored at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Per-sub-module embedding tables.
    pub fn per_submodule(&self) -> &[SubmoduleEmbeddings] {
        &self.per_submodule
    }

    /// Sub-modules of the design, i.e. the width of the [`PowerTrace`]
    /// predicted from these embeddings.
    pub fn submodule_count(&self) -> usize {
        self.n_submodules
    }

    /// (sub-module × cycle) rows the heads evaluate over these embeddings.
    pub fn rows(&self) -> usize {
        self.per_submodule.iter().map(|s| s.sides.len()).sum()
    }

    /// Approximate heap size in bytes (for cache accounting). f32 rows
    /// report half the bytes of f64 rows, so a byte-budgeted cache holds
    /// more traces at f32 storage.
    pub fn approx_bytes(&self) -> usize {
        self.per_submodule
            .iter()
            .map(|s| {
                s.embeddings.approx_bytes()
                    + s.sides.len() * std::mem::size_of::<SideFeatures>()
                    + s.pattern_digests.len() * std::mem::size_of::<u64>()
            })
            .sum()
    }
}

/// What [`PreparedEncoder::embed`] reused from its base versus encoded —
/// the observability half of the delta contract (the correctness half is
/// bit-identity, which needs no counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeltaStats {
    /// Unique toggle patterns whose rows were copied from the base.
    pub reused_patterns: usize,
    /// Unique toggle patterns that had to run the encoder.
    pub recomputed_patterns: usize,
    /// (sub-module × cycle) items answered from reused rows.
    pub reused_cycles: usize,
    /// (sub-module × cycle) items answered from freshly encoded rows.
    pub recomputed_cycles: usize,
}

/// A base trace's tables indexed by sub-module: the donor side of both
/// delta paths ([`PreparedEncoder::embed`] for rows,
/// [`AtlasModel::predict_reusing`] for watts), so the two cannot disagree
/// on which items a base may donate.
struct Donors<'a>(HashMap<usize, &'a SubmoduleEmbeddings>);

impl<'a> Donors<'a> {
    fn new(base: &'a TraceEmbeddings) -> Donors<'a> {
        Donors(
            base.per_submodule
                .iter()
                .map(|s| (s.submodule, s))
                .collect(),
        )
    }

    /// The base table that may donate to `submodule` when that
    /// sub-module is encoded against `graph_fp` and stored at
    /// `precision`, with the first base cycle of each pattern digest (any
    /// occurrence donates the same row bits, so first-wins is as good as
    /// any). `None` unless both keys match: f32 rows are lossy, so they
    /// cannot stand in for f64 rows.
    fn table(
        &self,
        submodule: usize,
        graph_fp: u64,
        precision: Precision,
    ) -> Option<(&'a SubmoduleEmbeddings, HashMap<u64, usize>)> {
        let table = self
            .0
            .get(&submodule)
            .copied()
            .filter(|b| b.graph_fp == graph_fp && b.embeddings.precision() == precision)?;
        let mut first = HashMap::new();
        for (t, &d) in table.pattern_digests.iter().enumerate() {
            first.entry(d).or_insert(t);
        }
        Some((table, first))
    }
}

/// Run the heads over `cycles` (indices into one table's `rows` and
/// `sides`) a block at a time and add each row's four group watts into
/// `out`. Rows are evaluated independently, so which rows share a block
/// never changes their bits.
fn eval_rows<T: Copy + Into<f64>>(
    heads: &PowerHeads,
    submodule: usize,
    rows: &[Vec<T>],
    sides: &[SideFeatures],
    cycles: &[usize],
    scratch: &mut HeadScratch,
    out: &mut PowerTrace,
) {
    let mut picked: [&[T]; HEAD_BLOCK] = [&[]; HEAD_BLOCK];
    let mut block_sides = [SideFeatures::default(); HEAD_BLOCK];
    let mut groups = [[0.0; 3]; HEAD_BLOCK];
    for chunk in cycles.chunks(HEAD_BLOCK) {
        let n = chunk.len();
        for (i, &t) in chunk.iter().enumerate() {
            picked[i] = &rows[t];
            block_sides[i] = sides[t];
        }
        heads.predict_block(&picked[..n], &block_sides[..n], scratch, &mut groups[..n]);
        for ((&t, side), &[comb, reg, ct]) in chunk.iter().zip(&block_sides).zip(&groups) {
            let mem = heads.memory.predict(side);
            out.add(t, submodule, PowerGroup::Combinational.index(), comb);
            out.add(t, submodule, PowerGroup::Register.index(), reg);
            out.add(t, submodule, PowerGroup::ClockTree.index(), ct);
            out.add(t, submodule, PowerGroup::Memory.index(), mem);
        }
    }
}

/// Digest of one packed toggle pattern: FNV-1a over the node count and
/// the bitset words. The reuse key of one (sub-module × cycle) item.
fn pattern_digest(nodes: usize, bits: &[u64]) -> u64 {
    crate::features::fnv1a64(
        nodes
            .to_le_bytes()
            .into_iter()
            .chain(bits.iter().flat_map(|w| w.to_le_bytes())),
    )
}

/// Deterministic LPT packing shared by both embed phases: items sorted
/// by estimated work, each placed on the least-loaded thread (stable
/// sort, first-minimum tie-break), so scheduling never depends on timing.
fn lpt_bins(weights: &[usize], threads: usize) -> Vec<Vec<usize>> {
    let threads = threads.clamp(1, weights.len().max(1));
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); threads];
    let mut load = vec![0usize; threads];
    for i in order {
        let t = (0..threads).min_by_key(|&t| load[t]).unwrap_or(0);
        load[t] += weights[i];
        bins[t].push(i);
    }
    bins
}

/// Split `totals[sm]` units of each sub-module into only as many
/// contiguous ranges as thread balance needs: work smaller than a
/// thread's fair share stays whole, a dominating sub-module cuts into
/// enough pieces to occupy every thread.
fn ranged_items(
    data: &[SubmoduleData],
    totals: &[usize],
    threads: usize,
) -> Vec<(usize, usize, usize)> {
    let total_work: usize = data
        .iter()
        .zip(totals)
        .map(|(s, &t)| s.node_count() * t)
        .sum();
    let work_target = total_work.div_ceil(threads.max(1)).max(1);
    let mut items = Vec::new();
    for (sm, (smd, &total)) in data.iter().zip(totals).enumerate() {
        if total == 0 {
            continue;
        }
        let splits = (smd.node_count() * total).div_ceil(work_target).max(1);
        let item_len = total.div_ceil(splits).max(1);
        let mut start = 0;
        while start < total {
            let len = item_len.min(total - start);
            items.push((sm, start, len));
            start += len;
        }
    }
    items
}

/// Compute the rows of every [`ranged_items`] item — `work(sm, start,
/// len)` returns one row per unit — with the items packed into
/// [`lpt_bins`] by node work, each non-empty bin on a scoped thread, and
/// scatter them so `out[sm][start + k]` is row `k` of its item.
fn fan_out<T: Send + Default + Clone>(
    data: &[SubmoduleData],
    totals: &[usize],
    threads: usize,
    work: impl Fn(usize, usize, usize) -> Vec<T> + Sync,
) -> Vec<Vec<T>> {
    let items = ranged_items(data, totals, threads);
    let weights: Vec<usize> = items
        .iter()
        .map(|&(sm, _, len)| data[sm].node_count() * len)
        .collect();
    let run = |bin: Vec<usize>| -> Vec<(usize, usize, Vec<T>)> {
        bin.into_iter()
            .map(|i| {
                let (sm, start, len) = items[i];
                (sm, start, work(sm, start, len))
            })
            .collect()
    };
    let done: Vec<(usize, usize, Vec<T>)> = crossbeam::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = lpt_bins(&weights, threads)
            .into_iter()
            .filter(|bin| !bin.is_empty())
            .map(|bin| scope.spawn(move |_| run(bin)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    })
    .expect("scoped threads join");
    let mut out: Vec<Vec<T>> = totals.iter().map(|&n| vec![T::default(); n]).collect();
    for (sm, start, rows) in done {
        for (off, row) in rows.into_iter().enumerate() {
            out[sm][start + off] = row;
        }
    }
    out
}

/// Phase-1 output: per (sub-module, cycle) side features, and each
/// sub-module's cycles collapsed onto its whole-trace unique
/// toggle-pattern set (`pattern_of[sm][cycle]` indexes `uniq_bits[sm]`).
struct TraceScan {
    sides_of: Vec<Vec<SideFeatures>>,
    pattern_of: Vec<Vec<usize>>,
    uniq_bits: Vec<Vec<Vec<u64>>>,
}

/// Phase 1 of [`PreparedEncoder::embed`]: (sub-module × cycle-range)
/// items pack each cycle's toggles into a bitset and compute its side
/// features, then the bitsets merge per sub-module into one whole-trace
/// unique toggle-pattern set (workloads repeat patterns — idle phases
/// almost every cycle — and deduplicating across the whole trace keeps
/// the hit rate independent of how thread balance split the sub-module).
fn scan_trace(
    gate: &Design,
    lib: &Library,
    data: &[SubmoduleData],
    trace: &ToggleTrace,
    threads: usize,
) -> TraceScan {
    let cycles = trace.cycles();
    let scans = fan_out(
        data,
        &vec![cycles; data.len()],
        threads,
        |sm, start, len| {
            let smd = &data[sm];
            let words = smd.node_count().div_ceil(64);
            let table = SideTable::new(smd, gate, lib, trace);
            (start..start + len)
                .map(|t| {
                    let mut bits = vec![0u64; words];
                    for (node, &cell) in smd.cells().iter().enumerate() {
                        if trace.cell_toggled(gate, t, cell) {
                            bits[node / 64] |= 1 << (node % 64);
                        }
                    }
                    (bits, table.side_features(gate, trace, t))
                })
                .collect()
        },
    );
    let mut sides_of: Vec<Vec<SideFeatures>> = Vec::with_capacity(data.len());
    let mut pattern_of: Vec<Vec<usize>> = Vec::with_capacity(data.len());
    let mut uniq_bits: Vec<Vec<Vec<u64>>> = Vec::with_capacity(data.len());
    for scan in scans {
        let mut uniq: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut uniqs: Vec<Vec<u64>> = Vec::new();
        let mut slots = Vec::with_capacity(cycles);
        let mut sides = Vec::with_capacity(cycles);
        for (bits, side) in scan {
            sides.push(side);
            let slot = match uniq.get(&bits) {
                Some(&slot) => slot,
                None => {
                    let slot = uniqs.len();
                    uniqs.push(bits.clone());
                    uniq.insert(bits, slot);
                    slot
                }
            };
            slots.push(slot);
        }
        sides_of.push(sides);
        pattern_of.push(slots);
        uniq_bits.push(uniqs);
    }
    TraceScan {
        sides_of,
        pattern_of,
        uniq_bits,
    }
}

/// Phase 2 of [`PreparedEncoder::embed`]: run the encoder's cycle-blocked
/// batched forward over the selected unique patterns only (`slots[sm]`
/// indexes `uniq_bits[sm]`: every pattern the base could not donate, so
/// all of them without a base). Returns one row per selected slot, in
/// `slots` order. Rows are position- and chunking-independent —
/// the encoder is a pure function of (graph, features) — which is exactly
/// why a subset encode stays bit-identical to the full one.
fn encode_unique(
    encoder: &PreparedEncoder,
    data: &[SubmoduleData],
    uniq_bits: &[Vec<Vec<u64>>],
    slots: &[Vec<usize>],
    threads: usize,
) -> Vec<Vec<Vec<f64>>> {
    let counts: Vec<usize> = slots.iter().map(Vec::len).collect();
    fan_out(data, &counts, threads, |sm, start, len| {
        let smd = &data[sm];
        let (bits, pick) = (&uniq_bits[sm], &slots[sm]);
        // Each pattern's features are expanded from its bitset straight
        // into the chunk's stacked operand (no second trace scan), so
        // live feature memory stays within the encoder's chunk budget.
        let enc = &encoder.encoder;
        enc.encode_graph_batch_fill(
            smd.adj(),
            len,
            enc.cycle_chunk(smd.node_count()),
            |u, dst| smd.write_features_from_bits(&bits[pick[start + u]], dst),
        )
    })
}

/// Resolve a `threads` argument (`0` = auto: available parallelism
/// capped at 8).
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8)
    } else {
        threads
    }
}

/// `table[cycle] = uniq[pattern_of[cycle]]` at the storage precision.
/// Narrowing happens once per unique row, so every cycle of a pattern
/// shares the same narrowed bits.
fn store_rows(precision: Precision, uniq: &[Vec<f64>], pattern_of: &[usize]) -> EmbeddingTable {
    match precision {
        Precision::F64 => {
            EmbeddingTable::F64(pattern_of.iter().map(|&s| uniq[s].clone()).collect())
        }
        Precision::F32 => {
            let narrow: Vec<Vec<f32>> = uniq
                .iter()
                .map(|row| row.iter().map(|&v| v as f32).collect())
                .collect();
            EmbeddingTable::F32(pattern_of.iter().map(|&s| narrow[s].clone()).collect())
        }
    }
}

/// Final step of [`PreparedEncoder::embed`]: every cycle copies its
/// unique pattern's f64 row — narrowed element by element (`as f32`)
/// when the storage precision is [`Precision::F32`] — and the item-level
/// reuse keys (graph fingerprint, per-cycle pattern digests) are stamped
/// alongside.
fn assemble_embeddings(
    gate: &Design,
    trace: &ToggleTrace,
    precision: Precision,
    data: &[SubmoduleData],
    mut scan: TraceScan,
    uniq_rows: &[Vec<Vec<f64>>],
) -> TraceEmbeddings {
    let cycles = trace.cycles();
    let per_submodule: Vec<SubmoduleEmbeddings> = data
        .iter()
        .enumerate()
        .map(|(sm, smd)| {
            let digests_uniq: Vec<u64> = scan.uniq_bits[sm]
                .iter()
                .map(|bits| pattern_digest(smd.node_count(), bits))
                .collect();
            SubmoduleEmbeddings {
                submodule: smd.submodule().index(),
                embeddings: store_rows(precision, &uniq_rows[sm], &scan.pattern_of[sm]),
                sides: std::mem::take(&mut scan.sides_of[sm]),
                graph_fp: smd.structural_fingerprint(),
                pattern_digests: scan.pattern_of[sm]
                    .iter()
                    .map(|&s| digests_uniq[s])
                    .collect(),
            }
        })
        .collect();
    TraceEmbeddings {
        design: gate.name().to_owned(),
        workload: trace.workload().to_owned(),
        cycles,
        n_submodules: gate.submodules().len(),
        precision,
        per_submodule,
    }
}

/// A trained ATLAS model: frozen encoder + fine-tuned power heads.
///
/// Input at inference time is exactly what a designer has *before* layout:
/// the gate-level netlist, the technology library, and a workload toggle
/// trace. Output is the predicted per-cycle post-layout power of every
/// sub-module and power group — no layout information required (paper §II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtlasModel {
    encoder: EncoderState,
    heads: PowerHeads,
}

impl AtlasModel {
    /// Assemble a model from its trained parts.
    pub fn new(encoder: EncoderState, heads: PowerHeads) -> AtlasModel {
        AtlasModel { encoder, heads }
    }

    /// The frozen encoder weights.
    pub fn encoder(&self) -> &EncoderState {
        &self.encoder
    }

    /// The fine-tuned heads.
    pub fn heads(&self) -> &PowerHeads {
        &self.heads
    }

    /// Serialize to JSON (model persistence).
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` serialization error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Deserialize from JSON.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` parse error.
    pub fn from_json(json: &str) -> Result<AtlasModel, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Predict per-cycle post-layout power for a **gate-level** design
    /// under the given toggle trace. Sub-module embeddings are computed on
    /// worker threads (the trace is the only per-cycle input).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is a post-layout design (ATLAS's whole point is to
    /// not need one) or if the trace does not belong to `gate`.
    pub fn predict(&self, gate: &Design, lib: &Library, trace: &ToggleTrace) -> PowerTrace {
        assert_eq!(
            gate.stage(),
            Stage::GateLevel,
            "ATLAS predicts from the gate-level netlist"
        );
        let data = build_submodule_data(gate, lib);
        self.predict_prepared(gate, lib, &data, trace)
    }

    /// [`predict`](Self::predict) with pre-built sub-module data, so
    /// repeated predictions (new workloads on the same design) skip
    /// preprocessing.
    ///
    /// Equivalent to [`embed_trace`](Self::embed_trace) followed by
    /// [`predict_from_embeddings`](Self::predict_from_embeddings); call
    /// the stages separately to cache the expensive first one.
    pub fn predict_prepared(
        &self,
        gate: &Design,
        lib: &Library,
        data: &[SubmoduleData],
        trace: &ToggleTrace,
    ) -> PowerTrace {
        let embeddings = self.embed_trace(gate, lib, data, trace, 0);
        self.predict_from_embeddings(&embeddings)
    }

    /// Build the frozen f64 inference encoder once, tagged with the
    /// precision its embeddings are stored at. Keep the result and embed
    /// through it ([`PreparedEncoder::embed`]) so repeated traces skip
    /// re-cloning the weights.
    pub fn prepare(&self, precision: Precision) -> PreparedEncoder {
        PreparedEncoder::new(&self.encoder, precision)
    }

    /// Inference stage one (expensive, cacheable) at full precision —
    /// [`embed_trace_with`](Self::embed_trace_with) against a fresh f64
    /// encoder.
    pub fn embed_trace(
        &self,
        gate: &Design,
        lib: &Library,
        data: &[SubmoduleData],
        trace: &ToggleTrace,
        threads: usize,
    ) -> TraceEmbeddings {
        self.embed_trace_with(
            &self.prepare(Precision::F64),
            gate,
            lib,
            data,
            trace,
            threads,
        )
    }

    /// Inference stage one by a prepared encoder:
    /// [`PreparedEncoder::embed`] without a base.
    pub fn embed_trace_with(
        &self,
        encoder: &PreparedEncoder,
        gate: &Design,
        lib: &Library,
        data: &[SubmoduleData],
        trace: &ToggleTrace,
        threads: usize,
    ) -> TraceEmbeddings {
        encoder.embed(gate, lib, data, trace, threads, None).0
    }

    /// Incremental inference stage one for interactive what-if loops:
    /// [`PreparedEncoder::embed`] reusing every (sub-module × cycle) item
    /// whose encoder input is provably unchanged from `base`.
    pub fn embed_trace_delta_with(
        &self,
        encoder: &PreparedEncoder,
        gate: &Design,
        lib: &Library,
        data: &[SubmoduleData],
        trace: &ToggleTrace,
        threads: usize,
        base: &TraceEmbeddings,
    ) -> (TraceEmbeddings, DeltaStats) {
        encoder.embed(gate, lib, data, trace, threads, Some(base))
    }

    /// Inference stage two: run the fine-tuned heads over precomputed
    /// [`TraceEmbeddings`] — [`predict_reusing`](Self::predict_reusing)
    /// with no donor.
    pub fn predict_from_embeddings(&self, embeddings: &TraceEmbeddings) -> PowerTrace {
        self.predict_reusing(embeddings, None).0
    }

    /// Inference stage two with an optional donor: `(base, watts)`, where
    /// `watts` is what this model predicted from `base`. Returns the
    /// watts and how many (sub-module × cycle) rows were copied from the
    /// donor instead of evaluated.
    ///
    /// A row copies its donor's four group watts only when the
    /// sub-module's `graph_fp` and storage precision match the base's
    /// table, the cycle's pattern digest occurs in that table (the first
    /// such base cycle donates, as in [`PreparedEncoder::embed`]), and the
    /// two cycles' [`SideFeatures`] are bit-equal. The heads would then
    /// read bit-identical inputs, so copying returns the bits evaluating
    /// would.
    ///
    /// Every other row goes through the heads in blocks of 64 (f32 rows
    /// widened a block at a time) with one reused [`HeadScratch`], so no
    /// row allocates; watts are bit-identical to evaluating each row
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is smaller than the trace `base` describes, or
    /// if either trace fails [`can_predict`](Self::can_predict).
    pub fn predict_reusing(
        &self,
        embeddings: &TraceEmbeddings,
        donor: Option<(&TraceEmbeddings, &PowerTrace)>,
    ) -> (PowerTrace, usize) {
        let mut out = PowerTrace::new(
            embeddings.design.clone(),
            embeddings.workload.clone(),
            embeddings.cycles,
            embeddings.n_submodules,
        );
        let donor = donor.map(|(base, watts)| (Donors::new(base), watts));
        let mut reused = 0;
        let mut scratch = HeadScratch::default();
        let mut fresh: Vec<usize> = Vec::new();
        for sm in &embeddings.per_submodule {
            fresh.clear();
            let table = donor.as_ref().and_then(|(donors, watts)| {
                let (b, first) =
                    donors.table(sm.submodule, sm.graph_fp, sm.embeddings.precision())?;
                Some((b, first, *watts))
            });
            for (t, side) in sm.sides.iter().enumerate() {
                let hit = table.as_ref().and_then(|(b, first, watts)| {
                    let &u = first.get(sm.pattern_digests.get(t)?)?;
                    let same_side = b.sides.get(u)?.to_bits() == side.to_bits();
                    same_side.then_some((b.submodule, u, *watts))
                });
                match hit {
                    Some((donor_sm, u, watts)) => {
                        let id = SubmoduleId::from_index(donor_sm);
                        for group in PowerGroup::ALL {
                            out.add(t, sm.submodule, group.index(), watts.at(u, id, group));
                        }
                        reused += 1;
                    }
                    None => fresh.push(t),
                }
            }
            match &sm.embeddings {
                EmbeddingTable::F64(rows) => eval_rows(
                    &self.heads,
                    sm.submodule,
                    rows,
                    &sm.sides,
                    &fresh,
                    &mut scratch,
                    &mut out,
                ),
                EmbeddingTable::F32(rows) => eval_rows(
                    &self.heads,
                    sm.submodule,
                    rows,
                    &sm.sides,
                    &fresh,
                    &mut scratch,
                    &mut out,
                ),
            }
        }
        (out, reused)
    }

    /// Whether the heads can run over `embeddings` without panicking:
    /// every table has one row per cycle, each [`embed_dim`] wide, and
    /// addresses a sub-module of the design. Embeddings this model made
    /// always pass; the check is for ones read back from a file.
    ///
    /// [`embed_dim`]: PowerHeads::embed_dim
    pub fn can_predict(&self, embeddings: &TraceEmbeddings) -> bool {
        let width = self.heads.embed_dim;
        embeddings.per_submodule.iter().all(|s| {
            let rows_ok = match &s.embeddings {
                EmbeddingTable::F64(rows) => rows.iter().all(|r| r.len() == width),
                EmbeddingTable::F32(rows) => rows.iter().all(|r| r.len() == width),
            };
            s.submodule < embeddings.n_submodules
                && s.embeddings.len() == embeddings.cycles
                && s.sides.len() == embeddings.cycles
                && s.pattern_digests.len() == embeddings.cycles
                && rows_ok
        })
    }

    /// Check a model read from an untrusted file and compile its heads,
    /// so no later prediction can panic on a malformed ensemble.
    ///
    /// # Errors
    ///
    /// Describes the first problem: a head whose trees are malformed
    /// (see [`PowerHeads::validate`]) or whose width does not match the
    /// encoder's embedding width.
    pub fn validate(&self) -> Result<(), String> {
        let hidden = self.encoder.config.hidden_dim;
        if self.heads.embed_dim != hidden {
            return Err(format!(
                "heads expect {}-wide embeddings, the encoder makes {hidden}",
                self.heads.embed_dim
            ));
        }
        self.heads.validate()
    }
}

#[cfg(test)]
mod tests {
    use atlas_designs::DesignConfig;
    use atlas_layout::LayoutConfig;

    use super::*;
    use crate::bundle::DesignBundle;
    use crate::finetune::{finetune, FinetuneConfig};
    use crate::pretrain::{pretrain, PretrainConfig};

    fn tiny_model() -> (AtlasModel, DesignBundle, Library) {
        let lib = Library::synthetic_40nm();
        let bundle = DesignBundle::prepare(
            &DesignConfig::tiny(),
            &lib,
            &LayoutConfig::default(),
            "W1",
            10,
        );
        let bundles = vec![bundle];
        let (encoder, _) = pretrain(&bundles, &PretrainConfig::test_tiny());
        let state = encoder.state();
        let heads = finetune(
            &PreparedEncoder::new(&state, Precision::F64),
            &bundles,
            &lib,
            &FinetuneConfig::test_tiny(),
        );
        (
            AtlasModel::new(state, heads),
            bundles.into_iter().next().expect("one bundle"),
            lib,
        )
    }

    #[test]
    fn prediction_has_label_shape_and_is_positive() {
        let (model, bundle, lib) = tiny_model();
        let pred = model.predict(&bundle.gate, &lib, &bundle.gate_trace);
        assert_eq!(pred.cycles(), bundle.gate_trace.cycles());
        for t in 0..pred.cycles() {
            assert!(pred.total(t) >= 0.0);
        }
        // Predicts a nonzero clock tree despite seeing no layout — the
        // cross-stage claim in miniature.
        let ct: f64 = pred.group_series(PowerGroup::ClockTree).iter().sum();
        assert!(ct > 0.0, "clock-tree prediction must be nonzero");
    }

    #[test]
    fn training_fit_is_sane() {
        // On its own training design, even a tiny model must beat the
        // gate-level baseline for total power.
        let (model, bundle, lib) = tiny_model();
        let pred = model.predict(&bundle.gate, &lib, &bundle.gate_trace);
        let baseline = atlas_power::compute_power(&bundle.gate, &lib, &bundle.gate_trace);
        let labels = &bundle.labels;
        let label_series: Vec<f64> = (0..labels.cycles())
            .map(|t| labels.non_memory_total(t))
            .collect();
        let pred_series: Vec<f64> = (0..pred.cycles())
            .map(|t| pred.non_memory_total(t))
            .collect();
        let base_series: Vec<f64> = (0..baseline.cycles())
            .map(|t| baseline.non_memory_total(t))
            .collect();
        let atlas_err = atlas_power::metrics::mape(&label_series, &pred_series);
        let base_err = atlas_power::metrics::mape(&label_series, &base_series);
        assert!(
            atlas_err < base_err,
            "ATLAS ({atlas_err:.1}%) must beat the gate-level baseline ({base_err:.1}%)"
        );
    }

    #[test]
    fn staged_inference_matches_fused_path() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let fused = model.predict_prepared(&bundle.gate, &lib, &data, &bundle.gate_trace);
        let embeddings = model.embed_trace(&bundle.gate, &lib, &data, &bundle.gate_trace, 2);
        assert_eq!(embeddings.cycles(), bundle.gate_trace.cycles());
        assert!(embeddings.approx_bytes() > 0);
        let staged = model.predict_from_embeddings(&embeddings);
        assert_eq!(fused, staged, "stage split must not change predictions");
    }

    #[test]
    fn embedding_without_a_base_encodes_every_pattern() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let enc = model.prepare(Precision::F64);
        let trace = &bundle.gate_trace;
        let (emb, stats) = enc.embed(&bundle.gate, &lib, &data, trace, 2, None);
        let unique: usize = emb
            .per_submodule()
            .iter()
            .map(|s| {
                let mut d = s.pattern_digests.clone();
                d.sort_unstable();
                d.dedup();
                d.len()
            })
            .sum();
        assert_eq!(
            stats,
            DeltaStats {
                reused_patterns: 0,
                recomputed_patterns: unique,
                reused_cycles: 0,
                recomputed_cycles: data.len() * trace.cycles(),
            }
        );
        let wrapped = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, trace, 3);
        for (a, b) in emb.per_submodule().iter().zip(wrapped.per_submodule()) {
            assert_eq!(a.embeddings, b.embeddings);
            assert_eq!(a.sides, b.sides);
        }
    }

    #[test]
    fn delta_on_identical_trace_reuses_everything_bit_identically() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let enc = model.prepare(Precision::F64);
        let full = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &bundle.gate_trace, 2);
        let (delta, stats) = model.embed_trace_delta_with(
            &enc,
            &bundle.gate,
            &lib,
            &data,
            &bundle.gate_trace,
            3,
            &full,
        );
        assert_eq!(
            stats.recomputed_patterns, 0,
            "identical trace recomputed nothing"
        );
        assert!(stats.reused_patterns > 0);
        assert_eq!(stats.recomputed_cycles, 0);
        for (a, b) in full.per_submodule().iter().zip(delta.per_submodule()) {
            assert_eq!(a.embeddings, b.embeddings, "rows must be bit-identical");
            assert_eq!(a.pattern_digests, b.pattern_digests);
            assert_eq!(a.graph_fp, b.graph_fp);
            assert_eq!(a.sides, b.sides);
        }
        assert_eq!(
            model.predict_from_embeddings(&full),
            model.predict_from_embeddings(&delta)
        );
    }

    #[test]
    fn delta_on_appended_cycles_matches_full_recompute() {
        use atlas_sim::{simulate, PhasedWorkload};
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let enc = model.prepare(Precision::F64);
        let short = simulate(&bundle.gate, &mut PhasedWorkload::w1(1), 7).expect("simulates");
        let long = simulate(&bundle.gate, &mut PhasedWorkload::w1(1), 13).expect("simulates");
        let base = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &short, 2);
        let full = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &long, 2);
        let (delta, stats) =
            model.embed_trace_delta_with(&enc, &bundle.gate, &lib, &data, &long, 2, &base);
        assert!(
            stats.reused_patterns > 0,
            "the shared prefix must donate rows"
        );
        for (a, b) in full.per_submodule().iter().zip(delta.per_submodule()) {
            assert_eq!(a.embeddings, b.embeddings, "rows must be bit-identical");
            assert_eq!(a.sides, b.sides);
        }
        assert_eq!(
            model.predict_from_embeddings(&full),
            model.predict_from_embeddings(&delta)
        );
    }

    #[test]
    fn delta_from_foreign_base_donates_nothing_but_stays_exact() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let f64enc = model.prepare(Precision::F64);
        let f32enc = model.prepare(Precision::F32);
        // An f32 base can never donate rows to an f64 delta: narrowed
        // rows are lossy.
        let base32 =
            model.embed_trace_with(&f32enc, &bundle.gate, &lib, &data, &bundle.gate_trace, 2);
        let full =
            model.embed_trace_with(&f64enc, &bundle.gate, &lib, &data, &bundle.gate_trace, 2);
        let (delta, stats) = model.embed_trace_delta_with(
            &f64enc,
            &bundle.gate,
            &lib,
            &data,
            &bundle.gate_trace,
            2,
            &base32,
        );
        assert_eq!(
            stats.reused_patterns, 0,
            "precision mismatch must donate nothing"
        );
        assert!(stats.recomputed_patterns > 0);
        for (a, b) in full.per_submodule().iter().zip(delta.per_submodule()) {
            assert_eq!(a.embeddings, b.embeddings);
        }
    }

    #[test]
    fn precision_parses_and_prints() {
        assert_eq!("f64".parse::<Precision>(), Ok(Precision::F64));
        assert_eq!("F32".parse::<Precision>(), Ok(Precision::F32));
        assert_eq!(" single ".parse::<Precision>(), Ok(Precision::F32));
        assert!("f16".parse::<Precision>().is_err());
        assert_eq!(Precision::F32.to_string(), "f32");
        assert_eq!(Precision::default(), Precision::F64);
    }

    #[test]
    fn is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedEncoder>();
    }

    #[test]
    fn f32_storage_is_the_f64_rows_narrowed() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let trace = &bundle.gate_trace;
        let wide = model.embed_trace_with(
            &model.prepare(Precision::F64),
            &bundle.gate,
            &lib,
            &data,
            trace,
            2,
        );
        let narrow = model.embed_trace_with(
            &model.prepare(Precision::F32),
            &bundle.gate,
            &lib,
            &data,
            trace,
            3,
        );
        assert_eq!(narrow.precision(), Precision::F32);
        for (w, n) in wide.per_submodule().iter().zip(narrow.per_submodule()) {
            let (EmbeddingTable::F64(wide_rows), EmbeddingTable::F32(narrow_rows)) =
                (&w.embeddings, &n.embeddings)
            else {
                panic!("each table is stored at its encoder's precision");
            };
            let expected: Vec<Vec<f32>> = wide_rows
                .iter()
                .map(|row| row.iter().map(|&v| v as f32).collect())
                .collect();
            assert_eq!(narrow_rows, &expected, "f32 rows are the f64 rows narrowed");
            for (a, b) in narrow_rows.iter().flatten().zip(wide_rows.iter().flatten()) {
                let delta = (f64::from(*a) - b).abs() / (1.0 + b.abs());
                assert!(delta <= F32_EMBED_TOLERANCE, "{a} vs {b}");
            }
            assert_eq!(w.sides, n.sides);
            assert_eq!(w.pattern_digests, n.pattern_digests);
        }
        assert!(narrow.approx_bytes() < wide.approx_bytes());
    }

    /// The blocked head stage is a per-row reference fold — each head's
    /// node-link walk on the widened row — bit for bit, at both storage
    /// precisions and over a trace longer than one head block.
    #[test]
    fn blocked_heads_match_per_row_reference_fold() {
        use atlas_sim::{simulate, PhasedWorkload};
        let (model, bundle, lib) = tiny_model();
        let heads = model.heads();
        let data = build_submodule_data(&bundle.gate, &lib);
        let trace = simulate(&bundle.gate, &mut PhasedWorkload::w1(1), 150).expect("simulates");
        for precision in [Precision::F64, Precision::F32] {
            let emb = model.embed_trace_with(
                &model.prepare(precision),
                &bundle.gate,
                &lib,
                &data,
                &trace,
                2,
            );
            let mut want = PowerTrace::new(
                emb.design.clone(),
                emb.workload.clone(),
                emb.cycles,
                emb.n_submodules,
            );
            let mut scratch = Vec::new();
            for sm in emb.per_submodule() {
                for (t, side) in sm.sides.iter().enumerate() {
                    let row = sm.embeddings.row_f64(t, &mut scratch).to_vec();
                    let with = |extra: [f64; 3]| {
                        let mut r = row.clone();
                        if heads.side_features {
                            r.extend(extra);
                        }
                        r
                    };
                    let comb_row = with([side.n_comb, side.i_comb, side.c_comb]);
                    let reg_row = with([side.n_reg, side.i_reg, side.c_reg]);
                    let groups = [
                        heads.f_comb.predict_reference(&comb_row).max(0.0),
                        heads.f_reg.predict_reference(&reg_row).max(0.0),
                        heads.f_ct.predict_reference(&row).max(0.0),
                    ];
                    assert_eq!(
                        heads.predict_groups(&row, side).map(f64::to_bits),
                        groups.map(f64::to_bits)
                    );
                    let [comb, reg, ct] = groups;
                    want.add(t, sm.submodule, PowerGroup::Combinational.index(), comb);
                    want.add(t, sm.submodule, PowerGroup::Register.index(), reg);
                    want.add(t, sm.submodule, PowerGroup::ClockTree.index(), ct);
                    let mem = heads.memory.predict(side);
                    want.add(t, sm.submodule, PowerGroup::Memory.index(), mem);
                }
            }
            let got = model.predict_from_embeddings(&emb);
            // Shortest round-trip JSON floats are distinct per bit pattern.
            assert_eq!(
                serde_json::to_string(&got).expect("serializes"),
                serde_json::to_string(&want).expect("serializes"),
                "{precision} heads diverged from the reference fold"
            );
        }
    }

    /// Watts compared by bit pattern: shortest round-trip JSON floats are
    /// distinct per bit pattern, unlike `==` on f64.
    fn watt_bits(trace: &PowerTrace) -> String {
        serde_json::to_string(trace).expect("serializes")
    }

    /// `predict_reusing` against `donor` must equal a donor-free predict
    /// bit for bit and copy exactly `want_reused` rows.
    fn assert_reuse(
        model: &AtlasModel,
        target: &TraceEmbeddings,
        donor: &TraceEmbeddings,
        want_reused: usize,
    ) {
        let reference = model.predict_from_embeddings(target);
        let donor_watts = model.predict_from_embeddings(donor);
        let (got, reused) = model.predict_reusing(target, Some((donor, &donor_watts)));
        assert_eq!(watt_bits(&got), watt_bits(&reference));
        assert_eq!(reused, want_reused);
    }

    #[test]
    fn reusing_an_identical_trace_copies_every_row() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        for precision in [Precision::F64, Precision::F32] {
            let enc = model.prepare(precision);
            let emb =
                model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &bundle.gate_trace, 2);
            assert_reuse(&model, &emb, &emb, emb.rows());
            let (alone, reused) = model.predict_reusing(&emb, None);
            assert_eq!(reused, 0);
            assert_eq!(
                watt_bits(&alone),
                watt_bits(&model.predict_from_embeddings(&emb))
            );
        }
    }

    #[test]
    fn reusing_evaluates_rows_whose_side_features_differ() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let enc = model.prepare(Precision::F64);
        let target = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &bundle.gate_trace, 2);
        // Same rows and digests, but cycle 0's side row has one sign
        // flipped: its bits always differ, even for a 0.0 that `==`
        // would still call equal.
        let mut donor = target.clone();
        for s in &mut donor.per_submodule {
            s.sides[0].i_comb = -s.sides[0].i_comb;
        }
        // Cycle 0 of each table, and every cycle sharing its digest (the
        // first base cycle of a digest donates), must be evaluated.
        let skipped: usize = target
            .per_submodule
            .iter()
            .map(|s| {
                let d = s.pattern_digests[0];
                s.pattern_digests.iter().filter(|&&x| x == d).count()
            })
            .sum();
        assert!(skipped > 0);
        assert_reuse(&model, &target, &donor, target.rows() - skipped);
    }

    #[test]
    fn reusing_evaluates_tables_whose_graph_or_precision_differ() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let trace = &bundle.gate_trace;
        let wide = model.embed_trace_with(
            &model.prepare(Precision::F64),
            &bundle.gate,
            &lib,
            &data,
            trace,
            2,
        );
        let narrow = model.embed_trace_with(
            &model.prepare(Precision::F32),
            &bundle.gate,
            &lib,
            &data,
            trace,
            2,
        );
        // Same digests and side rows, other storage precision: nothing
        // may be copied, in either direction.
        assert_reuse(&model, &wide, &narrow, 0);
        assert_reuse(&model, &narrow, &wide, 0);
        // One sub-module's graph fingerprint differs: only its rows are
        // evaluated.
        let mut donor = wide.clone();
        donor.per_submodule[0].graph_fp ^= 1;
        let moved = wide.per_submodule[0].sides.len();
        assert!(moved > 0);
        assert_reuse(&model, &wide, &donor, wide.rows() - moved);
    }

    #[test]
    fn reusing_a_shorter_or_longer_base_stays_exact() {
        use atlas_sim::{simulate, PhasedWorkload};
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let short = simulate(&bundle.gate, &mut PhasedWorkload::w1(1), 7).expect("simulates");
        let long = simulate(&bundle.gate, &mut PhasedWorkload::w1(1), 150).expect("simulates");
        for precision in [Precision::F64, Precision::F32] {
            let enc = model.prepare(precision);
            let short = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &short, 2);
            let long = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &long, 2);
            // A row is copied exactly when its digest occurs in the donor
            // and the first such donor cycle has bit-equal side features.
            let expected = |target: &TraceEmbeddings, donor: &TraceEmbeddings| -> usize {
                let donors = Donors::new(donor);
                target
                    .per_submodule
                    .iter()
                    .map(|s| {
                        let Some((b, first)) =
                            donors.table(s.submodule, s.graph_fp, s.embeddings.precision())
                        else {
                            return 0;
                        };
                        (0..s.sides.len())
                            .filter(|&t| {
                                first
                                    .get(&s.pattern_digests[t])
                                    .is_some_and(|&u| b.sides[u].to_bits() == s.sides[t].to_bits())
                            })
                            .count()
                    })
                    .sum()
            };
            let (grow, shrink) = (expected(&long, &short), expected(&short, &long));
            assert!(grow > 0 && grow < long.rows(), "{grow} of {}", long.rows());
            assert!(shrink > 0, "the longer base covers the shorter trace");
            assert_reuse(&model, &long, &short, grow);
            assert_reuse(&model, &short, &long, shrink);
        }
    }

    #[test]
    fn can_predict_rejects_misshapen_embeddings() {
        let (model, bundle, lib) = tiny_model();
        let data = build_submodule_data(&bundle.gate, &lib);
        let enc = model.prepare(Precision::F64);
        let emb = model.embed_trace_with(&enc, &bundle.gate, &lib, &data, &bundle.gate_trace, 2);
        assert!(model.can_predict(&emb));
        let mut short_sides = emb.clone();
        short_sides.per_submodule[0].sides.pop();
        let mut stray = emb.clone();
        stray.per_submodule[0].submodule = emb.n_submodules;
        let mut narrow_row = emb.clone();
        if let EmbeddingTable::F64(rows) = &mut narrow_row.per_submodule[0].embeddings {
            rows[0].pop();
        }
        for bad in [short_sides, stray, narrow_row] {
            assert!(!model.can_predict(&bad));
        }
    }

    #[test]
    fn json_roundtrip() {
        let (model, _, _) = tiny_model();
        let json = model.to_json().expect("serializes");
        let back = AtlasModel::from_json(&json).expect("parses");
        assert_eq!(model, back);
    }

    #[test]
    fn rejects_post_layout_input() {
        let (model, bundle, lib) = tiny_model();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = model.predict(&bundle.post, &lib, &bundle.post_trace);
        }));
        assert!(result.is_err());
    }
}
