//! Sub-module graph features and masking (paper §III-C, §IV tasks ①/②).

use std::sync::Arc;

use atlas_liberty::{CellClass, Library};
use atlas_netlist::detrng::DetRng;
use atlas_netlist::{CellId, Design, SubmoduleId};
use atlas_nn::{Matrix, SparseAdj};
use atlas_sim::ToggleTrace;

/// Total node-feature width: 18-way type one-hot, toggle, internal energy,
/// leakage, input capacitance, toggle-mask flag, type-mask flag.
pub const FEATURE_DIM: usize = CellClass::COUNT + 6;

/// Feature channel of the per-cycle toggle bit.
pub const TOGGLE_CHANNEL: usize = CellClass::COUNT;
const INTERNAL_CHANNEL: usize = CellClass::COUNT + 1;
const LEAKAGE_CHANNEL: usize = CellClass::COUNT + 2;
const CAP_CHANNEL: usize = CellClass::COUNT + 3;
/// The `[MASK_TOGGLE]` token channel.
pub const MASK_TOGGLE_CHANNEL: usize = CellClass::COUNT + 4;
/// The `[MASK_NODE_TYPE]` token channel.
pub const MASK_TYPE_CHANNEL: usize = CellClass::COUNT + 5;

// Scale factors that bring raw library values to O(1).
const INTERNAL_SCALE: f64 = 400.0; // pJ → ~0.3..4
const LEAKAGE_SCALE: f64 = 1.0 / 60.0; // nW → ~0.1..1.5
const CAP_SCALE: f64 = 250.0; // pF → ~0.3..2

/// FNV-1a over a byte stream — the crate-local copy of the hash every
/// ATLAS fingerprint uses (the serve crate carries its own for wire-level
/// keys). 64-bit output; collisions are treated as negligible wherever a
/// fingerprint gates reuse, and every such site documents that.
pub(crate) fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// One sub-module prepared for encoding: its graph, static per-node
/// features (everything except the per-cycle toggle), and bookkeeping.
#[derive(Debug, Clone)]
pub struct SubmoduleData {
    submodule: SubmoduleId,
    adj: Arc<SparseAdj>,
    cells: Vec<CellId>,
    static_feats: Matrix,
    class_idx: Vec<u8>,
    graph_fp: u64,
}

impl SubmoduleData {
    /// The sub-module this data describes.
    pub fn submodule(&self) -> SubmoduleId {
        self.submodule
    }

    /// Normalized adjacency of the sub-module graph.
    pub fn adj(&self) -> &Arc<SparseAdj> {
        &self.adj
    }

    /// Global cell ids of the nodes, in node order.
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.cells.len()
    }

    /// Class index (one-hot position) of each node.
    pub fn class_indices(&self) -> &[u8] {
        &self.class_idx
    }

    /// Structural fingerprint of everything the encoder's output depends
    /// on besides the per-cycle toggle pattern: the sub-module identity,
    /// its cells and their classes, the static feature matrix (bit-exact),
    /// and the full CSR adjacency structure. Two `SubmoduleData` with
    /// equal fingerprints produce identical encoder rows for identical
    /// toggle patterns, which is what lets the delta path reuse cached
    /// embedding rows across design edits (64-bit collisions treated as
    /// negligible).
    pub fn structural_fingerprint(&self) -> u64 {
        self.graph_fp
    }

    /// Node features for one cycle: the static features with the toggle
    /// channel filled from the trace.
    pub fn features_for_cycle(&self, design: &Design, trace: &ToggleTrace, cycle: usize) -> Matrix {
        let mut f = self.static_feats.clone();
        for (i, &cell) in self.cells.iter().enumerate() {
            if trace.cell_toggled(design, cycle, cell) {
                f.set(i, TOGGLE_CHANNEL, 1.0);
            }
        }
        f
    }

    /// The static features with the toggle channel filled from a packed
    /// bitset (bit `i` set = node `i` toggled) — the hand-off used by the
    /// toggle-pattern dedup path, which already owns each unique cycle's
    /// bitset and so avoids a second trace scan per unique cycle.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not `node_count() * FEATURE_DIM` long or
    /// `toggles` has fewer than `node_count()` bits.
    pub fn write_features_from_bits(&self, toggles: &[u64], dst: &mut [f64]) {
        dst.copy_from_slice(self.static_feats.as_slice());
        for i in 0..self.cells.len() {
            if toggles[i / 64] & (1 << (i % 64)) != 0 {
                dst[i * FEATURE_DIM + TOGGLE_CHANNEL] = 1.0;
            }
        }
    }

    /// Masked features for pre-training tasks ① and ②: a fraction of the
    /// nodes have their toggle bit replaced by the `[MASK_TOGGLE]` token,
    /// and a *disjoint* fraction their type one-hot by `[MASK_NODE_TYPE]`.
    ///
    /// Returns `(features, toggle_masked_nodes, toggle_labels,
    /// type_masked_nodes, type_labels)`.
    pub fn masked_features(
        &self,
        design: &Design,
        trace: &ToggleTrace,
        cycle: usize,
        mask_frac: f64,
        rng: &mut DetRng,
    ) -> MaskedFeatures {
        let mut f = self.features_for_cycle(design, trace, cycle);
        let n = self.node_count();
        let mut toggle_nodes = Vec::new();
        let mut toggle_labels = Vec::new();
        let mut type_nodes = Vec::new();
        let mut type_labels = Vec::new();
        for i in 0..n {
            if rng.chance(mask_frac) {
                // Mask the toggle bit.
                toggle_labels.push(f.get(i, TOGGLE_CHANNEL) as usize);
                toggle_nodes.push(i);
                f.set(i, TOGGLE_CHANNEL, 0.0);
                f.set(i, MASK_TOGGLE_CHANNEL, 1.0);
            } else if rng.chance(mask_frac) {
                // Mask the node type.
                type_labels.push(self.class_idx[i] as usize);
                type_nodes.push(i);
                for c in 0..CellClass::COUNT {
                    f.set(i, c, 0.0);
                }
                f.set(i, MASK_TYPE_CHANNEL, 1.0);
            }
        }
        MaskedFeatures {
            features: f,
            toggle_nodes,
            toggle_labels,
            type_nodes,
            type_labels,
        }
    }
}

/// Output of [`SubmoduleData::masked_features`].
#[derive(Debug, Clone)]
pub struct MaskedFeatures {
    /// Node features with mask tokens applied.
    pub features: Matrix,
    /// Node indices whose toggle was masked.
    pub toggle_nodes: Vec<usize>,
    /// Ground-truth toggle (0/1) of those nodes.
    pub toggle_labels: Vec<usize>,
    /// Node indices whose type was masked.
    pub type_nodes: Vec<usize>,
    /// Ground-truth class index of those nodes.
    pub type_labels: Vec<usize>,
}

/// Build [`SubmoduleData`] for every sub-module of a design.
///
/// Sub-modules with zero cells (possible after layout adds empty
/// bookkeeping sub-modules) are skipped.
///
/// # Examples
///
/// ```
/// use atlas_core::features::build_submodule_data;
/// use atlas_designs::DesignConfig;
/// use atlas_liberty::Library;
///
/// let d = DesignConfig::tiny().generate();
/// let data = build_submodule_data(&d, &Library::synthetic_40nm());
/// let nodes: usize = data.iter().map(|s| s.node_count()).sum();
/// assert_eq!(nodes, d.cell_count());
/// ```
pub fn build_submodule_data(design: &Design, lib: &Library) -> Vec<SubmoduleData> {
    let graphs = design.submodule_graphs();
    let mut out = Vec::with_capacity(graphs.len());
    for g in graphs {
        if g.node_count() == 0 {
            continue;
        }
        let n = g.node_count();
        let adj = Arc::new(SparseAdj::normalized_from_edges(n, g.edges()));
        let mut feats = Matrix::zeros(n, FEATURE_DIM);
        let mut class_idx = Vec::with_capacity(n);
        for (i, &cell_id) in g.cells().iter().enumerate() {
            let cell = design.cell(cell_id);
            let class = cell.class();
            class_idx.push(class.index() as u8);
            feats.set(i, class.index(), 1.0);
            if class == CellClass::Sram {
                if let Some(m) = cell.sram().and_then(|c| lib.sram_at_least(c.words, c.bits)) {
                    // Per-access energy plays the internal-power role.
                    feats.set(i, INTERNAL_CHANNEL, m.read_energy() * INTERNAL_SCALE * 0.01);
                    feats.set(i, LEAKAGE_CHANNEL, m.leakage() * LEAKAGE_SCALE * 0.01);
                    feats.set(i, CAP_CHANNEL, m.pin_cap() * CAP_SCALE);
                }
            } else if let Some(lc) = lib.cell(class, cell.drive()) {
                feats.set(
                    i,
                    INTERNAL_CHANNEL,
                    lc.switch_energy().mean() * INTERNAL_SCALE,
                );
                feats.set(i, LEAKAGE_CHANNEL, lc.leakage() * LEAKAGE_SCALE);
                feats.set(i, CAP_CHANNEL, lc.total_input_cap() * CAP_SCALE);
            }
        }
        // Everything the encoder sees besides the toggle channel, plus
        // the cell identities (so two coincidentally-identical graphs in
        // different sub-modules still fingerprint apart only if their
        // content differs — same content is exactly the reuse we want).
        let fp_bytes = g
            .submodule()
            .index()
            .to_le_bytes()
            .into_iter()
            .chain(n.to_le_bytes())
            .chain(g.cells().iter().flat_map(|c| c.index().to_le_bytes()))
            .chain(class_idx.iter().copied())
            .chain(
                feats
                    .as_slice()
                    .iter()
                    .flat_map(|v| v.to_bits().to_le_bytes()),
            )
            .chain(adj.row_offsets().iter().flat_map(|v| v.to_le_bytes()))
            .chain(adj.col_indices().iter().flat_map(|v| v.to_le_bytes()));
        let graph_fp = fnv1a64(fp_bytes);
        out.push(SubmoduleData {
            submodule: g.submodule(),
            adj,
            cells: g.cells().to_vec(),
            static_feats: feats,
            class_idx,
            graph_fp,
        });
    }
    out
}

/// Toggle-weighted side features of one sub-module in one cycle
/// (paper §V): for each of the combinational and register groups, the
/// node count `n`, toggle-weighted internal energy `I`, and
/// toggle-weighted capacitance `C`.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SideFeatures {
    /// Combinational cell count.
    pub n_comb: f64,
    /// Toggle-weighted combinational internal energy (pJ).
    pub i_comb: f64,
    /// Toggle-weighted combinational capacitance (pF).
    pub c_comb: f64,
    /// Register cell count.
    pub n_reg: f64,
    /// Toggle-weighted register internal energy (pJ).
    pub i_reg: f64,
    /// Toggle-weighted register capacitance (pF).
    pub c_reg: f64,
    /// Energy-weighted SRAM reads this cycle (pJ, from the macro LUTs).
    pub mem_reads: f64,
    /// Energy-weighted SRAM writes this cycle (pJ).
    pub mem_writes: f64,
    /// Total SRAM leakage (nW, from the macro datasheets).
    pub mem_bits: f64,
}

impl SideFeatures {
    /// Every field's bit pattern, in declaration order. Equal arrays mean
    /// the heads read identical inputs — unlike `==`, which equates `0.0`
    /// with `-0.0` and never matches a NaN.
    pub fn to_bits(&self) -> [u64; 9] {
        [
            self.n_comb,
            self.i_comb,
            self.c_comb,
            self.n_reg,
            self.i_reg,
            self.c_reg,
            self.mem_reads,
            self.mem_writes,
            self.mem_bits,
        ]
        .map(f64::to_bits)
    }
}

/// Per-cell class/energy data of one sub-module, resolved against the
/// library **once** so per-cycle side features are a single pass over the
/// cells with no hash lookups. [`side_features`] resolves the same data
/// per call; building a `SideTable` per sub-module amortizes that over a
/// whole trace (the serving path embeds hundreds of cycles per
/// sub-module).
#[derive(Debug, Clone)]
pub struct SideTable {
    /// `(cell, group, switch_energy_mean, input_cap)` per node;
    /// group: 0 = combinational, 1 = register, 2 = SRAM.
    cells: Vec<(CellId, u8, f64, f64)>,
    /// `(trace_sram_index, read_energy, write_energy)` per SRAM node;
    /// `usize::MAX` marks an SRAM absent from the trace's SRAM list.
    srams: Vec<(usize, f64, f64)>,
    /// Total SRAM leakage (constant per cycle).
    mem_bits: f64,
    /// Combinational / register node counts (constant per cycle).
    n_comb: f64,
    n_reg: f64,
}

impl SideTable {
    /// Resolve one sub-module's cells against the design, library, and
    /// trace.
    pub fn new(
        data: &SubmoduleData,
        design: &Design,
        lib: &Library,
        trace: &ToggleTrace,
    ) -> SideTable {
        let sram_index: std::collections::HashMap<CellId, usize> = trace
            .sram_cells()
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect();
        let mut table = SideTable {
            cells: Vec::with_capacity(data.cells.len()),
            srams: Vec::new(),
            mem_bits: 0.0,
            n_comb: 0.0,
            n_reg: 0.0,
        };
        for &cell_id in &data.cells {
            let cell = design.cell(cell_id);
            let class = cell.class();
            match class {
                CellClass::Sram => {
                    let macro_ = cell.sram().and_then(|c| lib.sram_at_least(c.words, c.bits));
                    if let Some(m) = macro_ {
                        table.mem_bits += m.leakage();
                    }
                    let idx = sram_index.get(&cell_id).copied().unwrap_or(usize::MAX);
                    table.srams.push((
                        idx,
                        macro_.map(|m| m.read_energy()).unwrap_or(1.0),
                        macro_.map(|m| m.write_energy()).unwrap_or(1.0),
                    ));
                }
                CellClass::Dff | CellClass::Dffr => {
                    table.n_reg += 1.0;
                    let (i, c) = lib
                        .cell(class, cell.drive())
                        .map(|lc| (lc.switch_energy().mean(), lc.total_input_cap()))
                        .unwrap_or((0.0, 0.0));
                    table.cells.push((cell_id, 1, i, c));
                }
                _ => {
                    table.n_comb += 1.0;
                    let (i, c) = lib
                        .cell(class, cell.drive())
                        .map(|lc| (lc.switch_energy().mean(), lc.total_input_cap()))
                        .unwrap_or((0.0, 0.0));
                    table.cells.push((cell_id, 0, i, c));
                }
            }
        }
        table
    }

    /// [`SideFeatures`] for one cycle — identical to [`side_features`]
    /// (the arithmetic accumulates the same values in the same cell
    /// order), paying only toggle tests.
    pub fn side_features(
        &self,
        design: &Design,
        trace: &ToggleTrace,
        cycle: usize,
    ) -> SideFeatures {
        let mut s = SideFeatures {
            n_comb: self.n_comb,
            n_reg: self.n_reg,
            mem_bits: self.mem_bits,
            ..SideFeatures::default()
        };
        for &(cell_id, group, i, c) in &self.cells {
            if trace.cell_toggled(design, cycle, cell_id) {
                if group == 1 {
                    s.i_reg += i;
                    s.c_reg += c;
                } else {
                    s.i_comb += i;
                    s.c_comb += c;
                }
            }
        }
        for &(idx, read, write) in &self.srams {
            if idx != usize::MAX {
                if trace.sram_read(cycle, idx) {
                    s.mem_reads += read;
                }
                if trace.sram_write(cycle, idx) {
                    s.mem_writes += write;
                }
            }
        }
        s
    }
}

/// Compute [`SideFeatures`] for one sub-module and cycle from gate-level
/// information only. For whole-trace work prefer building a [`SideTable`]
/// once and querying it per cycle.
pub fn side_features(
    data: &SubmoduleData,
    design: &Design,
    lib: &Library,
    trace: &ToggleTrace,
    cycle: usize,
) -> SideFeatures {
    let mut s = SideFeatures::default();
    let sram_index: std::collections::HashMap<CellId, usize> = trace
        .sram_cells()
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i))
        .collect();
    for &cell_id in &data.cells {
        let cell = design.cell(cell_id);
        let class = cell.class();
        match class {
            CellClass::Sram => {
                let macro_ = cell.sram().and_then(|c| lib.sram_at_least(c.words, c.bits));
                if let Some(m) = macro_ {
                    s.mem_bits += m.leakage();
                }
                if let Some(&idx) = sram_index.get(&cell_id) {
                    if trace.sram_read(cycle, idx) {
                        s.mem_reads += macro_.map(|m| m.read_energy()).unwrap_or(1.0);
                    }
                    if trace.sram_write(cycle, idx) {
                        s.mem_writes += macro_.map(|m| m.write_energy()).unwrap_or(1.0);
                    }
                }
            }
            CellClass::Dff | CellClass::Dffr => {
                s.n_reg += 1.0;
                if trace.cell_toggled(design, cycle, cell_id) {
                    if let Some(lc) = lib.cell(class, cell.drive()) {
                        s.i_reg += lc.switch_energy().mean();
                        s.c_reg += lc.total_input_cap();
                    }
                }
            }
            _ => {
                s.n_comb += 1.0;
                if trace.cell_toggled(design, cycle, cell_id) {
                    if let Some(lc) = lib.cell(class, cell.drive()) {
                        s.i_comb += lc.switch_energy().mean();
                        s.c_comb += lc.total_input_cap();
                    }
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use atlas_designs::DesignConfig;
    use atlas_sim::{simulate, PhasedWorkload};

    use super::*;

    fn setup() -> (Design, Library, ToggleTrace, Vec<SubmoduleData>) {
        let d = DesignConfig::tiny().generate();
        let lib = Library::synthetic_40nm();
        let trace = simulate(&d, &mut PhasedWorkload::w1(1), 16).expect("simulates");
        let data = build_submodule_data(&d, &lib);
        (d, lib, trace, data)
    }

    #[test]
    fn partition_covers_all_cells() {
        let (d, _, _, data) = setup();
        let total: usize = data.iter().map(|s| s.node_count()).sum();
        assert_eq!(total, d.cell_count());
    }

    #[test]
    fn one_hot_is_exact() {
        let (d, _, _, data) = setup();
        for sm in &data {
            for (i, &cell) in sm.cells().iter().enumerate() {
                let class = d.cell(cell).class();
                let mut f = sm.static_feats.clone();
                // Exactly one type channel set.
                let ones: usize = (0..CellClass::COUNT)
                    .filter(|&c| f.get(i, c) == 1.0)
                    .count();
                assert_eq!(ones, 1);
                assert_eq!(f.get(i, class.index()), 1.0);
                // Mask channels start clear.
                assert_eq!(f.get(i, MASK_TOGGLE_CHANNEL), 0.0);
                f.set(i, 0, f.get(i, 0)); // silence unused-mut style concerns
            }
        }
    }

    #[test]
    fn toggle_channel_tracks_trace() {
        let (d, _, trace, data) = setup();
        for sm in data.iter().take(3) {
            let f = sm.features_for_cycle(&d, &trace, 5);
            for (i, &cell) in sm.cells().iter().enumerate() {
                let expect = trace.cell_toggled(&d, 5, cell);
                assert_eq!(f.get(i, TOGGLE_CHANNEL) == 1.0, expect);
            }
        }
    }

    #[test]
    fn masking_hides_and_labels() {
        let (d, _, trace, data) = setup();
        let sm = data
            .iter()
            .max_by_key(|s| s.node_count())
            .expect("nonempty");
        let mut rng = DetRng::new(3);
        let m = sm.masked_features(&d, &trace, 4, 0.3, &mut rng);
        assert!(!m.toggle_nodes.is_empty(), "some toggles masked");
        assert!(!m.type_nodes.is_empty(), "some types masked");
        for (&node, &label) in m.toggle_nodes.iter().zip(&m.toggle_labels) {
            assert_eq!(m.features.get(node, TOGGLE_CHANNEL), 0.0);
            assert_eq!(m.features.get(node, MASK_TOGGLE_CHANNEL), 1.0);
            let actual = trace.cell_toggled(&d, 4, sm.cells()[node]) as usize;
            assert_eq!(label, actual);
        }
        for (&node, &label) in m.type_nodes.iter().zip(&m.type_labels) {
            for c in 0..CellClass::COUNT {
                assert_eq!(m.features.get(node, c), 0.0);
            }
            assert_eq!(m.features.get(node, MASK_TYPE_CHANNEL), 1.0);
            assert_eq!(label, sm.class_indices()[node] as usize);
        }
        // Disjoint masks.
        for t in &m.toggle_nodes {
            assert!(!m.type_nodes.contains(t));
        }
    }

    #[test]
    fn side_features_scale_with_activity() {
        let (d, lib, _, data) = setup();
        let hot = simulate(&d, &mut atlas_sim::ConstantWorkload::new(0.45, 2), 16).expect("ok");
        let cold = simulate(&d, &mut atlas_sim::ConstantWorkload::new(0.0, 2), 16).expect("ok");
        let sm = data
            .iter()
            .max_by_key(|s| s.node_count())
            .expect("nonempty");
        let sh = side_features(sm, &d, &lib, &hot, 10);
        let sc = side_features(sm, &d, &lib, &cold, 10);
        assert!(sh.i_comb >= sc.i_comb);
        assert_eq!(sh.n_comb, sc.n_comb, "counts are activity-independent");
    }

    /// The per-trace [`SideTable`] the embed core uses is the per-call
    /// [`side_features`] bit for bit, memory fields included.
    #[test]
    fn side_table_matches_free_side_features() {
        use atlas_layout::LayoutConfig;

        use crate::bundle::DesignBundle;

        let lib = Library::synthetic_40nm();
        let b = DesignBundle::prepare(
            &DesignConfig::tiny(),
            &lib,
            &LayoutConfig::default(),
            "W1",
            10,
        );
        let trace = &b.gate_trace;
        let (reads, writes) = trace
            .sram_access_counts()
            .into_iter()
            .fold((0, 0), |(r, w), (dr, dw)| (r + dr, w + dw));
        assert!(
            reads > 0 && writes > 0,
            "the trace must exercise SRAM ports"
        );
        let (mut read_energy, mut write_energy) = (0.0, 0.0);
        for sm in &b.gate_data {
            let table = SideTable::new(sm, &b.gate, &lib, trace);
            for t in 0..trace.cycles() {
                let got = table.side_features(&b.gate, trace, t);
                assert_eq!(
                    got.to_bits(),
                    side_features(sm, &b.gate, &lib, trace, t).to_bits(),
                    "sub-module {} cycle {t}",
                    sm.submodule().index()
                );
                read_energy += got.mem_reads;
                write_energy += got.mem_writes;
            }
        }
        assert!(read_energy > 0.0 && write_energy > 0.0);
    }

    #[test]
    fn feature_values_are_order_one() {
        let (_, _, _, data) = setup();
        for sm in &data {
            for v in sm.static_feats.as_slice() {
                assert!(v.abs() < 50.0, "unscaled feature {v}");
            }
        }
    }
}
