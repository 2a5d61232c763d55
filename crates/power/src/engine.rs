//! The power computation engine.

use atlas_liberty::{CellClass, Library, PowerGroup};
use atlas_netlist::{CellId, Design, NetId, SinkPin};
use atlas_sim::ToggleTrace;

use crate::trace::PowerTrace;

/// Name of the CTS trunk sub-module whose clock power is redistributed
/// pro-rata over register-owning sub-modules (kept in sync with
/// `atlas_layout::cts::TRUNK_SUBMODULE`; duplicated to avoid a dependency
/// cycle).
const TRUNK_SUBMODULE: &str = "cts.trunk";

/// Precomputed per-design power model. Build once with
/// [`PowerModel::new`], then evaluate any number of toggle traces with
/// [`PowerModel::evaluate`]; [`compute_power`] is the one-shot shorthand.
#[derive(Debug, Clone)]
pub struct PowerModel<'a> {
    design: &'a Design,
    period_ns: f64,
    voltage: f64,
    /// Switched capacitance per net (pF): wire + sink pins.
    net_cap: Vec<f64>,
    /// Internal energy (pJ) per output toggle, per cell.
    cell_internal: Vec<f64>,
    cell_sm: Vec<u32>,
    cell_group: Vec<u8>,
    /// Constant watts per (sub-module, group) added every cycle:
    /// leakage + register clock-pin power + clock-tree power.
    baseline: Vec<f64>,
    /// Per-SRAM (in design id order): read/write watts when accessed.
    sram_cells: Vec<CellId>,
    sram_read_w: Vec<f64>,
    sram_write_w: Vec<f64>,
    sram_sm: Vec<u32>,
}

impl<'a> PowerModel<'a> {
    /// Precompute capacitances, internal energies, and per-cycle constants
    /// for `design` under `lib`.
    pub fn new(design: &'a Design, lib: &'a Library) -> PowerModel<'a> {
        let period_ns = lib.clock_period_ns();
        let voltage = lib.voltage();
        let to_w = 1e-3 / period_ns; // pJ per cycle → W
        let nsm = design.submodules().len();

        // --- Net capacitance: wire + sink pins ---
        let mut net_cap = vec![0.0f64; design.net_count()];
        for id in design.net_ids() {
            let net = design.net(id);
            let mut cap = net.wire_cap();
            for sink in net.sinks() {
                let cell = design.cell(sink.cell);
                if cell.class() == CellClass::Sram {
                    if let Some(m) = cell.sram().and_then(|c| lib.sram_at_least(c.words, c.bits)) {
                        cap += m.pin_cap();
                    }
                    continue;
                }
                if let Some(lc) = lib.cell(cell.class(), cell.drive()) {
                    cap += match sink.pin {
                        SinkPin::Input(_) | SinkPin::Reset => lc.input_cap(),
                        SinkPin::Clock => lc.clock_cap(),
                    };
                }
            }
            net_cap[id.index()] = cap;
        }

        // --- Per-cell internal energy per output toggle ---
        let est_slew = |net: NetId| -> f64 {
            match design.net(net).driver() {
                Some(d) => {
                    let c = design.cell(d);
                    lib.cell(c.class(), c.drive())
                        .map(|lc| lc.output_slew(net_cap[c.output().index()]))
                        .unwrap_or(0.05)
                }
                None => 0.05, // primary inputs arrive with a nominal slew
            }
        };
        let mut cell_internal = vec![0.0f64; design.cell_count()];
        let mut cell_sm = vec![0u32; design.cell_count()];
        let mut cell_group = vec![0u8; design.cell_count()];
        for id in design.cell_ids() {
            let cell = design.cell(id);
            cell_sm[id.index()] = cell.submodule().index() as u32;
            cell_group[id.index()] = cell.class().power_group().index() as u8;
            if cell.class() == CellClass::Sram {
                continue; // access energy handled per port event
            }
            if let Some(lc) = lib.cell(cell.class(), cell.drive()) {
                let load = net_cap[cell.output().index()];
                let slew = cell.inputs().first().map(|&n| est_slew(n)).unwrap_or(0.05);
                cell_internal[id.index()] = lc.switch_energy().lookup(slew, load);
            }
        }

        // --- Per-cycle constant baseline ---
        let mut baseline = vec![0.0f64; nsm * 4];
        let mut add = |sm: usize, group: PowerGroup, watts: f64| {
            baseline[sm * 4 + group.index()] += watts;
        };
        for id in design.cell_ids() {
            let cell = design.cell(id);
            let sm = cell.submodule().index();
            let group = cell.class().power_group();
            match cell.class() {
                CellClass::Sram => {
                    if let Some(m) = cell.sram().and_then(|c| lib.sram_at_least(c.words, c.bits)) {
                        add(sm, group, m.leakage() * 1e-9);
                    }
                }
                class => {
                    if let Some(lc) = lib.cell(class, cell.drive()) {
                        add(sm, group, lc.leakage() * 1e-9);
                        if class == CellClass::Dff || class == CellClass::Dffr {
                            // Clock-pin internal energy, every cycle.
                            add(sm, group, lc.clock_energy() * to_w);
                        }
                        if class == CellClass::Clk {
                            // The clock cone toggles twice per cycle:
                            // 2 × internal + full C·V² on the driven net.
                            add(sm, group, 2.0 * cell_internal[id.index()] * to_w);
                            let e_net = net_cap[cell.output().index()] * voltage * voltage;
                            add(sm, group, e_net * to_w);
                        }
                    }
                }
            }
        }
        // The clock root net: charged only when a clock tree exists (an
        // ideal clock at gate level carries no real wire).
        if let Some(root) = design.clock() {
            let root_sinks = design.net(root).sinks();
            let drives_tree = root_sinks
                .iter()
                .any(|s| design.cell(s.cell).class() == CellClass::Clk);
            if drives_tree {
                let sm = design.cell(root_sinks[0].cell).submodule().index();
                let e_net = net_cap[root.index()] * voltage * voltage;
                add(sm, PowerGroup::ClockTree, e_net * to_w);
            }
        }

        // --- Trunk redistribution: per-sub-module clock power must be
        // attributable to *gate-level* sub-modules. ---
        if let Some(trunk) = design
            .submodule_ids()
            .find(|&s| design.submodule(s).name() == TRUNK_SUBMODULE)
        {
            let trunk_idx = trunk.index();
            let trunk_ct = baseline[trunk_idx * 4 + PowerGroup::ClockTree.index()];
            if trunk_ct > 0.0 {
                let mut regs = vec![0usize; nsm];
                let mut total_regs = 0usize;
                for cell in design.cells() {
                    if matches!(cell.class(), CellClass::Dff | CellClass::Dffr) {
                        regs[cell.submodule().index()] += 1;
                        total_regs += 1;
                    }
                }
                if total_regs > 0 {
                    for (sm, &r) in regs.iter().enumerate() {
                        if r > 0 {
                            baseline[sm * 4 + PowerGroup::ClockTree.index()] +=
                                trunk_ct * r as f64 / total_regs as f64;
                        }
                    }
                    baseline[trunk_idx * 4 + PowerGroup::ClockTree.index()] = 0.0;
                }
            }
        }

        let sram_cells: Vec<CellId> = design
            .cell_ids()
            .filter(|&id| design.cell(id).class() == CellClass::Sram)
            .collect();
        let mut sram_read_w = Vec::with_capacity(sram_cells.len());
        let mut sram_write_w = Vec::with_capacity(sram_cells.len());
        let mut sram_sm = Vec::with_capacity(sram_cells.len());
        for &id in &sram_cells {
            let cell = design.cell(id);
            let m = cell.sram().and_then(|c| lib.sram_at_least(c.words, c.bits));
            sram_read_w.push(m.map(|m| m.read_energy() * to_w).unwrap_or(0.0));
            sram_write_w.push(m.map(|m| m.write_energy() * to_w).unwrap_or(0.0));
            sram_sm.push(cell.submodule().index() as u32);
        }

        PowerModel {
            design,
            period_ns,
            voltage,
            net_cap,
            cell_internal,
            cell_sm,
            cell_group,
            baseline,
            sram_cells,
            sram_read_w,
            sram_write_w,
            sram_sm,
        }
    }

    /// Switched capacitance (pF) of one net as the engine sees it.
    pub fn net_cap(&self, net: NetId) -> f64 {
        self.net_cap[net.index()]
    }

    /// Evaluate a toggle trace into a per-cycle power trace.
    ///
    /// # Panics
    ///
    /// Panics if `trace` was simulated on a structurally different design
    /// (SRAM ordering is used as the consistency check).
    pub fn evaluate(&self, trace: &ToggleTrace) -> PowerTrace {
        assert_eq!(
            trace.sram_cells(),
            &self.sram_cells[..],
            "toggle trace does not belong to this design"
        );
        let design = self.design;
        let nsm = design.submodules().len();
        let mut out = PowerTrace::new(
            design.name().to_owned(),
            trace.workload().to_owned(),
            trace.cycles(),
            nsm,
        );
        let to_w = 1e-3 / self.period_ns;
        let half_v2 = 0.5 * self.voltage * self.voltage;

        for t in 0..trace.cycles() {
            // Constants: leakage, register clock pins, clock tree.
            for sm in 0..nsm {
                for g in 0..4 {
                    let w = self.baseline[sm * 4 + g];
                    if w != 0.0 {
                        out.add(t, sm, g, w);
                    }
                }
            }
            // Event-driven: switching + internal on toggled nets.
            for net in trace.toggled_nets(t) {
                let Some(driver) = design.net(net).driver() else {
                    continue; // primary-input nets are charged to the testbench
                };
                let di = driver.index();
                let e_pj = half_v2 * self.net_cap[net.index()] + self.cell_internal[di];
                out.add(
                    t,
                    self.cell_sm[di] as usize,
                    self.cell_group[di] as usize,
                    e_pj * to_w,
                );
            }
            // SRAM port events.
            for (idx, _) in self.sram_cells.iter().enumerate() {
                let sm = self.sram_sm[idx] as usize;
                if trace.sram_read(t, idx) {
                    out.add(t, sm, PowerGroup::Memory.index(), self.sram_read_w[idx]);
                }
                if trace.sram_write(t, idx) {
                    out.add(t, sm, PowerGroup::Memory.index(), self.sram_write_w[idx]);
                }
            }
        }
        out
    }
}

/// One-shot: build the model and evaluate the trace.
pub fn compute_power(design: &Design, lib: &Library, trace: &ToggleTrace) -> PowerTrace {
    PowerModel::new(design, lib).evaluate(trace)
}

#[cfg(test)]
mod tests {
    use atlas_designs::DesignConfig;
    use atlas_layout::{run_layout, LayoutConfig};
    use atlas_sim::{simulate, ConstantWorkload, PhasedWorkload};

    use super::*;
    use crate::metrics::mape;

    fn gate_and_layout() -> (Design, Design) {
        let gate = DesignConfig::tiny().generate();
        let lib = Library::synthetic_40nm();
        let post = run_layout(&gate, &lib, &LayoutConfig::default()).design;
        (gate, post)
    }

    #[test]
    fn gate_level_has_no_clock_tree_power() {
        let (gate, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let tg = simulate(&gate, &mut PhasedWorkload::w1(1), 32).expect("simulates");
        let tp = simulate(&post, &mut PhasedWorkload::w1(1), 32).expect("simulates");
        let pg = compute_power(&gate, &lib, &tg);
        let pp = compute_power(&post, &lib, &tp);
        for t in 0..32 {
            assert_eq!(pg.group_total(t, PowerGroup::ClockTree), 0.0);
            assert!(pp.group_total(t, PowerGroup::ClockTree) > 0.0);
        }
    }

    #[test]
    fn post_layout_combinational_power_exceeds_gate_level() {
        let (gate, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let tg = simulate(&gate, &mut PhasedWorkload::w1(1), 64).expect("simulates");
        let tp = simulate(&post, &mut PhasedWorkload::w1(1), 64).expect("simulates");
        let pg = compute_power(&gate, &lib, &tg);
        let pp = compute_power(&post, &lib, &tp);
        let comb_gate = pg.mean_group(PowerGroup::Combinational);
        let comb_post = pp.mean_group(PowerGroup::Combinational);
        assert!(
            comb_post > comb_gate * 1.5,
            "wire caps + buffers must grow comb power: gate={comb_gate:.3e} post={comb_post:.3e}"
        );
    }

    #[test]
    fn register_power_is_stage_stable() {
        // Register power is dominated by clock-pin internal energy, which
        // exists at both stages (paper: 2.3% gate-level register MAPE).
        let (gate, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let tg = simulate(&gate, &mut PhasedWorkload::w1(1), 64).expect("simulates");
        let tp = simulate(&post, &mut PhasedWorkload::w1(1), 64).expect("simulates");
        let pg = compute_power(&gate, &lib, &tg);
        let pp = compute_power(&post, &lib, &tp);
        let err = mape(
            &pp.group_series(PowerGroup::Register),
            &pg.group_series(PowerGroup::Register),
        );
        assert!(
            err < 25.0,
            "register group gate-vs-layout MAPE {err:.1}% too large"
        );
    }

    #[test]
    fn clock_tree_power_is_nearly_constant() {
        let (_, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let tp = simulate(&post, &mut PhasedWorkload::w1(1), 64).expect("simulates");
        let pp = compute_power(&post, &lib, &tp);
        let ct = pp.group_series(PowerGroup::ClockTree);
        let min = ct.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ct.iter().cloned().fold(0.0, f64::max);
        assert!(max > 0.0);
        assert!(
            (max - min) / max < 1e-9,
            "ungated tree power must be constant"
        );
    }

    #[test]
    fn activity_modulates_combinational_power() {
        let (_, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let hot = simulate(&post, &mut ConstantWorkload::new(0.4, 5), 64).expect("simulates");
        let cold = simulate(&post, &mut ConstantWorkload::new(0.01, 5), 64).expect("simulates");
        let ph = compute_power(&post, &lib, &hot);
        let pc = compute_power(&post, &lib, &cold);
        assert!(
            ph.mean_group(PowerGroup::Combinational)
                > pc.mean_group(PowerGroup::Combinational) * 1.5
        );
    }

    #[test]
    fn idle_design_still_burns_leakage_and_clock() {
        let (_, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let idle = simulate(&post, &mut ConstantWorkload::new(0.0, 1), 8).expect("simulates");
        let p = compute_power(&post, &lib, &idle);
        for t in 0..8 {
            assert!(p.total(t) > 0.0, "leakage + clock power never sleeps");
        }
    }

    #[test]
    fn memory_power_follows_accesses() {
        let (_, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let hot = simulate(&post, &mut ConstantWorkload::new(0.4, 5), 64).expect("simulates");
        let cold = simulate(&post, &mut ConstantWorkload::new(0.0, 5), 64).expect("simulates");
        let ph = compute_power(&post, &lib, &hot);
        let pc = compute_power(&post, &lib, &cold);
        assert!(ph.mean_group(PowerGroup::Memory) > pc.mean_group(PowerGroup::Memory));
    }

    #[test]
    fn submodule_power_sums_to_group_totals() {
        let (_, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let tr = simulate(&post, &mut PhasedWorkload::w1(2), 16).expect("simulates");
        let p = compute_power(&post, &lib, &tr);
        for t in 0..16 {
            for g in PowerGroup::ALL {
                let by_sm: f64 = post.submodule_ids().map(|sm| p.at(t, sm, g)).sum();
                let total = p.group_total(t, g);
                assert!((by_sm - total).abs() <= 1e-12 + total * 1e-9);
            }
        }
    }

    #[test]
    fn trunk_clock_power_redistributed() {
        let (_, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let tr = simulate(&post, &mut PhasedWorkload::w1(2), 8).expect("simulates");
        let p = compute_power(&post, &lib, &tr);
        let trunk = post
            .submodule_ids()
            .find(|&s| post.submodule(s).name() == "cts.trunk")
            .expect("layout created a trunk");
        assert_eq!(p.at(0, trunk, PowerGroup::ClockTree), 0.0);
        // Component rollup: the `cts` pseudo-component carries ~nothing.
        let comps = p.component_means(&post);
        let cts = comps
            .iter()
            .find(|(n, _)| n == "cts")
            .expect("cts component exists");
        let total: f64 = comps.iter().map(|(_, w)| w).sum();
        assert!(
            cts.1 < total * 0.01,
            "cts component should be ~empty after redistribution"
        );
    }

    #[test]
    fn component_rollup_covers_non_memory_total() {
        let (_, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let tr = simulate(&post, &mut PhasedWorkload::w1(2), 16).expect("simulates");
        let p = compute_power(&post, &lib, &tr);
        let comps = p.component_means(&post);
        let sum: f64 = comps.iter().map(|(_, w)| w).sum();
        let mean = p.mean_non_memory();
        assert!(
            (sum - mean).abs() < mean * 1e-9,
            "components partition the design"
        );
    }

    #[test]
    fn trace_design_mismatch_panics() {
        let (gate, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let tg = simulate(&gate, &mut PhasedWorkload::w1(1), 8).expect("simulates");
        let model = PowerModel::new(&post, &lib);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = model.evaluate(&tg);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn memory_is_a_large_power_share() {
        // The paper notes SRAM is ~half of total power; our synthetic
        // designs should at least make it a substantial share.
        let (_, post) = gate_and_layout();
        let lib = Library::synthetic_40nm();
        let tr = simulate(&post, &mut PhasedWorkload::w1(3), 64).expect("simulates");
        let p = compute_power(&post, &lib, &tr);
        let mem = p.mean_group(PowerGroup::Memory);
        let total: f64 = PowerGroup::ALL.iter().map(|&g| p.mean_group(g)).sum();
        assert!(
            mem / total > 0.05,
            "memory share {:.1}% too small",
            100.0 * mem / total
        );
    }
}
