//! Per-cycle switching-activity traces.

use atlas_netlist::{CellId, Design, NetId};
use serde::{Deserialize, Serialize};

use crate::bitgrid::BitGrid;

/// The result of simulating a workload: one toggle bit per (cycle, net),
/// plus exact per-cycle SRAM port activity.
///
/// This is the `.vcd`-equivalent artifact the rest of the flow consumes:
/// the golden power engine turns it into per-cycle power, and ATLAS turns
/// it into per-node toggle features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToggleTrace {
    workload: String,
    cycles: usize,
    net_toggles: BitGrid,
    sram_cells: Vec<CellId>,
    sram_reads: BitGrid,
    sram_writes: BitGrid,
}

impl ToggleTrace {
    pub(crate) fn new(
        workload: String,
        cycles: usize,
        net_toggles: BitGrid,
        sram_cells: Vec<CellId>,
        sram_reads: BitGrid,
        sram_writes: BitGrid,
    ) -> ToggleTrace {
        ToggleTrace {
            workload,
            cycles,
            net_toggles,
            sram_cells,
            sram_reads,
            sram_writes,
        }
    }

    /// Name of the workload that produced this trace.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Number of simulated cycles.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Whether `net` changed value during `cycle`.
    pub fn net_toggled(&self, cycle: usize, net: NetId) -> bool {
        self.net_toggles.get(cycle, net.index())
    }

    /// Whether `cell`'s output changed value during `cycle`.
    pub fn cell_toggled(&self, design: &Design, cycle: usize, cell: CellId) -> bool {
        self.net_toggled(cycle, design.cell(cell).output())
    }

    /// Total number of cycles in which `net` toggled.
    pub fn toggle_count(&self, net: NetId) -> usize {
        self.net_toggles.count_col(net.index())
    }

    /// Number of nets that toggled in each cycle.
    pub fn per_cycle_counts(&self) -> Vec<usize> {
        (0..self.cycles)
            .map(|t| self.net_toggles.count_row(t))
            .collect()
    }

    /// Iterate the nets that toggled in `cycle`.
    pub fn toggled_nets(&self, cycle: usize) -> impl Iterator<Item = NetId> + '_ {
        self.net_toggles.row_ones(cycle).map(NetId::from_index)
    }

    /// The SRAM cells tracked by this trace, in port-activity index order.
    pub fn sram_cells(&self) -> &[CellId] {
        &self.sram_cells
    }

    /// Whether SRAM `idx` (position in [`sram_cells`](Self::sram_cells))
    /// performed a read during `cycle`.
    pub fn sram_read(&self, cycle: usize, idx: usize) -> bool {
        self.sram_reads.get(cycle, idx)
    }

    /// Whether SRAM `idx` performed a write during `cycle`.
    pub fn sram_write(&self, cycle: usize, idx: usize) -> bool {
        self.sram_writes.get(cycle, idx)
    }

    /// Per-cycle (reads, writes) totals across all SRAMs.
    pub fn sram_access_counts(&self) -> Vec<(usize, usize)> {
        (0..self.cycles)
            .map(|t| (self.sram_reads.count_row(t), self.sram_writes.count_row(t)))
            .collect()
    }

    /// The sub-trace of the given cycles, in the given order: its cycle
    /// `i` is this trace's cycle `cycles[i]` (repeats allowed), over the
    /// same nets and SRAMs.
    ///
    /// # Panics
    ///
    /// Panics if any selected cycle is out of range.
    pub fn select_cycles(&self, cycles: &[usize]) -> ToggleTrace {
        let pick = |grid: &BitGrid| {
            let mut out = BitGrid::new(cycles.len(), grid.cols());
            for (i, &t) in cycles.iter().enumerate() {
                assert!(t < self.cycles, "cycle {t} out of range");
                for col in grid.row_ones(t) {
                    out.set(i, col, true);
                }
            }
            out
        };
        ToggleTrace {
            workload: self.workload.clone(),
            cycles: cycles.len(),
            net_toggles: pick(&self.net_toggles),
            sram_cells: self.sram_cells.clone(),
            sram_reads: pick(&self.sram_reads),
            sram_writes: pick(&self.sram_writes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 9-cycle trace over 70 nets (two bit-grid words) and 3 SRAMs,
    /// every cycle's rows distinct.
    fn sample() -> ToggleTrace {
        let (cycles, nets, srams) = (9, 70, 3);
        let mut toggles = BitGrid::new(cycles, nets);
        let mut reads = BitGrid::new(cycles, srams);
        let mut writes = BitGrid::new(cycles, srams);
        for t in 0..cycles {
            for n in (t..nets).step_by(t + 2) {
                toggles.set(t, n, true);
            }
            reads.set(t, t % srams, true);
            writes.set(t, (t / srams) % srams, t % 2 == 0);
        }
        let cells = (0..srams).map(|i| CellId::from_index(100 + i)).collect();
        ToggleTrace::new("W".to_owned(), cycles, toggles, cells, reads, writes)
    }

    #[test]
    fn select_cycles_copies_each_selected_row() {
        let trace = sample();
        // Repeated, out-of-order, and empty selections.
        for cycles in [vec![3, 3, 0, 8, 7, 3], vec![6, 1, 5], vec![]] {
            let sub = trace.select_cycles(&cycles);
            assert_eq!(sub.cycles(), cycles.len());
            assert_eq!(sub.workload(), trace.workload());
            assert_eq!(sub.sram_cells(), trace.sram_cells());
            for (i, &t) in cycles.iter().enumerate() {
                for n in 0..70 {
                    let net = NetId::from_index(n);
                    assert_eq!(sub.net_toggled(i, net), trace.net_toggled(t, net));
                }
                for s in 0..3 {
                    assert_eq!(sub.sram_read(i, s), trace.sram_read(t, s));
                    assert_eq!(sub.sram_write(i, s), trace.sram_write(t, s));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_cycles_rejects_out_of_range() {
        let _ = sample().select_cycles(&[9]);
    }
}
