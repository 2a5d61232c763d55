//! Per-cycle, per-sub-module, per-group power traces.

use atlas_liberty::PowerGroup;
use atlas_netlist::{Design, SubmoduleId};
use serde::{Deserialize, Serialize};

const NGROUPS: usize = PowerGroup::ALL.len();

/// Power in watts for every (cycle, sub-module, power group).
///
/// This is the shape of the golden data ATLAS learns from: summing over
/// sub-modules gives the per-cycle group traces of Fig. 5; summing over a
/// component's sub-modules gives the component powers of Fig. 6; summing
/// everything (minus memory) gives the headline total of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    design: String,
    workload: String,
    cycles: usize,
    n_submodules: usize,
    /// `data[(cycle * n_submodules + sm) * 4 + group]`, watts.
    data: Vec<f64>,
}

impl PowerTrace {
    /// Create an all-zero trace to accumulate into. Used by the golden
    /// engine and by ATLAS inference, so predictions and labels share one
    /// type and one set of rollup methods.
    pub fn new(design: String, workload: String, cycles: usize, n_submodules: usize) -> PowerTrace {
        PowerTrace {
            design,
            workload,
            cycles,
            n_submodules,
            data: vec![0.0; cycles * n_submodules * NGROUPS],
        }
    }

    /// Accumulate watts into one (cycle, sub-module, group) slot.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn add(&mut self, cycle: usize, sm: usize, group: usize, watts: f64) {
        self.data[(cycle * self.n_submodules + sm) * NGROUPS + group] += watts;
    }

    /// Design name.
    pub fn design(&self) -> &str {
        &self.design
    }

    /// Workload name.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// Number of cycles.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Number of sub-modules.
    pub fn submodule_count(&self) -> usize {
        self.n_submodules
    }

    /// Power (W) of one sub-module's group in one cycle.
    pub fn at(&self, cycle: usize, sm: SubmoduleId, group: PowerGroup) -> f64 {
        self.data[(cycle * self.n_submodules + sm.index()) * NGROUPS + group.index()]
    }

    /// Design-level power (W) of one group in one cycle.
    pub fn group_total(&self, cycle: usize, group: PowerGroup) -> f64 {
        let base = cycle * self.n_submodules * NGROUPS + group.index();
        (0..self.n_submodules)
            .map(|sm| self.data[base + sm * NGROUPS])
            .sum()
    }

    /// Design-level total power (W) in one cycle, all groups.
    pub fn total(&self, cycle: usize) -> f64 {
        PowerGroup::ALL
            .iter()
            .map(|&g| self.group_total(cycle, g))
            .sum()
    }

    /// Total power excluding the memory group — the quantity the paper's
    /// headline tables report (§VI-B "Exclusion of Memory Group").
    pub fn non_memory_total(&self, cycle: usize) -> f64 {
        self.total(cycle) - self.group_total(cycle, PowerGroup::Memory)
    }

    /// Per-cycle series of one group.
    pub fn group_series(&self, group: PowerGroup) -> Vec<f64> {
        (0..self.cycles)
            .map(|t| self.group_total(t, group))
            .collect()
    }

    /// Per-cycle series of the design total (all groups).
    pub fn total_series(&self) -> Vec<f64> {
        (0..self.cycles).map(|t| self.total(t)).collect()
    }

    /// Per-cycle series of the non-memory total.
    pub fn non_memory_series(&self) -> Vec<f64> {
        (0..self.cycles).map(|t| self.non_memory_total(t)).collect()
    }

    /// Per-cycle series of clock-tree + register power (the middle panel
    /// of Fig. 5).
    pub fn ct_reg_series(&self) -> Vec<f64> {
        (0..self.cycles)
            .map(|t| {
                self.group_total(t, PowerGroup::ClockTree)
                    + self.group_total(t, PowerGroup::Register)
            })
            .collect()
    }

    /// One sub-module's total (all groups) in one cycle.
    pub fn submodule_total(&self, cycle: usize, sm: SubmoduleId) -> f64 {
        PowerGroup::ALL.iter().map(|&g| self.at(cycle, sm, g)).sum()
    }

    /// Mean over cycles of the design-level group power.
    pub fn mean_group(&self, group: PowerGroup) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.group_series(group).iter().sum::<f64>() / self.cycles as f64
    }

    /// Mean over cycles of the non-memory total.
    pub fn mean_non_memory(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.non_memory_series().iter().sum::<f64>() / self.cycles as f64
    }

    /// Average power (W) per component (non-memory groups), in the
    /// design's component order — the Fig. 6 rollup.
    pub fn component_means(&self, design: &Design) -> Vec<(String, f64)> {
        let comps = design.components();
        let mut totals = vec![0.0; comps.len()];
        for (sm_idx, sm) in design.submodules().iter().enumerate() {
            let Some(ci) = comps.iter().position(|c| *c == sm.component()) else {
                continue;
            };
            for t in 0..self.cycles {
                for g in PowerGroup::ALL {
                    if g == PowerGroup::Memory {
                        continue;
                    }
                    totals[ci] += self.at(t, SubmoduleId::from_index(sm_idx), g);
                }
            }
        }
        comps
            .into_iter()
            .map(String::from)
            .zip(totals.into_iter().map(|w| w / self.cycles.max(1) as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_rollups() {
        let mut p = PowerTrace::new("d".into(), "w".into(), 2, 3);
        p.add(0, 0, PowerGroup::Combinational.index(), 1.0);
        p.add(0, 1, PowerGroup::Register.index(), 2.0);
        p.add(0, 2, PowerGroup::Memory.index(), 4.0);
        p.add(1, 0, PowerGroup::ClockTree.index(), 8.0);
        assert_eq!(p.total(0), 7.0);
        assert_eq!(p.non_memory_total(0), 3.0);
        assert_eq!(p.group_total(1, PowerGroup::ClockTree), 8.0);
        assert_eq!(p.total_series(), vec![7.0, 8.0]);
        assert_eq!(p.ct_reg_series(), vec![2.0, 8.0]);
        assert_eq!(
            p.at(0, SubmoduleId::from_index(1), PowerGroup::Register),
            2.0
        );
        assert_eq!(p.submodule_total(0, SubmoduleId::from_index(1)), 2.0);
        assert!((p.mean_group(PowerGroup::ClockTree) - 4.0).abs() < 1e-12);
        assert!((p.mean_non_memory() - 5.5).abs() < 1e-12);
    }
}
