//! Area, power, and energy model (paper §6.4, Table 4, Fig. 9).
//!
//! The paper's silicon numbers come from synthesis in TSMC 28HPC scaled
//! to 16 nm; with no synthesis flow here, we reproduce the *arithmetic*
//! of the analysis with the published per-component constants,
//! parameterized by the accelerator configuration:
//!
//! | Component      | Area (mm², 16 GE/2 MB) | Power (mW) |
//! |----------------|------------------------|------------|
//! | Half-Gate      | 2.15                   | 1253       |
//! | FreeXOR        | 9.51e-4                | 0.321      |
//! | FWD network    | 1.80e-3                | 0.255      |
//! | Crossbar       | 7.27e-2                | 16.6       |
//! | SWW SRAM       | 1.94                   | 196        |
//! | Queue SRAM     | 0.173                  | 35.5       |
//! | HBM2 PHY       | 14.9                   | 225 (TDP)  |
//!
//! Energy (Fig. 9) distributes each component's power over the cycles it
//! is actually active, using the simulator's activity counters.

use crate::sim::{DramKind, HaacConfig, SimReport};

/// Reference configuration of Table 4.
const REF_GES: f64 = 16.0;
const REF_SWW_BYTES: f64 = 2.0 * 1024.0 * 1024.0;

/// Per-component area/power at the Table 4 reference design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Component {
    /// Component name as it appears in Table 4.
    pub name: &'static str,
    /// Area in mm² (16 nm).
    pub area_mm2: f64,
    /// Average power in mW.
    pub power_mw: f64,
}

/// The Table 4 breakdown for an arbitrary configuration (linear scaling
/// in GE count for compute/forwarding/crossbar, in capacity for SRAMs).
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerBreakdown {
    /// Per-component rows, in Table 4 order.
    pub components: Vec<Component>,
    /// The HBM2 PHY row (reported separately, as in the paper).
    pub hbm_phy: Component,
}

impl AreaPowerBreakdown {
    /// Builds the breakdown for a configuration.
    pub fn for_config(config: &HaacConfig) -> AreaPowerBreakdown {
        let ge_scale = config.num_ges as f64 / REF_GES;
        let sww_scale = config.sww_bytes as f64 / REF_SWW_BYTES;
        let components = vec![
            Component { name: "Half-Gate", area_mm2: 2.15 * ge_scale, power_mw: 1253.0 * ge_scale },
            Component { name: "FreeXOR", area_mm2: 9.51e-4 * ge_scale, power_mw: 0.321 * ge_scale },
            Component { name: "FWD", area_mm2: 1.80e-3 * ge_scale, power_mw: 0.255 * ge_scale },
            Component { name: "Crossbar", area_mm2: 7.27e-2 * ge_scale, power_mw: 16.6 * ge_scale },
            Component {
                name: "SWW (SRAM)",
                area_mm2: 1.94 * sww_scale,
                power_mw: 196.0 * sww_scale,
            },
            Component {
                name: "Queues (SRAM)",
                area_mm2: 0.173 * ge_scale,
                power_mw: 35.5 * ge_scale,
            },
        ];
        AreaPowerBreakdown {
            components,
            hbm_phy: Component { name: "HBM2 PHY", area_mm2: 14.9, power_mw: 225.0 },
        }
    }

    /// Total HAAC IP area (mm², excluding the PHY, as the paper reports).
    pub fn total_area_mm2(&self) -> f64 {
        self.components.iter().map(|c| c.area_mm2).sum()
    }

    /// Total HAAC average power (mW, excluding the PHY).
    pub fn total_power_mw(&self) -> f64 {
        self.components.iter().map(|c| c.power_mw).sum()
    }
}

/// Energy attributed to one component for a simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyShare {
    /// Component name (Fig. 9 legend).
    pub name: &'static str,
    /// Energy in joules.
    pub joules: f64,
}

/// Fig. 9's per-benchmark energy breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyBreakdown {
    /// Energy per component: Half-Gate, Crossbar, SRAM, Others, HBM2 PHY.
    pub shares: Vec<EnergyShare>,
}

impl EnergyBreakdown {
    /// Derives the breakdown from a simulation report.
    ///
    /// Per-op energies are calibrated so a fully utilized Table 4 design
    /// dissipates exactly the Table 4 powers:
    /// `e_op = P_component / peak_op_rate`. The PHY dissipates its TDP
    /// for the whole runtime (it is always on).
    pub fn from_report(report: &SimReport) -> EnergyBreakdown {
        let config = &report.config;
        let ges = config.num_ges as f64;
        let clock_hz = config.ge_clock_ghz * 1e9;
        let ge_scale = ges / REF_GES;
        let sww_scale = config.sww_bytes as f64 / REF_SWW_BYTES;

        // Peak rates at this configuration: one AND issue per GE per cycle.
        let and_rate = ges * clock_hz;
        // The banked SWW runs at 2 GHz (§5): peak rate is one access per
        // bank per SWW cycle.
        let sww_rate = config.num_banks() as f64 * 2.0 * clock_hz;

        let e_and = (1253.0e-3 * ge_scale) / and_rate;
        let e_free = (0.321e-3 * ge_scale) / and_rate;
        let e_xbar = (16.6e-3 * ge_scale) / sww_rate;
        let e_sww = (196.0e-3 * sww_scale) / sww_rate;
        let e_queue_byte =
            (35.5e-3 * ge_scale) / (config.dram.bytes_per_second().min(64.0 * clock_hz));
        let e_fwd = (0.255e-3 * ge_scale) / and_rate;

        let sww_accesses = (report.sww_reads + report.sww_writes) as f64;
        let queued_bytes = (report.traffic.instr_bytes
            + report.traffic.table_bytes
            + report.traffic.oorw_bytes) as f64;

        let halfgate = report.and_count as f64 * e_and;
        let crossbar = sww_accesses * e_xbar;
        let sram = sww_accesses * e_sww + queued_bytes * e_queue_byte;
        let others = report.free_count as f64 * e_free + report.instructions as f64 * e_fwd;
        // PHY energy is activity-based: the 225 mW TDP at the PHY's peak
        // bandwidth gives a per-byte cost (0.44 pJ/B for HBM2), applied
        // to the bytes actually moved.
        let phy = match config.dram {
            DramKind::Infinite => 0.0,
            dram => {
                let per_byte = 225.0e-3 / dram.bytes_per_second();
                per_byte * report.traffic.total() as f64
            }
        };

        EnergyBreakdown {
            shares: vec![
                EnergyShare { name: "Half-Gate", joules: halfgate },
                EnergyShare { name: "Crossbar", joules: crossbar },
                EnergyShare { name: "SRAM", joules: sram },
                EnergyShare { name: "Others", joules: others },
                EnergyShare { name: "HBM2 PHY", joules: phy },
            ],
        }
    }

    /// Total energy in joules.
    pub fn total_joules(&self) -> f64 {
        self.shares.iter().map(|s| s.joules).sum()
    }

    /// Normalized percentage shares (Fig. 9's stacked bars).
    pub fn percentages(&self) -> Vec<(&'static str, f64)> {
        let total = self.total_joules().max(f64::MIN_POSITIVE);
        self.shares.iter().map(|s| (s.name, 100.0 * s.joules / total)).collect()
    }
}

/// The paper's CPU average power (W) used for the Fig. 9 efficiency
/// comparison (§6.4: "dissipating an average of 25W across benchmarks").
pub const CPU_AVG_POWER_W: f64 = 25.0;

/// Energy-efficiency improvement of HAAC over a CPU run (Fig. 9's red
/// annotations): `(P_cpu × t_cpu) / E_haac`.
pub fn efficiency_vs_cpu(report: &SimReport, cpu_seconds: f64) -> f64 {
    let haac = EnergyBreakdown::from_report(report).total_joules();
    (CPU_AVG_POWER_W * cpu_seconds) / haac.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Role, Stalls, Traffic};

    fn reference_config() -> HaacConfig {
        HaacConfig::default()
    }

    #[test]
    fn table4_reference_totals() {
        let b = AreaPowerBreakdown::for_config(&reference_config());
        // Paper: total HAAC 4.33 mm², 1502 mW.
        assert!((b.total_area_mm2() - 4.33).abs() < 0.05, "area {}", b.total_area_mm2());
        assert!((b.total_power_mw() - 1502.0).abs() < 5.0, "power {}", b.total_power_mw());
        assert!((b.hbm_phy.area_mm2 - 14.9).abs() < 1e-9);
    }

    #[test]
    fn area_scales_with_ges() {
        let small =
            AreaPowerBreakdown::for_config(&HaacConfig { num_ges: 4, ..reference_config() });
        let big = AreaPowerBreakdown::for_config(&reference_config());
        let hg_small = small.components[0].area_mm2;
        let hg_big = big.components[0].area_mm2;
        assert!((hg_big / hg_small - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sww_area_scales_with_capacity() {
        let half = AreaPowerBreakdown::for_config(&HaacConfig {
            sww_bytes: 1024 * 1024,
            ..reference_config()
        });
        let sww = half.components.iter().find(|c| c.name == "SWW (SRAM)").unwrap();
        assert!((sww.area_mm2 - 0.97).abs() < 1e-6);
    }

    fn fake_report(and_count: u64, seconds: f64) -> SimReport {
        SimReport {
            cycles: (seconds * 1e9) as u64,
            seconds,
            instructions: and_count * 3,
            and_count,
            free_count: and_count * 2,
            traffic: Traffic {
                instr_bytes: and_count * 15,
                table_bytes: and_count * 32,
                oorw_bytes: 0,
                live_bytes: and_count * 4,
                preload_bytes: 0,
            },
            stalls: Stalls::default(),
            sww_reads: and_count * 6,
            sww_writes: and_count * 3,
            per_ge_instructions: vec![],
            config: reference_config(),
        }
    }

    #[test]
    fn energy_shares_are_positive_and_sum() {
        let report = fake_report(1_000_000, 1e-3);
        let e = EnergyBreakdown::from_report(&report);
        assert!(e.total_joules() > 0.0);
        let pct: f64 = e.percentages().iter().map(|(_, p)| p).sum();
        assert!((pct - 100.0).abs() < 1e-6);
        // Half-Gate should dominate compute energy (paper: ~61% average).
        let hg = &e.shares[0];
        assert!(hg.joules > 0.0);
    }

    #[test]
    fn efficiency_scales_with_cpu_time_and_activity() {
        let report = fake_report(1_000_000, 1e-3);
        // A slower CPU makes HAAC look comparatively more efficient.
        assert!(efficiency_vs_cpu(&report, 2.0) > efficiency_vs_cpu(&report, 1.0));
        // More gate activity costs more energy.
        let busier = fake_report(2_000_000, 1e-3);
        let e1 = EnergyBreakdown::from_report(&report).total_joules();
        let e2 = EnergyBreakdown::from_report(&busier).total_joules();
        assert!(e2 > e1);
    }

    #[test]
    fn garbler_and_evaluator_share_the_model() {
        let mut r = fake_report(1000, 1e-5);
        r.config.role = Role::Garbler;
        let e = EnergyBreakdown::from_report(&r);
        assert!(e.total_joules() > 0.0);
    }
}
