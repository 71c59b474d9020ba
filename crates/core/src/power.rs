//! Analytic area and power model for the PageForge hardware (Table 5).
//!
//! The paper uses McPAT at 22 nm; we substitute a small analytic model with
//! per-component area/power densities *calibrated to reproduce McPAT's
//! outputs for the paper's design points* (see DESIGN.md): a 512 B
//! cache-like Scan Table structure, an embedded-class ALU/comparator, the
//! reference ARM-A9-like in-order core (§4.3's alternative design), and the
//! 10-core server chip of Table 2.

/// Area (mm²) and power (W) of a hardware unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaPower {
    /// Area in mm².
    pub area_mm2: f64,
    /// Average power in W.
    pub power_w: f64,
}

impl AreaPower {
    /// Component-wise sum.
    pub fn plus(self, other: AreaPower) -> AreaPower {
        AreaPower {
            area_mm2: self.area_mm2 + other.area_mm2,
            power_w: self.power_w + other.power_w,
        }
    }
}

/// The analytic model.
///
/// SRAM structures scale with capacity; logic blocks are fixed design
/// points. Densities are calibrated so the paper's Table 5 numbers fall
/// out exactly at 22 nm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// SRAM area density, mm² per KB (cache-like structure incl. tag and
    /// periphery overhead).
    pub sram_mm2_per_kb: f64,
    /// SRAM average power density, W per KB at full activity.
    pub sram_w_per_kb: f64,
    /// Embedded ALU + comparator + control FSM design point.
    pub alu: AreaPower,
}

impl PowerModel {
    /// The calibrated 22 nm high-performance model.
    pub fn hp_22nm() -> Self {
        PowerModel {
            // 512 B Scan Table → 0.010 mm², 0.028 W (Table 5).
            sram_mm2_per_kb: 0.020,
            sram_w_per_kb: 0.056,
            alu: AreaPower {
                area_mm2: 0.019,
                power_w: 0.009,
            },
        }
    }

    /// Area/power of a cache-like SRAM structure of `bytes` capacity.
    pub fn sram(&self, bytes: usize) -> AreaPower {
        let kb = bytes as f64 / 1024.0;
        AreaPower {
            area_mm2: self.sram_mm2_per_kb * kb,
            power_w: self.sram_w_per_kb * kb,
        }
    }

    /// The Scan Table, provisioned as the paper does: the ≈260 B table is
    /// implemented in a conservatively-sized 512 B structure.
    pub fn scan_table(&self, table_bytes: usize) -> AreaPower {
        let provisioned = table_bytes.next_power_of_two().max(512);
        self.sram(provisioned)
    }

    /// The complete PageForge module: Scan Table + ALU/control.
    pub fn pageforge_module(&self, table_bytes: usize) -> AreaPower {
        self.scan_table(table_bytes).plus(self.alu)
    }

    /// The §4.3 alternative: an ARM-A9-class in-order core with 32 KB L1
    /// I/D caches and no L2, at 22 nm LOP (McPAT design point quoted in the
    /// paper).
    pub fn a9_core() -> AreaPower {
        AreaPower {
            area_mm2: 0.77,
            power_w: 0.37,
        }
    }

    /// The Table 2 server chip (10 OoO cores, 32 MB L3), for the
    /// "negligible overhead" comparison (§6.4.2).
    pub fn server_chip() -> AreaPower {
        AreaPower {
            area_mm2: 138.6,
            power_w: 164.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_numbers_reproduce() {
        let m = PowerModel::hp_22nm();
        let st = m.scan_table(260);
        assert!(
            (st.area_mm2 - 0.010).abs() < 5e-4,
            "scan table area {}",
            st.area_mm2
        );
        assert!(
            (st.power_w - 0.028).abs() < 5e-4,
            "scan table power {}",
            st.power_w
        );
        let total = m.pageforge_module(260);
        assert!(
            (total.area_mm2 - 0.029).abs() < 1e-3,
            "total area {}",
            total.area_mm2
        );
        assert!(
            (total.power_w - 0.037).abs() < 1e-3,
            "total power {}",
            total.power_w
        );
    }

    #[test]
    fn pageforge_is_order_of_magnitude_below_a9() {
        let m = PowerModel::hp_22nm();
        let pf = m.pageforge_module(260);
        let a9 = PowerModel::a9_core();
        assert!(
            a9.power_w / pf.power_w >= 10.0,
            "§6.4.2: order of magnitude less power"
        );
        assert!(a9.area_mm2 / pf.area_mm2 > 20.0);
    }

    #[test]
    fn pageforge_is_negligible_vs_server_chip() {
        let m = PowerModel::hp_22nm();
        let pf = m.pageforge_module(260);
        let chip = PowerModel::server_chip();
        assert!(pf.area_mm2 / chip.area_mm2 < 0.001);
        assert!(pf.power_w / chip.power_w < 0.001);
    }

    #[test]
    fn sram_scales_linearly() {
        let m = PowerModel::hp_22nm();
        let small = m.sram(1024);
        let big = m.sram(4096);
        assert!((big.area_mm2 - 4.0 * small.area_mm2).abs() < 1e-12);
        assert!((big.power_w - 4.0 * small.power_w).abs() < 1e-12);
    }

    #[test]
    fn bigger_tables_cost_more() {
        let m = PowerModel::hp_22nm();
        let small = m.pageforge_module(260);
        let big = m.pageforge_module(2048);
        assert!(big.area_mm2 > small.area_mm2);
        assert!(big.power_w > small.power_w);
    }
}
