//! The simulated machine: capacity clipping, CPU backlog, latency model.

use doppler_catalog::Sku;

/// Utilization at which the M/M/1 term is clamped (avoids division by zero
/// at saturation).
const MAX_UTILIZATION: f64 = 0.95;
/// Hard cap on latency inflation, as a multiple of the SKU's base latency.
const MAX_INFLATION: f64 = 20.0;
/// Additional latency multiplier per unit of memory over-subscription
/// (paging).
const PAGING_PENALTY: f64 = 4.0;

/// A machine executing a demand trace tick by tick.
#[derive(Debug, Clone)]
pub struct Machine {
    sku: Sku,
    /// Unfinished CPU work carried between ticks, in vCore-ticks.
    cpu_backlog: f64,
}

impl Machine {
    /// A machine provisioned as `sku`.
    pub fn new(sku: Sku) -> Machine {
        Machine { sku, cpu_backlog: 0.0 }
    }

    /// The SKU this machine is provisioned as.
    pub fn sku(&self) -> &Sku {
        &self.sku
    }

    /// Pending CPU backlog, vCore-ticks.
    pub fn cpu_backlog(&self) -> f64 {
        self.cpu_backlog
    }

    /// Execute one tick of CPU demand (vCores). Returns the vCores
    /// actually consumed this tick; the shortfall joins the backlog.
    pub fn tick_cpu(&mut self, demand_vcores: f64) -> f64 {
        let want = demand_vcores.max(0.0) + self.cpu_backlog;
        let used = want.min(self.sku.caps.vcores);
        self.cpu_backlog = want - used;
        used
    }

    /// Execute one tick of IO demand (IOPS). Returns
    /// `(served_iops, observed_latency_ms)`.
    pub fn tick_io(&mut self, demand_iops: f64, memory_demand_gb: f64) -> (f64, f64) {
        let cap = self.sku.caps.iops.max(1e-9);
        let served = demand_iops.max(0.0).min(cap);
        let utilization = (demand_iops.max(0.0) / cap).min(MAX_UTILIZATION);
        let base = self.sku.caps.min_io_latency_ms;
        let mut latency = base / (1.0 - utilization);
        // Paging: memory pressure spills reads to disk.
        let mem_cap = self.sku.caps.memory_gb.max(1e-9);
        if memory_demand_gb > mem_cap {
            let over = (memory_demand_gb - mem_cap) / mem_cap;
            latency *= 1.0 + PAGING_PENALTY * over;
        }
        (served, latency.min(base * MAX_INFLATION))
    }

    /// True when demand this tick exceeded any capacity (CPU including
    /// backlog, IOPS, or memory).
    pub fn is_throttling(&self, cpu_demand: f64, iops_demand: f64, memory_demand: f64) -> bool {
        cpu_demand + self.cpu_backlog > self.sku.caps.vcores
            || iops_demand > self.sku.caps.iops
            || memory_demand > self.sku.caps.memory_gb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_catalog::replay_skus;

    fn sku1() -> Sku {
        replay_skus()[0].clone() // 4 vCores, 16 GB, 6000 IOPS
    }

    #[test]
    fn cpu_under_capacity_serves_fully() {
        let mut m = Machine::new(sku1());
        assert_eq!(m.tick_cpu(2.0), 2.0);
        assert_eq!(m.cpu_backlog(), 0.0);
    }

    #[test]
    fn cpu_over_capacity_clips_and_carries_backlog() {
        let mut m = Machine::new(sku1());
        assert_eq!(m.tick_cpu(10.0), 4.0);
        assert_eq!(m.cpu_backlog(), 6.0);
        // Idle next tick: the backlog drains at capacity.
        assert_eq!(m.tick_cpu(0.0), 4.0);
        assert_eq!(m.cpu_backlog(), 2.0);
        assert_eq!(m.tick_cpu(0.0), 2.0);
        assert_eq!(m.cpu_backlog(), 0.0);
    }

    #[test]
    fn io_under_capacity_keeps_latency_near_base() {
        let mut m = Machine::new(sku1());
        let (served, lat) = m.tick_io(600.0, 4.0);
        assert_eq!(served, 600.0);
        // 10% utilization: ~11% above base latency.
        assert!(lat < m.sku().caps.min_io_latency_ms * 1.2);
    }

    #[test]
    fn io_near_saturation_inflates_latency() {
        let mut m = Machine::new(sku1());
        let (_, lat_low) = m.tick_io(600.0, 4.0);
        let (_, lat_high) = m.tick_io(5900.0, 4.0);
        assert!(lat_high > 5.0 * lat_low, "{lat_low} -> {lat_high}");
    }

    #[test]
    fn io_over_capacity_clips_served_and_caps_inflation() {
        let mut m = Machine::new(sku1());
        let (served, lat) = m.tick_io(50_000.0, 4.0);
        assert_eq!(served, 6000.0);
        assert!(lat <= m.sku().caps.min_io_latency_ms * 20.0 + 1e-9);
    }

    #[test]
    fn memory_pressure_adds_paging_latency() {
        let mut m = Machine::new(sku1());
        let (_, lat_ok) = m.tick_io(1000.0, 8.0);
        let (_, lat_paging) = m.tick_io(1000.0, 32.0); // 2x over 16 GB
        assert!(lat_paging > 2.0 * lat_ok, "{lat_ok} -> {lat_paging}");
    }

    #[test]
    fn throttling_predicate_covers_all_dimensions() {
        let mut m = Machine::new(sku1());
        assert!(!m.is_throttling(1.0, 100.0, 4.0));
        assert!(m.is_throttling(5.0, 100.0, 4.0));
        assert!(m.is_throttling(1.0, 7000.0, 4.0));
        assert!(m.is_throttling(1.0, 100.0, 17.0));
        // Backlog makes even modest demand throttle.
        m.tick_cpu(40.0);
        assert!(m.is_throttling(1.0, 100.0, 4.0));
    }

    #[test]
    fn negative_demand_treated_as_zero() {
        let mut m = Machine::new(sku1());
        assert_eq!(m.tick_cpu(-3.0), 0.0);
        let (served, _) = m.tick_io(-10.0, 1.0);
        assert_eq!(served, 0.0);
    }
}
