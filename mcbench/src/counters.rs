//! The simulated counters the program already reports (`MachineMetrics`,
//! bus telemetry, `RunReport` event counts), summed over the machines of
//! one repetition. They explain a result; they are never performance.

use multicube::{Machine, MachineMetrics, RunReport};

use crate::rep::{ratio, Rep};

/// Sums of simulated counters over the machines of one repetition.
#[derive(Debug, Default)]
pub struct SimCounters {
    txns: u64,
    bus_txns: u64,
    bus_ops: u64,
    local_hits: u64,
    retries: u64,
    watchdog_trips: u64,
    mlt_overflows: u64,
    victim_writebacks: u64,
    memory_bounces: u64,
    row_util: f64,
    col_util: f64,
    machines: u32,
    bus_queue_high_water: usize,
    events: u64,
    event_queue_high_water: usize,
}

impl SimCounters {
    fn add_metrics(&mut self, m: &MachineMetrics) {
        self.txns += m.total_transactions();
        self.bus_txns += m.bus_transactions();
        self.local_hits += m.local_hits.count;
        self.retries += m
            .classes()
            .iter()
            .map(|(_, s)| s.retries.get())
            .sum::<u64>();
        self.watchdog_trips += m.watchdog_trips.get();
        self.mlt_overflows += m.mlt_overflows.get();
        self.victim_writebacks += m.victim_writebacks.get();
        self.memory_bounces += m.memory_bounces.get();
        self.machines += 1;
    }

    /// Adds a finished synthetic run, including its event-queue counters.
    pub fn add_report(&mut self, r: &RunReport) {
        self.add_metrics(&r.metrics);
        self.bus_ops += r.row_bus_ops + r.col_bus_ops;
        self.row_util += r.utilization.row_mean;
        self.col_util += r.utilization.col_mean;
        let hw = r.buses.iter().map(|b| b.queue_high_water).max();
        self.bus_queue_high_water = self.bus_queue_high_water.max(hw.unwrap_or(0));
        self.events += r.events_delivered;
        self.event_queue_high_water = self.event_queue_high_water.max(r.event_queue_high_water);
    }

    /// Adds a machine driven through `WorkloadRunner`, which returns no
    /// `RunReport`: bus telemetry is read bus by bus, and the event-queue
    /// counters stay unread because `Machine` has no public accessor.
    pub fn add_machine(&mut self, m: &Machine) {
        self.add_metrics(m.metrics());
        let (row_ops, col_ops) = m.bus_op_totals();
        self.bus_ops += row_ops + col_ops;
        let n = m.side() as usize;
        let now = m.now();
        for slot in 0..2 * n {
            let bus = m.bus(slot);
            let u = bus.utilization(now) / n as f64;
            if slot < n {
                self.row_util += u;
            } else {
                self.col_util += u;
            }
            self.bus_queue_high_water = self.bus_queue_high_water.max(bus.queue_high_water());
        }
    }

    /// Simulated transactions summed over the machines.
    pub fn txns(&self) -> u64 {
        self.txns
    }

    /// Event-queue deliveries summed over the machines.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Writes the bus, fault, mem and event-count readings into `rep`.
    pub fn emit(&self, rep: &mut Rep) {
        let txns = self.txns as f64;
        let machines = f64::from(self.machines);
        rep.layer(
            "machine.ops_per_txn",
            ratio(self.bus_ops as f64, self.bus_txns as f64),
        );
        rep.layer("wheel.events_per_txn", ratio(self.events as f64, txns));
        rep.layer("wheel.queue_high_water", self.event_queue_high_water as f64);
        rep.layer("bus.row_util", ratio(self.row_util, machines));
        rep.layer("bus.col_util", ratio(self.col_util, machines));
        rep.layer("bus.queue_high_water", self.bus_queue_high_water as f64);
        rep.layer("bus.memory_bounces", self.memory_bounces as f64);
        rep.layer("fault.retries_per_txn", ratio(self.retries as f64, txns));
        rep.layer("fault.watchdog_trips", self.watchdog_trips as f64);
        rep.layer("mem.local_hit_ratio", ratio(self.local_hits as f64, txns));
        rep.layer("mem.mlt_overflows", self.mlt_overflows as f64);
        rep.layer("mem.victim_writebacks", self.victim_writebacks as f64);
    }
}
