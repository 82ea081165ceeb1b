//! The paper's tabular claims, measured: protocol costs (T-6.1), scaling
//! formulas (T-6.2), synchronization traffic (E-4.1) and the single-bus
//! comparison (E-1.1) — plus ASCII rendering helpers.

use multicube::{
    EngineKind, FaultPlan, Machine, MachineConfig, Request, RequestKind, RetryPolicy, SyntheticSpec,
};
use multicube_mem::LineAddr;
use multicube_mva::FigureSeries;
use multicube_sim::pool::Pool;
use multicube_sim::{split_seed, stream_id};
use multicube_sync::{LockExperiment, QueueLock, SpinLock};
use multicube_topology::scaling::{ScalingReport, TransactionCostBounds};
use multicube_topology::Multicube;

use crate::simfig::PointFailure;

/// One measured row of the T-6.1 protocol-cost table.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// The paper's bound on total bus operations.
    pub paper_bound: String,
    /// Measured row-bus operations.
    pub row_ops: f64,
    /// Measured column-bus operations.
    pub col_ops: f64,
    /// Whether the measurement satisfies the paper's bound.
    pub within_bound: bool,
}

/// Measures the §6 per-transaction bus-operation costs on an `n x n`
/// machine by staging each scenario on a quiet grid.
pub fn costs_table(n: u32) -> Vec<CostRow> {
    let bounds = TransactionCostBounds::for_grid(n);
    let mut rows = Vec::new();

    // Scenario helpers: place the actors away from special columns.
    let line = LineAddr::new(1 + n as u64); // home column 1
    let fresh = || Machine::new(MachineConfig::grid(n).unwrap(), 31).unwrap();

    // READ of an unmodified line.
    {
        let mut m = fresh();
        let reader = m.config().topology().node(1, 2);
        m.submit(reader, Request::read(line)).unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
        let s = &m.metrics().read_unmodified;
        let total = s.row_ops.mean() + s.col_ops.mean();
        rows.push(CostRow {
            scenario: "READ, line unmodified",
            paper_bound: format!("<= {}", bounds.read_unmodified_max),
            row_ops: s.row_ops.mean(),
            col_ops: s.col_ops.mean(),
            within_bound: total <= bounds.read_unmodified_max as f64,
        });
    }

    // READ of a line modified in a remote cache (general position).
    {
        let mut m = fresh();
        let owner = m.config().topology().node(3, 3);
        let reader = m.config().topology().node(0, 2);
        m.submit(owner, Request::write(line)).unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
        m.submit(reader, Request::read(line)).unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
        let s = &m.metrics().read_modified;
        let total = s.row_ops.mean() + s.col_ops.mean();
        rows.push(CostRow {
            scenario: "READ, line modified remotely",
            paper_bound: format!("<= {}", bounds.read_modified_max),
            row_ops: s.row_ops.mean(),
            col_ops: s.col_ops.mean(),
            within_bound: total <= bounds.read_modified_max as f64,
        });
    }

    // READ-MOD of a line modified in a remote cache.
    {
        let mut m = fresh();
        let owner = m.config().topology().node(3, 3);
        let writer = m.config().topology().node(0, 2);
        m.submit(owner, Request::write(line)).unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
        m.submit(writer, Request::write(line)).unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
        let s = &m.metrics().write_modified;
        let total = s.row_ops.mean() + s.col_ops.mean();
        rows.push(CostRow {
            scenario: "READ-MOD, line modified remotely",
            paper_bound: format!("<= {}", bounds.readmod_modified),
            row_ops: s.row_ops.mean(),
            col_ops: s.col_ops.mean(),
            within_bound: total <= bounds.readmod_modified as f64,
        });
    }

    // READ-MOD of an unmodified line: the invalidation broadcast.
    {
        let mut m = fresh();
        let writer = m.config().topology().node(1, 2);
        m.submit(writer, Request::write(line)).unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
        let s = &m.metrics().write_unmodified;
        rows.push(CostRow {
            scenario: "READ-MOD, line unmodified (broadcast)",
            paper_bound: format!(
                "{} row + {} col",
                bounds.readmod_unmodified_row_ops, bounds.readmod_unmodified_col_ops
            ),
            row_ops: s.row_ops.mean(),
            col_ops: s.col_ops.mean(),
            // The measurement includes the final MLT insert (one extra
            // column op over the paper's 3-op accounting).
            within_bound: s.row_ops.mean() <= (bounds.readmod_unmodified_row_ops) as f64
                && s.col_ops.mean() <= (bounds.readmod_unmodified_col_ops + 1) as f64,
        });
    }

    // Remote test-and-set on a held lock (failure): short notification.
    {
        let mut m = fresh();
        let holder = m.config().topology().node(3, 3);
        let prober = m.config().topology().node(0, 2);
        m.submit(holder, Request::new(RequestKind::TestAndSet, line))
            .unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
        m.submit(prober, Request::new(RequestKind::TestAndSet, line))
            .unwrap();
        m.advance().unwrap();
        m.run_to_quiescence();
        let s = &m.metrics().tas_fail;
        let total = s.row_ops.mean() + s.col_ops.mean();
        rows.push(CostRow {
            scenario: "TEST-AND-SET, failure (line stays remote)",
            paper_bound: "<= 4 (short ops only)".to_string(),
            row_ops: s.row_ops.mean(),
            col_ops: s.col_ops.mean(),
            within_bound: total <= 4.0,
        });
    }

    rows
}

/// The §6 scaling formulas for representative Multicube shapes (T-6.2).
pub fn scaling_rows() -> Vec<ScalingReport> {
    [
        (8u32, 2u8),
        (16, 2),
        (24, 2),
        (32, 2),
        (4, 3),
        (8, 3),
        (2, 10),
    ]
    .iter()
    .map(|&(n, k)| ScalingReport::for_cube(&Multicube::new(n, k).expect("valid shape")))
    .collect()
}

/// One row of the E-4.1 lock-traffic comparison.
#[derive(Debug, Clone)]
pub struct SyncRow {
    /// Grid side.
    pub n: u32,
    /// Bus operations per acquisition, spinning test-and-set.
    pub spin_ops_per_acq: f64,
    /// Test-and-set failure count under spinning.
    pub spin_failures: u64,
    /// Bus operations per acquisition, distributed queue lock.
    pub queue_ops_per_acq: f64,
    /// Test-and-set failure count under queueing.
    pub queue_failures: u64,
}

/// Measures hot-lock traffic for both §4 disciplines across grid sizes.
pub fn sync_rows(ns: &[u32], rounds: u64) -> Vec<SyncRow> {
    ns.iter()
        .map(|&n| {
            let exp = LockExperiment::new(rounds).with_hold_ns(20_000);
            let mut m1 = Machine::new(MachineConfig::grid(n).unwrap(), 13).unwrap();
            let spin = exp.run::<SpinLock>(&mut m1);
            let mut m2 = Machine::new(MachineConfig::grid(n).unwrap(), 13).unwrap();
            let queue = exp.run::<QueueLock>(&mut m2);
            SyncRow {
                n,
                spin_ops_per_acq: spin.ops_per_acquisition(),
                spin_failures: spin.tas_failures,
                queue_ops_per_acq: queue.ops_per_acquisition(),
                queue_failures: queue.tas_failures,
            }
        })
        .collect()
}

/// One row of the E-1.1 single-bus comparison.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Total processors.
    pub processors: u32,
    /// Single-bus multi efficiency.
    pub multi_efficiency: f64,
    /// Single-bus utilization.
    pub multi_utilization: f64,
    /// Wisconsin Multicube efficiency at the same processor count.
    pub multicube_efficiency: f64,
}

/// Compares the single-bus multi against the Multicube at matched
/// processor counts and request rate (E-1.1). The multi is the same
/// `side x side` machine driven by [`EngineKind::Mesi`], which snoops
/// every processor on row bus 0: "a multi is a Multicube for which k = 1".
pub fn baseline_rows(rate_per_ms: f64, txns: u64) -> Vec<BaselineRow> {
    [2u32, 4, 6, 8, 12, 16]
        .iter()
        .map(|&side| {
            let spec = SyntheticSpec::default().with_request_rate_per_ms(rate_per_ms);
            let run = |engine| {
                let config = MachineConfig::grid(side).unwrap().with_engine(engine);
                Machine::new(config, 17).unwrap().run_synthetic(&spec, txns)
            };
            let multi = run(EngineKind::Mesi);
            let cube = run(EngineKind::Multicube);
            BaselineRow {
                processors: side * side,
                multi_efficiency: multi.efficiency,
                multi_utilization: multi.buses[0].utilization,
                multicube_efficiency: cube.efficiency,
            }
        })
        .collect()
}

/// Renders a run's per-bus telemetry — utilization, op counts and queue
/// high-water per row/column bus — as an ASCII table.
pub fn render_bus_telemetry(title: &str, report: &multicube::RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:>8} {:>12} {:>10} {:>10} {:>12}\n",
        "bus", "utilization", "ops", "data ops", "queue high"
    ));
    for b in &report.buses {
        out.push_str(&format!(
            "{:>8} {:>12.4} {:>10} {:>10} {:>12}\n",
            b.id.to_string(),
            b.utilization,
            b.ops,
            b.data_ops,
            b.queue_high_water
        ));
    }
    out.push_str(&format!(
        "event queue: {} scheduled, {} delivered, high-water {}\n",
        report.events_scheduled, report.events_delivered, report.event_queue_high_water
    ));
    out
}

/// Renders a run's per-transaction-class statistics — counts, mean bus
/// operations and latency quantiles from the per-class histograms.
pub fn render_class_stats(title: &str, report: &multicube::RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<28} {:>8} {:>10} {:>12} {:>10} {:>10} {:>10}\n",
        "class", "count", "ops/txn", "latency ns", "p50 ns", "p90 ns", "p99 ns"
    ));
    // Emit every class, including empty ones: `classes()` is a stable,
    // protocol-independent set, so tables from different engines (the
    // shootout) stay row-aligned and diffable.
    for (name, s) in report.metrics.classes() {
        let q = |q: f64| {
            s.latency_hist
                .quantile(q)
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_string())
        };
        out.push_str(&format!(
            "{:<28} {:>8} {:>10.2} {:>12.0} {:>10} {:>10} {:>10}\n",
            name,
            s.count,
            s.bus_ops.mean(),
            s.latency_ns.mean(),
            q(0.5),
            q(0.9),
            q(0.99)
        ));
    }
    out
}

/// Renders figure series' row-bus utilization side by side (the sensitive
/// metric for broadcast-traffic effects like Figure 3's).
pub fn render_series_utilization(title: &str, series: &[FigureSeries]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    if series.is_empty() {
        return out;
    }
    out.push_str(&format!("{:>10}", "rate/ms"));
    for s in series {
        out.push_str(&format!("{:>24}", s.label));
    }
    out.push('\n');
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let rate = series
            .iter()
            .find_map(|s| s.points.get(i))
            .map(|p| p.rate_per_ms)
            .unwrap_or(0.0);
        out.push_str(&format!("{rate:>10.1}"));
        for s in series {
            match s.points.get(i) {
                Some(p) => out.push_str(&format!("{:>24.4}", p.rho_row)),
                None => out.push_str(&format!("{:>24}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders figure series side by side as an ASCII table.
pub fn render_series(title: &str, series: &[FigureSeries]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    if series.is_empty() {
        return out;
    }
    out.push_str(&format!("{:>10}", "rate/ms"));
    for s in series {
        out.push_str(&format!("{:>24}", s.label));
    }
    out.push('\n');
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let rate = series
            .iter()
            .find_map(|s| s.points.get(i))
            .map(|p| p.rate_per_ms)
            .unwrap_or(0.0);
        out.push_str(&format!("{rate:>10.1}"));
        for s in series {
            match s.points.get(i) {
                Some(p) => out.push_str(&format!("{:>24.4}", p.efficiency)),
                None => out.push_str(&format!("{:>24}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_table_rows_all_within_bounds() {
        let rows = costs_table(4);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(
                row.within_bound,
                "{}: {} row + {} col exceeds {}",
                row.scenario, row.row_ops, row.col_ops, row.paper_bound
            );
        }
    }

    #[test]
    fn scaling_rows_cover_the_proposed_machine() {
        let rows = scaling_rows();
        let machine = rows.iter().find(|r| r.n == 32 && r.k == 2).unwrap();
        assert_eq!(machine.processors, 1024);
        assert_eq!(machine.buses, 64);
    }

    #[test]
    fn sync_rows_show_queue_advantage() {
        let rows = sync_rows(&[2], 3);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].queue_ops_per_acq <= rows[0].spin_ops_per_acq);
    }

    #[test]
    fn baseline_rows_show_crossover() {
        let rows = baseline_rows(10.0, 25);
        let small = rows.first().unwrap();
        let large = rows.last().unwrap();
        // At 4 processors both are comfortable; at 256 the single bus is
        // far behind the grid.
        assert!(small.multi_efficiency > 0.5);
        assert!(large.multicube_efficiency > large.multi_efficiency + 0.2);
        // Every processor loads the one bus, so it only gets busier.
        assert!(rows
            .windows(2)
            .all(|w| w[1].multi_utilization > w[0].multi_utilization));
    }

    #[test]
    fn render_series_formats_rows() {
        use multicube_mva::FigurePoint;
        let s = FigureSeries {
            label: "x".into(),
            points: vec![FigurePoint {
                rate_per_ms: 1.0,
                efficiency: 0.5,
                rho_row: 0.1,
                rho_col: 0.1,
            }],
        };
        let text = render_series("t", &[s]);
        assert!(text.contains("== t =="));
        assert!(text.contains("0.5000"));
    }
}

/// One row of the MLT-sizing ablation (§6: "If the table is not large
/// enough, modified lines will, on occasion, have to be written to main
/// memory and changed to global state unmodified").
#[derive(Debug, Clone)]
pub struct MltRow {
    /// Modified-line-table capacity (entries per column replica).
    pub capacity: usize,
    /// Run efficiency.
    pub efficiency: f64,
    /// Overflow write-backs forced by the bounded table.
    pub overflows: u64,
    /// Bus operations per transaction.
    pub ops_per_txn: f64,
}

/// Sweeps the modified-line-table capacity on an `n x n` machine under a
/// write-heavy workload.
pub fn mlt_rows(n: u32, capacities: &[usize], txns: u64) -> Vec<MltRow> {
    capacities
        .iter()
        .map(|&capacity| {
            let config = MachineConfig::grid(n).unwrap().with_mlt_capacity(capacity);
            let spec = SyntheticSpec::default()
                .with_request_rate_per_ms(15.0)
                .with_p_write(0.6)
                .with_shared_lines(512);
            let mut m = Machine::new(config, 41).unwrap();
            let report = m.run_synthetic(&spec, txns);
            MltRow {
                capacity,
                efficiency: report.efficiency,
                overflows: report.metrics.mlt_overflows.get(),
                ops_per_txn: report.ops_per_transaction(),
            }
        })
        .collect()
}

/// One row of the §3 robustness ablation: controllers drop their
/// modified-signal responsibility with the given probability; the valid
/// bit in memory recovers every request at the cost of retries.
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// Drop probability.
    pub drop_probability: f64,
    /// Run efficiency.
    pub efficiency: f64,
    /// Signals dropped.
    pub dropped: u64,
    /// Memory bounces (valid-bit recoveries).
    pub bounces: u64,
    /// Mean retries per modified-data read.
    pub retries_per_read_modified: f64,
}

/// Sweeps the signal-drop probability — quantifying the §3 claim that "a
/// controller can, on occasion, simply discard such requests without
/// breaking the protocol".
pub fn robustness_rows(n: u32, drops: &[f64], txns: u64) -> Vec<RobustnessRow> {
    drops
        .iter()
        .map(|&p| {
            let config = MachineConfig::grid(n)
                .unwrap()
                .with_fault_plan(FaultPlan::default().with_signal_drop(p));
            let spec = SyntheticSpec::default().with_request_rate_per_ms(15.0);
            let mut m = Machine::new(config, 43).unwrap();
            let report = m.run_synthetic(&spec, txns);
            let rm = &report.metrics.read_modified;
            RobustnessRow {
                drop_probability: p,
                efficiency: report.efficiency,
                dropped: report.metrics.dropped_signals.get(),
                bounces: report.metrics.memory_bounces.get(),
                retries_per_read_modified: if rm.count > 0 {
                    rm.retries.get() as f64 / rm.count as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// One row of the composite fault sweep: every fault class scaled together
/// from a single base probability, with bounded-exponential retry backoff
/// enabled.
#[derive(Debug, Clone)]
pub struct FaultSweepRow {
    /// The base fault probability `p` (signal drops at `p`; the other
    /// classes at fixed fractions of it).
    pub probability: f64,
    /// Run efficiency.
    pub efficiency: f64,
    /// Mean end-to-end transaction latency (ns).
    pub mean_latency_ns: f64,
    /// Total retries across all transactions.
    pub retries: u64,
    /// Largest retry count any single transaction needed.
    pub max_retries: u32,
    /// Total injected backoff delay (ns).
    pub backoff_ns: u64,
    /// Request operations lost on a bus.
    pub lost_ops: u64,
    /// Spurious duplicate operations injected.
    pub duplicated_ops: u64,
    /// Memory-bank transient NACKs.
    pub memory_nacks: u64,
    /// MLT replica updates left transiently stale.
    pub mlt_delays: u64,
    /// Controller blackout windows opened.
    pub blackouts: u64,
    /// Livelock-watchdog escalations.
    pub watchdog_trips: u64,
    /// Transactions completed (must always equal the submitted count —
    /// the sweep's whole point).
    pub completed: u64,
}

/// The composite fault plan used by the sweep: signal drops at `p`, op
/// loss at `p/2`, duplicates and bank NACKs at `p/4`, MLT delay at `p/4`,
/// blackouts at `p/8`.
pub fn sweep_plan(p: f64) -> FaultPlan {
    FaultPlan::default()
        .with_signal_drop(p)
        .with_op_loss(p / 2.0)
        .with_op_duplicate(p / 4.0)
        .with_memory_nack(p / 4.0)
        .with_mlt_delay(p / 4.0, 2_000)
        .with_blackout(p / 8.0, 2_000)
}

/// The base seed and per-series stream of the composite fault sweep.
///
/// The stream is namespaced (`"faults"` + the grid side) via the workspace
/// seed-splitting scheme, so the sweep shares no RNG stream with the
/// figure harnesses even though they all default to base seed `0x5EED`.
pub fn fault_sweep_seed(n: u32, index: usize) -> u64 {
    split_seed(0x5EED, stream_id("faults", &format!("n={n}")), index as u64)
}

/// The composite fault sweep's outcome: rows in probability order, plus
/// any contained per-point failures (a `FailFast` watchdog panic, say)
/// with replay coordinates.
#[derive(Debug, Clone)]
pub struct FaultSweep {
    /// Measured rows, one per requested probability that completed.
    pub rows: Vec<FaultSweepRow>,
    /// Probabilities whose run panicked, with replay coordinates.
    pub failures: Vec<PointFailure>,
}

/// Sweeps the composite fault probability on an `n x n` machine — the §3
/// robustness claim measured under every fault class at once. Each run
/// must complete every transaction and pass the coherence checker; the
/// sweep quantifies what that resilience *costs* in latency and retries.
///
/// Points fan out over the worker pool; a panicking point is contained as
/// a [`PointFailure`] and the remaining rows still report.
pub fn fault_sweep_rows(pool: &Pool, n: u32, probs: &[f64], txns: u64) -> FaultSweep {
    let jobs: Vec<(usize, f64)> = probs.iter().copied().enumerate().collect();
    let results = pool.map(jobs, |_, (i, p)| {
        let config = MachineConfig::grid(n)
            .unwrap()
            .with_fault_plan(sweep_plan(p))
            .with_retry_policy(RetryPolicy::default().with_backoff(100, 25_000));
        let spec = SyntheticSpec::default().with_request_rate_per_ms(15.0);
        let mut m = Machine::new(config, fault_sweep_seed(n, i)).unwrap();
        let report = m.run_synthetic(&spec, txns);
        let met = &report.metrics;
        let (retries, max_retries, backoff_ns) =
            met.classes()
                .iter()
                .fold((0u64, 0u32, 0u64), |(r, mx, b), (_, s)| {
                    (
                        r + s.retries.get(),
                        mx.max(s.max_retries),
                        b + s.backoff_ns.get(),
                    )
                });
        FaultSweepRow {
            probability: p,
            efficiency: report.efficiency,
            mean_latency_ns: report.mean_latency_ns,
            retries,
            max_retries,
            backoff_ns,
            lost_ops: met.lost_ops.get(),
            duplicated_ops: met.duplicated_ops.get(),
            memory_nacks: met.memory_nacks.get(),
            mlt_delays: met.mlt_delays.get(),
            blackouts: met.blackouts.get(),
            watchdog_trips: met.watchdog_trips.get(),
            completed: report.transactions_completed,
        }
    });
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (i, result) in results.into_iter().enumerate() {
        match result {
            Ok(row) => rows.push(row),
            Err(panic) => failures.push(PointFailure {
                series: format!("faults n={n}"),
                index: i,
                rate_per_ms: 15.0,
                seed: fault_sweep_seed(n, i),
                message: panic.message,
            }),
        }
    }
    FaultSweep { rows, failures }
}

/// Renders the composite fault sweep as an ASCII table.
pub fn render_fault_sweep(title: &str, rows: &[FaultSweepRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:>6} {:>10} {:>12} {:>9} {:>11} {:>12} {:>6} {:>6} {:>6} {:>7} {:>9} {:>6}\n",
        "p",
        "efficiency",
        "latency ns",
        "retries",
        "max retries",
        "backoff ns",
        "lost",
        "dup",
        "nack",
        "mltdel",
        "blackout",
        "trips"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>6.2} {:>10.4} {:>12.0} {:>9} {:>11} {:>12} {:>6} {:>6} {:>6} {:>7} {:>9} {:>6}\n",
            r.probability,
            r.efficiency,
            r.mean_latency_ns,
            r.retries,
            r.max_retries,
            r.backoff_ns,
            r.lost_ops,
            r.duplicated_ops,
            r.memory_nacks,
            r.mlt_delays,
            r.blackouts,
            r.watchdog_trips
        ));
    }
    out
}

/// Renders a run's resilience telemetry: per-class retry pressure (total
/// retries, worst-case retries, accumulated backoff) plus the machine-wide
/// fault and watchdog counters.
pub fn render_resilience(title: &str, report: &multicube::RunReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<28} {:>8} {:>9} {:>11} {:>14}\n",
        "class", "count", "retries", "max retries", "backoff ns"
    ));
    // Stable class set (see `render_class_stats`): empty classes print too.
    for (name, s) in report.metrics.classes() {
        out.push_str(&format!(
            "{:<28} {:>8} {:>9} {:>11} {:>14}\n",
            name,
            s.count,
            s.retries.get(),
            s.max_retries,
            s.backoff_ns.get()
        ));
    }
    let m = &report.metrics;
    out.push_str(&format!(
        "faults: lost {} dup {} nacks {} mlt-delays {} blackouts {} | \
         signal drops {} | watchdog trips {}\n",
        m.lost_ops.get(),
        m.duplicated_ops.get(),
        m.memory_nacks.get(),
        m.mlt_delays.get(),
        m.blackouts.get(),
        m.dropped_signals.get(),
        m.watchdog_trips.get()
    ));
    out
}

/// One row of the snarfing ablation (§3's "snarf" optimization).
#[derive(Debug, Clone)]
pub struct SnarfRow {
    /// Whether snarfing was enabled.
    pub snarfing: bool,
    /// Run efficiency.
    pub efficiency: f64,
    /// Lines snarfed.
    pub snarfs: u64,
    /// Bus transactions issued (snarfing converts future misses to hits).
    pub bus_transactions: u64,
}

/// Measures the effect of snarfing under a re-read-heavy workload.
pub fn snarf_rows(n: u32, txns: u64) -> Vec<SnarfRow> {
    [false, true]
        .iter()
        .map(|&on| {
            let config = MachineConfig::grid(n).unwrap().with_snarfing(on);
            // A small, hot working set maximizes re-reads of purged lines.
            let spec = SyntheticSpec::default()
                .with_request_rate_per_ms(15.0)
                .with_shared_lines(64)
                .with_p_write(0.4);
            let mut m = Machine::new(config, 47).unwrap();
            let report = m.run_synthetic(&spec, txns);
            SnarfRow {
                snarfing: on,
                efficiency: report.efficiency,
                snarfs: report.metrics.snarfs.get(),
                bus_transactions: report.metrics.bus_transactions(),
            }
        })
        .collect()
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn tiny_mlt_forces_overflow_writebacks() {
        let rows = mlt_rows(4, &[4, 4096], 40);
        assert!(rows[0].overflows > 0, "capacity 4 must overflow");
        assert_eq!(rows[1].overflows, 0, "huge table never overflows");
        assert!(rows[0].ops_per_txn >= rows[1].ops_per_txn);
    }

    #[test]
    fn signal_drops_cost_retries_not_correctness() {
        let rows = robustness_rows(4, &[0.0, 0.5], 40);
        assert_eq!(rows[0].dropped, 0);
        assert!(rows[1].dropped > 0);
        assert!(rows[1].bounces > rows[0].bounces);
        assert!(rows[1].retries_per_read_modified > 0.0);
    }

    #[test]
    fn snarfing_runs_and_snarfs() {
        let rows = snarf_rows(4, 60);
        assert_eq!(rows[0].snarfs, 0);
        assert!(rows[1].snarfs > 0, "hot set must trigger snarfs");
    }

    #[test]
    fn fault_sweep_completes_everything_and_costs_retries() {
        let sweep = fault_sweep_rows(&Pool::serial(), 4, &[0.0, 0.5], 40);
        assert!(sweep.failures.is_empty());
        let rows = sweep.rows;
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.completed, 40 * 16, "every transaction completes");
        }
        assert_eq!(rows[0].retries, 0, "fault-free run needs no fault retries");
        assert_eq!(rows[0].lost_ops, 0);
        assert!(rows[1].retries > 0, "heavy faults must cost retries");
        assert!(rows[1].lost_ops > 0);
        assert!(rows[1].backoff_ns > 0, "backoff policy must engage");
        assert!(rows[1].mean_latency_ns > rows[0].mean_latency_ns);
    }

    #[test]
    fn fault_sweep_render_has_all_columns() {
        let rows = fault_sweep_rows(&Pool::serial(), 4, &[0.25], 20).rows;
        let text = render_fault_sweep("faults", &rows);
        assert!(text.contains("== faults =="));
        assert!(text.contains("efficiency"));
        assert!(text.contains("backoff ns"));
        assert!(text.contains("0.25"));
    }

    #[test]
    fn resilience_render_includes_fault_counters() {
        let config = MachineConfig::grid(4)
            .unwrap()
            .with_fault_plan(sweep_plan(0.4))
            .with_retry_policy(RetryPolicy::default().with_backoff(100, 10_000));
        let mut m = Machine::new(config, 59).unwrap();
        let report = m.run_synthetic(&SyntheticSpec::default(), 30);
        let text = render_resilience("resilience", &report);
        assert!(text.contains("== resilience =="));
        assert!(text.contains("retries"));
        assert!(text.contains("watchdog trips"));
    }
}
