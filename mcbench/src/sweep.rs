//! `sweep`: closed-loop synthetic Figure-2 traffic on a 16x16 grid at the
//! paper's scaling rates, for Multicube, MESI, Dragon and Multicube under
//! the composite fault plan, fanned out over the worker pool.
//!
//! It uses the machine layer differently from `serve`: all three
//! protocol engines, saturated single buses beside a lightly loaded grid,
//! and the fault/retry path, with no trace codec. Its fault-free
//! Multicube points are compared with the analytic MVA model.

use std::fmt::Write as _;
use std::time::Instant;

use multicube::{
    check_engine, EngineKind, FaultPlan, Machine, MachineConfig, RetryPolicy, RunReport,
    SyntheticSpec,
};
use multicube_bench::tables::sweep_plan;
use multicube_mva::{solve, ModelParams};
use multicube_sim::pool::Pool;
use multicube_sim::{md5_hex, split_seed, stream_id};

use crate::counters::SimCounters;
use crate::rep::{ns, ratio, since, Rep};
use crate::trace::Tracer;

/// Size of one repetition.
#[derive(Debug, Clone)]
pub struct Size {
    /// Grid side.
    pub side: u32,
    /// Offered request rates (requests/ms/processor).
    pub rates: &'static [f64],
    /// Blocking transactions per processor at each point.
    pub txns_per_node: u64,
    /// Pool workers.
    pub workers: usize,
}

/// The benchmark's size: 4 series x 7 rates x 256 processors x 20 transactions.
pub const SIZE: Size = Size {
    side: 16,
    rates: &[2.0, 6.0, 10.0, 15.0, 20.0, 25.0, 30.0],
    txns_per_node: 20,
    workers: 2,
};

/// Base probability of the composite fault plan (`figures -- faults`).
const FAULT_P: f64 = 0.1;

/// Largest |simulated - MVA| efficiency accepted at a fault-free Multicube
/// point: the tolerance `tests/end_to_end.rs` holds the two models to.
const MVA_TOLERANCE: f64 = 0.05;

/// The four series: label, engine, fault plan.
fn series() -> [(&'static str, EngineKind, Option<FaultPlan>); 4] {
    [
        ("multicube", EngineKind::Multicube, None),
        ("mesi", EngineKind::Mesi, None),
        ("dragon", EngineKind::Dragon, None),
        (
            "multicube-faults",
            EngineKind::Multicube,
            Some(sweep_plan(FAULT_P)),
        ),
    ]
}

/// One pool job's result.
struct Point {
    machine: Machine,
    report: RunReport,
    start: Instant,
    end: Instant,
}

/// One repetition at `size`.
pub fn rep(seed: u64, size: &Size, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();

    // Set-up: one configured machine per (series, rate) point. Every
    // series replays the same per-rate seeds, so the engines see
    // identical request streams.
    let t_setup = Instant::now();
    let setup = tr.begin("setup");
    let mut jobs = Vec::new();
    let mut new_ns = 0u64;
    for (label, engine, plan) in series() {
        for (i, &rate) in size.rates.iter().enumerate() {
            let mut config = MachineConfig::grid(size.side)
                .expect("valid grid side")
                .with_engine(engine);
            if let Some(plan) = plan {
                config = config
                    .with_fault_plan(plan)
                    .with_retry_policy(RetryPolicy::default().with_backoff(100, 25_000));
            }
            let spec = SyntheticSpec::default().with_request_rate_per_ms(rate);
            let point_seed = split_seed(
                seed,
                stream_id("sweep", &format!("n={}", size.side)),
                i as u64,
            );
            let t = Instant::now();
            let span = tr.begin("Machine::new");
            let machine = Machine::new(config, point_seed).expect("valid machine configuration");
            tr.end(span);
            new_ns += since(t);
            jobs.push((label, engine, rate, machine, spec));
        }
    }
    tr.end(setup);
    rep.setup_ns = since(t_setup);
    let points = jobs.len();

    // Measured phase: every point through the pool.
    let labels: Vec<(&'static str, EngineKind, f64)> =
        jobs.iter().map(|j| (j.0, j.1, j.2)).collect();
    let items: Vec<(Machine, SyntheticSpec)> = jobs.into_iter().map(|j| (j.3, j.4)).collect();
    let t_run = Instant::now();
    let span = tr.begin("Pool::map");
    let results = Pool::new(size.workers).map(items, |_, (mut machine, spec)| {
        let start = Instant::now();
        let report = machine.run_synthetic(&spec, size.txns_per_node);
        Point {
            machine,
            report,
            start,
            end: Instant::now(),
        }
    });
    for r in results.iter().flatten() {
        tr.record("Machine::run_synthetic", r.start, r.end);
    }
    tr.end(span);
    rep.run_ns = since(t_run);

    // Output checks: each machine against its engine's invariants, and
    // the fault-free Multicube points against the MVA model.
    let t_check = Instant::now();
    let mut sim = SimCounters::default();
    let mut summary = String::new();
    let mut job_ns = Vec::with_capacity(results.len());
    let mut mva_abs_err = 0.0f64;
    let mut solve_ns = 0u64;
    let mut solves = 0u32;
    let mut engine_check_ns = 0u64;
    for ((label, engine, rate), result) in labels.into_iter().zip(results) {
        let Ok(p) = result else {
            rep.attempt(false);
            let _ = writeln!(summary, "sweep {label} rate={rate} panicked");
            continue;
        };
        rep.attempt(true);
        let t = Instant::now();
        let span = tr.begin("check_engine");
        let coherent = check_engine(engine, &p.machine).is_ok();
        tr.end(span);
        engine_check_ns += since(t);
        rep.attempt(coherent);
        rep.txns += p.report.transactions_completed;
        job_ns.push(ns(p.end - p.start));
        sim.add_report(&p.report);
        let r = &p.report;
        let _ = writeln!(
            summary,
            "sweep {label} rate={rate} txns={} eff={:.6} rho_row={:.6} rho_col={:.6} events={} sim_ns={}",
            r.transactions_completed,
            r.efficiency,
            r.utilization.row_mean,
            r.utilization.col_mean,
            r.events_delivered,
            r.elapsed.as_nanos()
        );
        if label == "multicube" {
            let t = Instant::now();
            let span = tr.begin("mva::solve");
            let model = solve(&ModelParams::figure2(size.side), rate);
            tr.end(span);
            solve_ns += since(t);
            solves += 1;
            mva_abs_err = mva_abs_err.max((r.efficiency - model.efficiency).abs());
        }
    }
    rep.attempt(solves > 0 && mva_abs_err <= MVA_TOLERANCE);
    rep.check_ns = since(t_check);
    let _ = writeln!(summary, "sweep mva_abs_err={mva_abs_err:.6}");
    rep.digest = md5_hex(summary.as_bytes());
    rep.summary = summary;

    let busy: u64 = job_ns.iter().sum();
    job_ns.sort_unstable();
    let run_ns = rep.run_ns as f64;
    rep.layer("machine.ns_per_txn", ratio(busy as f64, sim.txns() as f64));
    rep.layer("machine.new_us", ratio(new_ns as f64 / 1e3, points as f64));
    rep.layer("machine.check_ms", engine_check_ns as f64 / 1e6);
    rep.layer(
        "wheel.ns_per_event",
        ratio(busy as f64, sim.events() as f64),
    );
    rep.layer(
        "pool.busy_frac",
        ratio(busy as f64, run_ns * size.workers as f64),
    );
    rep.layer(
        "pool.job_p50_ms",
        job_ns
            .get(job_ns.len() / 2)
            .map_or(0.0, |&v| v as f64 / 1e6),
    );
    rep.layer(
        "pool.job_max_ms",
        job_ns.last().map_or(0.0, |&v| v as f64 / 1e6),
    );
    rep.layer(
        "mva.solve_us",
        ratio(solve_ns as f64 / 1e3, f64::from(solves)),
    );
    rep.layer("mva_abs_err", mva_abs_err);
    sim.emit(&mut rep);
    rep
}
