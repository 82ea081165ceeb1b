//! `cube`: the k=3 Multicube at side 16 (4,096 processors) through the
//! conservative parallel scheduler, plane shards, two-barrier executor,
//! two workers.
//!
//! The only workload where scheduler rounds, barriers and cross-shard
//! messages sit on the critical path; `serve` and `sweep` never enter
//! `sim::pdes`.

use std::fmt::Write as _;
use std::time::Instant;

use multicube::pdes::{run_cube, CubeConfig, CubeReport, CubeShards};
use multicube::{Machine, MachineConfig};
use multicube_sim::pdes::ExecutorKind;
use multicube_sim::{md5_hex, split_seed, stream_id};

use crate::counters::SimCounters;
use crate::rep::{guarded, ratio, since, Rep};
use crate::trace::Tracer;

/// Size of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Cube side (side^3 processors).
    pub side: u32,
    /// Blocking transactions per processor.
    pub txns_per_node: u64,
    /// Cross-plane depth operations per plane.
    pub remote_ops: u64,
    /// Scheduler worker threads.
    pub workers: usize,
}

/// The benchmark's size: 4,096 processors x 20 transactions.
pub const SIZE: Size = Size {
    side: 16,
    txns_per_node: 20,
    remote_ops: 256,
    workers: 2,
};

fn config(seed: u64, size: Size, workers: usize) -> CubeConfig {
    let mut cfg = CubeConfig::new(size.side);
    cfg.txns_per_node = size.txns_per_node;
    cfg.remote_ops = size.remote_ops;
    cfg.remote_gap_ns = 250.0;
    cfg.seed = split_seed(seed, stream_id("cube", "side"), u64::from(size.side));
    cfg.workers = workers;
    cfg.shards = CubeShards::Plane;
    cfg.executor = ExecutorKind::TwoBarrier;
    cfg.adaptive_window = false;
    cfg.check = true;
    cfg
}

fn txns(report: &CubeReport) -> u64 {
    report
        .planes
        .iter()
        .map(|p| p.run.transactions_completed)
        .sum()
}

/// One repetition at `size`. The traced repetition also runs the serial
/// reference (outside the repetition's timings) and fails the repetition
/// when the fingerprints differ.
pub fn rep(seed: u64, size: Size, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();

    // Set-up: the cube configuration and its plane machine configuration,
    // validated by building one plane machine.
    let t_setup = Instant::now();
    let setup = tr.begin("setup");
    let cfg = config(seed, size, size.workers);
    let t_new = Instant::now();
    let span = tr.begin("Machine::new");
    let plane = MachineConfig::grid(size.side)
        .expect("valid grid side")
        .with_engine(cfg.engine)
        .with_checking(cfg.check);
    let machine = Machine::new(plane, cfg.seed).expect("valid plane configuration");
    tr.end(span);
    let new_ns = since(t_new);
    drop(machine);
    tr.end(setup);
    rep.setup_ns = since(t_setup);

    let t_run = Instant::now();
    let span = tr.begin("pdes::run_cube");
    let report = guarded(|| run_cube(&cfg));
    tr.end(span);
    rep.run_ns = since(t_run);
    rep.attempt(report.is_some());
    let Some(report) = report else {
        rep.digest = "panicked".into();
        return rep;
    };
    rep.txns = txns(&report);
    let fingerprint = report.fingerprint();

    let mut summary = String::new();
    let depth = report
        .planes
        .iter()
        .fold((0u64, 0u64, 0u64), |(i, r, l), p| {
            (
                i + p.depth.issued,
                r + p.depth.replies,
                l + p.depth.latency_total_ns,
            )
        });
    let _ = writeln!(
        summary,
        "cube side={} procs={} txns={} events={} depth_issued={} depth_replies={} fingerprint={fingerprint}",
        report.side, report.processors, rep.txns, report.events_delivered, depth.0, depth.1
    );
    rep.digest = md5_hex(summary.as_bytes());
    rep.summary = summary;

    let mut sim = SimCounters::default();
    for p in &report.planes {
        sim.add_report(&p.run);
    }
    let stats = report.pdes;
    rep.layer("machine.new_us", new_ns as f64 / 1e3);
    rep.layer("pdes.rounds", stats.rounds as f64);
    rep.layer(
        "pdes.events_per_round",
        ratio(report.events_delivered as f64, stats.rounds as f64),
    );
    rep.layer("pdes.messages", stats.messages as f64);
    rep.layer("pdes.window_median_ns", stats.window.median_ns as f64);
    rep.layer("pdes.idle_ms", stats.exec.idle_ns as f64 / 1e6);
    rep.layer("cube.depth_issued", depth.0 as f64);
    rep.layer(
        "cube.depth_latency_mean_ns",
        ratio(depth.2 as f64, depth.1 as f64),
    );
    sim.emit(&mut rep);

    if tr.on() {
        let serial_cfg = config(seed, size, 1);
        let t = Instant::now();
        let span = tr.begin("pdes::run_cube(serial)");
        let serial = guarded(|| run_cube(&serial_cfg));
        tr.end(span);
        let serial_ns = since(t);
        let same = serial
            .as_ref()
            .is_some_and(|s| s.fingerprint() == fingerprint);
        rep.attempt(same);
        rep.layer(
            "pdes.speedup_vs_serial",
            ratio(serial_ns as f64, rep.run_ns as f64),
        );
        rep.layer(
            "machine.ns_per_txn",
            ratio(serial_ns as f64, rep.txns as f64),
        );
        rep.layer(
            "wheel.ns_per_event",
            ratio(serial_ns as f64, sim.events() as f64),
        );
    }
    rep
}
