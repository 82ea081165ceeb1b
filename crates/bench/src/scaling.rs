//! The 1024-processor scaling study: the paper's headline claim, measured.
//!
//! §1 proposes a 32×32 grid of 1024 processors; Figure 2 sweeps n =
//! 8..32. This module runs the full cross product — every grid side
//! against every request rate — on the deterministic worker pool,
//! recording efficiency *and* bus utilization per point, and emits the
//! results both as a table (`figures -- scaling`) and as a committed JSON
//! artifact (`BENCH_scaling.json`) so scaling regressions are diffable in
//! review.
//!
//! Seeds follow the workspace splitting scheme: point seeds derive from
//! `(study seed, stream_id("scaling", "n=<side>"), rate index)`, so the
//! study shares no RNG stream with the figure sweeps even at the default
//! base seed.

use multicube::pdes::{run_cube, CubeConfig, CubeShards};
use multicube::{Machine, MachineConfig, SyntheticSpec};
use multicube_sim::pdes::ExecutorKind;
use multicube_sim::pool::Pool;
use multicube_sim::{split_seed, stream_id};
use std::fmt::Write as _;
use std::time::Instant;

use crate::simfig::PointFailure;

/// Identifies the JSON layout; bump when the schema changes shape.
/// v2 added the `cube` section (the parallel-DES n³ scaling study); v3
/// moved the scheduler's round/message counts out of the deterministic
/// point block (they depend on the shard granularity) and into per-leg
/// full-mode timing records that also carry window and work-stealing
/// telemetry.
pub const SCALING_SCHEMA: &str = "multicube-bench-scaling/v3";

/// The harness namespace folded into every point seed.
const NAMESPACE: &str = "scaling";

/// Study parameters: which machines, which operating points.
#[derive(Debug, Clone)]
pub struct ScalingStudyConfig {
    /// Grid sides to sweep (`n` ⇒ `n²` processors).
    pub ns: Vec<u32>,
    /// Offered request rates (requests/ms/processor) per machine.
    pub rates: Vec<f64>,
    /// Blocking requests issued per processor at each point.
    pub txns_per_node: u64,
    /// Base RNG seed of the study.
    pub seed: u64,
}

impl ScalingStudyConfig {
    /// The full study: the paper's n ∈ {8, 16, 24, 32} (64 to 1024
    /// processors) across the Figure 2 rate grid.
    pub fn full() -> Self {
        ScalingStudyConfig {
            ns: vec![8, 16, 24, 32],
            rates: vec![2.0, 6.0, 10.0, 15.0, 20.0, 25.0, 30.0],
            txns_per_node: 40,
            seed: 0x5EED,
        }
    }

    /// The CI smoke study: small grids, three rates, few transactions.
    pub fn quick() -> Self {
        ScalingStudyConfig {
            ns: vec![4, 8],
            rates: vec![2.0, 10.0, 25.0],
            txns_per_node: 15,
            seed: 0x5EED,
        }
    }

    /// The seed for one `(grid side, rate index)` point of this study.
    pub fn point_seed(&self, n: u32, index: usize) -> u64 {
        split_seed(
            self.seed,
            stream_id(NAMESPACE, &format!("n={n}")),
            index as u64,
        )
    }
}

/// One measured operating point of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Grid side.
    pub n: u32,
    /// Total processors (`n²`).
    pub processors: u32,
    /// Offered request rate (requests/ms/processor).
    pub rate_per_ms: f64,
    /// The derived per-point seed (replay coordinates).
    pub seed: u64,
    /// Processor efficiency (think / (think + blocked)).
    pub efficiency: f64,
    /// Efficiency × processors: the machine's effective parallelism at
    /// this operating point — the number the paper's speedup claim is
    /// about.
    pub effective_processors: f64,
    /// Mean row-bus utilization.
    pub rho_row: f64,
    /// Mean column-bus utilization.
    pub rho_col: f64,
    /// Bus operations per completed transaction.
    pub ops_per_txn: f64,
    /// Transactions completed (must equal `processors × txns_per_node`).
    pub completed: u64,
}

/// The study's outcome: measured points in `(n, rate)` order plus any
/// contained per-point failures.
#[derive(Debug, Clone)]
pub struct ScalingStudy {
    /// The configuration the study ran under.
    pub config: ScalingStudyConfig,
    /// Measured points, ordered by grid side then rate.
    pub points: Vec<ScalingPoint>,
    /// Points that panicked, with replay coordinates.
    pub failures: Vec<PointFailure>,
}

/// Runs the study's full `(n, rate)` matrix on the pool.
pub fn run_scaling_study(pool: &Pool, config: &ScalingStudyConfig) -> ScalingStudy {
    let jobs: Vec<(u32, usize, f64)> = config
        .ns
        .iter()
        .flat_map(|&n| {
            config
                .rates
                .iter()
                .enumerate()
                .map(move |(i, &r)| (n, i, r))
        })
        .collect();
    let txns = config.txns_per_node;
    let results = pool.map(jobs.clone(), |_, (n, i, rate)| {
        let seed = config.point_seed(n, i);
        let machine_config = MachineConfig::grid(n).expect("valid grid side");
        let spec = SyntheticSpec::default().with_request_rate_per_ms(rate);
        let mut m = Machine::new(machine_config, seed).expect("valid configuration");
        let report = m.run_synthetic(&spec, txns);
        ScalingPoint {
            n,
            processors: n * n,
            rate_per_ms: rate,
            seed,
            efficiency: report.efficiency,
            effective_processors: report.efficiency * f64::from(n * n),
            rho_row: report.utilization.row_mean,
            rho_col: report.utilization.col_mean,
            ops_per_txn: report.ops_per_transaction(),
            completed: report.transactions_completed,
        }
    });
    let mut points = Vec::new();
    let mut failures = Vec::new();
    for ((n, i, rate), result) in jobs.into_iter().zip(results) {
        match result {
            Ok(p) => points.push(p),
            Err(panic) => failures.push(PointFailure {
                series: format!("n={n}"),
                index: i,
                rate_per_ms: rate,
                seed: config.point_seed(n, i),
                message: panic.message,
            }),
        }
    }
    ScalingStudy {
        config: config.clone(),
        points,
        failures,
    }
}

/// Parameters of the parallel-DES cube study: full k = 3 Multicubes of
/// `side` planes × `side`² processors each, executed through the
/// conservative plane-sharded scheduler.
#[derive(Debug, Clone)]
pub struct CubeStudyConfig {
    /// Cube sides to sweep (`n` ⇒ `n³` processors).
    pub sides: Vec<u32>,
    /// Blocking transactions per processor within each plane.
    pub txns_per_node: u64,
    /// Open-loop cross-plane depth-bus ops issued per plane.
    pub remote_ops: u64,
    /// Mean gap between a plane's remote issues (ns).
    pub remote_gap_ns: f64,
    /// Base RNG seed of the study.
    pub seed: u64,
    /// Worker threads for the parallel execution leg.
    pub workers: usize,
    /// Shard granularity of the quick-mode execution (and the warmup
    /// reference). The measured full-mode legs sweep both granularities
    /// regardless; this knob exists so the CI determinism job can rerun
    /// the quick study under `MULTICUBE_PDES_SHARDS` and byte-diff the
    /// artifact — execution strategy must never leak into it.
    pub shards: CubeShards,
    /// Round executor of the quick-mode execution (same contract:
    /// `MULTICUBE_PDES_EXECUTOR` reruns must be byte-identical).
    pub executor: ExecutorKind,
    /// Adaptive conservative window for the quick-mode execution.
    pub adaptive_window: bool,
    /// Measure wall-clock serial-vs-parallel timing. Off in quick mode so
    /// the JSON carries only deterministic fields and stays byte-identical
    /// across worker counts for the CI determinism diff; the fingerprint
    /// column (checked serial-vs-parallel inside the run) is the
    /// worker-invariance evidence.
    pub measure: bool,
}

impl CubeStudyConfig {
    /// The full study: n ∈ {8, 16, 24, 32} — 512 to 32768 processors.
    pub fn full(workers: usize) -> Self {
        CubeStudyConfig {
            sides: vec![8, 16, 24, 32],
            txns_per_node: 4,
            remote_ops: 256,
            remote_gap_ns: 250.0,
            seed: 0x5EED,
            workers,
            shards: CubeShards::Plane,
            executor: ExecutorKind::TwoBarrier,
            adaptive_window: false,
            measure: true,
        }
    }

    /// The CI smoke study: tiny cubes, deterministic fields only.
    pub fn quick(workers: usize) -> Self {
        CubeStudyConfig {
            sides: vec![3, 4],
            txns_per_node: 3,
            remote_ops: 16,
            remote_gap_ns: 200.0,
            seed: 0x5EED,
            workers,
            shards: CubeShards::Plane,
            executor: ExecutorKind::TwoBarrier,
            adaptive_window: false,
            measure: false,
        }
    }

    fn cube_config(&self, side: u32, workers: usize) -> CubeConfig {
        let mut cfg = CubeConfig::new(side);
        cfg.txns_per_node = self.txns_per_node;
        cfg.remote_ops = self.remote_ops;
        cfg.remote_gap_ns = self.remote_gap_ns;
        cfg.seed = split_seed(self.seed, stream_id(NAMESPACE, "cube"), u64::from(side));
        cfg.workers = workers;
        cfg.shards = self.shards;
        cfg.executor = self.executor;
        cfg.adaptive_window = self.adaptive_window;
        // The per-plane coherence checker is O(lines × nodes) per plane and
        // orthogonal to what this study measures; the quick study keeps it
        // on as a smoke check, the big full-mode cubes turn it off.
        cfg.check = !self.measure;
        cfg
    }

    /// One full-mode timed leg's configuration.
    fn leg_config(
        &self,
        side: u32,
        workers: usize,
        shards: CubeShards,
        executor: ExecutorKind,
        adaptive_window: bool,
    ) -> CubeConfig {
        let mut cfg = self.cube_config(side, workers);
        cfg.shards = shards;
        cfg.executor = executor;
        cfg.adaptive_window = adaptive_window;
        cfg
    }
}

/// One timed full-mode execution leg of a cube point: a (granularity,
/// executor, window) combination run at `workers` threads, with the
/// scheduler's telemetry for that combination. Wall time is
/// host-dependent by nature, so legs never appear in the deterministic
/// quick artifact; every leg's fingerprint is asserted equal to the
/// serial reference before it is recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeLeg {
    /// Shard granularity of this leg.
    pub shards: CubeShards,
    /// Round executor of this leg.
    pub executor: ExecutorKind,
    /// Whether the adaptive conservative window was on.
    pub adaptive_window: bool,
    /// Worker threads.
    pub workers: usize,
    /// Wall time, milliseconds.
    pub wall_ms: f64,
    /// Serial reference wall time / this leg's wall time.
    pub speedup: f64,
    /// Machine events per second through this leg.
    pub events_per_sec: f64,
    /// Conservative-scheduler rounds (deterministic per granularity and
    /// window policy).
    pub rounds: u64,
    /// Cross-shard messages routed (deterministic per granularity).
    pub messages: u64,
    /// Smallest adaptive window width used (ns; 0 when unbounded).
    pub window_min_ns: u64,
    /// Median adaptive window width (ns; 0 when unbounded).
    pub window_median_ns: u64,
    /// Largest adaptive window width (ns; 0 when unbounded).
    pub window_max_ns: u64,
    /// Successful steals (work-stealing executor only).
    pub steals: u64,
    /// Steal probes, successful or not.
    pub steal_attempts: u64,
    /// Total worker idle time inside rounds, nanoseconds.
    pub idle_ns: u64,
}

/// Wall-clock measurements of one cube point. Full mode only.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeTiming {
    /// Host threads available (`std::thread::available_parallelism`) —
    /// context for reading the speedups: a 1-thread host cannot show one.
    pub host_parallelism: usize,
    /// Serial (1-worker, plane-sharded, unbounded) wall time, ms.
    pub serial_ms: f64,
    /// Machine events per second, serial execution.
    pub events_per_sec_serial: f64,
    /// The timed parallel legs, in sweep order.
    pub legs: Vec<CubeLeg>,
}

/// One measured cube of the parallel-DES study. All fields except
/// `timing` are deterministic functions of the configuration — and
/// independent of the shard granularity, executor, window policy, and
/// worker count, which is what lets CI byte-diff the quick artifact
/// across execution strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct CubePoint {
    /// Cube side.
    pub side: u32,
    /// Total processors (`side³`).
    pub processors: u64,
    /// Transactions completed across all planes.
    pub transactions: u64,
    /// Cross-plane depth-bus ops serviced.
    pub remote_ops: u64,
    /// Machine events delivered across all planes.
    pub events: u64,
    /// Mean plane efficiency.
    pub mean_efficiency: f64,
    /// The run's fingerprint (also asserted equal between the serial and
    /// parallel legs before this point is recorded).
    pub fingerprint: String,
    /// Wall-clock comparison; `None` when the study has `measure` off.
    pub timing: Option<CubeTiming>,
}

/// The cube study's outcome, in `sides` order.
#[derive(Debug, Clone)]
pub struct CubeStudy {
    /// The configuration the study ran under.
    pub config: CubeStudyConfig,
    /// Measured cubes, ordered by side.
    pub points: Vec<CubePoint>,
}

/// The (granularity, executor, window) combinations the full study times
/// per cube: the PR 8 plane/two-barrier cut as the comparison baseline,
/// then the two-level column decomposition under the adaptive window with
/// each executor.
const FULL_LEGS: [(CubeShards, ExecutorKind, bool); 3] = [
    (CubeShards::Plane, ExecutorKind::TwoBarrier, false),
    (CubeShards::Column, ExecutorKind::TwoBarrier, true),
    (CubeShards::Column, ExecutorKind::WorkStealing, true),
];

/// Runs the cube study. The scheduler parallelizes internally (across
/// shards), so points run one at a time rather than on the pool — timing
/// legs must not compete with sibling points for cores.
///
/// Every point executes serially first (the reference). Quick mode then
/// reruns it at the configured worker count; full mode additionally runs
/// a serial pass at the *other* granularity and then every `FULL_LEGS`
/// combination, timed. Every rerun's fingerprint is asserted identical to
/// the reference before the point is recorded: the committed artifact is
/// itself a determinism proof across worker counts, granularities,
/// executors, and window policies.
pub fn run_cube_study(config: &CubeStudyConfig) -> CubeStudy {
    let points = config
        .sides
        .iter()
        .map(|&side| {
            // The first run doubles as the warmup: it faults in the
            // point's working set, so the timed legs below all start
            // with a warm allocator instead of the first-comer paying
            // the cold-page cost (which biased whichever leg ran first
            // by up to 3x before the warmup was split out).
            let serial = run_cube(&config.cube_config(side, 1));
            let fingerprint = serial.fingerprint();

            let workers = config.workers.max(if config.measure { 2 } else { 1 });
            let timing = if config.measure {
                // The cross-granularity differential, serial: the other
                // shard decomposition must replay the same bytes.
                let other_shards = match config.shards {
                    CubeShards::Plane => CubeShards::Column,
                    CubeShards::Column => CubeShards::Plane,
                };
                let cross = run_cube(&config.leg_config(
                    side,
                    1,
                    other_shards,
                    config.executor,
                    config.adaptive_window,
                ));
                assert_eq!(
                    cross.fingerprint(),
                    fingerprint,
                    "cube side {side} diverged between granularities"
                );

                let start = Instant::now();
                let serial_timed = run_cube(&config.cube_config(side, 1));
                let serial_ms = start.elapsed().as_secs_f64() * 1e3;
                assert_eq!(serial_timed.fingerprint(), fingerprint);

                let legs = FULL_LEGS
                    .iter()
                    .map(|&(shards, executor, adaptive_window)| {
                        let cfg =
                            config.leg_config(side, workers, shards, executor, adaptive_window);
                        let start = Instant::now();
                        let report = run_cube(&cfg);
                        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                        assert_eq!(
                            report.fingerprint(),
                            fingerprint,
                            "cube side {side} diverged on the {}/{} leg",
                            shards.name(),
                            executor.name()
                        );
                        CubeLeg {
                            shards,
                            executor,
                            adaptive_window,
                            workers,
                            wall_ms,
                            speedup: serial_ms / wall_ms.max(f64::MIN_POSITIVE),
                            events_per_sec: report.events_delivered as f64 / (wall_ms / 1e3),
                            rounds: report.pdes.rounds,
                            messages: report.pdes.messages,
                            window_min_ns: report.pdes.window.min_ns,
                            window_median_ns: report.pdes.window.median_ns,
                            window_max_ns: report.pdes.window.max_ns,
                            steals: report.pdes.exec.steals,
                            steal_attempts: report.pdes.exec.steal_attempts,
                            idle_ns: report.pdes.exec.idle_ns,
                        }
                    })
                    .collect();
                Some(CubeTiming {
                    host_parallelism: std::thread::available_parallelism()
                        .map(std::num::NonZero::get)
                        .unwrap_or(1),
                    serial_ms,
                    events_per_sec_serial: serial.events_delivered as f64 / (serial_ms / 1e3),
                    legs,
                })
            } else {
                if workers > 1 {
                    let parallel = run_cube(&config.cube_config(side, workers));
                    assert_eq!(
                        parallel.fingerprint(),
                        fingerprint,
                        "cube side {side} diverged between 1 and {workers} workers"
                    );
                }
                None
            };

            let transactions = serial
                .planes
                .iter()
                .map(|p| p.run.transactions_completed)
                .sum();
            let remote_ops = serial.planes.iter().map(|p| p.depth.serviced).sum();
            let mean_efficiency = serial.planes.iter().map(|p| p.run.efficiency).sum::<f64>()
                / serial.planes.len() as f64;
            CubePoint {
                side,
                processors: serial.processors,
                transactions,
                remote_ops,
                events: serial.events_delivered,
                mean_efficiency,
                fingerprint,
                timing,
            }
        })
        .collect();
    CubeStudy {
        config: config.clone(),
        points,
    }
}

/// Renders the cube study as an ASCII table.
pub fn render_cube_study(study: &CubeStudy) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Cube scaling study (parallel DES): n = {} ==",
        study
            .config
            .sides
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("/")
    );
    let _ = writeln!(
        out,
        "{:>4} {:>7} {:>8} {:>7} {:>9} {:>8}  fingerprint",
        "n", "procs", "txns", "remote", "events", "eff"
    );
    for p in &study.points {
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>8} {:>7} {:>9} {:>8.4}  {}",
            p.side,
            p.processors,
            p.transactions,
            p.remote_ops,
            p.events,
            p.mean_efficiency,
            p.fingerprint
        );
    }
    if study.points.iter().any(|p| p.timing.is_some()) {
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>13} {:>7} {:>10} {:>8} {:>12}",
            "n", "shards", "executor", "window", "wall ms", "speedup", "ev/s"
        );
        for p in &study.points {
            if let Some(t) = &p.timing {
                let _ = writeln!(
                    out,
                    "{:>4} {:>7} {:>13} {:>7} {:>10.1} {:>8} {:>12.0}  (host threads: {})",
                    p.side,
                    "plane",
                    "serial",
                    "-",
                    t.serial_ms,
                    "1.00",
                    t.events_per_sec_serial,
                    t.host_parallelism
                );
                for leg in &t.legs {
                    let _ = writeln!(
                        out,
                        "{:>4} {:>7} {:>13} {:>7} {:>10.1} {:>8.2} {:>12.0}",
                        p.side,
                        leg.shards.name(),
                        leg.executor.name(),
                        if leg.adaptive_window { "adapt" } else { "full" },
                        leg.wall_ms,
                        leg.speedup,
                        leg.events_per_sec
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>13} {:>8} {:>9} {:>17} {:>8} {:>9} {:>10}",
            "n",
            "shards",
            "executor",
            "rounds",
            "msgs",
            "window min/med/max",
            "steals",
            "probes",
            "idle ms"
        );
        for p in &study.points {
            if let Some(t) = &p.timing {
                for leg in &t.legs {
                    let _ = writeln!(
                        out,
                        "{:>4} {:>7} {:>13} {:>8} {:>9} {:>5}/{:>5}/{:>5} {:>8} {:>9} {:>10.1}",
                        p.side,
                        leg.shards.name(),
                        leg.executor.name(),
                        leg.rounds,
                        leg.messages,
                        leg.window_min_ns,
                        leg.window_median_ns,
                        leg.window_max_ns,
                        leg.steals,
                        leg.steal_attempts,
                        leg.idle_ns as f64 / 1e6
                    );
                }
            }
        }
    }
    out
}

/// Renders the study as ASCII tables: one efficiency/utilization block per
/// grid side, then the effective-parallelism summary across sides.
pub fn render_scaling_study(study: &ScalingStudy) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Scaling study: efficiency and bus utilization, n = {} ==",
        study
            .config
            .ns
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join("/")
    );
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>8} {:>11} {:>11} {:>8} {:>8} {:>9} {:>10}",
        "n",
        "procs",
        "rate/ms",
        "efficiency",
        "eff procs",
        "rho row",
        "rho col",
        "ops/txn",
        "completed"
    );
    for p in &study.points {
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>8.1} {:>11.4} {:>11.1} {:>8.4} {:>8.4} {:>9.2} {:>10}",
            p.n,
            p.processors,
            p.rate_per_ms,
            p.efficiency,
            p.effective_processors,
            p.rho_row,
            p.rho_col,
            p.ops_per_txn,
            p.completed
        );
    }
    for f in &study.failures {
        let _ = writeln!(out, "!! failed point: {f}");
    }
    out
}

/// Renders the study as the `BENCH_scaling.json` artifact. `cube`, when
/// present, is emitted as a `"cube"` section after the grid points; its
/// timing fields appear only for full-mode (measured) studies, keeping
/// quick-mode output free of host-dependent bytes.
pub fn render_scaling_json(study: &ScalingStudy, cube: Option<&CubeStudy>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCALING_SCHEMA}\",");
    let _ = writeln!(out, "  \"seed\": {},", study.config.seed);
    let _ = writeln!(out, "  \"txns_per_node\": {},", study.config.txns_per_node);
    let ns: Vec<String> = study.config.ns.iter().map(|n| n.to_string()).collect();
    let _ = writeln!(out, "  \"ns\": [{}],", ns.join(", "));
    let rates: Vec<String> = study.config.rates.iter().map(|r| r.to_string()).collect();
    let _ = writeln!(out, "  \"rates_per_ms\": [{}],", rates.join(", "));
    let _ = writeln!(out, "  \"failures\": {},", study.failures.len());
    out.push_str("  \"points\": [\n");
    for (i, p) in study.points.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"n\": {},", p.n);
        let _ = writeln!(out, "      \"processors\": {},", p.processors);
        let _ = writeln!(out, "      \"rate_per_ms\": {},", p.rate_per_ms);
        let _ = writeln!(out, "      \"seed\": {},", p.seed);
        let _ = writeln!(out, "      \"efficiency\": {:.6},", p.efficiency);
        let _ = writeln!(
            out,
            "      \"effective_processors\": {:.2},",
            p.effective_processors
        );
        let _ = writeln!(out, "      \"rho_row\": {:.6},", p.rho_row);
        let _ = writeln!(out, "      \"rho_col\": {:.6},", p.rho_col);
        let _ = writeln!(out, "      \"ops_per_txn\": {:.4},", p.ops_per_txn);
        let _ = writeln!(out, "      \"completed\": {}", p.completed);
        out.push_str(if i + 1 == study.points.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    if let Some(cube) = cube {
        out.push_str("  ],\n");
        out.push_str("  \"cube\": {\n");
        let _ = writeln!(out, "    \"seed\": {},", cube.config.seed);
        let _ = writeln!(out, "    \"txns_per_node\": {},", cube.config.txns_per_node);
        let _ = writeln!(
            out,
            "    \"remote_ops_per_plane\": {},",
            cube.config.remote_ops
        );
        let sides: Vec<String> = cube.config.sides.iter().map(|n| n.to_string()).collect();
        let _ = writeln!(out, "    \"sides\": [{}],", sides.join(", "));
        out.push_str("    \"points\": [\n");
        for (i, p) in cube.points.iter().enumerate() {
            out.push_str("      {\n");
            let _ = writeln!(out, "        \"side\": {},", p.side);
            let _ = writeln!(out, "        \"processors\": {},", p.processors);
            let _ = writeln!(out, "        \"transactions\": {},", p.transactions);
            let _ = writeln!(out, "        \"remote_ops\": {},", p.remote_ops);
            let _ = writeln!(out, "        \"events\": {},", p.events);
            let _ = writeln!(
                out,
                "        \"mean_efficiency\": {:.6},",
                p.mean_efficiency
            );
            if let Some(t) = &p.timing {
                let _ = writeln!(out, "        \"fingerprint\": \"{}\",", p.fingerprint);
                let _ = writeln!(out, "        \"host_parallelism\": {},", t.host_parallelism);
                let _ = writeln!(out, "        \"serial_ms\": {:.3},", t.serial_ms);
                let _ = writeln!(
                    out,
                    "        \"events_per_sec_serial\": {:.0},",
                    t.events_per_sec_serial
                );
                out.push_str("        \"legs\": [\n");
                for (j, leg) in t.legs.iter().enumerate() {
                    out.push_str("          {\n");
                    let _ = writeln!(out, "            \"shards\": \"{}\",", leg.shards.name());
                    let _ = writeln!(
                        out,
                        "            \"executor\": \"{}\",",
                        leg.executor.name()
                    );
                    let _ = writeln!(
                        out,
                        "            \"adaptive_window\": {},",
                        leg.adaptive_window
                    );
                    let _ = writeln!(out, "            \"workers\": {},", leg.workers);
                    let _ = writeln!(out, "            \"wall_ms\": {:.3},", leg.wall_ms);
                    let _ = writeln!(out, "            \"speedup\": {:.4},", leg.speedup);
                    let _ = writeln!(
                        out,
                        "            \"events_per_sec\": {:.0},",
                        leg.events_per_sec
                    );
                    let _ = writeln!(out, "            \"rounds\": {},", leg.rounds);
                    let _ = writeln!(out, "            \"messages\": {},", leg.messages);
                    let _ = writeln!(out, "            \"window_min_ns\": {},", leg.window_min_ns);
                    let _ = writeln!(
                        out,
                        "            \"window_median_ns\": {},",
                        leg.window_median_ns
                    );
                    let _ = writeln!(out, "            \"window_max_ns\": {},", leg.window_max_ns);
                    let _ = writeln!(out, "            \"steals\": {},", leg.steals);
                    let _ = writeln!(
                        out,
                        "            \"steal_attempts\": {},",
                        leg.steal_attempts
                    );
                    let _ = writeln!(out, "            \"idle_ns\": {}", leg.idle_ns);
                    out.push_str(if j + 1 == t.legs.len() {
                        "          }\n"
                    } else {
                        "          },\n"
                    });
                }
                out.push_str("        ]\n");
            } else {
                let _ = writeln!(out, "        \"fingerprint\": \"{}\"", p.fingerprint);
            }
            out.push_str(if i + 1 == cube.points.len() {
                "      }\n"
            } else {
                "      },\n"
            });
        }
        out.push_str("    ]\n");
        out.push_str("  }\n");
    } else {
        out.push_str("  ]\n");
    }
    out.push_str("}\n");
    out
}

/// Validates that `text` looks like a scaling report this module wrote:
/// the schema marker, one point per configured `(n, rate)` pair, no
/// recorded failures, and — when `cube` is given — one fingerprinted cube
/// point per configured side.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate_scaling_report(
    text: &str,
    config: &ScalingStudyConfig,
    cube: Option<&CubeStudyConfig>,
) -> Result<(), String> {
    if !text.contains(&format!("\"schema\": \"{SCALING_SCHEMA}\"")) {
        return Err(format!("missing schema marker {SCALING_SCHEMA}"));
    }
    let expected = config.ns.len() * config.rates.len();
    let got = text.matches("\"efficiency\":").count();
    if got != expected {
        return Err(format!("expected {expected} points, found {got}"));
    }
    if !text.contains("\"failures\": 0") {
        return Err("report records contained point failures".to_string());
    }
    for n in &config.ns {
        if !text.contains(&format!("\"n\": {n},")) {
            return Err(format!("missing grid side n={n}"));
        }
    }
    if let Some(cube) = cube {
        let expected = cube.sides.len();
        let got = text.matches("\"fingerprint\":").count();
        if got != expected {
            return Err(format!("expected {expected} cube points, found {got}"));
        }
        for side in &cube.sides {
            if !text.contains(&format!("\"side\": {side},")) {
                return Err(format!("missing cube side {side}"));
            }
        }
        if cube.measure {
            let legs = text.matches("\"legs\":").count();
            if legs != expected {
                return Err(format!(
                    "expected {expected} timed-leg blocks, found {legs}"
                ));
            }
            if !text.contains("\"host_parallelism\":") {
                return Err("measured cube study must record host_parallelism".to_string());
            }
        } else if text.contains("\"legs\":") {
            return Err("quick cube study must not record timed legs".to_string());
        }
    } else if text.contains("\"cube\":") {
        return Err("unexpected cube section".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScalingStudyConfig {
        ScalingStudyConfig {
            ns: vec![2, 4],
            rates: vec![5.0, 25.0],
            txns_per_node: 8,
            seed: 7,
        }
    }

    #[test]
    fn study_covers_the_full_matrix_in_order() {
        let study = run_scaling_study(&Pool::serial(), &tiny());
        assert!(study.failures.is_empty());
        let shape: Vec<(u32, f64)> = study.points.iter().map(|p| (p.n, p.rate_per_ms)).collect();
        assert_eq!(shape, vec![(2, 5.0), (2, 25.0), (4, 5.0), (4, 25.0)]);
        for p in &study.points {
            assert_eq!(p.completed, u64::from(p.processors) * 8);
            assert!(p.efficiency > 0.0 && p.efficiency <= 1.0);
            assert_eq!(
                p.seed,
                tiny().point_seed(p.n, usize::from(p.rate_per_ms > 5.0))
            );
        }
    }

    #[test]
    fn bigger_machines_scale_effective_processors() {
        let study = run_scaling_study(&Pool::serial(), &tiny());
        let small = &study.points[0]; // n=2 at 5 req/ms
        let large = &study.points[2]; // n=4 at 5 req/ms
        assert!(large.effective_processors > small.effective_processors * 2.0);
    }

    #[test]
    fn study_seeds_are_disjoint_from_figure_sweeps() {
        let cfg = ScalingStudyConfig::full();
        let sweep = crate::simfig::SweepConfig::default();
        // Same base seed (0x5EED), same label shape ("n=8"), same index —
        // different namespace, therefore a different stream.
        assert_ne!(
            cfg.point_seed(8, 0),
            sweep.point_seed(multicube_sim::stream_id("fig2", "n=8"), 0)
        );
    }

    #[test]
    fn json_roundtrips_and_validates() {
        let cfg = tiny();
        let study = run_scaling_study(&Pool::serial(), &cfg);
        let json = render_scaling_json(&study, None);
        validate_scaling_report(&json, &cfg, None).unwrap();
        let wrong = ScalingStudyConfig {
            ns: vec![2, 4, 8],
            ..cfg
        };
        assert!(validate_scaling_report(&json, &wrong, None).is_err());
        assert!(validate_scaling_report("{}", &tiny(), None).is_err());
    }

    fn tiny_cube() -> CubeStudyConfig {
        CubeStudyConfig {
            sides: vec![2, 3],
            txns_per_node: 2,
            remote_ops: 8,
            remote_gap_ns: 150.0,
            seed: 7,
            workers: 2,
            shards: CubeShards::Plane,
            executor: ExecutorKind::TwoBarrier,
            adaptive_window: false,
            measure: false,
        }
    }

    #[test]
    fn cube_study_records_deterministic_points() {
        let cube = run_cube_study(&tiny_cube());
        assert_eq!(cube.points.len(), 2);
        for (p, side) in cube.points.iter().zip([2u64, 3]) {
            assert_eq!(p.side as u64, side);
            assert_eq!(p.processors, side.pow(3));
            assert_eq!(p.transactions, side.pow(3) * 2);
            assert_eq!(p.remote_ops, side * 8);
            assert!(p.events > 0);
            assert!(p.mean_efficiency > 0.0 && p.mean_efficiency <= 1.0);
            assert!(p.timing.is_none(), "quick studies must not record timing");
        }
        // Deterministic end to end: a replay reproduces every field.
        assert_eq!(run_cube_study(&tiny_cube()).points, cube.points);
    }

    #[test]
    fn cube_json_is_execution_strategy_invariant_and_validates() {
        let cfg = tiny();
        let study = run_scaling_study(&Pool::serial(), &cfg);
        let cube_cfg = tiny_cube();
        let cube = run_cube_study(&cube_cfg);
        let json = render_scaling_json(&study, Some(&cube));
        validate_scaling_report(&json, &cfg, Some(&cube_cfg)).unwrap();
        // The cube section must not leak wall-clock bytes in quick mode...
        assert!(!json.contains("\"serial_ms\""));
        assert!(!json.contains("\"workers\""));
        assert!(!json.contains("\"legs\""));
        // ...and must render byte-identically at a different worker count
        // and under the other granularity/executor/window — the in-process
        // version of the CI byte-diff across MULTICUBE_PDES_SHARDS and
        // MULTICUBE_PDES_EXECUTOR.
        let mut other = tiny_cube();
        other.workers = 4;
        other.shards = CubeShards::Column;
        other.executor = ExecutorKind::WorkStealing;
        other.adaptive_window = true;
        let json_other = render_scaling_json(&study, Some(&run_cube_study(&other)));
        assert_eq!(json, json_other);
        // A cube-less report no longer validates against a cube config.
        let plain = render_scaling_json(&study, None);
        assert!(validate_scaling_report(&plain, &cfg, Some(&cube_cfg)).is_err());
        assert!(validate_scaling_report(&json, &cfg, None).is_err());
    }

    #[test]
    fn measured_cube_study_embeds_timing_legs_and_telemetry() {
        let mut cfg = tiny_cube();
        cfg.sides = vec![2];
        cfg.measure = true;
        let cube = run_cube_study(&cfg);
        let t = cube.points[0].timing.as_ref().expect("timing recorded");
        assert!(t.serial_ms > 0.0 && t.events_per_sec_serial > 0.0);
        assert_eq!(t.legs.len(), 3);
        for leg in &t.legs {
            assert_eq!(leg.workers, 2);
            assert!(leg.wall_ms > 0.0 && leg.speedup > 0.0);
            assert!(leg.rounds > 0 && leg.messages > 0);
        }
        // The plane/two-barrier baseline leg runs unbounded: no window
        // telemetry; the adaptive legs must report widths at or above the
        // lookahead floor.
        assert_eq!(t.legs[0].window_median_ns, 0);
        for leg in &t.legs[1..] {
            assert!(leg.adaptive_window);
            assert!(leg.window_min_ns >= 10);
            assert!(leg.window_min_ns <= leg.window_median_ns);
            assert!(leg.window_median_ns <= leg.window_max_ns);
        }
        // The column decomposition has more shards, so more rounds/msgs.
        assert!(t.legs[1].rounds >= t.legs[0].rounds);
        let json = render_scaling_json(&run_scaling_study(&Pool::serial(), &tiny()), Some(&cube));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.contains("\"legs\""));
        assert!(json.contains("\"window_median_ns\""));
        assert!(json.contains("\"steal_attempts\""));
        assert!(json.contains("\"executor\": \"work-stealing\""));
        validate_scaling_report(&json, &tiny(), Some(&cfg)).unwrap();
    }

    #[test]
    fn render_has_a_row_per_point() {
        let study = run_scaling_study(&Pool::serial(), &tiny());
        let text = render_scaling_study(&study);
        assert!(text.contains("== Scaling study"));
        assert_eq!(text.lines().count(), 2 + study.points.len());
    }
}
