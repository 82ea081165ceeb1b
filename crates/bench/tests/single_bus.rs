//! The single-bus side of the paper's argument, checked against its two
//! independent references: the analytic shared-bus model, and the
//! committed full-mode protocol shootout.

use multicube_bench::baseline_rows;
use multicube_mva::{single_bus_efficiency, ModelParams};

/// Largest |simulated − analytic| single-bus efficiency allowed at any
/// E-1.1 processor count. The measured worst case is 0.053, at 64
/// processors (simulated 0.924 vs analytic 0.871), where the bus is near
/// the knee and the model's M/M/1-style queue term is most pessimistic.
const SINGLE_BUS_TOLERANCE: f64 = 0.06;

#[test]
fn single_bus_engine_agrees_with_the_analytic_model() {
    for row in baseline_rows(10.0, 40) {
        let side = (row.processors as f64).sqrt() as u32;
        assert_eq!(side * side, row.processors, "E-1.1 points are squares");
        let analytic = single_bus_efficiency(&ModelParams::figure2(side), row.processors, 10.0);
        let gap = (row.multi_efficiency - analytic).abs();
        assert!(
            gap <= SINGLE_BUS_TOLERANCE,
            "{} processors: simulated {:.4} vs analytic {analytic:.4} (gap {gap:.4})",
            row.processors,
            row.multi_efficiency
        );
    }
}

/// One parsed row of `BENCH_shootout.csv`.
struct CsvRow {
    engine: String,
    n: u32,
    rate: f64,
    efficiency: f64,
}

fn committed_shootout() -> Vec<CsvRow> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shootout.csv");
    let text = std::fs::read_to_string(path).expect("BENCH_shootout.csv is committed");
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("column {name} missing"))
    };
    let (engine, n, rate, eff) = (
        col("engine"),
        col("n"),
        col("rate_per_ms"),
        col("efficiency"),
    );
    lines
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            CsvRow {
                engine: f[engine].to_string(),
                n: f[n].parse().unwrap(),
                rate: f[rate].parse().unwrap(),
                efficiency: f[eff].parse().unwrap(),
            }
        })
        .collect()
}

#[test]
fn committed_shootout_is_the_full_n8_run() {
    let rows = committed_shootout();
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|r| r.n == 8), "every row must be n = 8");
    let top = rows.iter().map(|r| r.rate).fold(f64::MIN, f64::max);
    let at_top = |engine: &str| {
        rows.iter()
            .find(|r| r.engine == engine && r.rate == top)
            .unwrap_or_else(|| panic!("{engine} has no row at {top} req/ms"))
            .efficiency
    };
    let cube = at_top("multicube");
    assert!(cube >= 0.92, "multicube at {top} req/ms: {cube:.4}");
    for engine in ["mesi", "dragon"] {
        let eff = at_top(engine);
        assert!(eff <= 0.35, "{engine} at {top} req/ms: {eff:.4}");
    }
}
