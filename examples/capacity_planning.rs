//! Capacity planning with the analytical model: how big a Multicube can
//! you build before efficiency drops below a target?
//!
//! Uses the mean-value model (instant) to sweep grid sizes and request
//! rates, cross-checks one operating point against the discrete-event
//! machine, and contrasts with the single-bus multi (the same processors
//! on one snooping MESI bus).
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use multicube_suite::machine::{EngineKind, Machine, MachineConfig, SyntheticSpec};
use multicube_suite::mva::{solve, ModelParams};

fn main() {
    let target = 0.90;
    let rate = 25.0; // the paper's design point: 25 requests/ms/processor

    println!("Model sweep at {rate} req/ms/processor (target efficiency {target}):");
    println!(
        "{:>6} {:>8} {:>12} {:>10} {:>10}",
        "n", "procs", "efficiency", "rho row", "rho col"
    );
    let mut biggest = 0u32;
    for n in [8u32, 12, 16, 20, 24, 28, 32, 40, 48] {
        let s = solve(&ModelParams::figure2(n), rate);
        if s.efficiency >= target {
            biggest = n;
        }
        println!(
            "{:>6} {:>8} {:>12.4} {:>10.4} {:>10.4}",
            n,
            n * n,
            s.efficiency,
            s.rho_row,
            s.rho_col
        );
    }
    println!();
    println!(
        "Largest grid meeting the target: {biggest}x{biggest} = {} processors",
        biggest * biggest
    );

    // Cross-check one model point against the machine simulator.
    let check_n = 16u32;
    let model = solve(&ModelParams::figure2(check_n), rate);
    let spec = SyntheticSpec::default().with_request_rate_per_ms(rate);
    let mut machine = Machine::new(MachineConfig::grid(check_n).unwrap(), 11).unwrap();
    let sim = machine.run_synthetic(&spec, 60);
    println!();
    println!(
        "Cross-check at n={check_n}: model efficiency {:.4}, simulated {:.4}",
        model.efficiency, sim.efficiency
    );

    // And what a single bus would do with the same processors.
    let procs = check_n * check_n;
    let config = MachineConfig::grid(check_n)
        .unwrap()
        .with_engine(EngineKind::Mesi);
    let multi_report = Machine::new(config, 11).unwrap().run_synthetic(&spec, 60);
    println!(
        "A single-bus multi with {procs} processors at the same rate: efficiency {:.4} (bus {:.0}% busy)",
        multi_report.efficiency,
        multi_report.buses[0].utilization * 100.0
    );
}
