//! `verify`: the exhaustive model checker over all three engines, then
//! the simulator cross-validated against the model's reachable states.
//!
//! The only workload that runs `model`. Its thousands of 2x2 simulator
//! runs make `Machine::new` a large share of the work, the opposite of
//! `serve`, so a set-up regression hidden by long runs shows here.

use std::fmt::Write as _;
use std::time::Instant;

use multicube::{EngineKind, Machine, MachineConfig};
use multicube_model::{check_model, cross_validate, rules, ModelConfig};
use multicube_sim::md5_hex;

use crate::rep::{guarded, ratio, since, Rep};
use crate::trace::Tracer;

/// Size of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Model-checked configuration: lines, transactions, fault budget
    /// (the budget applies to the Multicube engine only).
    pub check: (u8, u8, u8),
    /// Cross-validated configuration: lines, transactions.
    pub xval: (u8, u8),
}

/// The benchmark's size.
pub const SIZE: Size = Size {
    check: (2, 4, 1),
    xval: (2, 3),
};

/// 2x2 machines built to time `Machine::new` at this workload's scale.
const NEW_PROBES: u32 = 2_000;

/// One repetition at `size`.
pub fn rep(size: Size, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();

    // Set-up: the model configurations, validated by building each one's
    // rule set and the 2x2 simulator machine cross-validation drives.
    let t_setup = Instant::now();
    let setup = tr.begin("setup");
    let mut configs = Vec::with_capacity(3);
    for engine in EngineKind::all() {
        let (lines, txns, budget) = size.check;
        let budget = if engine == EngineKind::Multicube {
            budget
        } else {
            0
        };
        let check = ModelConfig::new(engine, lines, txns, budget);
        let xval = ModelConfig::new(engine, size.xval.0, size.xval.1, 0);
        for cfg in [&check, &xval] {
            std::hint::black_box(rules::rules(cfg));
        }
        let span = tr.begin("Machine::new");
        let config = MachineConfig::grid(2)
            .expect("2x2 grid is valid")
            .with_engine(engine);
        std::hint::black_box(Machine::new(config, 1).expect("valid configuration"));
        tr.end(span);
        configs.push((engine, check, xval));
    }
    tr.end(setup);
    rep.setup_ns = since(t_setup);

    let t_run = Instant::now();
    let (mut explore_ns, mut xval_ns) = (0u64, 0u64);
    let (mut states, mut transitions, mut sim_runs, mut fingerprints) = (0u64, 0u64, 0u64, 0u64);
    let mut summary = String::new();
    for (engine, check, xval) in &configs {
        let t = Instant::now();
        let span = tr.begin("check_model");
        let explored = guarded(|| check_model(check));
        tr.end(span);
        explore_ns += since(t);
        match explored {
            Some(e) => {
                rep.attempt(e.violation.is_none() && !e.truncated);
                states += e.states.len() as u64;
                transitions += e.transitions;
                let _ = writeln!(
                    summary,
                    "model {} {:?} states={} transitions={} violation={} truncated={}",
                    engine.name(),
                    size.check,
                    e.states.len(),
                    e.transitions,
                    e.violation.is_some(),
                    e.truncated
                );
            }
            None => rep.attempt(false),
        }

        let t = Instant::now();
        let span = tr.begin("cross_validate");
        let report = guarded(|| cross_validate(xval));
        tr.end(span);
        xval_ns += since(t);
        match report {
            Some(Ok(r)) => {
                rep.attempt(true);
                sim_runs += r.sim_runs as u64;
                fingerprints += r.fingerprints_checked;
                rep.txns += r.sim_runs as u64 * u64::from(size.xval.1);
                let _ = writeln!(summary, "xval {} {:?} {r:?}", engine.name(), size.xval);
            }
            _ => rep.attempt(false),
        }
    }
    rep.run_ns = since(t_run);
    rep.digest = md5_hex(summary.as_bytes());
    rep.summary = summary;

    rep.layer(
        "states_per_s",
        ratio(states as f64, explore_ns as f64 / 1e9),
    );
    rep.layer("model.explore_ms", explore_ns as f64 / 1e6);
    rep.layer("model.states", states as f64);
    rep.layer("model.transitions", transitions as f64);
    rep.layer(
        "model.states_per_transition",
        ratio(states as f64, transitions as f64),
    );
    rep.layer("xval.sim_runs", sim_runs as f64);
    rep.layer(
        "xval.us_per_sim_run",
        ratio(xval_ns as f64 / 1e3, sim_runs as f64),
    );
    rep.layer("xval.fingerprints_checked", fingerprints as f64);

    if tr.on() {
        // Outside the repetition's timings: the cost of one 2x2
        // `Machine::new`, the call each xval run makes first.
        let config = MachineConfig::grid(2).expect("2x2 grid is valid");
        let t = Instant::now();
        let span = tr.begin("Machine::new");
        for i in 0..NEW_PROBES {
            std::hint::black_box(
                Machine::new(config.clone(), u64::from(i)).expect("valid configuration"),
            );
        }
        tr.end(span);
        rep.layer(
            "machine.new_us",
            since(t) as f64 / 1e3 / f64::from(NEW_PROBES),
        );
    }
    rep
}
