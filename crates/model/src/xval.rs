//! Simulator ↔ model cross-validation.
//!
//! The model checker and the event-driven simulator describe the same
//! protocols at different granularities: the checker's transitions are
//! atomic, the simulator's are chains of timed bus events. The bridge is
//! a **version-free fingerprint** of quiescent coherence state — per
//! line: who owns it, who holds it exclusive-clean or shared-modified,
//! the sharer set, and memory's valid bit — computed through the same
//! [`CoherenceView`] trait on both sides.
//!
//! [`cross_validate`] drives the real [`Machine`] over *every* request
//! schedule the model admits (all ordered assignments of nodes, kinds
//! and lines to the transaction budget, both serially and concurrently)
//! and asserts that each quiescent fingerprint the simulator reaches is
//! in the model's reachable-idle set: the simulator's observable states
//! are a **subset** of the checker's. With a fault budget it repeats a
//! strided sample of the schedules under a composite fault plan — the §3
//! self-healing argument says faults must not add observable states.
//!
//! The simulator runs are independent, so they fan out over
//! [`multicube_sim::pool`]: each pass splits its schedules into
//! contiguous chunks, every chunk stops at its first failure, and the
//! chunk results are folded in schedule order. The reported failure is
//! therefore always the one at the lowest-index failing schedule — the
//! one a serial loop would report — and the report is identical at every
//! worker count.

use std::fmt;

use multicube::{
    CoherenceView, EngineKind, FaultPlan, LineMode, Machine, MachineConfig, Request, RequestKind,
    RetryPolicy,
};
use multicube_mem::LineAddr;
use multicube_sim::{FxHashSet, Pool};
use multicube_topology::NodeId;

use crate::state::{ModelConfig, StateView, NODES, SIDE};

/// One line's version-free quiescent shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineFingerprint {
    /// The modified holder, if any.
    pub owner: Option<u8>,
    /// The exclusive-clean holder, if any.
    pub excl: Option<u8>,
    /// The shared-modified holder, if any.
    pub sm: Option<u8>,
    /// Bitmask of nodes holding the line shared.
    pub sharers: u8,
    /// Memory's valid bit.
    pub mem_valid: bool,
}

/// A whole machine's fingerprint: one entry per modelled line.
pub type Fingerprint = Vec<LineFingerprint>;

/// Fingerprints any coherence view over the first `lines` line addresses.
///
/// One pass: each node's resident lines, the memory snapshot and the
/// `Sm` table are walked once, and entries beyond the first `lines`
/// addresses are ignored. A line memory never stored reads valid.
pub fn fingerprint(v: &dyn CoherenceView, lines: u8) -> Fingerprint {
    let mut out: Fingerprint = vec![
        LineFingerprint {
            owner: None,
            excl: None,
            sm: None,
            sharers: 0,
            mem_valid: true,
        };
        lines as usize
    ];
    for (line, valid, _) in v.memory() {
        if let Some(fp) = out.get_mut(line.index() as usize) {
            fp.mem_valid = valid;
        }
    }
    for node_idx in 0..NODES as u8 {
        for (line, mode, _) in v.resident(NodeId::new(u32::from(node_idx))) {
            let Some(fp) = out.get_mut(line.index() as usize) else {
                continue;
            };
            match mode {
                LineMode::Modified => fp.owner = Some(node_idx),
                LineMode::Reserved => fp.excl = Some(node_idx),
                LineMode::Shared => fp.sharers |= 1 << node_idx,
            }
        }
    }
    // The `Sm` table holds at most one entry per line.
    for (line, node) in v.sm_entries() {
        if let Some(fp) = out.get_mut(line.index() as usize) {
            fp.sm = Some(node.index() as u8);
        }
    }
    out
}

/// The model's reachable-idle fingerprint set: every explored state with
/// no transaction in flight, fingerprinted.
pub fn idle_fingerprints(
    cfg: &ModelConfig,
    exploration: &crate::kernel::Exploration<crate::state::State, multicube::CoherenceViolation>,
) -> FxHashSet<Fingerprint> {
    exploration
        .states
        .iter()
        .filter(|s| s.idle())
        .map(|s| fingerprint(&StateView { cfg, state: s }, cfg.lines))
        .collect()
}

/// Cross-validation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XvalReport {
    /// Distinct states the checker explored.
    pub model_states: usize,
    /// Distinct idle fingerprints in the model set.
    pub model_idle_fingerprints: usize,
    /// Simulator runs driven (serial + concurrent + faulted).
    pub sim_runs: usize,
    /// Quiescent fingerprints checked against the model set.
    pub fingerprints_checked: u64,
}

/// The 2×2 simulator configuration matching `cfg`.
fn sim_config(cfg: &ModelConfig, faults: Option<FaultPlan>) -> MachineConfig {
    let mut config = MachineConfig::grid(SIDE as u32)
        .expect("2x2 grid is valid")
        .with_engine(cfg.engine);
    if let Some(plan) = faults {
        config = config
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::default().with_backoff(100, 10_000));
    }
    config
}

/// One request schedule: `txns` entries of `(node, write, line)`.
type RequestTuple = Vec<(u8, bool, u8)>;

/// All ordered request tuples for `cfg` — the same space the model's
/// `issue` rule enumerates.
fn request_tuples(cfg: &ModelConfig) -> Vec<RequestTuple> {
    let choices: Vec<(u8, bool, u8)> = (0..NODES as u8)
        .flat_map(|node| {
            (0..cfg.lines).flat_map(move |line| [(node, false, line), (node, true, line)])
        })
        .collect();
    let mut tuples: Vec<RequestTuple> = vec![Vec::new()];
    for _ in 0..cfg.txns {
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                choices.iter().map(move |c| {
                    let mut t2 = t.clone();
                    t2.push(*c);
                    t2
                })
            })
            .collect();
    }
    tuples
}

fn request_of(write: bool, line: u8) -> Request {
    let kind = if write {
        RequestKind::Write
    } else {
        RequestKind::Read
    };
    Request::new(kind, LineAddr::new(line as u64))
}

/// Describes a tuple for error messages.
fn describe(tuple: &RequestTuple) -> String {
    tuple
        .iter()
        .map(|(n, w, l)| format!("P{n}:{}L{l}", if *w { "W" } else { "R" }))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Drives one simulator run and checks every quiescent fingerprint
/// against the model set. `serial` quiesces after every submission;
/// otherwise submissions overlap wherever the one-per-node limit allows.
fn drive(
    cfg: &ModelConfig,
    config: MachineConfig,
    run: &Run<'_>,
    model: &FxHashSet<Fingerprint>,
    checked: &mut u64,
) -> Result<(), String> {
    let tuple = run.tuple;
    let mut m = Machine::new(config, run.seed).map_err(|e| e.to_string())?;
    // `when` is formatted only on failure.
    let mut verify = |m: &Machine, when: fmt::Arguments<'_>| -> Result<(), String> {
        m.check_coherence()
            .map_err(|v| format!("[{}] {when}: simulator incoherent: {v}", describe(tuple)))?;
        let fp = fingerprint(m, cfg.lines);
        *checked += 1;
        if !model.contains(&fp) {
            return Err(format!(
                "[{}] {when}: simulator fingerprint {fp:?} is not model-reachable",
                describe(tuple)
            ));
        }
        Ok(())
    };
    for (i, &(node, write, line)) in tuple.iter().enumerate() {
        let node_id = NodeId::new(node as u32);
        if m.submit(node_id, request_of(write, line)).is_err() {
            // One outstanding request per node: drain and resubmit.
            m.run_to_quiescence();
            verify(&m, format_args!("forced quiescence before step {i}"))?;
            m.submit(node_id, request_of(write, line))
                .map_err(|e| format!("resubmit after drain failed: {e:?}"))?;
        }
        if run.serial {
            m.run_to_quiescence();
            verify(&m, format_args!("after step {i}"))?;
        }
    }
    m.run_to_quiescence();
    verify(&m, format_args!("final quiescence"))
}

/// One simulator run of a pass: a request schedule, the machine seed, and
/// whether it quiesces after every submission.
struct Run<'a> {
    tuple: &'a RequestTuple,
    seed: u64,
    serial: bool,
}

/// Drives every run of one pass on `pool` under machine `config` and
/// returns the fingerprints checked.
///
/// The runs are split into contiguous chunks, about eight per worker so
/// uneven chunks balance out. Each chunk stops at its first failure, and
/// the chunks are folded in order, so the error returned is the one of
/// the lowest-index failing run, exactly as a serial loop would report
/// it. A panic in a run (a simulator assertion) panics here too.
fn drive_pass(
    pool: &Pool,
    cfg: &ModelConfig,
    config: &MachineConfig,
    runs: &[Run<'_>],
    model: &FxHashSet<Fingerprint>,
) -> Result<u64, String> {
    let chunk_len = runs.len().div_ceil(pool.workers() * 8).max(1);
    let chunks: Vec<&[Run<'_>]> = runs.chunks(chunk_len).collect();
    let results = pool.map(chunks, |_, chunk| -> Result<u64, String> {
        let mut checked = 0;
        for run in chunk {
            drive(cfg, config.clone(), run, model, &mut checked)?;
        }
        Ok(checked)
    });
    let mut checked = 0;
    for result in results {
        match result {
            Ok(chunk_checked) => checked += chunk_checked?,
            Err(panic) => std::panic::resume_unwind(Box::new(panic.message)),
        }
    }
    Ok(checked)
}

/// Cross-validates the simulator against a given model set on `pool`:
/// every request tuple serially and concurrently, then (when
/// `cfg.budget > 0`) the strided faulted sample. Returns the runs driven
/// and the fingerprints checked.
fn drive_all(
    pool: &Pool,
    cfg: &ModelConfig,
    model: &FxHashSet<Fingerprint>,
) -> Result<(usize, u64), String> {
    let tuples = request_tuples(cfg);
    // Each tuple serially on seed 1, then concurrently on seed 2.
    let runs: Vec<Run<'_>> = tuples
        .iter()
        .flat_map(|tuple| {
            [(1, true), (2, false)].map(|(seed, serial)| Run {
                tuple,
                seed,
                serial,
            })
        })
        .collect();
    let mut checked = drive_pass(pool, cfg, &sim_config(cfg, None), &runs, model)?;
    let mut total = runs.len();

    if cfg.budget > 0 && cfg.engine == EngineKind::Multicube {
        // Faults must not add observable quiescent states (§3). A full
        // product with the fault plan would dominate runtime, so stride
        // the tuple space and vary the machine seed instead.
        let plan = FaultPlan::default()
            .with_op_loss(0.25)
            .with_memory_nack(0.25)
            .with_signal_drop(0.30)
            .with_op_duplicate(0.15)
            .with_mlt_delay(0.10, 2_000);
        let runs: Vec<Run<'_>> = tuples
            .iter()
            .enumerate()
            .step_by(7)
            .flat_map(|(i, tuple)| {
                [3u64, 11, 47].map(|seed| Run {
                    tuple,
                    seed: seed + i as u64,
                    serial: i % 2 == 0,
                })
            })
            .collect();
        checked += drive_pass(pool, cfg, &sim_config(cfg, Some(plan)), &runs, model)?;
        total += runs.len();
    }
    Ok((total, checked))
}

/// Exhaustively cross-validates the simulator against the model for
/// `cfg`: every request tuple serially and concurrently, plus (when
/// `cfg.budget > 0`) a strided sample of tuples under a composite fault
/// plan across several seeds. The simulator runs fan out over
/// [`Pool::from_env`]; the result does not depend on its worker count.
///
/// # Errors
///
/// A description of the first simulator state (with its request
/// schedule) that escapes the model's reachable set.
pub fn cross_validate(cfg: &ModelConfig) -> Result<XvalReport, String> {
    cross_validate_on(&Pool::from_env(), cfg)
}

/// [`cross_validate`] on an explicit pool.
fn cross_validate_on(pool: &Pool, cfg: &ModelConfig) -> Result<XvalReport, String> {
    let rules = crate::rules::rules(cfg);
    let exploration = crate::explore_model(cfg, &rules);
    if let Some(v) = &exploration.violation {
        return Err(format!("model itself is incoherent: {}", v.error));
    }
    if exploration.truncated {
        return Err("model exploration truncated; raise the state cap".into());
    }
    let model = idle_fingerprints(cfg, &exploration);
    let (sim_runs, fingerprints_checked) = drive_all(pool, cfg, &model)?;
    Ok(XvalReport {
        model_states: exploration.states.len(),
        model_idle_fingerprints: model.len(),
        sim_runs,
        fingerprints_checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-pool reference for one schedule: its two fault-free runs on
    /// the caller's thread.
    fn drive_serially(
        cfg: &ModelConfig,
        tuple: &RequestTuple,
        model: &FxHashSet<Fingerprint>,
    ) -> Result<(), String> {
        let mut checked = 0;
        for (seed, serial) in [(1, true), (2, false)] {
            let run = Run {
                tuple,
                seed,
                serial,
            };
            drive(cfg, sim_config(cfg, None), &run, model, &mut checked)?;
        }
        Ok(())
    }

    #[test]
    fn the_reported_failure_is_the_lowest_failing_schedule_at_any_worker_count() {
        let cfg = ModelConfig::new(EngineKind::Multicube, 1, 2, 1);
        let mut model = idle_fingerprints(&cfg, &crate::check_model(&cfg));
        // Line 0 held modified by node 3: reachable only by schedules in
        // which node 3 writes, so early schedules pass and later ones fail.
        let owned_by_p3 = vec![LineFingerprint {
            owner: Some(3),
            excl: None,
            sm: None,
            sharers: 0,
            mem_valid: false,
        }];
        assert!(model.remove(&owned_by_p3), "fingerprint is model-reachable");

        let tuples = request_tuples(&cfg);
        let (lowest, expect) = tuples
            .iter()
            .enumerate()
            .find_map(|(i, t)| drive_serially(&cfg, t, &model).err().map(|e| (i, e)))
            .expect("some schedule fails");
        assert!(lowest > 0, "the first schedule already fails");
        assert!(
            expect.starts_with(&format!("[{}]", describe(&tuples[lowest]))),
            "{expect}"
        );
        for workers in [1, 2] {
            let err = drive_all(&Pool::new(workers), &cfg, &model).unwrap_err();
            assert_eq!(err, expect, "{workers} workers");
        }
    }

    #[test]
    fn reports_are_identical_at_one_and_two_workers() {
        for engine in EngineKind::all() {
            let cfg = ModelConfig::new(engine, 2, 3, 0);
            let one = cross_validate_on(&Pool::new(1), &cfg).expect("cross-validates");
            let two = cross_validate_on(&Pool::new(2), &cfg).expect("cross-validates");
            assert_eq!(one, two, "{}", engine.name());
            assert_eq!(one.sim_runs, 8_192, "{}", engine.name());
            assert_eq!(one.fingerprints_checked, 23_296, "{}", engine.name());
        }
    }
}
