//! Cross-crate integration tests: the machine, synchronization layer,
//! workloads, analytical model and single-bus engines working together.

use multicube_suite::machine::{EngineKind, Machine, MachineConfig, Request, SyntheticSpec};
use multicube_suite::mem::LineAddr;
use multicube_suite::mva::{solve, ModelParams};
use multicube_suite::sync::{Barrier, LockExperiment, QueueLock, SpinLock};
use multicube_suite::topology::NodeId;
use multicube_suite::workload::{Oltp, PhasedNumeric, ProducerConsumer, Search, WorkloadRunner};

#[test]
fn model_and_simulation_agree_on_efficiency() {
    // The analytical model and the machine were built independently; they
    // must agree on the operating curve to a few percent.
    for (n, rate) in [(8u32, 10.0), (8, 25.0), (16, 15.0)] {
        let model = solve(&ModelParams::figure2(n), rate).efficiency;
        let spec = SyntheticSpec::default().with_request_rate_per_ms(rate);
        let mut m = Machine::new(MachineConfig::grid(n).unwrap(), 5).unwrap();
        let sim = m.run_synthetic(&spec, 60).efficiency;
        assert!(
            (model - sim).abs() < 0.05,
            "n={n} rate={rate}: model {model:.4} vs sim {sim:.4}"
        );
    }
}

#[test]
fn every_workload_leaves_the_machine_coherent() {
    // WorkloadRunner::run checks coherence internally; exercise all four.
    let run = |f: &mut dyn FnMut(&mut Machine) -> u64| {
        let mut m = Machine::new(MachineConfig::grid(4).unwrap(), 21).unwrap();
        f(&mut m)
    };
    let counts = [
        run(&mut |m| {
            WorkloadRunner::new(30)
                .run(m, &mut Oltp::new(32))
                .requests_completed
        }),
        run(&mut |m| {
            WorkloadRunner::new(30)
                .run(m, &mut ProducerConsumer::new())
                .requests_completed
        }),
        run(&mut |m| {
            WorkloadRunner::new(30)
                .run(m, &mut PhasedNumeric::new(4, 4))
                .requests_completed
        }),
        run(&mut |m| {
            WorkloadRunner::new(30)
                .run(m, &mut Search::new(64, 4))
                .requests_completed
        }),
    ];
    assert!(counts.iter().all(|&c| c == 30 * 16), "{counts:?}");
}

#[test]
fn locks_and_barriers_compose_on_one_machine_family() {
    let exp = LockExperiment::new(2).with_hold_ns(5_000);
    let mut m1 = Machine::new(MachineConfig::grid(4).unwrap(), 3).unwrap();
    let spin = exp.run::<SpinLock>(&mut m1);
    let mut m2 = Machine::new(MachineConfig::grid(4).unwrap(), 3).unwrap();
    let queue = exp.run::<QueueLock>(&mut m2);
    assert_eq!(spin.acquisitions, 32);
    assert_eq!(queue.acquisitions, 32);
    assert!(queue.bus_ops < spin.bus_ops);

    let mut m3 = Machine::new(MachineConfig::grid(4).unwrap(), 3).unwrap();
    let barrier = Barrier::new(3).run(&mut m3);
    assert_eq!(barrier.episodes, 3);
}

#[test]
fn multicube_beats_single_bus_at_scale() {
    let spec = SyntheticSpec::default().with_request_rate_per_ms(10.0);
    let run = |engine| {
        let config = MachineConfig::grid(12).unwrap().with_engine(engine);
        let mut m = Machine::new(config, 9).unwrap();
        m.run_synthetic(&spec, 30).efficiency
    };
    let multi_eff = run(EngineKind::Mesi);
    let cube_eff = run(EngineKind::Multicube);
    assert!(
        cube_eff > multi_eff + 0.2,
        "144 processors: cube {cube_eff:.3} vs single bus {multi_eff:.3}"
    );
}

#[test]
fn io_dma_pattern_streams_through_a_snooping_cache() {
    // §2: "I/O is then treated as any other processor request for shared
    // data" — DMA modelled as ALLOCATE bursts through one node's cache,
    // then consumed by another node.
    let mut m = Machine::new(MachineConfig::grid(4).unwrap(), 33).unwrap();
    let io_node = NodeId::new(0);
    let consumer = NodeId::new(15);
    for i in 0..16u64 {
        m.submit(
            io_node,
            Request::new(
                multicube_suite::machine::RequestKind::Allocate,
                LineAddr::new(0x9000 + i),
            ),
        )
        .unwrap();
        m.advance().unwrap();
    }
    m.run_to_quiescence();
    // "I/O data may never actually be written to memory, but be read
    // directly across the bus into the cache of the processor requesting
    // it": the consumer reads the freshly written buffers cache-to-cache.
    for i in 0..16u64 {
        m.submit(consumer, Request::read(LineAddr::new(0x9000 + i)))
            .unwrap();
        let done = m.advance().unwrap();
        assert!(done.success);
    }
    m.run_to_quiescence();
    assert_eq!(m.metrics().read_modified.count, 16);
    m.check_coherence().unwrap();
}

#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let mut m = Machine::new(MachineConfig::grid(4).unwrap(), 77).unwrap();
        let report = WorkloadRunner::new(40)
            .with_seed(5)
            .run(&mut m, &mut Oltp::new(16));
        (
            report.requests_completed,
            report.bus_ops,
            report.latency_ns.mean().to_bits(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn big_grid_smoke_test() {
    // A 16x16 machine (256 processors) under moderate load stays coherent
    // and efficient.
    let spec = SyntheticSpec::default().with_request_rate_per_ms(10.0);
    let mut m = Machine::new(MachineConfig::grid(16).unwrap(), 1).unwrap();
    let report = m.run_synthetic(&spec, 25);
    assert!(report.efficiency > 0.9);
    assert_eq!(report.transactions_completed, 25 * 256);
}
