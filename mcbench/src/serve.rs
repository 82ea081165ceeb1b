//! `serve`: the serving tier's three request streams synthesized, encoded
//! as v2 traces, then replayed one after another on one thread through
//! one 8x8 machine under FCFS arbitration.
//!
//! The only workload that runs the `workload` generators and the v2
//! codec; millions of transactions through one long-lived machine make
//! the machine's steady-state cost dominate.

use std::fmt::Write as _;
use std::time::Instant;

use multicube::{check_engine, Arbitration, EngineKind, Machine, MachineConfig};
use multicube_sim::{md5_hex, split_seed, stream_id, DeterministicRng};
use multicube_topology::NodeId;
use multicube_workload::{
    Oltp, ProducerConsumer, TraceV2Reader, TraceV2Writer, WebSession, Workload, WorkloadRunner,
};

use crate::counters::SimCounters;
use crate::rep::{guarded, ratio, since, Rep};
use crate::trace::Tracer;

/// The serving study's applications (`figures -- serve`), in replay order.
const APPS: [&str; 3] = ["oltp", "web-session", "producer-consumer"];

/// Size of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Grid side.
    pub side: u32,
    /// Requests per node per application.
    pub requests_per_node: u64,
    /// Records per v2 chunk.
    pub chunk_records: usize,
}

/// The benchmark's size: 3 x 64 x 2,000 = 384,000 transactions a repetition.
pub const SIZE: Size = Size {
    side: 8,
    requests_per_node: 2_000,
    chunk_records: 65_536,
};

/// The application generators with the serving study's parameters.
fn make_app(label: &str) -> Box<dyn Workload> {
    match label {
        "oltp" => Box::new(Oltp::new(256)),
        "web-session" => Box::new(WebSession::new(512, 0.8)),
        "producer-consumer" => Box::new(ProducerConsumer::new()),
        other => unreachable!("unknown serve application {other}"),
    }
}

/// Times every `next` call of the wrapped stream.
struct Timed<W> {
    inner: W,
    calls: u64,
    busy_ns: u64,
}

impl<W: Workload> Workload for Timed<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next(
        &mut self,
        node: NodeId,
        rng: &mut DeterministicRng,
    ) -> Option<(u64, multicube::Request)> {
        let t = Instant::now();
        let out = self.inner.next(node, rng);
        self.busy_ns += since(t);
        self.calls += 1;
        out
    }
}

/// One synthesized application trace.
struct Synth {
    app: &'static str,
    seed: u64,
    bytes: Vec<u8>,
}

/// One repetition at `size`.
pub fn rep(seed: u64, size: Size, tr: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let nodes = size.side * size.side;

    // Set-up: synthesize and encode each stream, validate the encodings,
    // build the machine.
    let t_setup = Instant::now();
    let setup = tr.begin("setup");
    let (mut gen_ns, mut push_ns, mut finish_ns, mut records) = (0u64, 0u64, 0u64, 0u64);
    let mut synths = Vec::with_capacity(APPS.len());
    for app in APPS {
        let span = tr.begin("synthesize");
        let app_seed = split_seed(seed, stream_id("serve", app), 0);
        let mut workload = make_app(app);
        let mut rng = DeterministicRng::seed(app_seed);
        let mut writer = TraceV2Writer::new(nodes, size.chunk_records);
        let mut batch = Vec::with_capacity(nodes as usize);
        let (first, mut app_gen, mut app_push, mut app_records) =
            (Instant::now(), 0u64, 0u64, 0u64);
        for _ in 0..size.requests_per_node {
            let a = Instant::now();
            for node in 0..nodes {
                let id = NodeId::new(node);
                if let Some((delay, req)) = workload.next(id, &mut rng) {
                    batch.push((id, delay, req));
                }
            }
            let b = Instant::now();
            app_records += batch.len() as u64;
            for (id, delay, req) in batch.drain(..) {
                writer.push(id, delay, req);
            }
            app_gen += (b - a).as_nanos() as u64;
            app_push += since(b);
        }
        let last = Instant::now();
        tr.aggregate(
            "Workload::next",
            first,
            last,
            u64::from(nodes) * size.requests_per_node,
            app_gen,
        );
        tr.aggregate("TraceV2Writer::push", first, last, app_records, app_push);
        let fin = tr.begin("TraceV2Writer::finish");
        let bytes = writer.finish();
        finish_ns += since(last);
        tr.end(fin);
        gen_ns += app_gen;
        push_ns += app_push;
        records += app_records;
        synths.push(Synth {
            app,
            seed: app_seed,
            bytes,
        });
        tr.end(span);
    }
    let t_validate = Instant::now();
    let mut readers = Vec::with_capacity(synths.len());
    for s in &synths {
        let span = tr.begin("TraceV2Reader::new");
        let reader = TraceV2Reader::new(&s.bytes);
        tr.end(span);
        rep.attempt(reader.is_ok());
        if let Ok(r) = reader {
            readers.push((s, r));
        }
    }
    let validate_ns = since(t_validate);
    let t_new = Instant::now();
    let span = tr.begin("Machine::new");
    let config = MachineConfig::grid(size.side)
        .expect("valid grid side")
        .with_arbitration(Arbitration::Fcfs);
    let mut machine = Machine::new(config, split_seed(seed, stream_id("serve", "machine"), 0))
        .expect("valid machine configuration");
    tr.end(span);
    let new_ns = since(t_new);
    tr.end(setup);
    rep.setup_ns = since(t_setup);

    // Measured phase: replay the three streams back to back.
    let t_run = Instant::now();
    let run = tr.begin("replay");
    let (mut decode_ns, mut decode_calls) = (0u64, 0u64);
    let mut summary = String::new();
    let mut poisoned = false;
    for (s, reader) in &readers {
        if poisoned {
            rep.attempt(false);
            continue;
        }
        let span = tr.begin("WorkloadRunner::run");
        let runner = WorkloadRunner::new(size.requests_per_node).with_seed(s.seed);
        let start = Instant::now();
        let report = if tr.on() {
            let mut player = Timed {
                inner: reader.player(),
                calls: 0,
                busy_ns: 0,
            };
            let report = guarded(|| runner.run(&mut machine, &mut player));
            tr.aggregate(
                "StreamingPlayer::next",
                start,
                Instant::now(),
                player.calls,
                player.busy_ns,
            );
            decode_ns += player.busy_ns;
            decode_calls += player.calls;
            report
        } else {
            let mut player = reader.player();
            guarded(|| runner.run(&mut machine, &mut player))
        };
        tr.end(span);
        let Some(report) = report else {
            poisoned = true;
            rep.attempt(false);
            continue;
        };
        rep.attempt(report.requests_completed == reader.record_count());
        rep.txns += report.requests_completed;
        let q = |p: f64| report.latency_hist.quantile(p).unwrap_or(0);
        let _ = writeln!(
            summary,
            "serve {} records={} bytes={} completed={} eff={:.6} mean_ns={:.2} p50={} p99={} p999={} kinds={:?} sim_ns={}",
            s.app,
            reader.record_count(),
            s.bytes.len(),
            report.requests_completed,
            report.efficiency,
            report.latency_ns.mean(),
            q(0.50),
            q(0.99),
            q(0.999),
            report.kind_counts,
            report.elapsed.as_nanos()
        );
    }
    tr.end(run);
    rep.run_ns = since(t_run);

    // The benchmark's own output check.
    let t_check = Instant::now();
    let span = tr.begin("check_engine");
    let coherent = !poisoned && check_engine(EngineKind::Multicube, &machine).is_ok();
    tr.end(span);
    rep.check_ns = since(t_check);
    rep.attempt(coherent);

    let mut sim = SimCounters::default();
    sim.add_machine(&machine);
    let (row_ops, col_ops) = machine.bus_op_totals();
    let _ = writeln!(
        summary,
        "serve machine txns={} row_ops={row_ops} col_ops={col_ops}",
        sim.txns()
    );
    rep.digest = md5_hex(summary.as_bytes());
    rep.summary = summary;

    let bytes: usize = synths.iter().map(|s| s.bytes.len()).sum();
    let encode_ns = push_ns + finish_ns;
    rep.layer(
        "workload.gen_ns_per_request",
        ratio(gen_ns as f64, records as f64),
    );
    rep.layer(
        "workload.encode_mb_per_s",
        ratio(bytes as f64 / 1e6, encode_ns as f64 / 1e9),
    );
    rep.layer("workload.validate_ms", validate_ns as f64 / 1e6);
    rep.layer(
        "workload.decode_ns_per_record",
        ratio(decode_ns as f64, decode_calls as f64),
    );
    rep.layer(
        "workload.bytes_per_record",
        ratio(bytes as f64, records as f64),
    );
    rep.layer(
        "machine.ns_per_txn",
        ratio(rep.run_ns.saturating_sub(decode_ns) as f64, rep.txns as f64),
    );
    rep.layer("machine.new_us", new_ns as f64 / 1e3);
    rep.layer("machine.check_ms", rep.check_ns as f64 / 1e6);
    sim.emit(&mut rep);
    rep
}
