//! The coherence checker against its reference.
//!
//! `multicube::check` judges the invariants in one sorted pass over bulk
//! snapshots. The [`reference`] module at the bottom of this file is the
//! checker it replaced, kept verbatim over the per-line point-query view
//! it was written for ([`reference::OldView`]). Both read the same
//! [`FakeView`]: a plain-data coherence state captured from a real
//! machine or a model-checker state and then optionally mutated one field
//! at a time. The differential properties assert that the two checkers
//! return identical `Result`s — the same variant, line, nodes and detail
//! text — for `check`, `check_mesi`, `check_dragon` and `check_midflight`.
//!
//! The negative tests below them build one view per violation variant
//! and sub-case by hand and pin what the checker reports.
//!
//! `FakeView` hands the new checker its snapshots in descending address
//! order, so the properties also show that snapshot order is free. The
//! reference reads memory in ascending address order: its mid-flight
//! memory stage reports the first offending line in iteration order, and
//! the new checker reports the smallest.

use multicube::check::{check, check_dragon, check_mesi, check_midflight};
use multicube::check::{MemoryEntry, RegistryEntry};
use multicube::{
    CoherenceView, CoherenceViolation, EngineKind, FaultPlan, LineMode, Machine, MachineConfig,
    Request, RequestKind, RetryPolicy, TxnId,
};
use multicube_mem::{CacheGeometry, LineAddr, LineVersion};
use multicube_model::{check_model, ModelConfig, State, StateView};
use multicube_topology::NodeId;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A coherence state as plain data. Snapshots are kept sorted by line,
/// one entry per line; `resident[node]` keeps its source's order.
#[derive(Debug, Clone, PartialEq)]
struct FakeView {
    side: u32,
    resident: Vec<Vec<(LineAddr, LineMode, LineVersion)>>,
    l1: Vec<Vec<LineAddr>>,
    /// One table per column.
    mlt: Vec<Vec<LineAddr>>,
    memory: Vec<MemoryEntry>,
    registry: Vec<RegistryEntry>,
    excl: Vec<(LineAddr, NodeId)>,
    sm: Vec<(LineAddr, NodeId)>,
    escalated: Option<TxnId>,
}

fn sorted<T>(mut entries: Vec<T>, key: impl Fn(&T) -> LineAddr) -> Vec<T> {
    entries.sort_by_key(key);
    entries
}

/// Inserts `entry` into the line-sorted `entries`, replacing the entry
/// at its line if there is one.
fn upsert<T>(entries: &mut Vec<T>, entry: T, key: impl Fn(&T) -> LineAddr) {
    match entries.binary_search_by_key(&key(&entry), &key) {
        Ok(i) => entries[i] = entry,
        Err(i) => entries.insert(i, entry),
    }
}

impl FakeView {
    /// An empty `side`×`side` machine: no copies, every structure empty.
    fn empty(side: u32) -> Self {
        let nodes = (side * side) as usize;
        FakeView {
            side,
            resident: vec![Vec::new(); nodes],
            l1: vec![Vec::new(); nodes],
            mlt: vec![Vec::new(); side as usize],
            memory: Vec::new(),
            registry: Vec::new(),
            excl: Vec::new(),
            sm: Vec::new(),
            escalated: None,
        }
    }

    /// Captures any coherence view.
    fn capture(v: &dyn CoherenceView) -> Self {
        let n = v.side();
        let nodes = (0..n * n).map(NodeId::new);
        FakeView {
            side: n,
            resident: nodes.clone().map(|node| v.resident(node)).collect(),
            l1: nodes.map(|node| v.l1_lines(node)).collect(),
            mlt: (0..n).map(|col| v.mlt_lines(col)).collect(),
            memory: sorted(v.memory(), |e| e.0),
            registry: sorted(v.registry(), |e| e.0),
            excl: sorted(v.excl_entries(), |e| e.0),
            sm: sorted(v.sm_entries(), |e| e.0),
            escalated: v.escalated(),
        }
    }

    fn registry_at(&self, line: LineAddr) -> Option<&RegistryEntry> {
        self.registry
            .binary_search_by_key(&line, |e| e.0)
            .ok()
            .map(|i| &self.registry[i])
    }

    fn memory_at(&self, line: LineAddr) -> Option<&MemoryEntry> {
        self.memory
            .binary_search_by_key(&line, |e| e.0)
            .ok()
            .map(|i| &self.memory[i])
    }

    /// Every line a cache or memory knows, ascending.
    fn known_lines(&self) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> = self
            .resident
            .iter()
            .flatten()
            .map(|c| c.0)
            .chain(self.memory.iter().map(|e| e.0))
            .collect();
        lines.sort();
        lines.dedup();
        lines
    }

    /// The registry entry at `line`, with defaults if there is none.
    fn registry_or_default(&self, line: LineAddr) -> RegistryEntry {
        self.registry_at(line)
            .copied()
            .unwrap_or((line, None, 0, LineVersion::INITIAL))
    }
}

impl CoherenceView for FakeView {
    fn side(&self) -> u32 {
        self.side
    }

    fn resident(&self, node: NodeId) -> Vec<(LineAddr, LineMode, LineVersion)> {
        self.resident[node.as_usize()].clone()
    }

    fn l1_lines(&self, node: NodeId) -> Vec<LineAddr> {
        self.l1[node.as_usize()].clone()
    }

    fn mlt_lines(&self, col: u32) -> Vec<LineAddr> {
        self.mlt[col as usize].clone()
    }

    fn home_column(&self, line: LineAddr) -> u32 {
        (line.index() % u64::from(self.side)) as u32
    }

    fn memory(&self) -> Vec<MemoryEntry> {
        self.memory.iter().rev().copied().collect()
    }

    fn registry(&self) -> Vec<RegistryEntry> {
        self.registry.iter().rev().copied().collect()
    }

    fn excl_entries(&self) -> Vec<(LineAddr, NodeId)> {
        self.excl.iter().rev().copied().collect()
    }

    fn sm_entries(&self) -> Vec<(LineAddr, NodeId)> {
        self.sm.iter().rev().copied().collect()
    }

    fn escalated(&self) -> Option<TxnId> {
        self.escalated
    }
}

impl reference::OldView for FakeView {
    fn side(&self) -> u32 {
        self.side
    }

    fn resident(&self, node: NodeId) -> Vec<(LineAddr, LineMode, LineVersion)> {
        self.resident[node.as_usize()].clone()
    }

    fn l1_lines(&self, node: NodeId) -> Vec<LineAddr> {
        self.l1[node.as_usize()].clone()
    }

    fn mlt_lines(&self, node: NodeId) -> Vec<LineAddr> {
        self.mlt[(node.index() % self.side) as usize].clone()
    }

    fn registry_sharers(&self, line: LineAddr) -> u32 {
        self.registry_at(line).map_or(0, |e| e.2)
    }

    fn home_column(&self, line: LineAddr) -> u32 {
        (line.index() % u64::from(self.side)) as u32
    }

    fn memory_valid(&self, line: LineAddr) -> bool {
        self.memory_at(line).is_none_or(|e| e.1)
    }

    fn memory_data(&self, line: LineAddr) -> LineVersion {
        self.memory_at(line).map_or(LineVersion::INITIAL, |e| e.2)
    }

    fn memory_lines(&self) -> Vec<LineAddr> {
        self.memory.iter().map(|e| e.0).collect()
    }

    fn committed_version(&self, line: LineAddr) -> LineVersion {
        self.registry_at(line).map_or(LineVersion::INITIAL, |e| e.3)
    }

    fn registry_owner(&self, line: LineAddr) -> Option<NodeId> {
        self.registry_at(line).and_then(|e| e.1)
    }

    fn registry_entries(&self) -> Vec<(LineAddr, NodeId)> {
        self.registry
            .iter()
            .filter_map(|e| e.1.map(|owner| (e.0, owner)))
            .collect()
    }

    fn excl_entries(&self) -> Vec<(LineAddr, NodeId)> {
        self.excl.clone()
    }

    fn sm_entries(&self) -> Vec<(LineAddr, NodeId)> {
        self.sm.clone()
    }

    fn escalated(&self) -> Option<TxnId> {
        self.escalated
    }
}

/// Asserts that the new and the reference checkers agree on `v` under
/// every entry point.
fn assert_agree(v: &FakeView) {
    assert_eq!(check(v), reference::check(v), "check on {v:?}");
    assert_eq!(
        check_mesi(v),
        reference::check_mesi(v),
        "check_mesi on {v:?}"
    );
    assert_eq!(
        check_dragon(v),
        reference::check_dragon(v),
        "check_dragon on {v:?}"
    );
    assert_eq!(
        check_midflight(v),
        reference::check_midflight(v),
        "check_midflight on {v:?}"
    );
}

// ----------------------------------------------------------------------
// Inputs: machine end states, model states, one-field mutations
// ----------------------------------------------------------------------

/// A compact encoding of one request.
#[derive(Debug, Clone, Copy)]
struct Step {
    node: u8,
    kind: u8,
    line: u8,
}

fn kind_of(code: u8) -> RequestKind {
    match code {
        0 | 1 => RequestKind::Read,
        2 => RequestKind::Write,
        3 => RequestKind::Allocate,
        _ => RequestKind::TestAndSet,
    }
}

/// A small random machine, run to quiescence.
#[derive(Debug, Clone)]
struct MachineCase {
    engine: u8,
    side: u32,
    l1: bool,
    tiny_cache: bool,
    faulted: bool,
    seed: u64,
    steps: Vec<Step>,
}

fn machine_cases() -> impl Strategy<Value = MachineCase> {
    (
        (0u8..3, 2u32..4, any::<bool>(), any::<bool>(), any::<bool>()),
        any::<u64>(),
        prop::collection::vec(
            (any::<u8>(), 0u8..5, 0u8..12).prop_map(|(node, kind, line)| Step { node, kind, line }),
            1..24,
        ),
    )
        .prop_map(
            |((engine, side, l1, tiny_cache, faulted), seed, steps)| MachineCase {
                engine,
                side,
                l1,
                tiny_cache,
                faulted,
                seed,
                steps,
            },
        )
}

fn engine_of(code: u8) -> EngineKind {
    match code {
        0 => EngineKind::Multicube,
        1 => EngineKind::Mesi,
        _ => EngineKind::Dragon,
    }
}

/// Runs `case` (serial submissions, each drained) and captures the end
/// state.
fn machine_end_state(case: &MachineCase) -> FakeView {
    let engine = engine_of(case.engine);
    let mut config = MachineConfig::grid(case.side)
        .expect("valid grid")
        .with_engine(engine);
    if !case.l1 {
        config = config.with_processor_cache(None);
    }
    if case.tiny_cache {
        config = config
            .with_snoop_cache(CacheGeometry::new(2, 2))
            .with_mlt_capacity(2);
    }
    if case.faulted && engine == EngineKind::Multicube {
        let plan = FaultPlan::default()
            .with_signal_drop(0.2)
            .with_op_loss(0.1)
            .with_memory_nack(0.1);
        config = config
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::default().with_backoff(100, 10_000));
    }
    let mut m = Machine::new(config, case.seed).expect("valid config");
    let nodes = case.side * case.side;
    for s in &case.steps {
        let node = NodeId::new(u32::from(s.node) % nodes);
        let line = LineAddr::new(u64::from(s.line));
        m.submit(node, Request::new(kind_of(s.kind), line))
            .expect("serial submission to an idle node");
        m.run_to_quiescence();
    }
    FakeView::capture(&m)
}

/// Every state the model checker reaches for `engine` (2 lines, 3
/// transactions), explored once per test binary.
fn model_states(engine: EngineKind) -> &'static [State] {
    static STATES: OnceLock<Vec<Vec<State>>> = OnceLock::new();
    let all = STATES.get_or_init(|| {
        [EngineKind::Multicube, EngineKind::Mesi, EngineKind::Dragon]
            .into_iter()
            .map(|engine| {
                let exploration = check_model(&ModelConfig::new(engine, 2, 3, 0));
                assert!(
                    exploration.violation.is_none(),
                    "faithful rules are coherent"
                );
                exploration.states
            })
            .collect()
    });
    match engine {
        EngineKind::Multicube => &all[0],
        EngineKind::Mesi => &all[1],
        EngineKind::Dragon => &all[2],
    }
}

fn model_state(engine: u8, pick: u64) -> FakeView {
    let engine = engine_of(engine);
    let states = model_states(engine);
    let cfg = ModelConfig::new(engine, 2, 3, 0);
    let state = &states[(pick % states.len() as u64) as usize];
    FakeView::capture(&StateView { cfg: &cfg, state })
}

/// One single-field corruption of a captured state. Indices pick among
/// whatever the state holds (modulo its size); a mutation with nothing
/// to act on leaves the state unchanged.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    /// Rewrite one resident copy's mode.
    FlipMode { node: u8, copy: u8, mode: u8 },
    /// Copy one resident line, at its version, into another node's cache
    /// (where it is not yet resident) in the given mode.
    AddCopy {
        node: u8,
        from: u8,
        copy: u8,
        mode: u8,
    },
    /// Bump one resident copy's data version.
    BumpVersion { node: u8, copy: u8 },
    /// Bump memory's data version of one known line.
    BumpMemory { line: u8 },
    /// Clear memory's valid bit of one known line.
    ClearValid { line: u8 },
    /// Drop one registry owner.
    DropOwner { entry: u8 },
    /// Record an owner for one known line.
    AddOwner { line: u8, node: u8 },
    /// Count one sharer too many or too few at one known line.
    MiscountSharers { line: u8, up: bool },
    /// Drop one line from a column's MLT.
    DropMltLine { col: u8, entry: u8 },
    /// Add one known line to a column's MLT.
    AddMltLine { col: u8, line: u8 },
    /// Add a line (known or not) to one node's L1.
    AddL1Line { node: u8, line: u8 },
    /// Add an `E` side-table entry.
    StrayExcl { line: u8, node: u8 },
    /// Add an `Sm` side-table entry.
    StraySm { line: u8, node: u8 },
    /// Leave a transaction escalated.
    Escalate { txn: u8 },
}

fn mutations() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), 0u8..3).prop_map(|(node, copy, mode)| Mutation::FlipMode {
            node,
            copy,
            mode
        }),
        (any::<u8>(), any::<u8>(), any::<u8>(), 0u8..3).prop_map(|(node, from, copy, mode)| {
            Mutation::AddCopy {
                node,
                from,
                copy,
                mode,
            }
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(node, copy)| Mutation::BumpVersion { node, copy }),
        any::<u8>().prop_map(|line| Mutation::BumpMemory { line }),
        any::<u8>().prop_map(|line| Mutation::ClearValid { line }),
        any::<u8>().prop_map(|entry| Mutation::DropOwner { entry }),
        (any::<u8>(), any::<u8>()).prop_map(|(line, node)| Mutation::AddOwner { line, node }),
        (any::<u8>(), any::<bool>()).prop_map(|(line, up)| Mutation::MiscountSharers { line, up }),
        (any::<u8>(), any::<u8>()).prop_map(|(col, entry)| Mutation::DropMltLine { col, entry }),
        (any::<u8>(), any::<u8>()).prop_map(|(col, line)| Mutation::AddMltLine { col, line }),
        (any::<u8>(), 0u8..16).prop_map(|(node, line)| Mutation::AddL1Line { node, line }),
        (0u8..16, any::<u8>()).prop_map(|(line, node)| Mutation::StrayExcl { line, node }),
        (0u8..16, any::<u8>()).prop_map(|(line, node)| Mutation::StraySm { line, node }),
        (1u8..9).prop_map(|txn| Mutation::Escalate { txn }),
    ]
}

fn mode_of(code: u8) -> LineMode {
    match code {
        0 => LineMode::Shared,
        1 => LineMode::Modified,
        _ => LineMode::Reserved,
    }
}

fn pick<T: Copy>(items: &[T], i: u8) -> Option<T> {
    (!items.is_empty()).then(|| items[usize::from(i) % items.len()])
}

impl FakeView {
    fn node(&self, i: u8) -> NodeId {
        NodeId::new(u32::from(i) % (self.side * self.side))
    }

    fn apply(&mut self, m: Mutation) {
        let known = self.known_lines();
        match m {
            Mutation::FlipMode { node, copy, mode } => {
                let node = self.node(node).as_usize();
                let copies = &mut self.resident[node];
                if !copies.is_empty() {
                    let i = usize::from(copy) % copies.len();
                    copies[i].1 = mode_of(mode);
                }
            }
            Mutation::AddCopy {
                node,
                from,
                copy,
                mode,
            } => {
                let from = &self.resident[self.node(from).as_usize()];
                if let Some((line, _, data)) = pick(from, copy) {
                    let node = self.node(node).as_usize();
                    if self.resident[node].iter().all(|c| c.0 != line) {
                        self.resident[node].push((line, mode_of(mode), data));
                    }
                }
            }
            Mutation::BumpVersion { node, copy } => {
                let node = self.node(node).as_usize();
                let copies = &mut self.resident[node];
                if !copies.is_empty() {
                    let i = usize::from(copy) % copies.len();
                    copies[i].2 = LineVersion::new(copies[i].2.stamp() + 1);
                }
            }
            Mutation::BumpMemory { line } => {
                if let Some(line) = pick(&known, line) {
                    let (_, valid, data) =
                        self.memory_at(line)
                            .copied()
                            .unwrap_or((line, true, LineVersion::INITIAL));
                    let bumped = LineVersion::new(data.stamp() + 1);
                    upsert(&mut self.memory, (line, valid, bumped), |e| e.0);
                }
            }
            Mutation::ClearValid { line } => {
                if let Some(line) = pick(&known, line) {
                    let data = self.memory_at(line).map_or(LineVersion::INITIAL, |e| e.2);
                    upsert(&mut self.memory, (line, false, data), |e| e.0);
                }
            }
            Mutation::DropOwner { entry } => {
                let owned: Vec<usize> = (0..self.registry.len())
                    .filter(|&i| self.registry[i].1.is_some())
                    .collect();
                if let Some(i) = pick(&owned, entry) {
                    self.registry[i].1 = None;
                }
            }
            Mutation::AddOwner { line, node } => {
                if let Some(line) = pick(&known, line) {
                    let mut entry = self.registry_or_default(line);
                    entry.1 = Some(self.node(node));
                    upsert(&mut self.registry, entry, |e| e.0);
                }
            }
            Mutation::MiscountSharers { line, up } => {
                if let Some(line) = pick(&known, line) {
                    let mut entry = self.registry_or_default(line);
                    entry.2 = if up {
                        entry.2 + 1
                    } else {
                        entry.2.saturating_sub(1)
                    };
                    upsert(&mut self.registry, entry, |e| e.0);
                }
            }
            Mutation::DropMltLine { col, entry } => {
                let table = &mut self.mlt[usize::from(col) % self.side as usize];
                if !table.is_empty() {
                    table.remove(usize::from(entry) % table.len());
                }
            }
            Mutation::AddMltLine { col, line } => {
                if let Some(line) = pick(&known, line) {
                    self.mlt[usize::from(col) % self.side as usize].push(line);
                }
            }
            Mutation::AddL1Line { node, line } => {
                let node = self.node(node).as_usize();
                self.l1[node].push(LineAddr::new(u64::from(line)));
            }
            Mutation::StrayExcl { line, node } => {
                let entry = (LineAddr::new(u64::from(line)), self.node(node));
                upsert(&mut self.excl, entry, |e| e.0);
            }
            Mutation::StraySm { line, node } => {
                let entry = (LineAddr::new(u64::from(line)), self.node(node));
                upsert(&mut self.sm, entry, |e| e.0);
            }
            Mutation::Escalate { txn } => self.escalated = Some(TxnId(u64::from(txn))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Quiescent end states of random small machines under all three
    /// engines, then up to three one-field mutations of each.
    #[test]
    fn machine_states_judged_alike(
        case in machine_cases(),
        muts in prop::collection::vec(mutations(), 0..4),
    ) {
        let mut v = machine_end_state(&case);
        assert_agree(&v);
        for m in muts {
            v.apply(m);
            assert_agree(&v);
        }
    }

    /// The model checker's reachable 2x2 states under all three engines,
    /// then up to three one-field mutations of each.
    #[test]
    fn model_states_judged_alike(
        engine in 0u8..3,
        pick in any::<u64>(),
        muts in prop::collection::vec(mutations(), 0..4),
    ) {
        let mut v = model_state(engine, pick);
        assert_agree(&v);
        for m in muts {
            v.apply(m);
            assert_agree(&v);
        }
    }
}

/// Every reachable model state, unmutated: all three checkers accept the
/// engine's own states and agree on the other engines' verdicts.
#[test]
fn every_model_state_judged_alike() {
    for engine in 0..3 {
        for state in model_states(engine_of(engine)) {
            let cfg = ModelConfig::new(engine_of(engine), 2, 3, 0);
            assert_agree(&FakeView::capture(&StateView { cfg: &cfg, state }));
        }
    }
}

// ----------------------------------------------------------------------
// Negative tests: one hand-built violation per variant and sub-case
// ----------------------------------------------------------------------

fn l(i: u64) -> LineAddr {
    LineAddr::new(i)
}

fn p(i: u32) -> NodeId {
    NodeId::new(i)
}

fn ver(i: u64) -> LineVersion {
    LineVersion::new(i)
}

impl FakeView {
    fn hold(&mut self, node: u32, line: u64, mode: LineMode, version: u64) {
        self.resident[node as usize].push((l(line), mode, ver(version)));
    }

    fn set_version(&mut self, node: u32, line: u64, version: u64) {
        let copy = self.resident[node as usize]
            .iter_mut()
            .find(|c| c.0 == l(line))
            .expect("copy is resident");
        copy.2 = ver(version);
    }
}

/// A coherent 2x2 Multicube state: L1 modified at P1 (column 1) at
/// version 1, L2 shared by P0 and P2 at version 2.
fn multicube_base() -> FakeView {
    let mut v = FakeView::empty(2);
    v.hold(1, 1, LineMode::Modified, 1);
    v.hold(0, 2, LineMode::Shared, 2);
    v.hold(2, 2, LineMode::Shared, 2);
    v.memory = vec![(l(1), false, ver(0)), (l(2), true, ver(2))];
    v.registry = vec![(l(1), Some(p(1)), 0, ver(1)), (l(2), None, 2, ver(2))];
    v.mlt[1] = vec![l(1)];
    assert_eq!(check(&v), Ok(()));
    v
}

/// A coherent 2x2 Dragon state: L1 modified at P1, L2 exclusive-clean at
/// P2, L3 shared clean by P0 and P3, L4 shared by P0 and P1 with P1 the
/// shared-modified (`Sm`) holder. Without L4 it is a coherent MESI state.
fn dragon_base() -> FakeView {
    let mut v = mesi_base();
    v.hold(0, 4, LineMode::Shared, 4);
    v.hold(1, 4, LineMode::Shared, 4);
    v.memory.push((l(4), false, ver(3)));
    v.registry.push((l(4), None, 2, ver(4)));
    v.sm = vec![(l(4), p(1))];
    assert_eq!(check_dragon(&v), Ok(()));
    v
}

fn mesi_base() -> FakeView {
    let mut v = FakeView::empty(2);
    v.hold(1, 1, LineMode::Modified, 1);
    v.hold(2, 2, LineMode::Reserved, 2);
    v.hold(0, 3, LineMode::Shared, 3);
    v.hold(3, 3, LineMode::Shared, 3);
    v.memory = vec![
        (l(1), false, ver(0)),
        (l(2), true, ver(2)),
        (l(3), true, ver(3)),
    ];
    v.registry = vec![
        (l(1), Some(p(1)), 0, ver(1)),
        (l(2), None, 0, ver(2)),
        (l(3), None, 2, ver(3)),
    ];
    v.excl = vec![(l(2), p(2))];
    assert_eq!(check_mesi(&v), Ok(()));
    assert_eq!(check_dragon(&v), Ok(()));
    v
}

fn registry_mismatch(line: u64, detail: &str) -> Result<(), CoherenceViolation> {
    Err(CoherenceViolation::RegistryMismatch {
        line: l(line),
        detail: detail.to_string(),
    })
}

fn stale(line: u64, holder: &str) -> Result<(), CoherenceViolation> {
    Err(CoherenceViolation::StaleValue {
        line: l(line),
        holder: holder.to_string(),
    })
}

#[test]
fn multiple_writers_names_the_pair_the_walk_meets_first() {
    let mut v = multicube_base();
    v.hold(3, 1, LineMode::Modified, 1);
    assert_eq!(
        check(&v),
        Err(CoherenceViolation::MultipleWriters {
            line: l(1),
            nodes: (p(1), p(3)),
        })
    );
    // L1's writers come first and second-to-last in the node-major walk
    // (P1, P3); L5's come after L1 at P1 and then at P2. The walk meets
    // L5's clash first, so L5 is reported although L1 has both the smaller
    // address and the earlier first writer.
    v.hold(1, 5, LineMode::Modified, 0);
    v.hold(2, 5, LineMode::Modified, 0);
    let expected = Err(CoherenceViolation::MultipleWriters {
        line: l(5),
        nodes: (p(1), p(2)),
    });
    assert_eq!(check(&v), expected);
    assert_eq!(check_mesi(&v), expected);
    assert_eq!(check_midflight(&v), expected);
}

#[test]
fn modified_copy_with_a_sharer() {
    let mut v = multicube_base();
    v.hold(0, 1, LineMode::Shared, 1);
    assert_eq!(
        check(&v),
        Err(CoherenceViolation::ModifiedWithSharers {
            line: l(1),
            owner: p(1),
            sharer: p(0),
        })
    );
}

#[test]
fn valid_bit_mismatch_both_ways() {
    let mut v = multicube_base();
    v.memory[0].1 = true;
    assert_eq!(
        check(&v),
        Err(CoherenceViolation::ValidBitMismatch {
            line: l(1),
            memory_valid: true,
            has_owner: true,
        })
    );
    let mut v = multicube_base();
    v.memory[1].1 = false;
    assert_eq!(
        check(&v),
        Err(CoherenceViolation::ValidBitMismatch {
            line: l(2),
            memory_valid: false,
            has_owner: false,
        })
    );
}

#[test]
fn stale_owner_memory_and_sharer() {
    let mut v = multicube_base();
    v.set_version(1, 1, 0);
    assert_eq!(
        check(&v),
        stale(
            1,
            "owner P1 holds Some(LineVersion(0)), expected LineVersion(1)"
        )
    );

    let mut v = multicube_base();
    v.memory[1].2 = ver(1);
    assert_eq!(check(&v), stale(2, "memory column 0"));

    let mut v = multicube_base();
    v.set_version(2, 2, 1);
    assert_eq!(
        check(&v),
        stale(
            2,
            "sharer P2 holds Some(LineVersion(1)), expected LineVersion(2)"
        )
    );
}

#[test]
fn column_table_missing_a_modified_line() {
    let mut v = multicube_base();
    v.mlt[1].clear();
    assert_eq!(
        check(&v),
        Err(CoherenceViolation::MltInconsistent {
            col: 1,
            detail: "table has 0 entries, column holds 1 modified lines".to_string(),
        })
    );
    // The line recorded in the wrong column fails the first column.
    v.mlt[0].push(l(1));
    assert_eq!(
        check(&v),
        Err(CoherenceViolation::MltInconsistent {
            col: 0,
            detail: "table has 1 entries, column holds 0 modified lines".to_string(),
        })
    );
}

#[test]
fn l1_line_outside_the_snooping_cache() {
    let mut v = multicube_base();
    v.l1[0].push(l(2));
    v.l1[3].push(l(7));
    let expected = Err(CoherenceViolation::SubsetViolation {
        node: p(3),
        line: l(7),
    });
    assert_eq!(check(&v), expected);
    assert_eq!(check_midflight(&v), expected);
}

#[test]
fn registry_owner_missing_or_stray() {
    let mut v = multicube_base();
    v.registry[0].1 = None;
    assert_eq!(
        check(&v),
        registry_mismatch(1, "cache owner P1 not in registry")
    );

    let mut v = multicube_base();
    v.registry[1].1 = Some(p(3));
    let expected = registry_mismatch(2, "registry claims P3 but no cache holds it modified");
    assert_eq!(check(&v), expected);
    assert_eq!(check_midflight(&v), expected);
}

#[test]
fn registry_sharer_miscount() {
    let mut v = multicube_base();
    v.registry[1].2 = 1;
    assert_eq!(
        check(&v),
        registry_mismatch(2, "registry counts 1 sharers, caches hold 2")
    );
}

#[test]
fn escalation_leak() {
    let mut v = multicube_base();
    v.escalated = Some(TxnId(4));
    assert_eq!(
        check(&v),
        Err(CoherenceViolation::EscalationLeak { txn: TxnId(4) })
    );
    assert_eq!(
        check_mesi(&mesi_base_with(|v| v.escalated = Some(TxnId(4)))),
        Err(CoherenceViolation::EscalationLeak { txn: TxnId(4) })
    );
}

fn mesi_base_with(f: impl FnOnce(&mut FakeView)) -> FakeView {
    let mut v = mesi_base();
    f(&mut v);
    v
}

#[test]
fn exclusive_clean_table_faults() {
    let v = mesi_base_with(|v| v.hold(0, 1, LineMode::Reserved, 1));
    assert_eq!(
        check_mesi(&v),
        registry_mismatch(1, "P0 holds an exclusive-clean copy alongside owner P1")
    );
    let v = mesi_base_with(|v| v.hold(3, 2, LineMode::Reserved, 2));
    assert_eq!(
        check_mesi(&v),
        registry_mismatch(2, "P2 and P3 both hold exclusive-clean copies")
    );
    let v = mesi_base_with(|v| v.hold(0, 2, LineMode::Shared, 2));
    assert_eq!(
        check_mesi(&v),
        registry_mismatch(2, "P2 holds an exclusive-clean copy alongside sharer P0")
    );
    let v = mesi_base_with(|v| v.excl.clear());
    assert_eq!(
        check_mesi(&v),
        registry_mismatch(2, "exclusive-clean holder P2 missing from the E side table")
    );
    let v = mesi_base_with(|v| v.excl.push((l(3), p(0))));
    assert_eq!(
        check_mesi(&v),
        registry_mismatch(
            3,
            "E side table claims P0 but no cache holds it exclusive-clean"
        )
    );
}

#[test]
fn shared_modified_table_faults() {
    assert_eq!(
        check_mesi(&dragon_base()),
        registry_mismatch(4, "Sm side table claims P1 under a write-invalidate engine")
    );
    let mut v = dragon_base();
    v.sm = vec![(l(4), p(2))];
    assert_eq!(
        check_dragon(&v),
        registry_mismatch(4, "Sm holder P2 does not hold the line shared")
    );
    // Dragon keeps memory stale while the line is shared-modified, but
    // every copy must hold the latest version.
    let mut v = dragon_base();
    v.set_version(0, 4, 3);
    assert_eq!(
        check_dragon(&v),
        stale(4, "P0 holds Some(LineVersion(3)), expected LineVersion(4)")
    );
}

#[test]
fn arena_engine_with_a_populated_mlt() {
    let v = mesi_base_with(|v| v.mlt[1].push(l(3)));
    assert_eq!(
        check_mesi(&v),
        Err(CoherenceViolation::MltInconsistent {
            col: 1,
            detail: format!("arena engine populated the MLT at P1 with {:?}", l(3)),
        })
    );
}

#[test]
fn midflight_versions_from_the_future() {
    // P0's copy of L2 comes first in the walk, before P3's copy of L1.
    let mut v = multicube_base();
    v.hold(3, 1, LineMode::Shared, 7);
    v.set_version(0, 2, 9);
    assert_eq!(
        check_midflight(&v),
        stale(2, "P0 holds uncommitted version LineVersion(9)")
    );

    let mut v = multicube_base();
    v.memory[1].2 = ver(9);
    assert_eq!(
        check_midflight(&v),
        stale(2, "memory column 0 holds uncommitted version")
    );
}

// ----------------------------------------------------------------------
// The reference: the per-line point-query checker, verbatim
// ----------------------------------------------------------------------

/// The coherence checker as it stood before the sorted-merge rewrite,
/// over the view trait it was written for. Kept only as the oracle of
/// the differential properties above.
mod reference {
    use multicube::{CoherenceViolation, LineMode, TxnId};
    use multicube_mem::{LineAddr, LineMap, LineSet, LineVersion};
    use multicube_topology::NodeId;

    /// An abstract, read-only view of global coherence state: everything the
    /// invariant predicates need, and nothing tied to the event-driven
    /// simulator. Implemented by the machine and by the model checker's
    /// canonical states (crate `multicube-model`).
    ///
    /// Nodes are indexed `0..side()*side()` in row-major order; memory is
    /// interleaved by home column as in the paper.
    pub trait OldView {
        /// The grid side `n` (the machine has `n * n` nodes).
        fn side(&self) -> u32;

        /// Every line resident in `node`'s snooping cache, with its mode and
        /// the data version it holds. Order is not significant.
        ///
        /// The invariant checks and the model's fingerprints call this once
        /// per node at every quiescent point, so an implementation should
        /// cost O(resident lines), not O(cache capacity).
        fn resident(&self, node: NodeId) -> Vec<(LineAddr, LineMode, LineVersion)>;

        /// Lines held by `node`'s processor (L1) cache; empty when the L1
        /// level is not modelled.
        fn l1_lines(&self, node: NodeId) -> Vec<LineAddr>;

        /// The contents of `node`'s modified-line-table replica (the simulator
        /// answers with the table of `node`'s column). Order is not
        /// significant (compared as sets).
        fn mlt_lines(&self, node: NodeId) -> Vec<LineAddr>;

        /// The registry's count of caches holding `line` shared.
        fn registry_sharers(&self, line: LineAddr) -> u32;

        /// The home column of `line`.
        fn home_column(&self, line: LineAddr) -> u32;

        /// Memory's valid bit for `line` at its home column.
        fn memory_valid(&self, line: LineAddr) -> bool;

        /// Memory's stored data version for `line` (regardless of validity).
        fn memory_data(&self, line: LineAddr) -> LineVersion;

        /// Every line memory has ever stored (union over all columns).
        fn memory_lines(&self) -> Vec<LineAddr>;

        /// The latest committed write version of `line`.
        fn committed_version(&self, line: LineAddr) -> LineVersion;

        /// The owner registry's entry for `line`.
        fn registry_owner(&self, line: LineAddr) -> Option<NodeId>;

        /// All owner-registry entries.
        fn registry_entries(&self) -> Vec<(LineAddr, NodeId)>;

        /// The arena engines' exclusive-clean (`E`) side table.
        fn excl_entries(&self) -> Vec<(LineAddr, NodeId)>;

        /// The Dragon engine's shared-modified (`Sm`) side table.
        fn sm_entries(&self) -> Vec<(LineAddr, NodeId)>;

        /// A transaction still under watchdog escalation, if any.
        fn escalated(&self) -> Option<TxnId>;
    }

    /// Per-line residency gathered in one pass over every node's cache.
    #[derive(Default)]
    struct Gathered {
        owners: LineMap<NodeId>,
        sharers: LineMap<Vec<NodeId>>,
        reserved: LineMap<Vec<NodeId>>,
        held: LineMap<Vec<(NodeId, LineVersion)>>,
    }

    impl Gathered {
        /// The data version `node` holds for `line`, if resident.
        fn version_at(&self, node: NodeId, line: LineAddr) -> Option<LineVersion> {
            self.held
                .get(&line)
                .and_then(|v| v.iter().find(|(n, _)| *n == node))
                .map(|(_, d)| *d)
        }
    }

    /// Walks every cache once, detecting multiple writers on the way.
    fn gather(v: &dyn OldView) -> Result<Gathered, CoherenceViolation> {
        let n = v.side();
        let mut g = Gathered::default();
        for node_idx in 0..(n * n) {
            let node = NodeId::new(node_idx);
            for (line, mode, data) in v.resident(node) {
                g.held.entry(line).or_default().push((node, data));
                match mode {
                    LineMode::Modified => {
                        if let Some(prev) = g.owners.insert(line, node) {
                            return Err(CoherenceViolation::MultipleWriters {
                                line,
                                nodes: (prev, node),
                            });
                        }
                    }
                    LineMode::Shared => g.sharers.entry(line).or_default().push(node),
                    LineMode::Reserved => g.reserved.entry(line).or_default().push(node),
                }
            }
        }
        Ok(g)
    }

    /// Lines known to any structure, in stable address order.
    fn known_lines(v: &dyn OldView, g: &Gathered) -> Vec<LineAddr> {
        let mut lines: LineSet = LineSet::default();
        lines.extend(g.held.keys().copied());
        lines.extend(v.memory_lines());
        let mut lines: Vec<LineAddr> = lines.into_iter().collect();
        lines.sort_unstable_by_key(|l| l.index());
        lines
    }

    /// The registry's sharer count of every line in `lines` (address order)
    /// equals the number of shared copies the caches hold.
    fn check_sharer_counts(
        v: &dyn OldView,
        g: &Gathered,
        lines: &[LineAddr],
    ) -> Result<(), CoherenceViolation> {
        for &line in lines {
            let copies = g.sharers.get(&line).map_or(0, Vec::len);
            let counted = v.registry_sharers(line);
            if counted as usize != copies {
                return Err(CoherenceViolation::RegistryMismatch {
                    line,
                    detail: format!("registry counts {counted} sharers, caches hold {copies}"),
                });
            }
        }
        Ok(())
    }

    /// Registry sanity, both directions: every cache owner is registered, and
    /// every registry entry is backed by a modified copy.
    fn check_registry(v: &dyn OldView, g: &Gathered) -> Result<(), CoherenceViolation> {
        let mut owned_lines: Vec<LineAddr> = g.owners.keys().copied().collect();
        owned_lines.sort_unstable_by_key(|l| l.index());
        for &line in &owned_lines {
            let node = g.owners[&line];
            if v.registry_owner(line) != Some(node) {
                return Err(CoherenceViolation::RegistryMismatch {
                    line,
                    detail: format!("cache owner {node} not in registry"),
                });
            }
        }
        // Smallest offending address, not whichever the hash order yields
        // first: stray-registry-entry reports must be stable run to run.
        if let Some((line, node)) = v
            .registry_entries()
            .into_iter()
            .filter(|(l, _)| !g.owners.contains_key(l))
            .min_by_key(|(l, _)| l.index())
        {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("registry claims {node} but no cache holds it modified"),
            });
        }
        Ok(())
    }

    /// The §2 strict-subset property: every L1 line is present in L2.
    fn check_l1_subset(v: &dyn OldView) -> Result<(), CoherenceViolation> {
        let n = v.side();
        for node_idx in 0..(n * n) {
            let node = NodeId::new(node_idx);
            let l1 = v.l1_lines(node);
            if l1.is_empty() {
                continue;
            }
            let l2: LineSet = v.resident(node).into_iter().map(|(l, _, _)| l).collect();
            for line in l1 {
                if !l2.contains(&line) {
                    return Err(CoherenceViolation::SubsetViolation { node, line });
                }
            }
        }
        Ok(())
    }

    /// Runs all invariant checks against a quiescent Multicube machine (or
    /// any other [`OldView`] claiming Multicube semantics).
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn check(v: &dyn OldView) -> Result<(), CoherenceViolation> {
        let n = v.side();
        let g = gather(v)?;

        // Violations below are found by walking hash maps; report them in
        // line-address order so a given failure names the same line on every
        // run, whatever the hasher.
        let mut owned_lines: Vec<LineAddr> = g.owners.keys().copied().collect();
        owned_lines.sort_unstable_by_key(|l| l.index());

        // 2. Modified excludes shared.
        for &line in &owned_lines {
            let owner = g.owners[&line];
            if let Some(&sharer) = g.sharers.get(&line).and_then(|s| s.first()) {
                return Err(CoherenceViolation::ModifiedWithSharers {
                    line,
                    owner,
                    sharer,
                });
            }
        }

        // 3+4. Valid bit and value integrity over every line any structure knows.
        let lines = known_lines(v, &g);
        for &line in &lines {
            let memory_valid = v.memory_valid(line);
            let has_owner = g.owners.contains_key(&line);
            if memory_valid == has_owner {
                return Err(CoherenceViolation::ValidBitMismatch {
                    line,
                    memory_valid,
                    has_owner,
                });
            }
            let latest = v.committed_version(line);
            if let Some(&owner) = g.owners.get(&line) {
                let held = g.version_at(owner, line);
                if held != Some(latest) {
                    return Err(CoherenceViolation::StaleValue {
                        line,
                        holder: format!("owner {owner} holds {held:?}, expected {latest:?}"),
                    });
                }
            } else {
                if v.memory_data(line) != latest {
                    return Err(CoherenceViolation::StaleValue {
                        line,
                        holder: format!("memory column {}", v.home_column(line)),
                    });
                }
                for sharer in g.sharers.get(&line).into_iter().flatten() {
                    let held = g.version_at(*sharer, line);
                    if held != Some(latest) {
                        return Err(CoherenceViolation::StaleValue {
                            line,
                            holder: format!("sharer {sharer} holds {held:?}, expected {latest:?}"),
                        });
                    }
                }
            }
        }

        // 5. MLT replicas agree and match reality per column.
        check_mlt_replicas(v)?;
        for col in 0..n {
            let mut table: Vec<LineAddr> = v.mlt_lines(NodeId::new(col));
            table.sort_unstable_by_key(|l| l.index());
            let table: LineSet = table.into_iter().collect();
            let actual: LineSet = g
                .owners
                .iter()
                .filter(|(_, node)| node.index() % n == col)
                .map(|(line, _)| *line)
                .collect();
            if table != actual {
                return Err(CoherenceViolation::MltInconsistent {
                    col,
                    detail: format!(
                        "table has {} entries, column holds {} modified lines",
                        table.len(),
                        actual.len()
                    ),
                });
            }
        }

        // 6. Processor-cache subset property (§2).
        check_l1_subset(v)?;

        // 7. Registry sanity.
        check_registry(v, &g)?;
        check_sharer_counts(v, &g, &lines)?;

        // 8. No leaked watchdog escalations.
        if let Some(txn) = v.escalated() {
            return Err(CoherenceViolation::EscalationLeak { txn });
        }

        Ok(())
    }

    /// MLT replica agreement: within each column every node's replica holds
    /// the same set of lines.
    ///
    /// For the machine the check is structural: it keeps one table per column
    /// and every node of the column reports it, so agreement holds by
    /// construction. For the model checker's states it is semantic, since
    /// their replicas are derived from ownership node by node.
    fn check_mlt_replicas(v: &dyn OldView) -> Result<(), CoherenceViolation> {
        let n = v.side();
        for col in 0..n {
            let mut reference: Option<Vec<LineAddr>> = None;
            for row in 0..n {
                let node = NodeId::new(row * n + col);
                let mut entries = v.mlt_lines(node);
                entries.sort_unstable_by_key(|l| l.index());
                match &reference {
                    None => reference = Some(entries),
                    Some(r) => {
                        if *r != entries {
                            return Err(CoherenceViolation::MltInconsistent {
                                col,
                                detail: format!("replica at {node} diverges"),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Quiescent invariants of the single-bus MESI engine: single writer, a
    /// modified (`M`) or exclusive-clean (`E`) copy excludes all others,
    /// memory's valid bit is clear iff an `M` copy exists, every resident
    /// copy holds the latest committed version, and the `E` side table
    /// matches the caches.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn check_mesi(v: &dyn OldView) -> Result<(), CoherenceViolation> {
        check_arena(v, false)
    }

    /// Quiescent invariants of the single-bus Dragon engine: single writer,
    /// `M`/`E` copies are sole copies, the shared-modified (`Sm`) holder is a
    /// resident sharer, memory's valid bit is clear iff a dirty (`M` or `Sm`)
    /// copy exists, and — the write-update property — *every* resident copy
    /// holds the latest committed version even while shared.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn check_dragon(v: &dyn OldView) -> Result<(), CoherenceViolation> {
        check_arena(v, true)
    }

    /// The invariant subset that holds at *every* event boundary, not only at
    /// quiescence: the registry mirrors the caches (both directions), L1 is a
    /// strict subset of L2, no structure holds a version newer than the
    /// committed one, and MLT replicas within a column agree. Transiently-
    /// violable invariants (single writer during an invalidation chain, the
    /// valid bit during a memory bounce, MLT-vs-cache equality while a column
    /// op is in flight) are deliberately excluded.
    ///
    /// Engine-independent: arena engines keep the MLT empty, so replica
    /// agreement holds trivially.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn check_midflight(v: &dyn OldView) -> Result<(), CoherenceViolation> {
        let n = v.side();
        let g = gather(v)?;
        check_registry(v, &g)?;
        check_l1_subset(v)?;
        check_mlt_replicas(v)?;
        // No structure may hold a version from the future.
        for node_idx in 0..(n * n) {
            let node = NodeId::new(node_idx);
            for (line, _, data) in v.resident(node) {
                if data > v.committed_version(line) {
                    return Err(CoherenceViolation::StaleValue {
                        line,
                        holder: format!("{node} holds uncommitted version {data:?}"),
                    });
                }
            }
        }
        for line in v.memory_lines() {
            if v.memory_data(line) > v.committed_version(line) {
                return Err(CoherenceViolation::StaleValue {
                    line,
                    holder: format!(
                        "memory column {} holds uncommitted version",
                        v.home_column(line)
                    ),
                });
            }
        }
        Ok(())
    }

    /// Shared invariant walk for the two arena engines. `update_based`
    /// selects Dragon's dirty-shared (`Sm`) semantics.
    fn check_arena(v: &dyn OldView, update_based: bool) -> Result<(), CoherenceViolation> {
        let n = v.side();
        let g = gather(v)?;

        // Report in line-address order so failures are stable run to run.
        let mut owned_lines: Vec<LineAddr> = g.owners.keys().copied().collect();
        owned_lines.sort_unstable_by_key(|l| l.index());

        // An M copy is the sole copy.
        for &line in &owned_lines {
            let owner = g.owners[&line];
            if let Some(&sharer) = g.sharers.get(&line).and_then(|s| s.first()) {
                return Err(CoherenceViolation::ModifiedWithSharers {
                    line,
                    owner,
                    sharer,
                });
            }
            if let Some(&holder) = g.reserved.get(&line).and_then(|r| r.first()) {
                return Err(CoherenceViolation::RegistryMismatch {
                    line,
                    detail: format!(
                        "{holder} holds an exclusive-clean copy alongside owner {owner}"
                    ),
                });
            }
        }

        // An E copy is the sole copy, and the side table matches the caches.
        let excl: LineMap<NodeId> = v.excl_entries().into_iter().collect();
        let mut reserved_lines: Vec<LineAddr> = g.reserved.keys().copied().collect();
        reserved_lines.sort_unstable_by_key(|l| l.index());
        for &line in &reserved_lines {
            let holders = &g.reserved[&line];
            if holders.len() > 1 {
                return Err(CoherenceViolation::RegistryMismatch {
                    line,
                    detail: format!(
                        "{} and {} both hold exclusive-clean copies",
                        holders[0], holders[1]
                    ),
                });
            }
            if let Some(&sharer) = g.sharers.get(&line).and_then(|s| s.first()) {
                return Err(CoherenceViolation::RegistryMismatch {
                    line,
                    detail: format!(
                        "{} holds an exclusive-clean copy alongside sharer {sharer}",
                        holders[0]
                    ),
                });
            }
            if excl.get(&line) != Some(&holders[0]) {
                return Err(CoherenceViolation::RegistryMismatch {
                    line,
                    detail: format!(
                        "exclusive-clean holder {} missing from the E side table",
                        holders[0]
                    ),
                });
            }
        }
        if let Some((line, node)) = excl
            .iter()
            .filter(|(l, _)| !g.reserved.contains_key(l))
            .map(|(l, n)| (*l, *n))
            .min_by_key(|(l, _)| l.index())
        {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("E side table claims {node} but no cache holds it exclusive-clean"),
            });
        }

        // The Sm side table: a Dragon shared-modified holder must be a
        // resident sharer; MESI must never populate it.
        let sm: LineMap<NodeId> = v.sm_entries().into_iter().collect();
        let mut sm_lines: Vec<LineAddr> = sm.keys().copied().collect();
        sm_lines.sort_unstable_by_key(|l| l.index());
        for &line in &sm_lines {
            let holder = sm[&line];
            if !update_based {
                return Err(CoherenceViolation::RegistryMismatch {
                    line,
                    detail: format!(
                        "Sm side table claims {holder} under a write-invalidate engine"
                    ),
                });
            }
            let is_sharer = g.sharers.get(&line).is_some_and(|s| s.contains(&holder));
            if !is_sharer {
                return Err(CoherenceViolation::RegistryMismatch {
                    line,
                    detail: format!("Sm holder {holder} does not hold the line shared"),
                });
            }
        }

        // Valid bit and value integrity over every line any structure knows.
        let lines = known_lines(v, &g);
        for &line in &lines {
            let memory_valid = v.memory_valid(line);
            let dirty = g.owners.contains_key(&line) || sm.contains_key(&line);
            if memory_valid == dirty {
                return Err(CoherenceViolation::ValidBitMismatch {
                    line,
                    memory_valid,
                    has_owner: dirty,
                });
            }
            let latest = v.committed_version(line);
            if !dirty && v.memory_data(line) != latest {
                return Err(CoherenceViolation::StaleValue {
                    line,
                    holder: format!("memory column {}", v.home_column(line)),
                });
            }
            // Every resident copy holds the latest committed version: under
            // MESI because writers are sole holders, under Dragon because
            // updates refresh every copy in place.
            if let Some(&owner) = g.owners.get(&line) {
                let held = g.version_at(owner, line);
                if held != Some(latest) {
                    return Err(CoherenceViolation::StaleValue {
                        line,
                        holder: format!("owner {owner} holds {held:?}, expected {latest:?}"),
                    });
                }
            }
            for holder in g
                .sharers
                .get(&line)
                .into_iter()
                .flatten()
                .chain(g.reserved.get(&line).into_iter().flatten())
            {
                let held = g.version_at(*holder, line);
                if held != Some(latest) {
                    return Err(CoherenceViolation::StaleValue {
                        line,
                        holder: format!("{holder} holds {held:?}, expected {latest:?}"),
                    });
                }
            }
        }

        // The MLT is a Multicube structure; arena engines must leave every
        // replica empty.
        for node_idx in 0..(n * n) {
            let node = NodeId::new(node_idx);
            if let Some(&line) = v.mlt_lines(node).first() {
                return Err(CoherenceViolation::MltInconsistent {
                    col: node.index() % n,
                    detail: format!("arena engine populated the MLT at {node} with {line:?}"),
                });
            }
        }
        check_l1_subset(v)?;

        // Registry sanity (both directions).
        check_registry(v, &g)?;
        check_sharer_counts(v, &g, &lines)?;

        // No leaked watchdog escalations.
        if let Some(txn) = v.escalated() {
            return Err(CoherenceViolation::EscalationLeak { txn });
        }

        Ok(())
    }
}
