//! Coherence-invariant checking.
//!
//! At a quiescent instant (no bus operations or events in flight) the
//! machine must satisfy the global invariants implied by §3:
//!
//! 1. **Single writer** — at most one cache holds any line modified.
//! 2. **No stale sharers** — a modified copy excludes shared copies.
//! 3. **Valid-bit consistency** — memory's valid bit is set iff no cache
//!    holds the line modified.
//! 4. **Value integrity** — the modified copy (or memory, if unmodified)
//!    holds the latest committed write; shared copies hold it too.
//! 5. **MLT consistency** — every column's table contains exactly the
//!    lines held modified within that column. The table stands for the
//!    column's `n` lockstep replicas, so replica agreement is not a
//!    separate check: both implementors answer from one table per column.
//! 6. **Registry consistency** — the machine's owner registry matches the
//!    caches, and its per-line sharer count equals the number of shared
//!    copies (internal sanity; the row-purge filter trusts that count).
//! 7. **Escalation hygiene** — no watchdog escalation survives quiescence;
//!    an escalated transaction that never finished means the fault-free
//!    retry failed to make progress.
//!
//! [`check`] verifies the default Multicube engine. The single-bus arena
//! engines have their own quiescent invariants — [`check_mesi`] and
//! [`check_dragon`] — sharing the vocabulary above but differing on what
//! "dirty" means (Dragon's shared-modified state keeps memory stale while
//! copies are shared) and skipping the MLT, which only the Multicube
//! protocol maintains.
//!
//! Every predicate reads machine state through the [`CoherenceView`]
//! trait rather than touching [`Machine`] directly. The simulator is one
//! implementor; the `multicube-model` explicit-state model checker is
//! another, so the *same* invariant code judges both the event-driven
//! simulation and every state the guarded-action checker enumerates.
//!
//! The checks run in one sorted pass. Every resident copy goes into one
//! flat array tagged with its position in the node-major walk and sorted
//! once by `(line, position)`, so a line's owner, sharers and
//! exclusive-clean holders are one contiguous run listed in walk order.
//! The memory, registry and side-table snapshots are sorted by line too,
//! and each invariant stage is a forward cursor walk over those arrays:
//! no per-line maps or point queries. Stages run in a fixed order and
//! report the first violation in address (or walk) order, so a failure
//! names the same line and nodes on every run, whatever the snapshot
//! order or the hasher.
//!
//! [`check_midflight`] is the subset of these invariants that holds at
//! *every* event boundary, not only at quiescence — see
//! [`MachineConfig::with_check_every`](crate::MachineConfig::with_check_every).

use core::fmt;

use multicube_mem::{LineAddr, LineVersion};
use multicube_topology::NodeId;

use crate::config::EngineKind;
use crate::machine::Machine;
use crate::node::LineMode;
use crate::proto::TxnId;

/// One line's memory state at its home column: `(line, valid, data)`.
pub type MemoryEntry = (LineAddr, bool, LineVersion);

/// One line's registry state: `(line, owner, sharer count, committed
/// version)`.
pub type RegistryEntry = (LineAddr, Option<NodeId>, u32, LineVersion);

/// An abstract, read-only view of global coherence state: everything the
/// invariant predicates need, and nothing tied to the event-driven
/// simulator. Implemented by [`Machine`] and by the model checker's
/// canonical states (crate `multicube-model`).
///
/// Nodes are indexed `0..side()*side()` in row-major order; memory is
/// interleaved by home column as in the paper.
///
/// Per-line state comes as bulk snapshots ([`memory`](Self::memory),
/// [`registry`](Self::registry) and the side tables), not point queries.
/// A snapshot holds at most one entry per line, in any order: the checker
/// sorts it. A line absent from a snapshot reads as its default — memory
/// valid with [`LineVersion::INITIAL`], no registry owner, zero sharers,
/// committed version `INITIAL` — exactly like an untouched line.
pub trait CoherenceView {
    /// The grid side `n` (the machine has `n * n` nodes).
    fn side(&self) -> u32;

    /// Every line resident in `node`'s snooping cache, with its mode and
    /// the data version it holds. Each line appears at most once; order is
    /// not significant.
    ///
    /// The invariant checks and the model's fingerprints call this once
    /// per node at every quiescent point, so an implementation should
    /// cost O(resident lines), not O(cache capacity).
    fn resident(&self, node: NodeId) -> Vec<(LineAddr, LineMode, LineVersion)>;

    /// Lines held by `node`'s processor (L1) cache; empty when the L1
    /// level is not modelled.
    fn l1_lines(&self, node: NodeId) -> Vec<LineAddr>;

    /// The contents of column `col`'s modified line table, which every
    /// controller of the column replicates. Order is not significant
    /// (compared as a set).
    fn mlt_lines(&self, col: u32) -> Vec<LineAddr>;

    /// The home column of `line`.
    fn home_column(&self, line: LineAddr) -> u32;

    /// Memory's valid bit and stored data version (regardless of
    /// validity) at the home column of every line memory has stored.
    fn memory(&self) -> Vec<MemoryEntry>;

    /// The registry's owner, shared-copy count and latest committed write
    /// version of every line it has an entry for.
    fn registry(&self) -> Vec<RegistryEntry>;

    /// The arena engines' exclusive-clean (`E`) side table.
    fn excl_entries(&self) -> Vec<(LineAddr, NodeId)>;

    /// The Dragon engine's shared-modified (`Sm`) side table.
    fn sm_entries(&self) -> Vec<(LineAddr, NodeId)>;

    /// A transaction still under watchdog escalation, if any.
    fn escalated(&self) -> Option<TxnId>;
}

impl CoherenceView for Machine {
    fn side(&self) -> u32 {
        Machine::side(self)
    }

    fn resident(&self, node: NodeId) -> Vec<(LineAddr, LineMode, LineVersion)> {
        self.controller(node)
            .cache
            .iter()
            .map(|(line, cl)| (line, cl.mode, cl.data))
            .collect()
    }

    fn l1_lines(&self, node: NodeId) -> Vec<LineAddr> {
        self.controller(node)
            .proc_cache
            .as_ref()
            .map(|l1| l1.iter().map(|(line, ())| line).collect())
            .unwrap_or_default()
    }

    fn mlt_lines(&self, col: u32) -> Vec<LineAddr> {
        self.mlt(col).iter().copied().collect()
    }

    fn home_column(&self, line: LineAddr) -> u32 {
        Machine::home_column(self, line)
    }

    fn memory(&self) -> Vec<MemoryEntry> {
        let mut out = Vec::new();
        for col in 0..Machine::side(self) {
            for entry in self.memory(col).touched_lines() {
                debug_assert_eq!(
                    Machine::home_column(self, entry.0),
                    col,
                    "memory stored {:?} off its home column",
                    entry.0
                );
                out.push(entry);
            }
        }
        out
    }

    fn registry(&self) -> Vec<RegistryEntry> {
        self.registry_snapshot().collect()
    }

    fn excl_entries(&self) -> Vec<(LineAddr, NodeId)> {
        self.arena_excl.iter().map(|(l, n)| (*l, *n)).collect()
    }

    fn sm_entries(&self) -> Vec<(LineAddr, NodeId)> {
        self.arena_sm.iter().map(|(l, n)| (*l, *n)).collect()
    }

    fn escalated(&self) -> Option<TxnId> {
        self.escalated_txn()
    }
}

/// A violated coherence invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoherenceViolation {
    /// Two caches hold the same line modified.
    MultipleWriters {
        /// The line concerned.
        line: LineAddr,
        /// The two offending nodes.
        nodes: (NodeId, NodeId),
    },
    /// A modified copy coexists with shared copies.
    ModifiedWithSharers {
        /// The line concerned.
        line: LineAddr,
        /// The owner.
        owner: NodeId,
        /// A node holding a stale shared copy.
        sharer: NodeId,
    },
    /// Memory claims validity while a cache holds the line modified, or
    /// vice versa.
    ValidBitMismatch {
        /// The line concerned.
        line: LineAddr,
        /// Memory's valid bit.
        memory_valid: bool,
        /// Whether some cache holds the line modified.
        has_owner: bool,
    },
    /// A copy (cache or memory) holds stale data.
    StaleValue {
        /// The line concerned.
        line: LineAddr,
        /// Description of the stale holder.
        holder: String,
    },
    /// A column's modified line table does not match the modified lines
    /// actually held in the column (or an arena engine populated it).
    MltInconsistent {
        /// The column concerned.
        col: u32,
        /// Description of the mismatch.
        detail: String,
    },
    /// A processor-cache line is not present in the snooping cache (the
    /// §2 strict-subset property is violated).
    SubsetViolation {
        /// The offending node.
        node: NodeId,
        /// The line present in L1 but absent from L2.
        line: LineAddr,
    },
    /// The machine's internal owner registry diverged from the caches.
    RegistryMismatch {
        /// The line concerned.
        line: LineAddr,
        /// Description of the mismatch.
        detail: String,
    },
    /// A watchdog escalation outlived its transaction: at quiescence every
    /// escalated transaction must have completed (and been cleared), so a
    /// leftover entry means the escalation path failed to make progress.
    EscalationLeak {
        /// The still-escalated transaction.
        txn: crate::proto::TxnId,
    },
}

impl fmt::Display for CoherenceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoherenceViolation::MultipleWriters { line, nodes } => {
                write!(
                    f,
                    "line {line:?} modified in both {} and {}",
                    nodes.0, nodes.1
                )
            }
            CoherenceViolation::ModifiedWithSharers {
                line,
                owner,
                sharer,
            } => write!(
                f,
                "line {line:?} modified in {owner} but shared in {sharer}"
            ),
            CoherenceViolation::ValidBitMismatch {
                line,
                memory_valid,
                has_owner,
            } => write!(
                f,
                "line {line:?}: memory valid={memory_valid} but owner present={has_owner}"
            ),
            CoherenceViolation::StaleValue { line, holder } => {
                write!(f, "line {line:?}: stale value at {holder}")
            }
            CoherenceViolation::MltInconsistent { col, detail } => {
                write!(f, "column {col} MLT inconsistent: {detail}")
            }
            CoherenceViolation::SubsetViolation { node, line } => {
                write!(
                    f,
                    "{node}: L1 holds {line:?} but the snooping cache does not"
                )
            }
            CoherenceViolation::RegistryMismatch { line, detail } => {
                write!(f, "line {line:?} registry mismatch: {detail}")
            }
            CoherenceViolation::EscalationLeak { txn } => {
                write!(f, "{txn} still escalated at quiescence")
            }
        }
    }
}

impl std::error::Error for CoherenceViolation {}

/// One resident copy, tagged with its position in the node-major walk.
#[derive(Clone, Copy)]
struct Held {
    line: LineAddr,
    pos: u32,
    node: NodeId,
    mode: LineMode,
    data: LineVersion,
}

/// Every resident copy in one array sorted by `(line, walk position)`:
/// each line's copies are one contiguous run, holders in walk order.
struct Gathered {
    copies: Vec<Held>,
    /// The first L1 line, in walk order, absent from its node's snooping
    /// cache (the §2 strict-subset property), reported at its own stage.
    subset: Option<CoherenceViolation>,
}

impl Gathered {
    /// Each resident line's run of copies, in address order.
    fn runs(&self) -> impl Iterator<Item = &[Held]> {
        self.copies.chunk_by(|a, b| a.line == b.line)
    }
}

/// The copies of a run held in `mode`, in walk order.
fn in_mode(run: &[Held], mode: LineMode) -> impl Iterator<Item = &Held> {
    run.iter().filter(move |c| c.mode == mode)
}

/// The run's modified copy (at most one once [`gather`] has succeeded).
fn owner_of(run: &[Held]) -> Option<&Held> {
    in_mode(run, LineMode::Modified).next()
}

/// Advances the address-sorted cursor `items` past every entry below
/// `line`, then splits off and returns the entries at `line`.
fn take_at<'a, T>(items: &mut &'a [T], line: LineAddr, key: impl Fn(&T) -> LineAddr) -> &'a [T] {
    let start = items
        .iter()
        .position(|e| key(e) >= line)
        .unwrap_or(items.len());
    let len = items[start..]
        .iter()
        .position(|e| key(e) != line)
        .unwrap_or(items.len() - start);
    let (run, rest) = items[start..].split_at(len);
    *items = rest;
    run
}

/// `entries` (at most one per line) in address order.
fn by_line<T>(mut entries: Vec<T>, key: impl Fn(&T) -> LineAddr) -> Vec<T> {
    entries.sort_unstable_by_key(key);
    entries
}

/// The committed version in a registry lookup (`INITIAL` if no entry).
fn committed(entry: &[RegistryEntry]) -> LineVersion {
    entry.first().map_or(LineVersion::INITIAL, |e| e.3)
}

/// A resident copy that does not hold the latest committed version;
/// `holder` names it in the report.
fn stale_copy(holder: String, copy: &Held, latest: LineVersion) -> CoherenceViolation {
    CoherenceViolation::StaleValue {
        line: copy.line,
        holder: format!("{holder} holds {:?}, expected {latest:?}", Some(copy.data)),
    }
}

/// Walks every cache once into the sorted copy array, noting the first L1
/// subset violation on the way, and detects multiple writers.
///
/// The reported writer pair is the one the node-major walk meets first:
/// the line whose second modified copy has the smallest walk position,
/// with its first modified holder.
fn gather(v: &dyn CoherenceView) -> Result<Gathered, CoherenceViolation> {
    let n = v.side();
    let mut copies: Vec<Held> = Vec::new();
    let mut subset = None;
    let mut l2: Vec<LineAddr> = Vec::new();
    for node_idx in 0..(n * n) {
        let node = NodeId::new(node_idx);
        let resident = v.resident(node);
        if subset.is_none() {
            let l1 = v.l1_lines(node);
            if !l1.is_empty() {
                l2.clear();
                l2.extend(resident.iter().map(|(line, _, _)| *line));
                l2.sort_unstable();
                if let Some(&line) = l1.iter().find(|l| l2.binary_search(l).is_err()) {
                    subset = Some(CoherenceViolation::SubsetViolation { node, line });
                }
            }
        }
        let base = copies.len() as u32;
        copies.extend(
            resident
                .into_iter()
                .enumerate()
                .map(|(i, (line, mode, data))| Held {
                    line,
                    pos: base + i as u32,
                    node,
                    mode,
                    data,
                }),
        );
    }
    copies.sort_unstable_by_key(|c| (c.line, c.pos));
    let g = Gathered { copies, subset };
    let clash = g
        .runs()
        .filter_map(|run| {
            let mut writers = in_mode(run, LineMode::Modified);
            Some((writers.next()?, writers.next()?))
        })
        .min_by_key(|(_, second)| second.pos);
    if let Some((first, second)) = clash {
        return Err(CoherenceViolation::MultipleWriters {
            line: first.line,
            nodes: (first.node, second.node),
        });
    }
    Ok(g)
}

/// One line known to the caches or to memory.
struct Known<'a> {
    line: LineAddr,
    /// Its run of resident copies (empty when no cache holds it).
    copies: &'a [Held],
    /// Memory's `(valid, data)` at the home column, defaults if untouched.
    memory: (bool, LineVersion),
}

/// Every line any cache or memory knows, in address order: a merge-join
/// of the copy runs with the sorted memory snapshot.
fn known_lines<'a>(g: &'a Gathered, memory: &'a [MemoryEntry]) -> impl Iterator<Item = Known<'a>> {
    let mut copies = g.copies.as_slice();
    let mut memory = memory;
    std::iter::from_fn(move || {
        let line = match (copies.first(), memory.first()) {
            (None, None) => return None,
            (Some(c), None) => c.line,
            (None, Some(m)) => m.0,
            (Some(c), Some(m)) => c.line.min(m.0),
        };
        Some(Known {
            line,
            copies: take_at(&mut copies, line, |c| c.line),
            memory: take_at(&mut memory, line, |m| m.0)
                .first()
                .map_or((true, LineVersion::INITIAL), |m| (m.1, m.2)),
        })
    })
}

/// The registry's sharer count of every known line (address order)
/// equals the number of shared copies the caches hold.
fn check_sharer_counts(
    g: &Gathered,
    memory: &[MemoryEntry],
    registry: &[RegistryEntry],
) -> Result<(), CoherenceViolation> {
    let mut reg = registry;
    for k in known_lines(g, memory) {
        let copies = in_mode(k.copies, LineMode::Shared).count();
        let counted = take_at(&mut reg, k.line, |e| e.0)
            .first()
            .map_or(0, |e| e.2);
        if counted as usize != copies {
            return Err(CoherenceViolation::RegistryMismatch {
                line: k.line,
                detail: format!("registry counts {counted} sharers, caches hold {copies}"),
            });
        }
    }
    Ok(())
}

/// Registry sanity, both directions: every cache owner is registered, and
/// every registry owner is backed by a modified copy. Each direction
/// reports its smallest offending address.
fn check_registry(g: &Gathered, registry: &[RegistryEntry]) -> Result<(), CoherenceViolation> {
    let mut reg = registry;
    for owner in g.runs().filter_map(owner_of) {
        let entry = take_at(&mut reg, owner.line, |e| e.0);
        if entry.first().and_then(|e| e.1) != Some(owner.node) {
            return Err(CoherenceViolation::RegistryMismatch {
                line: owner.line,
                detail: format!("cache owner {} not in registry", owner.node),
            });
        }
    }
    let mut copies = g.copies.as_slice();
    for &(line, owner, _, _) in registry {
        let Some(node) = owner else { continue };
        if owner_of(take_at(&mut copies, line, |c| c.line)).is_none() {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("registry claims {node} but no cache holds it modified"),
            });
        }
    }
    Ok(())
}

/// The first L1 line missing from the snooping cache, found by [`gather`].
fn check_l1_subset(g: &Gathered) -> Result<(), CoherenceViolation> {
    g.subset.clone().map_or(Ok(()), Err)
}

/// Runs all invariant checks against a quiescent Multicube machine (or
/// any other [`CoherenceView`] claiming Multicube semantics).
///
/// # Errors
///
/// The first violation found.
pub fn check(v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    let n = v.side();
    let g = gather(v)?;
    let memory = by_line(v.memory(), |e| e.0);
    let registry = by_line(v.registry(), |e| e.0);

    // 2. Modified excludes shared.
    for run in g.runs() {
        let Some(owner) = owner_of(run) else { continue };
        if let Some(sharer) = in_mode(run, LineMode::Shared).next() {
            return Err(CoherenceViolation::ModifiedWithSharers {
                line: owner.line,
                owner: owner.node,
                sharer: sharer.node,
            });
        }
    }

    // 3+4. Valid bit and value integrity over every line any structure knows.
    let mut reg = registry.as_slice();
    for k in known_lines(&g, &memory) {
        let line = k.line;
        let (memory_valid, memory_data) = k.memory;
        let owner = owner_of(k.copies);
        let has_owner = owner.is_some();
        if memory_valid == has_owner {
            return Err(CoherenceViolation::ValidBitMismatch {
                line,
                memory_valid,
                has_owner,
            });
        }
        let latest = committed(take_at(&mut reg, line, |e| e.0));
        if let Some(owner) = owner {
            if owner.data != latest {
                return Err(stale_copy(format!("owner {}", owner.node), owner, latest));
            }
        } else {
            if memory_data != latest {
                return Err(CoherenceViolation::StaleValue {
                    line,
                    holder: format!("memory column {}", v.home_column(line)),
                });
            }
            for sharer in in_mode(k.copies, LineMode::Shared) {
                if sharer.data != latest {
                    return Err(stale_copy(
                        format!("sharer {}", sharer.node),
                        sharer,
                        latest,
                    ));
                }
            }
        }
    }

    // 5. Each column's table holds exactly the lines modified in the column.
    let mut owned: Vec<(u32, LineAddr)> = g
        .runs()
        .filter_map(owner_of)
        .map(|o| (o.node.index() % n, o.line))
        .collect();
    owned.sort_unstable();
    let mut rest = owned.as_slice();
    for col in 0..n {
        let (actual, tail) = rest.split_at(rest.partition_point(|e| e.0 == col));
        rest = tail;
        let mut table = v.mlt_lines(col);
        table.sort_unstable();
        table.dedup();
        if !table.iter().eq(actual.iter().map(|(_, line)| line)) {
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
    check_l1_subset(&g)?;

    // 7. Registry sanity.
    check_registry(&g, &registry)?;
    check_sharer_counts(&g, &memory, &registry)?;

    // 8. No leaked watchdog escalations.
    if let Some(txn) = v.escalated() {
        return Err(CoherenceViolation::EscalationLeak { txn });
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
pub fn check_mesi(v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
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
pub fn check_dragon(v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    check_arena(v, true)
}

/// Runs the quiescent invariant suite appropriate for `kind` against any
/// coherence view. This is how the model checker judges its states with
/// the same predicates the simulator runs at quiescence.
///
/// # Errors
///
/// The first violation found.
pub fn check_engine(kind: EngineKind, v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    match kind {
        EngineKind::Multicube => check(v),
        EngineKind::Mesi => check_mesi(v),
        EngineKind::Dragon => check_dragon(v),
    }
}

/// The invariant subset that holds at *every* event boundary, not only at
/// quiescence: the registry mirrors the caches (both directions), L1 is a
/// strict subset of L2, and no structure holds a version newer than the
/// committed one. Transiently-violable invariants (single writer during
/// an invalidation chain, the valid bit during a memory bounce,
/// MLT-vs-cache equality while a column op is in flight) are deliberately
/// excluded.
///
/// Engine-independent.
///
/// # Errors
///
/// The first violation found.
pub fn check_midflight(v: &dyn CoherenceView) -> Result<(), CoherenceViolation> {
    let g = gather(v)?;
    let registry = by_line(v.registry(), |e| e.0);
    check_registry(&g, &registry)?;
    check_l1_subset(&g)?;
    // No structure may hold a version from the future: the first such
    // copy in walk order, then the smallest such memory line.
    let mut reg = registry.as_slice();
    let future = g
        .runs()
        .filter_map(|run| {
            let latest = committed(take_at(&mut reg, run[0].line, |e| e.0));
            run.iter().find(|c| c.data > latest)
        })
        .min_by_key(|c| c.pos);
    if let Some(c) = future {
        return Err(CoherenceViolation::StaleValue {
            line: c.line,
            holder: format!("{} holds uncommitted version {:?}", c.node, c.data),
        });
    }
    let mut reg = registry.as_slice();
    for (line, _, data) in by_line(v.memory(), |e| e.0) {
        if data > committed(take_at(&mut reg, line, |e| e.0)) {
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
fn check_arena(v: &dyn CoherenceView, update_based: bool) -> Result<(), CoherenceViolation> {
    let n = v.side();
    let g = gather(v)?;
    let memory = by_line(v.memory(), |e| e.0);
    let registry = by_line(v.registry(), |e| e.0);

    // An M copy is the sole copy.
    for run in g.runs() {
        let Some(owner) = owner_of(run) else { continue };
        if let Some(sharer) = in_mode(run, LineMode::Shared).next() {
            return Err(CoherenceViolation::ModifiedWithSharers {
                line: owner.line,
                owner: owner.node,
                sharer: sharer.node,
            });
        }
        if let Some(holder) = in_mode(run, LineMode::Reserved).next() {
            return Err(CoherenceViolation::RegistryMismatch {
                line: owner.line,
                detail: format!(
                    "{} holds an exclusive-clean copy alongside owner {}",
                    holder.node, owner.node
                ),
            });
        }
    }

    // An E copy is the sole copy, and the side table matches the caches.
    let excl = by_line(v.excl_entries(), |e| e.0);
    let mut table = excl.as_slice();
    for run in g.runs() {
        let mut holders = in_mode(run, LineMode::Reserved);
        let Some(holder) = holders.next() else {
            continue;
        };
        let (line, node) = (holder.line, holder.node);
        if let Some(other) = holders.next() {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("{node} and {} both hold exclusive-clean copies", other.node),
            });
        }
        if let Some(sharer) = in_mode(run, LineMode::Shared).next() {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!(
                    "{node} holds an exclusive-clean copy alongside sharer {}",
                    sharer.node
                ),
            });
        }
        if take_at(&mut table, line, |e| e.0).first().map(|e| e.1) != Some(node) {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("exclusive-clean holder {node} missing from the E side table"),
            });
        }
    }
    let mut copies = g.copies.as_slice();
    for &(line, node) in &excl {
        let run = take_at(&mut copies, line, |c| c.line);
        if in_mode(run, LineMode::Reserved).next().is_none() {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("E side table claims {node} but no cache holds it exclusive-clean"),
            });
        }
    }

    // The Sm side table: a Dragon shared-modified holder must be a
    // resident sharer; MESI must never populate it.
    let sm = by_line(v.sm_entries(), |e| e.0);
    let mut copies = g.copies.as_slice();
    for &(line, holder) in &sm {
        if !update_based {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("Sm side table claims {holder} under a write-invalidate engine"),
            });
        }
        let run = take_at(&mut copies, line, |c| c.line);
        if !in_mode(run, LineMode::Shared).any(|c| c.node == holder) {
            return Err(CoherenceViolation::RegistryMismatch {
                line,
                detail: format!("Sm holder {holder} does not hold the line shared"),
            });
        }
    }

    // Valid bit and value integrity over every line any structure knows.
    let mut reg = registry.as_slice();
    let mut sm_at = sm.as_slice();
    for k in known_lines(&g, &memory) {
        let line = k.line;
        let (memory_valid, memory_data) = k.memory;
        let owner = owner_of(k.copies);
        let dirty = owner.is_some() || !take_at(&mut sm_at, line, |e| e.0).is_empty();
        if memory_valid == dirty {
            return Err(CoherenceViolation::ValidBitMismatch {
                line,
                memory_valid,
                has_owner: dirty,
            });
        }
        let latest = committed(take_at(&mut reg, line, |e| e.0));
        if !dirty && memory_data != latest {
            return Err(CoherenceViolation::StaleValue {
                line,
                holder: format!("memory column {}", v.home_column(line)),
            });
        }
        // Every resident copy holds the latest committed version: under
        // MESI because writers are sole holders, under Dragon because
        // updates refresh every copy in place.
        if let Some(owner) = owner {
            if owner.data != latest {
                return Err(stale_copy(format!("owner {}", owner.node), owner, latest));
            }
        }
        let holders =
            in_mode(k.copies, LineMode::Shared).chain(in_mode(k.copies, LineMode::Reserved));
        for holder in holders {
            if holder.data != latest {
                return Err(stale_copy(holder.node.to_string(), holder, latest));
            }
        }
    }

    // The MLT is a Multicube structure; arena engines must leave every
    // column's table empty. The report names the column's row-0 node.
    for col in 0..n {
        if let Some(&line) = v.mlt_lines(col).first() {
            return Err(CoherenceViolation::MltInconsistent {
                col,
                detail: format!(
                    "arena engine populated the MLT at {} with {line:?}",
                    NodeId::new(col)
                ),
            });
        }
    }
    check_l1_subset(&g)?;

    // Registry sanity (both directions).
    check_registry(&g, &registry)?;
    check_sharer_counts(&g, &memory, &registry)?;

    // No leaked watchdog escalations.
    if let Some(txn) = v.escalated() {
        return Err(CoherenceViolation::EscalationLeak { txn });
    }

    Ok(())
}
