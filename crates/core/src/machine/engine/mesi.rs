//! Write-invalidate MESI on a single shared snooping bus.
//!
//! State mapping onto the Multicube cache fabric:
//!
//! * `M` — [`LineMode::Modified`] (registry owner, memory invalid)
//! * `E` — [`LineMode::Reserved`] plus an `arena_excl` entry (memory valid)
//! * `S` — [`LineMode::Shared`]
//! * `I` — not resident
//!
//! Every transaction is one atomic bus operation: `BusRead` (miss for a
//! readable copy), `BusReadExclusive` (miss for ownership, invalidating
//! all other copies), `BusUpgrade` (ownership for an already-shared copy)
//! and `BusWriteback` (dirty flush). A write to an `E` copy upgrades to
//! `M` silently — MESI's advantage over MSI.

use multicube_topology::NodeId;

use crate::config::EngineKind;
use crate::driver::{Request, RequestKind};
use crate::machine::Machine;
use crate::metrics::Served;
use crate::node::LineMode;
use crate::proto::{BusOp, OpKind, TxnId};

use super::{
    arena_downgrade_reserved, arena_local_done, arena_on_writeback, arena_purge_remote,
    arena_start_request, arena_txn_kind, ArenaOps, ProtocolEngine, ARENA_SLOT,
};

/// The MESI arena vocabulary: invalidating upgrades, exclusive misses for
/// writes.
const MESI_OPS: ArenaOps = ArenaOps {
    upgrade: OpKind::BusUpgrade,
    miss: |kind| match kind {
        RequestKind::Read => OpKind::BusRead,
        RequestKind::Write | RequestKind::Allocate | RequestKind::TestAndSet => {
            OpKind::BusReadExclusive
        }
        RequestKind::Writeback => unreachable!("writebacks use BusWriteback"),
    },
};

/// Write-invalidate MESI on a single snooping bus.
pub struct MesiEngine;

impl ProtocolEngine for MesiEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Mesi
    }

    fn start_request(&self, m: &mut Machine, node: NodeId, req: Request) -> TxnId {
        arena_start_request(m, &MESI_OPS, node, req)
    }

    fn on_op(&self, m: &mut Machine, _slot: usize, op: BusOp) {
        match op.kind {
            OpKind::BusRead => on_bus_read(m, &op),
            OpKind::BusReadExclusive => on_bus_read_exclusive(m, &op),
            OpKind::BusUpgrade => on_bus_upgrade(m, &op),
            OpKind::BusWriteback => arena_on_writeback(m, &MESI_OPS, &op),
            other => unreachable!("op {} dispatched on the MESI engine", other.name()),
        }
    }

    fn on_local_done(&self, m: &mut Machine, node: NodeId) {
        arena_local_done(m, &MESI_OPS, node);
    }
}

/// `BusRead`: fetch a readable copy. A dirty owner supplies the block and
/// downgrades to `S` (memory snarfs the flush); an `E` holder downgrades
/// to `S`; otherwise memory supplies. The requester installs `S` if any
/// other copy remains, else `E`.
fn on_bus_read(m: &mut Machine, op: &BusOp) {
    let line = op.line;
    let o_node = op.originator;
    if !m.txn_outstanding(o_node, op.txn) {
        return;
    }
    let home = m.home_column(line) as usize;
    let data;
    if let Some(owner) = m.registry_owner(line) {
        debug_assert_ne!(owner, o_node, "a dirty owner reads locally");
        let w_idx = owner.as_usize();
        let held = m.controllers[w_idx]
            .data_of(&line)
            .expect("modified line is resident");
        m.downgrade_to_shared(w_idx, line);
        m.memories[home].write(line, held);
        m.note_served(op.txn, Served::RemoteModified);
        data = held;
    } else {
        if let Some(&e) = m.arena_excl.get(&line) {
            if e != o_node {
                arena_downgrade_reserved(m, e.as_usize(), line);
            }
        }
        data = m.memories[home]
            .read_valid(&line)
            .unwrap_or_else(|| m.committed_version(line));
        m.note_served(op.txn, Served::Memory);
    }
    let o_idx = o_node.as_usize();
    if m.sharer_count(line) > 0 {
        m.set_line(o_idx, line, LineMode::Shared, data);
    } else {
        m.set_line(o_idx, line, LineMode::Reserved, data);
        m.arena_excl.insert(line, o_node);
    }
    m.finish_txn(o_node, op.txn, true);
}

/// `BusReadExclusive`: fetch ownership, invalidating every other copy.
/// For TAS the synchronization word is tested first; a taken word fails
/// the transaction without disturbing any copy.
fn on_bus_read_exclusive(m: &mut Machine, op: &BusOp) {
    let line = op.line;
    let o_node = op.originator;
    if !m.txn_outstanding(o_node, op.txn) {
        return;
    }
    let kind = arena_txn_kind(m, op.txn);
    let served = if m.registry_owner(line).is_some() {
        Served::RemoteModified
    } else {
        Served::Memory
    };
    if kind == RequestKind::TestAndSet && m.sync_word(line) != 0 {
        m.note_served(op.txn, served);
        m.finish_txn(o_node, op.txn, false);
        return;
    }
    arena_purge_remote(m, line, o_node);
    let home = m.home_column(line) as usize;
    let v = m.next_version(line);
    m.set_line(o_node.as_usize(), line, LineMode::Modified, v);
    m.memories[home].mark_invalid(&line);
    if kind == RequestKind::TestAndSet {
        m.line_entry(line).sync_word = 1;
    }
    m.note_served(op.txn, served);
    m.finish_txn(o_node, op.txn, true);
}

/// `BusUpgrade`: ownership for a copy we already hold shared. If a rival
/// writer invalidated our copy while the upgrade sat in the bus queue,
/// the upgrade lost the race and restarts as a full `BusReadExclusive`
/// (the invalidation freed our set slot, so the re-fetch installs without
/// a victim).
fn on_bus_upgrade(m: &mut Machine, op: &BusOp) {
    let line = op.line;
    let o_node = op.originator;
    let o_idx = o_node.as_usize();
    if !m.txn_outstanding(o_node, op.txn) {
        return;
    }
    let kind = arena_txn_kind(m, op.txn);
    if m.controllers[o_idx].mode_of(&line) != Some(LineMode::Shared) {
        m.note_retry(op.txn);
        let req = BusOp::new(OpKind::BusReadExclusive, line, o_node, op.txn)
            .with_allocate(kind == RequestKind::Allocate);
        m.emit(ARENA_SLOT, req, 0);
        return;
    }
    if kind == RequestKind::TestAndSet && m.sync_word(line) != 0 {
        m.note_served(op.txn, Served::Memory);
        m.finish_txn(o_node, op.txn, false);
        return;
    }
    arena_purge_remote(m, line, o_node);
    let home = m.home_column(line) as usize;
    let v = m.next_version(line);
    m.set_line(o_idx, line, LineMode::Modified, v);
    m.memories[home].mark_invalid(&line);
    if kind == RequestKind::TestAndSet {
        m.line_entry(line).sync_word = 1;
    }
    m.note_served(op.txn, Served::Memory);
    m.finish_txn(o_node, op.txn, true);
}
