//! The default engine: the paper's Appendix-A write-invalidate protocol
//! over the row/column bus grid. All behavior lives in the sibling
//! `machine` submodules (`start`, `readops`, `readmod`, `tas`,
//! `writeback`); this engine only routes to it, so the refactor keeps the
//! default machine byte-identical trace-for-trace.

use multicube_topology::NodeId;

use crate::config::EngineKind;
use crate::driver::Request;
use crate::machine::Machine;
use crate::proto::{BusOp, TxnId};

use super::ProtocolEngine;

/// The Appendix-A Multicube protocol (grid of row and column buses).
pub struct MulticubeEngine;

impl ProtocolEngine for MulticubeEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Multicube
    }

    fn start_request(&self, m: &mut Machine, node: NodeId, req: Request) -> TxnId {
        m.start_request_multicube(node, req)
    }

    fn on_op(&self, m: &mut Machine, slot: usize, op: BusOp) {
        m.dispatch_multicube(slot, op);
    }

    fn on_local_done(&self, m: &mut Machine, node: NodeId) {
        m.on_local_done_multicube(node);
    }
}
