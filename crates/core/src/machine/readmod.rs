//! READ-MOD (and ALLOCATE) transaction procedures (Appendix A).
//!
//! ALLOCATE is "identical to the READ-MOD request, except that an
//! acknowledge, rather than data, is returned": the same procedures run
//! with the `allocate` flag set on every operation, which makes replies
//! address-length on the bus.

use std::ops::Range;

use multicube_mem::LineAddr;

use crate::machine::Machine;
use crate::metrics::Served;
use crate::node::LineMode;
use crate::proto::{BusOp, OpKind};

impl Machine {
    /// `READMOD (ROW, REQUEST)`: route to the modified column or to memory
    /// on the home column (a write miss always consults the home column —
    /// copies anywhere must be purged).
    pub(crate) fn on_readmod_row_request(&mut self, slot: usize, op: BusOp) {
        let row = self.slot_row(slot);
        if let Some(cm) = self.poll_modified_signal(row, &op.line, op.txn) {
            let fwd = BusOp::new(
                OpKind::ReadModColRequestRemove,
                op.line,
                op.originator,
                op.txn,
            )
            .with_allocate(op.allocate);
            let slot = self.col_slot(cm);
            self.emit(slot, fwd, 0);
        } else {
            let home = self.home_column(op.line);
            let fwd = BusOp::new(
                OpKind::ReadModColRequestMemory,
                op.line,
                op.originator,
                op.txn,
            )
            .with_allocate(op.allocate);
            let slot = self.col_slot(home);
            self.emit(slot, fwd, 0);
        }
    }

    /// `READMOD (COLUMN, REQUEST, REMOVE)`: the holder invalidates its copy
    /// and ships ownership toward the originator.
    pub(crate) fn on_readmod_col_request_remove(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        // Same pre-removal gate as the READ flavour: a blacked-out holder
        // cannot answer, so bounce before the MLT entry comes out.
        if self.holder_blacked_out(col, &op) {
            self.reissue_row_request(&op);
            return;
        }
        if !self.mlt_remove_all(col, &op.line) {
            self.reissue_row_request(&op);
            return;
        }
        let Some(d_idx) = self.modified_holder_in(col, &op.line) else {
            self.reissue_row_request(&op);
            return;
        };
        let data = self.controllers[d_idx]
            .data_of(&op.line)
            .expect("modified line has data");
        // "mark line invalid" — ownership leaves D entirely.
        self.clear_line(d_idx, op.line);
        self.note_served(op.txn, Served::RemoteModified);
        let d_row = self.controllers[d_idx].row();
        let snoop = self.config.timing().snoop_latency_ns;
        let o_col = self.origin_col(&op);
        if col == o_col {
            // "if (column match) then READMOD (COLUMN, REPLY, INSERT)".
            let reply = BusOp::new(
                OpKind::ReadModColReplyInsert,
                op.line,
                op.originator,
                op.txn,
            )
            .with_data(data)
            .with_allocate(op.allocate);
            let slot = self.col_slot(col);
            self.emit(slot, reply, snoop);
        } else {
            let reply = BusOp::new(OpKind::ReadModRowReply, op.line, op.originator, op.txn)
                .with_data(data)
                .with_allocate(op.allocate);
            let slot = self.row_slot(d_row);
            self.emit(slot, reply, snoop);
        }
    }

    /// `READMOD (COLUMN, REQUEST, MEMORY)`: memory supplies the line and
    /// starts the purge broadcast, or bounces an invalid request.
    pub(crate) fn on_readmod_col_request_memory(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        debug_assert_eq!(col, self.home_column(op.line));
        let latency = self.config.timing().memory_latency_ns;
        // An injected transient NACK bounces off the same path as an
        // invalid memory copy.
        let answer = if self.nack_memory_access(slot, &op) {
            None
        } else {
            self.memories[col as usize].read_valid(&op.line)
        };
        match answer {
            Some(data) => {
                // "* READMOD (COLUMN, REPLY, PURGE); * mark line invalid".
                self.memories[col as usize].mark_invalid(&op.line);
                self.note_served(op.txn, Served::Memory);
                let reply =
                    BusOp::new(OpKind::ReadModColReplyPurge, op.line, op.originator, op.txn)
                        .with_data(data)
                        .with_allocate(op.allocate);
                self.emit(slot, reply, latency);
            }
            None => {
                self.metrics.memory_bounces.incr();
                let bounce = BusOp::new(
                    OpKind::ReadModColRequestRemove,
                    op.line,
                    op.originator,
                    op.txn,
                )
                .with_allocate(op.allocate);
                self.emit(slot, bounce, latency);
            }
        }
    }

    /// `READMOD (ROW, REPLY)`: ownership transits the holder's row; the
    /// originator takes it directly if it lives here, otherwise the
    /// column-match controller relays it up the originator's column.
    pub(crate) fn on_readmod_row_reply(&mut self, slot: usize, op: BusOp) {
        let row = self.slot_row(slot);
        self.verify_carried(&op);
        let data = op.data.expect("reply carries data");
        let o_col = self.origin_col(&op);
        if self.origin_row(&op) == row {
            // id match: post the MLT insert up our column, then install.
            let ins = BusOp::new(OpKind::ReadModColInsert, op.line, op.originator, op.txn)
                .with_allocate(op.allocate);
            let slot = self.col_slot(o_col);
            self.emit(slot, ins, 0);
            self.install_and_finish(op.originator, op.txn, op.data, true, true);
        } else {
            let fwd = BusOp::new(
                OpKind::ReadModColReplyInsert,
                op.line,
                op.originator,
                op.txn,
            )
            .with_data(data)
            .with_allocate(op.allocate);
            let slot = self.col_slot(o_col);
            self.emit(slot, fwd, 0);
        }
    }

    /// `READMOD (COLUMN, REPLY, PURGE)`: the broadcast pivot. Every
    /// controller on the home column purges its copy and relays a purge
    /// along its own row; the controller on the originator's row carries
    /// the data with it. The originator (if it lives on the home column)
    /// installs directly.
    pub(crate) fn on_readmod_col_reply_purge(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        self.verify_carried(&op);
        let data = op.data.expect("reply carries data");
        let o_row = self.origin_row(&op);
        let o_col = self.origin_col(&op);
        // Idealized sharing filter (ablation): skip the pure-purge fan-out
        // when no cache holds a shared copy anywhere. The data-carrying
        // reply toward the originator is always sent.
        let fanout_needed = !self.config.broadcast_filter()
            || self.sharer_count(op.line) > 0
            || self.line_has_inflight_interest(op.line, op.originator);
        self.poison_readers(self.col_nodes(col), op.line, op.originator);
        #[cfg(debug_assertions)]
        self.debug_check_holders(op.line);
        // Only members in the holder set have a copy to purge; every
        // member still relays along its row.
        let holders = self.bits_offset(op.line);
        for idx in self.col_nodes(col) {
            let node = self.controllers[idx].node();
            let r = self.controllers[idx].row();
            if node == op.originator {
                let ins = BusOp::new(OpKind::ReadModColInsert, op.line, op.originator, op.txn)
                    .with_allocate(op.allocate);
                let dst = self.col_slot(o_col);
                self.emit(dst, ins, 0);
                if fanout_needed {
                    let purge = BusOp::new(OpKind::ReadModRowPurge, op.line, op.originator, op.txn)
                        .with_allocate(op.allocate);
                    let dst = self.row_slot(o_row);
                    self.emit(dst, purge, 0);
                }
                self.install_and_finish(op.originator, op.txn, op.data, true, true);
            } else {
                if holders.is_some_and(|o| self.holder_bit(o, idx))
                    && self.clear_line(idx, op.line) == Some(LineMode::Shared)
                {
                    self.metrics.invalidations.incr();
                }
                if r == o_row {
                    let fwd =
                        BusOp::new(OpKind::ReadModRowReplyPurge, op.line, op.originator, op.txn)
                            .with_data(data)
                            .with_allocate(op.allocate);
                    let dst = self.row_slot(r);
                    self.emit(dst, fwd, 0);
                } else if fanout_needed {
                    let purge = BusOp::new(OpKind::ReadModRowPurge, op.line, op.originator, op.txn)
                        .with_allocate(op.allocate);
                    let dst = self.row_slot(r);
                    self.emit(dst, purge, 0);
                }
            }
        }
    }

    /// `READMOD (ROW, REPLY, PURGE)`: deliver to the originator and purge
    /// shared copies on its row (the home-column cache is already purged).
    pub(crate) fn on_readmod_row_reply_purge(&mut self, slot: usize, op: BusOp) {
        let row = self.slot_row(slot);
        debug_assert_eq!(row, self.origin_row(&op));
        self.verify_carried(&op);
        let o_col = self.origin_col(&op);
        self.poison_readers(self.row_nodes(row), op.line, op.originator);
        // The formal protocol exempts home-column caches ("the home column
        // data cache has already been purged"), but with snarfing a
        // home-column node can re-acquire a stale copy *between* the
        // column purge and this row purge — so every member is purged.
        // Member order is kept: holders before the originator, the
        // originator's install, then holders after it.
        let o_idx = op.originator.as_usize();
        let members = self.row_range(row);
        self.purge_shared_holders(op.line, members.start..o_idx);
        let ins = BusOp::new(OpKind::ReadModColInsert, op.line, op.originator, op.txn)
            .with_allocate(op.allocate);
        let dst = self.col_slot(o_col);
        self.emit(dst, ins, 0);
        self.install_and_finish(op.originator, op.txn, op.data, true, true);
        self.purge_shared_holders(op.line, o_idx + 1..members.end);
    }

    /// Invalidates the shared copies of `line` among node indices
    /// `range`, walking the holder set in ascending order.
    fn purge_shared_holders(&mut self, line: LineAddr, range: Range<usize>) {
        #[cfg(debug_assertions)]
        self.debug_check_holders(line);
        let Some(offset) = self.bits_offset(line) else {
            return;
        };
        let mut from = range.start;
        while let Some(idx) = self.next_holder_at(offset, from, range.end) {
            from = idx + 1;
            if self.controllers[idx].mode_of(&line) == Some(LineMode::Shared) {
                self.clear_line(idx, line);
                self.metrics.invalidations.incr();
            }
        }
    }

    /// `READMOD (ROW, PURGE)`: invalidate shared copies along one row. The
    /// snoop walk is skipped when no cache holds the line shared and no
    /// other node has it outstanding; the op still occupied the bus.
    pub(crate) fn on_readmod_row_purge(&mut self, slot: usize, op: BusOp) {
        let row = self.slot_row(slot);
        if self.sharer_count(op.line) == 0
            && !self.line_has_inflight_interest(op.line, op.originator)
        {
            debug_assert!(
                self.row_nodes(row).all(|idx| {
                    let c = &self.controllers[idx];
                    c.node() == op.originator
                        || (c.mode_of(&op.line) != Some(LineMode::Shared)
                            && c.outstanding().is_none_or(|o| o.line != op.line))
                }),
                "row purge filter skipped a member with state for {:?}",
                op.line
            );
            return;
        }
        self.poison_readers(self.row_nodes(row), op.line, op.originator);
        // Home-column caches are purged again deliberately (see
        // `on_readmod_row_reply_purge`): a snarfed copy may have appeared
        // after the column purge. The originator may sit on this row; its
        // own copy is never purged.
        let members = self.row_range(row);
        let o_idx = op.originator.as_usize();
        if members.contains(&o_idx) {
            self.purge_shared_holders(op.line, members.start..o_idx);
            self.purge_shared_holders(op.line, o_idx + 1..members.end);
        } else {
            self.purge_shared_holders(op.line, members);
        }
    }

    /// `READMOD (COLUMN, REPLY, INSERT)`: final delivery up the
    /// originator's column; every controller there inserts an MLT entry.
    pub(crate) fn on_readmod_col_reply_insert(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        debug_assert_eq!(col, self.origin_col(&op));
        self.verify_carried(&op);
        self.install_and_finish(op.originator, op.txn, op.data, true, true);
        self.mlt_insert_all(col, &op);
    }

    /// `READMOD (COLUMN, INSERT)`: MLT insertion broadcast after the data
    /// was delivered on a row bus.
    pub(crate) fn on_readmod_col_insert(&mut self, slot: usize, op: BusOp) {
        let col = self.slot_col(slot);
        self.mlt_insert_all(col, &op);
    }
}
