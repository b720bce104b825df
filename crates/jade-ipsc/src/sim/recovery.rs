//! Recovery: checkpoints and fail-stop (DESIGN.md §11–12), which the
//! paper's machines do without.
//!
//! * **re-dispatch on fail-stop**: the dead processor's unfinished tasks
//!   are rewound (`TaskReExecuted`), their fetches cancelled, and
//!   scheduled again; its objects move to a live replica holder, or to a
//!   recovery copy at main, whose transfer is charged (`ObjectRestored`);
//! * **checkpoint/restart**: with `ckpt=<secs>` in the plan, main
//!   periodically captures the dependence state, the communicator's tables
//!   and the payloads dirtied since the last capture (`CheckpointTaken`); a
//!   later restore the checkpoint covers is a cheap local read
//!   (`CheckpointRestored`).
//!
//! The trace's dependence graph never enables a writer while a reader of
//! the version it replaces is unfinished, so a run under *any* fault plan
//! computes bit-identical results to the fault-free run; only timing and
//! the fault counters differ.

use super::{buffering, Ev, Sim};
use crate::communicator::CommSnapshot;
use crate::costs::{SnapshotSize, OBJECT_RECV, RECV_HANDLER};
use crate::net::{by_hops, hops, price, too_big, Host};
use crate::IpscConfig;
use dsim::driver::{Machine, SimError};
use dsim::{ProcId, SimDuration, SimTime, TimeKind};
use jade_core::{EventKind, ObjectId, Sink, TaskId, Trace, MAIN_PROC};

/// Checkpoint and fail-stop state, and its tallies for the cross-check.
#[derive(Default)]
pub(super) struct Recovery {
    /// The communicator tables of the latest checkpoint; fail-stop
    /// recovery consults them. The payload store at main is cumulative
    /// across checkpoints, so coverage is judged against the latest
    /// capture's version vector alone.
    latest: Option<CommSnapshot>,
    /// The size of the dependence state a checkpoint captures, kept from
    /// counters: tasks are registered in it at each capture, and retired
    /// as they complete.
    pub(super) sync_size: SnapshotSize,
    /// Wire time of a worker's replica-table slice by hop count (per object
    /// a held version, 8 bytes, and an accessed bit, 1), if checkpointing.
    table: Vec<SimDuration>,
    pub(super) n_reexec: u64,
    pub(super) n_checkpoints: u64,
    pub(super) n_ckpt_bytes: u64,
    pub(super) n_ckpt_restores: u64,
    pub(super) n_restore_bytes: u64,
}

impl Recovery {
    /// When `cfg`'s plan checkpoints, price a capture's two messages whose
    /// size grows with the trace: the replica table, and the dependence
    /// state at its largest (every task registered, none retired).
    pub(super) fn new(cfg: &IpscConfig, trace: &Trace) -> Result<Recovery, SimError> {
        let mut table = Vec::new();
        if cfg.faults.checkpoint.is_some() {
            let m = &cfg.machine;
            table = by_hops(m, trace.objects.len() * 9, "a checkpoint's replica table")?;
            let mut all = SnapshotSize::default();
            trace.tasks.iter().for_each(|rec| all.register(&rec.spec));
            let most = all.encoded_len();
            price(m, most, 0).ok_or_else(|| {
                too_big(format!("a checkpoint's dependence state of {most} bytes"))
            })?;
        }
        Ok(Recovery {
            table,
            ..Recovery::default()
        })
    }
}

impl<'a, R: Sink> Sim<'a, R> {
    /// Periodic checkpoint capture. Every live worker ships its slice of
    /// the replica table to the main processor, owners ship the payloads of
    /// objects dirtied since the previous capture (and not already held at
    /// main), and main serializes the dependence state into the checkpoint
    /// store, charged at its serialized size ([`SnapshotSize`]). The
    /// captured *state* is atomic — the tables are snapshotted at the tick
    /// — but the capture *cost* lands on the processor timelines through
    /// the machine cost model like any other protocol work.
    pub(super) fn on_checkpoint_tick(&mut self, t: SimTime) {
        if self.core.main_done && self.core.deps.all_complete() {
            return; // program over: end the tick chain
        }
        // Remaining failure horizon: virtual picoseconds until the plan's
        // pending fail-stop, `None` once it landed (or was never planned).
        let horizon = match self.cfg.faults.fail_proc {
            Some(fp) if self.comm.is_alive(fp) => {
                Some(self.cfg.faults.fail_at.0.saturating_sub(t.0).max(1))
            }
            _ => None,
        };
        if self.cfg.tune && horizon.is_none() {
            // Nothing left to recover from: a capture here is pure
            // overhead — and its traffic rides the same lossy links as
            // real fetches — so skip it and stretch the tick chain to the
            // controller's maximum instead.
            let iv = self.ctl.checkpoint_interval_ps(1, None);
            self.core.schedule(t + SimDuration(iv), Ev::CheckpointTick);
            return;
        }
        let snap = self.comm.snapshot();
        let trace = self.core.trace;
        let rec = &mut self.rec;
        for task in &trace.tasks[rec.sync_size.task_count()..self.core.deps.task_count()] {
            rec.sync_size.register(&task.spec);
        }
        let sync_len = rec.sync_size.encoded_len();
        let mut bytes = snap.table_bytes() + sync_len as u64;
        for p in 1..self.core.pc.procs() {
            if !self.comm.is_alive(p) {
                continue;
            }
            let dur = self.rec.table[hops(p, 0)];
            self.handler_op(p, t, dur, TimeKind::Comm);
            self.handler_op(0, t, RECV_HANDLER, TimeKind::Mgmt);
        }
        // Owners ship payloads of objects whose version moved since the
        // last checkpoint; main's checkpoint store is cumulative, so a
        // clean object is already covered by an earlier capture, and a
        // copy main holds live needs no transfer.
        for i in 0..trace.objects.len() {
            let o = ObjectId(i as u32);
            let clean = self
                .rec
                .latest
                .as_ref()
                .is_some_and(|c| c.version(o) == snap.version(o));
            if clean || !self.comm.needs_fetch(0, o) {
                continue;
            }
            let owner = self.comm.owner(o);
            bytes += trace.object_size(o) as u64;
            let dur = self.net.costs.object(o, hops(owner, 0));
            self.handler_op(owner, t, dur, TimeKind::Comm);
            self.handler_op(0, t, OBJECT_RECV, TimeKind::Mgmt);
        }
        // Main serializes the dependence state to stable storage.
        let ser = price(&self.cfg.machine, sync_len, 0).expect("priced at setup");
        let end = self.handler_op(0, t, ser, TimeKind::Mgmt);
        self.rec.n_checkpoints += 1;
        self.rec.n_ckpt_bytes += bytes;
        self.core
            .events
            .emit(end.0, 0, EventKind::CheckpointTaken { bytes });
        self.rec.latest = Some(snap);
        // Re-arm the tick chain. The interval is always present while ticks
        // are scheduled (ticks only start when the plan has one), but end
        // the chain gracefully rather than panic if that invariant ever
        // breaks. With tuning on, the controller aims the next tick one
        // capture-cost guard ahead of the plan's pending fail-stop, using
        // the cost just measured on the virtual clock (`end - t`); the
        // no-pending-failure case was handled (capture skipped, chain
        // stretched) before the capture above.
        let Some(static_iv) = self.cfg.faults.checkpoint else {
            return;
        };
        let iv = if self.cfg.tune {
            let cost = end.0.saturating_sub(t.0).max(1);
            SimDuration(self.ctl.checkpoint_interval_ps(cost, horizon))
        } else {
            static_iv
        };
        self.core.schedule(t + iv, Ev::CheckpointTick);
    }

    /// Injected fail-stop: `p` stops participating. Its replicas and owned
    /// objects are recovered by the communicator; tasks dispatched to it
    /// whose results were not yet applied are rewound and re-dispatched.
    ///
    /// Sole copies that died with `p` are re-materialized at main and
    /// **charged**: a checkpoint covering the current version supplies the
    /// payload with a cheap local read from the checkpoint store, anything
    /// else pays the full recovery transfer. A task whose body finished is
    /// never re-dispatched, so neither is one the last checkpoint recorded
    /// as completed.
    pub(super) fn on_proc_fail(&mut self, p: ProcId, t: SimTime) {
        if !self.comm.is_alive(p) {
            return;
        }
        self.core.events.emit(t.0, p, EventKind::WorkerFailed);
        let lost = self.comm.fail_proc(p);
        self.sched.fail(p);
        self.debt_comm[p] = SimDuration::ZERO;
        self.debt_mgmt[p] = SimDuration::ZERO;
        self.queues[p].clear();
        self.core.executing[p] = None;
        let mut t_cur = t;
        for o in lost {
            let bytes = self.core.trace.object_size(o) as u64;
            let covered = self
                .rec
                .latest
                .as_ref()
                .is_some_and(|c| c.covers(o, self.comm.version(o)));
            let dur = if covered {
                // Local read from main's checkpoint store: buffering only.
                SimDuration::from_secs_f64(buffering(&self.cfg.machine, bytes as usize))
            } else {
                // Full recovery-copy transfer into main's memory.
                self.net.costs.object(o, 0)
            };
            t_cur = self.handler_op(0, t_cur, dur, TimeKind::Comm);
            self.comm.record_restore(o, bytes);
            self.rec.n_restore_bytes += bytes;
            if covered {
                self.rec.n_ckpt_restores += 1;
                self.core
                    .events
                    .emit(t_cur.0, 0, EventKind::CheckpointRestored { bytes });
            }
            self.core
                .events
                .emit_obj(t_cur.0, 0, EventKind::ObjectRestored { bytes }, None, o);
        }
        // Rewind the orphans in trace order. Re-dispatch never picks the
        // dead processor, so it makes no new orphans.
        for i in 0..self.tstate.len() {
            let ts = &mut self.tstate[i];
            if ts.assigned_to != p || ts.finished_local {
                continue;
            }
            let id = TaskId(i as u32);
            ts.ready = false;
            ts.fetch_queue.clear();
            self.net.cancel(id);
            self.rec.n_reexec += 1;
            let kind = EventKind::TaskReExecuted;
            self.core.events.emit_task(t_cur.0, MAIN_PROC, kind, id);
            self.on_enabled(id, t_cur);
        }
    }
}
