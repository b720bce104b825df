//! The iPSC/860 machine simulation: replays a Jade program trace under the
//! message-passing runtime algorithms of paper Sections 3.3–3.4.
//!
//! The main thread and the task lifecycle are the one simulator driver's
//! ([`dsim::driver`]; DESIGN.md §4, "One simulator driver"); this module is
//! the iPSC's hooks into it: the central scheduler, the assignment and
//! completion messages, the fetch plan and adaptive broadcast. Objects move
//! over the transport ([`crate::net`]: message fates, acks and retries);
//! checkpoints and fail-stop are [`recovery`]'s.
//!
//! Message flow for one remote task:
//!
//! ```text
//! main: create ──► schedule ──► ASSIGN msg ──► proc p: handler sends
//!                                             REQUEST msgs to owners ──►
//! owners: reply with OBJECT msgs (concurrently) ──► p: all present ──►
//! p: execute ──► p: NOTIFY msg ──► main: complete, enable successors,
//!                                  pull from the unassigned pool
//! ```
//!
//! Senders are occupied for the full message time (NX/2-style synchronous
//! sends — this is why serially distributing a widely-read object delays the
//! main processor, Section 5.3, and what adaptive broadcast fixes).

mod recovery;

use crate::communicator::Communicator;
use crate::costs::{
    AGG_ENTRY_BYTES, ASSIGN_BYTES, COMPLETE, CREATE, NOTIFY_BYTES, NOTIFY_HANDLER, OBJECT_RECV,
    RECV_HANDLER, REQUEST_SEND, SCHED,
};
use crate::net::{self, hops, Host, Net};
use crate::scheduler::{Decision, IpscScheduler};
use crate::{IpscConfig, IpscRunResult};
use dsim::driver::{self, Core, Machine, Run, SimError};
use dsim::{IpscSpec, ProcId, SimDuration, SimTime, TimeKind};
use jade_core::{Component, EventKind, ObjectId, Sink, TaskId, Trace, MAIN_PROC};
use recovery::Recovery;
use std::collections::VecDeque;

/// The iPSC's own calendar events (beside the driver's main step and task
/// finish), and the transport's.
#[derive(Clone, Copy, Debug)]
enum Ev {
    AssignArrive {
        proc: ProcId,
        task: TaskId,
    },
    NotifyArrive {
        proc: ProcId,
        task: TaskId,
    },
    Net(net::Ev),
    /// Injected fail-stop of a processor.
    ProcFail {
        proc: ProcId,
    },
    /// Periodic checkpoint capture (`FaultPlan::checkpoint`). Reschedules
    /// itself until the program completes.
    CheckpointTick,
}

impl From<net::Ev> for Ev {
    fn from(ev: net::Ev) -> Ev {
        Ev::Net(ev)
    }
}

#[derive(Clone, Debug, Default)]
struct TState {
    assigned_to: ProcId,
    ready: bool,
    /// Remaining objects to request (serial-fetch mode only).
    fetch_queue: VecDeque<ObjectId>,
    /// The task's body finished and its writes were applied; it must never
    /// be re-executed, even if its processor dies before the completion
    /// notification lands.
    finished_local: bool,
}

struct Sim<'a, R: Sink> {
    core: Core<'a, Ev, R>,
    cfg: &'a IpscConfig,
    net: Net,
    rec: Recovery,
    sched: IpscScheduler,
    comm: Communicator,
    tstate: Vec<TState>,
    /// Per processor: assigned tasks that have arrived, FIFO.
    queues: Vec<VecDeque<TaskId>>,
    /// Handler time that interrupted each processor's currently-executing
    /// task, split by component; the task's completion is pushed back by
    /// the total. The split lets the settlement at a task's finish emit
    /// correctly-typed spans for the preempted interval.
    debt_comm: Vec<SimDuration>,
    debt_mgmt: Vec<SimDuration>,
    /// Phases whose `PhaseStart` has been emitted.
    phase_started: Vec<bool>,
    /// Replay support ([`IpscConfig::pinned`]): each processor's recorded
    /// task sequence in start order, and a cursor into it. A processor only
    /// starts the task its cursor points at, so execution order matches the
    /// recording even when assignment *arrivals* land in a different order.
    pin_seq: Vec<Vec<TaskId>>,
    pin_cursor: Vec<usize>,
    /// Per-processor monotone floor for interrupt-handler completion
    /// stamps ([`Host::handler_op`]).
    hstamp: Vec<SimTime>,
    n_prefetch_issued: u64,
    n_prefetch_hits: u64,
    n_prefetch_stale: u64,
    /// Feedback controller ([`IpscConfig::tune`]); its log is surfaced in
    /// [`IpscRunResult::tune`].
    ctl: jade_core::Controller,
    /// Scratch: the objects a task must fetch, in declaration order.
    needed: Vec<ObjectId>,
}

/// Target processor of a task: the current owner of its locality object.
fn target(trace: &Trace, comm: &Communicator, id: TaskId) -> ProcId {
    let spec = &trace.tasks[id.index()].spec;
    spec.locality_object().map_or(MAIN_PROC, |o| comm.owner(o))
}

/// Seconds of local buffering for `bytes`: a fraction of their wire time
/// (the Section 5.3 single-processor broadcast model).
fn buffering(m: &IpscSpec, bytes: usize) -> f64 {
    0.2 * bytes as f64 / m.link_bandwidth
}

dsim::entry_points!(IpscConfig => IpscRunResult, Sim::new, CREATE);

impl<'a, R: Sink> Sim<'a, R> {
    fn new(core: Core<'a, Ev, R>, cfg: &'a IpscConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let trace = core.trace;
        let net = Net::new(cfg, trace)?;
        let rec = Recovery::new(cfg, trace)?;
        let procs = cfg.machine.procs;
        let plan = cfg.faults;
        // Serial tasks never pass through the per-processor queues (main runs
        // them directly), so the replay sequences hold ordinary tasks only.
        let pin_seq: Vec<Vec<TaskId>> = if let Some(pin) = &cfg.pinned {
            let mut order: Vec<usize> = (0..trace.tasks.len().min(pin.rank.len()))
                .filter(|&i| pin.rank[i] != u64::MAX && !trace.tasks[i].serial_phase)
                .collect();
            order.sort_by_key(|&i| pin.rank[i]);
            let mut per: Vec<Vec<TaskId>> = vec![Vec::new(); procs];
            for i in order {
                if let Some(p) = pin.assign[i] {
                    per[p.min(procs - 1)].push(TaskId(i as u32));
                }
            }
            per
        } else {
            Vec::new()
        };
        let mut sim = Sim {
            core,
            cfg,
            net,
            rec,
            sched: IpscScheduler::new(procs, cfg.target_tasks, cfg.mode.uses_locality()),
            comm: Communicator::new(trace, procs, cfg.adaptive_broadcast, plan.drop_p),
            tstate: vec![TState::default(); trace.tasks.len()],
            queues: vec![VecDeque::new(); procs],
            debt_comm: vec![SimDuration::ZERO; procs],
            debt_mgmt: vec![SimDuration::ZERO; procs],
            phase_started: vec![false; trace.phases.max(1) as usize],
            pin_seq,
            pin_cursor: vec![0; procs],
            hstamp: vec![SimTime::ZERO; procs],
            n_prefetch_issued: 0,
            n_prefetch_hits: 0,
            n_prefetch_stale: 0,
            ctl: jade_core::Controller::new(),
            needed: Vec::new(),
        };
        sim.comm.set_evidence_margin(cfg.evidence_margin);
        if let Some(fp) = plan.fail_proc {
            sim.core
                .schedule(SimTime::ZERO + plan.fail_at, Ev::ProcFail { proc: fp });
        }
        if let Some(iv) = plan.checkpoint {
            sim.core.schedule(SimTime::ZERO + iv, Ev::CheckpointTick);
        }
        Ok(sim)
    }

    /// Tasks assigned to `p` are prefetched: issued at assignment, by main.
    fn prefetches(&self, p: ProcId) -> bool {
        let c = self.cfg;
        p != 0 && c.prefetch && c.concurrent_fetches && !c.work_free
    }

    fn send_assignment(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        // Locality is judged at assignment, against the owner of the
        // locality object at this moment (ownership is dynamic).
        let target = target(self.core.trace, &self.comm, id);
        self.core.dispatched(t, p, id, target, false);
        self.tstate[id.index()].assigned_to = p;
        if p == 0 {
            self.core
                .schedule(t, Ev::AssignArrive { proc: 0, task: id });
        } else {
            if self.prefetches(p) {
                // Split-phase prefetch (DESIGN.md §17): main issues the
                // task's fetches on `p`'s behalf before the assignment
                // message itself leaves.
                self.issue_fetches(0, p, id, t);
            }
            let dur = self.net.costs.assign[hops(0, p)];
            let kind = EventKind::MsgSend {
                bytes: ASSIGN_BYTES as u64,
            };
            self.core.events.emit_task(t.0, 0, kind, id);
            let send_end = self.handler_op(0, t, dur, TimeKind::Comm);
            self.core
                .schedule(send_end, Ev::AssignArrive { proc: p, task: id });
        }
    }

    fn on_assign_arrive(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        // "The interrupt handler that received the message containing the
        // task immediately sends out messages requesting the remote objects"
        if p != 0 {
            let kind = EventKind::MsgRecv {
                bytes: ASSIGN_BYTES as u64,
            };
            self.core.events.emit_task(t.0, p, kind, id);
        }
        let t1 = self.handler_op(p, t, RECV_HANDLER, TimeKind::Mgmt);
        if let Some(pin) = &self.cfg.pinned {
            // Replay: keep each processor's queue in the recorded start
            // order, so differences in assignment *arrival* order (which
            // shift when prefetch moves completion times around) cannot
            // reorder execution.
            let rank = |x: TaskId| pin.rank.get(x.index()).copied().unwrap_or(u64::MAX);
            let key = rank(id);
            let q = &mut self.queues[p];
            let pos = q.iter().position(|&x| rank(x) > key).unwrap_or(q.len());
            q.insert(pos, id);
        } else {
            self.queues[p].push_back(id);
        }
        // The split-phase prefetch already issued the task's fetches at
        // assignment: reconcile instead of issuing.
        if self.prefetches(p) {
            self.reconcile_prefetch(p, id, t1);
        } else {
            self.issue_fetches(p, p, id, t1);
        }
        self.fill(p, t1);
    }

    /// Split-phase prefetch, reconcile half: the assignment arrived at
    /// `p`; check every declared object against the prefetch. In-flight
    /// prefetches keep waiting, resident objects count as hits, and an
    /// object written again since the prefetch snapshot (reachable only
    /// under fault injection — the dependence graph orders writers after
    /// every enabled reader) is refetched through the normal path.
    fn reconcile_prefetch(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        let trace = self.core.trace;
        let mut t_cur = t;
        for d in trace.tasks[id.index()].spec.decls() {
            let o = d.object;
            if self.net.pending(id, o) {
                continue; // prefetch reply still in flight toward `p`
            }
            if self.comm.needs_fetch(p, o) {
                if self.net.prefetched(id, o) {
                    self.n_prefetch_stale += 1;
                    let kind = EventKind::PrefetchStale {
                        bytes: trace.object_size(o) as u64,
                    };
                    self.core.events.emit_obj(t_cur.0, p, kind, Some(id), o);
                }
                // The refetch is an ordinary fetch, not a prefetch hit.
                t_cur = self.send_request(p, p, id, &[o], t_cur);
            } else {
                // Locally satisfied — either the prefetch landed (its hit
                // was counted at delivery) or no fetch was ever needed;
                // both consume the version (feeds the adaptive-broadcast
                // trigger, like a demand fetch).
                self.comm.note_access(p, o);
            }
        }
        if self.net.outstanding(id) == 0 {
            self.tstate[id.index()].ready = true;
        }
    }

    /// Plan and issue `id`'s fetches to `p`. The plan lists the declared
    /// objects `p` does not hold at their current version, in declaration
    /// order; [`Sim::send_requests`] coalesces and sends them.
    ///
    /// A demand fetch runs when the assignment arrives, with `p` as the
    /// issuer. A split-phase prefetch (DESIGN.md §17) is the same fetch
    /// issued early: at assignment, with main as the issuer. Its replies
    /// and any retries still belong to `p`, so a lost prefetch degrades to
    /// the transport's per-object retry path, and
    /// [`Sim::reconcile_prefetch`] settles the rest when the assignment
    /// arrives.
    fn issue_fetches(&mut self, issuer: ProcId, p: ProcId, id: TaskId, t: SimTime) {
        if self.cfg.work_free {
            self.tstate[id.index()].ready = true;
            return;
        }
        let prefetch = issuer != p;
        let trace = self.core.trace;
        let mut needed = std::mem::take(&mut self.needed);
        needed.clear();
        for d in trace.tasks[id.index()].spec.decls() {
            if self.comm.needs_fetch(p, d.object) {
                needed.push(d.object);
            } else if !prefetch {
                // Locally satisfied: still counts as consuming the version
                // (feeds the adaptive-broadcast trigger).
                self.comm.note_access(p, d.object);
            }
        }
        if prefetch {
            for &o in &needed {
                self.n_prefetch_issued += 1;
                let kind = EventKind::PrefetchIssued {
                    bytes: trace.object_size(o) as u64,
                };
                self.core.events.emit_obj(t.0, 0, kind, Some(id), o);
            }
        }
        if needed.is_empty() && !prefetch {
            self.tstate[id.index()].ready = true;
        } else if self.cfg.concurrent_fetches {
            self.send_requests(issuer, p, id, &needed, t);
        } else {
            // Serial-fetch ablation: one request at a time.
            let ts = &mut self.tstate[id.index()];
            ts.fetch_queue.clear();
            ts.fetch_queue.extend(&needed);
            self.send_next_fetch(p, id, t);
        }
        self.needed = needed;
    }

    /// Coalesce and send the requests for `needed`, a task's whole fetch
    /// set in declaration order. Request sends serialize on the issuer; the
    /// transfers themselves proceed in parallel at the owners. With
    /// aggregation on this is the inspector/executor pass (DESIGN.md §15):
    /// the objects of one owner form one bundle where the break-even holds,
    /// sent whole at its first member's place in declaration order. Every
    /// other object goes alone at its own place, so a pass whose
    /// break-even declines every group sends what a run without
    /// aggregation sends.
    fn send_requests(
        &mut self,
        issuer: ProcId,
        p: ProcId,
        id: TaskId,
        needed: &[ObjectId],
        t: SimTime,
    ) {
        let mut t_cur = t;
        if !self.cfg.aggregate_fetches {
            for bundle in needed.chunks(1) {
                t_cur = self.send_request(issuer, p, id, bundle, t_cur);
            }
            return;
        }
        let comm = &self.comm;
        let mut groups = std::mem::take(&mut self.net.groups);
        groups.group(needed.iter().copied(), |o| comm.owner(o));
        for (i, &o) in needed.iter().enumerate() {
            let group = groups.of(self.comm.owner(o));
            let bundle = if group.len() >= 2 && self.aggregation_pays(group.len()) {
                if group[0] != o {
                    continue; // it went with its group's first member
                }
                group
            } else {
                &needed[i..=i]
            };
            t_cur = self.send_request(issuer, p, id, bundle, t_cur);
        }
        self.net.groups = groups;
    }

    /// Section 5.3 break-even for coalescing `k` fetches from one owner
    /// into a single request/reply pair. A message's fixed cost is its
    /// wire latency both ways plus the sender/receiver software handlers;
    /// coalescing saves `k - 1` of those and pays for `2k` per-object
    /// header entries (request list + reply directory) at the link
    /// bandwidth. Aggregate only when the savings win.
    fn aggregation_pays(&self, k: usize) -> bool {
        let m = &self.cfg.machine;
        let per_msg = 2.0 * (m.message_latency_s + m.per_hop_s)
            + REQUEST_SEND.as_secs_f64()
            + OBJECT_RECV.as_secs_f64();
        let saved = (k as f64 - 1.0) * per_msg;
        let extra = 2.0 * k as f64 * AGG_ENTRY_BYTES as f64 / m.link_bandwidth;
        saved > extra
    }

    fn send_next_fetch(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        let Some(o) = self.tstate[id.index()].fetch_queue.pop_front() else {
            return;
        };
        self.send_request(p, p, id, &[o], t);
    }

    fn on_finish(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        // From here on the task's writes are applied to the shared-object
        // layer; it must never be re-executed, even if `p` dies before the
        // completion notification reaches the scheduler.
        self.tstate[id.index()].finished_local = true;
        let trace = self.core.trace;
        let rec = &trace.tasks[id.index()];
        let procs = self.core.pc.procs();
        let mut t_cur = self.core.occupy(p, t, COMPLETE, TimeKind::Mgmt, Some(id));
        // New versions of written objects; broadcast when in broadcast mode.
        for o in rec.spec.written_objects() {
            let bcast = self.comm.on_write_complete(p, o);
            if self.cfg.tune && self.cfg.adaptive_broadcast {
                // Re-derive the evidence margin from the width statistics
                // the retirement just updated. Both counters are pure
                // functions of the trace and the fault plan, so the margin
                // trajectory is identical across repeats.
                let m = self
                    .ctl
                    .evidence_margin(self.comm.wide_retired, self.comm.narrow_retired);
                self.comm.set_evidence_margin(m);
            }
            self.core
                .events
                .emit_obj(t_cur.0, p, EventKind::ObjectInvalidate, Some(id), o);
            if !bcast || self.cfg.work_free {
                continue;
            }
            let bytes = trace.object_size(o);
            // Dead processors are out of the tree; the root still pays for
            // every live receiver whether or not the network then loses an
            // individual copy.
            let receivers = (0..procs)
                .filter(|&q| q != p && self.comm.is_alive(q))
                .count();
            self.comm.record_broadcast(o, bytes, receivers);
            let kind = EventKind::ObjectBroadcast {
                bytes: bytes as u64,
                receivers: receivers as u32,
            };
            self.core.events.emit_obj(t_cur.0, p, kind, Some(id), o);
            let m = &self.cfg.machine;
            if procs == 1 {
                // Degenerate single-processor case (paper Section 5.3): the
                // lone processor always holds every version, so every update
                // triggers a broadcast operation whose local buffering cost
                // degrades performance. Modeled as a fraction of the wire
                // time plus the message latency.
                let dur = SimDuration::from_secs_f64(m.message_latency_s + buffering(m, bytes));
                t_cur = self.core.occupy(p, t_cur, dur, TimeKind::Comm, None);
                continue;
            }
            let root_busy = m.broadcast_root_busy(bytes);
            let arrival = t_cur + m.broadcast_time(bytes);
            let done = self.core.occupy(p, t_cur, root_busy, TimeKind::Comm, None);
            let payload = (o, self.comm.version(o));
            for q in 0..procs {
                if q != p && self.comm.is_alive(q) {
                    self.push(p, q, id, payload, t_cur, arrival.max(done));
                }
            }
            t_cur = done;
        }
        let phase_end = EventKind::PhaseEnd { phase: rec.phase };
        self.core.events.emit(t_cur.0, p, phase_end);
        self.core.executing[p] = None;
        if self.core.main_blocked == Some(id) {
            // Serial task: completion is processed locally, and main resumes
            // after the successors it enabled.
            self.rec.sync_size.complete(&rec.spec);
            self.complete(id, p, t_cur);
            self.core.cal.schedule(t_cur, driver::Ev::MainStep);
            return;
        }
        // Completion notification to the main processor.
        if p == 0 {
            self.core
                .schedule(t_cur, Ev::NotifyArrive { proc: 0, task: id });
        } else {
            let kind = EventKind::MsgSend {
                bytes: NOTIFY_BYTES as u64,
            };
            self.core.events.emit_task(t_cur.0, p, kind, id);
            let dur = self.net.costs.notify[hops(p, 0)];
            let send_end = self.core.occupy(p, t_cur, dur, TimeKind::Comm, None);
            self.core
                .schedule(send_end, Ev::NotifyArrive { proc: p, task: id });
        }
        self.fill(p, t_cur);
    }

    fn on_notify(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        if p != 0 {
            let kind = EventKind::MsgRecv {
                bytes: NOTIFY_BYTES as u64,
            };
            self.core.events.emit_task(t.0, 0, kind, id);
        }
        let end = self.handler_op(0, t, NOTIFY_HANDLER, TimeKind::Mgmt);
        // Completion processing removes the task from the load books first,
        // so successors enabled below see the freed processor.
        self.sched.finish(p);
        self.rec
            .sync_size
            .complete(&self.core.trace.tasks[id.index()].spec);
        self.complete(id, p, end);
        let (trace, comm) = (self.core.trace, &self.comm);
        if let Some(next) = self.sched.try_pull(p, |task| target(trace, comm, task)) {
            self.send_assignment(p, next, end);
        }
    }
}

impl<'a, R: Sink> Host<'a, R> for Sim<'a, R> {
    fn net(&mut self) -> &mut Net {
        &mut self.net
    }

    fn comm(&mut self) -> &mut Communicator {
        &mut self.comm
    }

    /// Perform interrupt-driven handler work of duration `dur` on `p`.
    ///
    /// NX/2 message handlers preempt the running computation ("the interrupt
    /// handler that received the message containing the task immediately
    /// sends out messages requesting the remote objects ... and it resumes
    /// the execution of this old task", Section 3.4.3). If `p` is executing
    /// a task, the handler runs now and the task's completion is pushed back
    /// by the handler time; otherwise the handler serializes on `p`'s
    /// timeline like any other work. Returns the handler's finish time.
    fn handler_op(&mut self, p: ProcId, now: SimTime, dur: SimDuration, kind: TimeKind) -> SimTime {
        // Interrupt handlers on one processor execute serially, so their
        // completion stamps must never regress — even when an interrupt
        // (stamped near calendar time) interleaves with queued idle-time
        // handler work whose stamps were pushed into the future by a
        // backlog. Without the floor, a pool-pull dispatch could be
        // stamped before the same task's pooled record.
        let now = now.max(self.hstamp[p]);
        let end = if self.core.executing[p].is_some() {
            self.core.pc.account(p, dur, kind);
            match kind {
                TimeKind::Comm => self.debt_comm[p] += dur,
                _ => self.debt_mgmt[p] += dur,
            }
            now + dur
        } else {
            self.core.occupy(p, now, dur, kind, None)
        };
        self.hstamp[p] = end;
        end
    }

    fn deliver(
        &mut self,
        p: ProcId,
        task: TaskId,
        (obj, version): (ObjectId, u64),
        requested_at: SimTime,
        prefetched: bool,
        t: SimTime,
    ) -> bool {
        let ts = &self.tstate[task.index()];
        // A pending fetch belongs to the task's current assignment: a
        // rewind cancels it, and only tasks of a dead processor rewind.
        debug_assert!(ts.assigned_to == p && !ts.finished_local);
        let bytes = self.core.trace.object_size(obj) as u64;
        if !self.comm.deliver(p, obj, version, bytes) {
            return false;
        }
        let kind = EventKind::ObjectFetch {
            bytes,
            latency_ps: t.since(requested_at).0,
        };
        self.core.events.emit_obj(t.0, p, kind, Some(task), obj);
        if prefetched {
            // The fetch this reply satisfies was initiated by the
            // split-phase prefetch: the early issue paid off.
            self.n_prefetch_hits += 1;
            let kind = EventKind::PrefetchHit { bytes };
            self.core.events.emit_obj(t.0, p, kind, Some(task), obj);
        }
        true
    }

    fn fetched(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        if self.net.outstanding(id) == 0 && self.tstate[id.index()].fetch_queue.is_empty() {
            self.tstate[id.index()].ready = true;
            self.fill(p, t);
        } else if !self.cfg.concurrent_fetches {
            self.send_next_fetch(p, id, t);
        }
    }
}

impl<'a, R: Sink> Machine<'a, R> for Sim<'a, R> {
    type Ev = Ev;
    type Result = IpscRunResult;

    fn core(&mut self) -> &mut Core<'a, Ev, R> {
        &mut self.core
    }

    /// Main's scheduler places the task: on a processor, or in the pool.
    fn enable(&mut self, id: TaskId, t: SimTime) {
        let rec = &self.core.trace.tasks[id.index()];
        let end = self.handler_op(0, t, SCHED, TimeKind::Mgmt);
        // A replayed schedule overrides both the trace placement and the
        // locality mode: the point of pinning is to reproduce the recorded
        // run's task→processor map exactly.
        let placement = match &self.cfg.pinned {
            Some(pin) => pin.assign.get(id.index()).copied().flatten(),
            None => rec.placement.filter(|_| self.cfg.mode.honors_placement()),
        };
        let placement = placement.map(|p| p.min(self.core.pc.procs() - 1));
        let target = target(self.core.trace, &self.comm, id);
        match self.sched.on_enabled(id, target, placement) {
            Decision::Assign(p) => self.send_assignment(p, id, end),
            Decision::Pool => self
                .core
                .events
                .emit_task(end.0, 0, EventKind::TaskPooled, id),
        }
    }

    /// Fetch the serial task's remote objects to the main processor; it
    /// runs there inline once they are in and processor 0 is free.
    fn enable_serial(&mut self, id: TaskId, t: SimTime) {
        self.tstate[id.index()].assigned_to = 0;
        self.issue_fetches(0, 0, id, t);
        self.fill(0, t);
    }

    fn fill(&mut self, p: ProcId, t: SimTime) {
        if self.core.executing[p].is_some() {
            return;
        }
        // Serial-phase code has priority on the main processor: it IS the
        // main thread.
        if p == 0 {
            if let Some(serial) = self.core.main_blocked {
                if self.tstate[serial.index()].ready {
                    self.start_task(0, serial, t);
                    return;
                }
            }
        }
        // Ordinary tasks run on processor 0 only while main is blocked/done.
        if p == 0 && !self.core.main_available() {
            return;
        }
        let Some(&head) = self.queues[p].front() else {
            return;
        };
        if !self.tstate[head.index()].ready {
            return;
        }
        if let Some(pin) = &self.cfg.pinned {
            let rank = |x: TaskId| pin.rank.get(x.index()).copied().unwrap_or(u64::MAX);
            let expected = self.pin_seq[p]
                .get(self.pin_cursor[p])
                .map_or(u64::MAX, |&x| rank(x));
            let r = rank(head);
            if r > expected {
                // The recording runs another task next on this processor;
                // its assignment has not arrived yet. Wait for it.
                return;
            }
            // r < expected is a fault re-execution of a task the cursor
            // already passed; let it through without advancing.
            if r == expected && r != u64::MAX {
                self.pin_cursor[p] += 1;
            }
        }
        self.queues[p].pop_front();
        self.start_task(p, head, t);
    }

    fn finish(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        if !self.comm.is_alive(p) {
            return; // the processor died mid-task; the task was orphaned
        }
        // Interrupt handlers that preempted this task pushed its completion
        // back; settle the debt before finishing. The settled interval
        // tiles onto the processor's timeline right after the task's own
        // span, so the spans emitted here keep the per-processor timeline
        // gap-free.
        let mgmt = std::mem::take(&mut self.debt_mgmt[p]);
        let comm = std::mem::take(&mut self.debt_comm[p]);
        let debt = mgmt + comm;
        if debt > SimDuration::ZERO {
            let until = t + debt;
            let c = &mut self.core;
            c.pc.push_free_at(p, until);
            c.events.span(t.0, p, Component::Mgmt, mgmt.0, None);
            c.events
                .span(t.0 + mgmt.0, p, Component::Comm, comm.0, None);
            c.cal
                .schedule(until, driver::Ev::Finish { proc: p, task: id });
        } else {
            self.on_finish(p, id, t);
        }
    }

    fn handle(&mut self, ev: Ev, t: SimTime) {
        match ev {
            Ev::AssignArrive { proc, task } => {
                if !self.comm.is_alive(proc) {
                    return; // assignment in flight to a dead processor
                }
                self.on_assign_arrive(proc, task, t);
            }
            Ev::NotifyArrive { proc, task } => self.on_notify(proc, task, t),
            Ev::Net(ev) => self.on_net(ev, t),
            Ev::ProcFail { proc } => self.on_proc_fail(proc, t),
            Ev::CheckpointTick => self.on_checkpoint_tick(t),
        }
    }

    /// The first ordinary task of each phase marks the phase's start.
    fn created(&mut self, id: TaskId, t: SimTime) {
        let phase = self.core.trace.tasks[id.index()].phase;
        if !std::mem::replace(&mut self.phase_started[phase as usize], true) {
            self.core
                .events
                .emit(t.0, 0, EventKind::PhaseStart { phase });
        }
    }

    fn result(self, run: Run) -> IpscRunResult {
        let m = &run.metrics;
        let (net, rec) = (&self.net, &self.rec);
        // Every message record went back to the slab with its last event.
        debug_assert_eq!(net.live(), 0, "message slots leaked");
        // The event stream must reproduce the machine model's own books.
        debug_assert_eq!(m.comm_bytes(), self.comm.bytes_transferred);
        debug_assert_eq!(m.fetches, self.comm.object_sends);
        debug_assert_eq!(m.broadcasts, self.comm.broadcasts);
        debug_assert_eq!(m.pooled, self.sched.pooled_total);
        debug_assert_eq!(m.msgs_dropped, self.core.inj.drops);
        debug_assert_eq!(m.msgs_retried, net.n_retried);
        debug_assert_eq!(m.msgs_discarded, net.n_discarded);
        debug_assert_eq!(m.tasks_reexecuted, rec.n_reexec);
        debug_assert_eq!(m.checkpoints, rec.n_checkpoints);
        debug_assert_eq!(m.checkpoint_bytes, rec.n_ckpt_bytes);
        debug_assert_eq!(m.checkpoint_restores, rec.n_ckpt_restores);
        debug_assert_eq!(m.object_restores, self.comm.object_restores);
        debug_assert_eq!(m.restore_bytes, rec.n_restore_bytes);
        debug_assert_eq!(m.prefetches_issued, self.n_prefetch_issued);
        debug_assert_eq!(m.prefetch_hits, self.n_prefetch_hits);
        debug_assert_eq!(m.prefetch_stale, self.n_prefetch_stale);
        debug_assert_eq!(
            m.workers_failed,
            (0..run.procs).filter(|&p| !self.comm.is_alive(p)).count() as u64
        );
        let phase_lengths: Vec<f64> = m
            .phases
            .iter()
            .filter_map(|ph| match (ph.start_ps, ph.end_ps) {
                (Some(s), Some(e)) if e >= s => Some(SimDuration(e - s).as_secs_f64()),
                _ => None,
            })
            .collect();
        IpscRunResult {
            procs: run.procs,
            exec_time_s: run.exec_time_s,
            task_time_s: run.task_time_s,
            locality_pct: run.locality_pct,
            locality_tracked: m.locality_tracked,
            tasks_executed: m.tasks_started,
            comm_bytes: m.comm_bytes(),
            comm_to_comp: dsim::ratio(m.comm_bytes() as f64 / 1e6, run.task_time_s),
            object_latency_s: SimDuration(m.object_latency_ps).as_secs_f64(),
            task_latency_s: SimDuration(m.task_latency_ps).as_secs_f64(),
            fetches: m.fetches,
            requests: m.requests,
            agg_fetches: m.agg_fetches,
            agg_objects: m.agg_objects,
            fetch_messages: m.fetch_messages(),
            broadcasts: m.broadcasts,
            pooled: m.pooled,
            mgmt_time_s: SimDuration(m.total().mgmt_ps).as_secs_f64(),
            main_busy_s: SimDuration(m.per_proc[0].mgmt_ps + m.per_proc[0].comm_ps).as_secs_f64(),
            mean_parallel_phase_s: if phase_lengths.is_empty() {
                0.0
            } else {
                phase_lengths.iter().sum::<f64>() / phase_lengths.len() as f64
            },
            msgs_dropped: m.msgs_dropped,
            msgs_retried: m.msgs_retried,
            msgs_discarded: m.msgs_discarded,
            stalls: m.stalls,
            workers_failed: m.workers_failed,
            tasks_reexecuted: m.tasks_reexecuted,
            checkpoints: m.checkpoints,
            checkpoint_bytes: m.checkpoint_bytes,
            checkpoint_restores: m.checkpoint_restores,
            objects_restored: m.object_restores,
            restore_bytes: m.restore_bytes,
            prefetches_issued: m.prefetches_issued,
            prefetch_hits: m.prefetch_hits,
            prefetch_stale: m.prefetch_stale,
            overlap_frac: m.overlap_fraction(),
            final_versions: self.comm.final_versions(),
            tune: self.ctl.log,
            per_proc_busy: run.per_proc_busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::price;
    use crate::{IpscError, PinnedSchedule};
    use dsim::FaultPlan;
    use jade_core::{AccessSpec, Event, LocalityMode, TraceBuilder};

    fn spec(reads: &[ObjectId], writes: &[ObjectId]) -> AccessSpec {
        let mut s = AccessSpec::new();
        for &r in reads {
            s.rd(r);
        }
        for &w in writes {
            s.wr(w);
        }
        s
    }

    fn parallel_trace(n: usize, procs: usize, work: f64) -> jade_core::Trace {
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..n)
            .map(|i| b.object(&format!("o{i}"), 1024, Some(i % procs)))
            .collect();
        for &o in &objs {
            b.task(spec(&[], &[o]), work);
        }
        b.build()
    }

    /// A trace with real communication: every task on a non-main processor
    /// reads a hot object homed at main.
    fn commy_trace(procs: usize, rounds: usize) -> jade_core::Trace {
        let mut b = TraceBuilder::new();
        let hot = b.object("hot", 100_000, Some(0));
        let outs: Vec<_> = (0..procs)
            .map(|i| b.object(&format!("o{i}"), 64, Some(i)))
            .collect();
        b.task_full(spec(&[], &[hot]), 0.05, None, true);
        b.next_phase();
        for _ in 0..rounds {
            for &o in &outs {
                let mut s = AccessSpec::new();
                s.wr(o).rd(hot);
                b.task(s, 0.3);
            }
        }
        b.build()
    }

    fn cfg(procs: usize, mode: LocalityMode) -> IpscConfig {
        IpscConfig::paper(procs, mode, 1.0)
    }

    fn faulty_cfg(procs: usize, spec: &str) -> IpscConfig {
        let mut c = cfg(procs, LocalityMode::Locality);
        c.faults = FaultPlan::parse(spec).unwrap();
        c
    }

    #[test]
    fn single_processor_completes() {
        let trace = parallel_trace(10, 1, 0.1);
        let mut c = cfg(1, LocalityMode::Locality);
        c.adaptive_broadcast = false;
        let r = try_run(&trace, &c).expect("simulation failed");
        assert_eq!(r.tasks_executed, 10);
        assert!(r.exec_time_s >= 1.0);
        assert_eq!(r.comm_bytes, 0, "no communication on one processor");
    }

    #[test]
    fn parallel_speedup() {
        let trace = parallel_trace(32, 8, 1.0);
        let r1 = try_run(&trace, &cfg(1, LocalityMode::Locality)).expect("simulation failed");
        let r8 = try_run(&trace, &cfg(8, LocalityMode::Locality)).expect("simulation failed");
        assert!(
            r8.exec_time_s < r1.exec_time_s / 3.0,
            "8 procs {} vs 1 proc {}",
            r8.exec_time_s,
            r1.exec_time_s
        );
    }

    #[test]
    fn locality_prefers_owners() {
        // Two rounds of tasks on the same objects: the second round's tasks
        // target the procs that wrote the first round.
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..8)
            .map(|i| b.object(&format!("o{i}"), 256, Some(i % 8)))
            .collect();
        for &o in &objs {
            b.task(spec(&[], &[o]), 1.0);
        }
        for &o in &objs {
            b.task(spec(&[], &[o]), 1.0);
        }
        let trace = b.build();
        let r = try_run(&trace, &cfg(8, LocalityMode::Locality)).expect("simulation failed");
        assert!(r.locality_pct > 80.0, "locality {}", r.locality_pct);
    }

    #[test]
    fn no_locality_ignores_owners() {
        // All objects owned by processor 1: under NoLocality, assignment is
        // purely load-based.
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..32)
            .map(|i| b.object(&format!("o{i}"), 256, Some(1)))
            .collect();
        for &o in &objs {
            b.task(spec(&[], &[o]), 0.5);
        }
        let trace = b.build();
        let r = try_run(&trace, &cfg(8, LocalityMode::NoLocality)).expect("simulation failed");
        assert!(r.locality_pct < 40.0, "locality {}", r.locality_pct);
    }

    #[test]
    fn remote_fetch_generates_messages() {
        // The task's locality object is `dst` (declared first), homed on
        // processor 2; `src` lives on processor 1 and must be fetched.
        let mut b = TraceBuilder::new();
        let src = b.object("src", 10_000, Some(1));
        let dst = b.object("dst", 8, Some(2));
        let mut s = AccessSpec::new();
        s.wr(dst).rd(src);
        b.task(s, 1.0);
        let trace = b.build();
        let r = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        assert!(r.fetches >= 1);
        assert!(r.comm_bytes >= 10_000, "bytes {}", r.comm_bytes);
        assert!(r.object_latency_s > 0.0);
        assert!(r.task_latency_s > 0.0);
    }

    #[test]
    fn replicated_read_fetches_once_per_processor() {
        let mut b = TraceBuilder::new();
        let shared = b.object("shared", 50_000, Some(0));
        let outs: Vec<_> = (0..4)
            .map(|i| b.object(&format!("o{i}"), 8, Some(i)))
            .collect();
        for &o in &outs {
            // Locality object = the private out (declared first), so each
            // task runs at its out's home and only `shared` moves.
            let mut s = AccessSpec::new();
            s.wr(o).rd(shared);
            b.task(s, 1.0);
        }
        let trace = b.build();
        let r = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        // Procs 1..3 fetch the shared object; proc 0 has it.
        assert_eq!(r.fetches, 3, "one fetch per remote reader");
    }

    #[test]
    fn adaptive_broadcast_reduces_main_serial_sends() {
        // Repeated phases: a serial task on main updates `hot`, then every
        // processor reads it. With adaptive broadcast, later phases use one
        // broadcast instead of P-1 serial replies from main.
        let procs = 8;
        let mut b = TraceBuilder::new();
        let hot = b.object("hot", 200_000, Some(0));
        let outs: Vec<_> = (0..procs)
            .map(|i| b.object(&format!("o{i}"), 8, Some(i)))
            .collect();
        for _ in 0..6 {
            b.task_full(spec(&[], &[hot]), 0.01, None, true);
            b.next_phase();
            for &o in &outs {
                b.task(spec(&[hot], &[o]), 2.0);
            }
            b.next_phase();
        }
        let trace = b.build();
        let mut on = cfg(procs, LocalityMode::Locality);
        on.target_tasks = 1;
        let mut off = on.clone();
        off.adaptive_broadcast = false;
        let r_on = try_run(&trace, &on).expect("simulation failed");
        let r_off = try_run(&trace, &off).expect("simulation failed");
        assert!(r_on.broadcasts > 0, "broadcast mode should trigger");
        assert_eq!(r_off.broadcasts, 0);
        assert!(
            r_on.exec_time_s < r_off.exec_time_s,
            "broadcast {} should beat serial sends {}",
            r_on.exec_time_s,
            r_off.exec_time_s
        );
    }

    #[test]
    fn latency_hiding_overlaps_fetch_with_execution() {
        // Tasks whose objects live on the (otherwise idle) main processor:
        // with target_tasks=2 a worker fetches the next task's object while
        // executing the current one.
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..60)
            .map(|i| b.object(&format!("o{i}"), 40_000, Some(0)))
            .collect();
        for &o in &objs {
            b.task(spec(&[], &[o]), 0.2);
        }
        let trace = b.build();
        let mut c1 = cfg(4, LocalityMode::NoLocality);
        c1.target_tasks = 1;
        let mut c2 = cfg(4, LocalityMode::NoLocality);
        c2.target_tasks = 2;
        let r1 = try_run(&trace, &c1).expect("simulation failed");
        let r2 = try_run(&trace, &c2).expect("simulation failed");
        assert!(
            r2.exec_time_s < r1.exec_time_s,
            "latency hiding {} should beat none {}",
            r2.exec_time_s,
            r1.exec_time_s
        );
    }

    #[test]
    fn placement_is_honored() {
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..9)
            .map(|i| b.object(&format!("o{i}"), 64, Some(1 + i % 3)))
            .collect();
        for (i, &o) in objs.iter().enumerate() {
            b.task_full(spec(&[], &[o]), 0.5, Some(1 + (i % 3)), false);
        }
        let trace = b.build();
        let r = try_run(&trace, &cfg(4, LocalityMode::TaskPlacement)).expect("simulation failed");
        // Homes match placements, so every task is a locality hit.
        assert_eq!(r.locality_pct, 100.0);
        // And with the Locality mode, placements are ignored.
        let r2 = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        assert_eq!(r2.tasks_executed, 9);
    }

    #[test]
    fn first_touch_after_main_init_misses_target() {
        // Panel-Cholesky pattern: a serial init task on main writes all
        // objects, so main owns everything; placed tasks then miss their
        // targets on first touch (the paper's 92% effect, Section 5.2.2).
        let mut b = TraceBuilder::new();
        let objs: Vec<_> = (0..4)
            .map(|i| b.object(&format!("p{i}"), 64, Some(1 + i % 3)))
            .collect();
        let mut init = AccessSpec::new();
        for &o in &objs {
            init.wr(o);
        }
        b.task_full(init, 0.0, None, true);
        for (i, &o) in objs.iter().enumerate() {
            b.task_full(spec(&[], &[o]), 0.5, Some(1 + (i % 3)), false);
        }
        let trace = b.build();
        let r = try_run(&trace, &cfg(4, LocalityMode::TaskPlacement)).expect("simulation failed");
        assert_eq!(
            r.locality_pct, 0.0,
            "first touch targets main, placed elsewhere"
        );
    }

    #[test]
    fn work_free_run_is_management_only() {
        let trace = parallel_trace(50, 4, 1.0);
        let mut c = cfg(4, LocalityMode::Locality);
        c.work_free = true;
        let r = try_run(&trace, &c).expect("simulation failed");
        assert_eq!(r.task_time_s, 0.0);
        assert_eq!(r.comm_bytes, 0);
        assert!(r.exec_time_s > 0.0 && r.exec_time_s < 1.0);
    }

    #[test]
    fn serial_fetch_ablation_is_slower() {
        let mut b = TraceBuilder::new();
        let srcs: Vec<_> = (0..6)
            .map(|i| b.object(&format!("s{i}"), 300_000, Some(1 + i % 3)))
            .collect();
        let dst = b.object("dst", 8, Some(0));
        let mut s = AccessSpec::new();
        for &x in &srcs {
            s.rd(x);
        }
        s.wr(dst);
        b.task(s, 0.1);
        let trace = b.build();
        let conc = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let mut c = cfg(4, LocalityMode::Locality);
        c.concurrent_fetches = false;
        let serial = try_run(&trace, &c).expect("simulation failed");
        assert!(
            serial.exec_time_s > conc.exec_time_s,
            "serial fetch {} should be slower than concurrent {}",
            serial.exec_time_s,
            conc.exec_time_s
        );
        // Concurrent fetches: object latency (sum) exceeds task latency.
        assert!(conc.object_latency_s > conc.task_latency_s * 1.5);
    }

    #[test]
    fn deterministic() {
        let trace = parallel_trace(40, 4, 0.2);
        let a = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let b2 = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        assert_eq!(a.exec_time_s, b2.exec_time_s);
        assert_eq!(a.comm_bytes, b2.comm_bytes);
        assert_eq!(a.locality_pct, b2.locality_pct);
    }

    #[test]
    fn event_stream_reconstructs_run() {
        // Mixed serial + parallel trace with real communication: the event
        // stream alone must reproduce the run result and tile the timeline.
        let procs = 4;
        let trace = commy_trace(procs, 3);
        let (r, events) =
            try_run_traced(&trace, &cfg(procs, LocalityMode::Locality)).expect("simulation failed");
        jade_core::check_lifecycle(&events).unwrap();
        let m = jade_core::Metrics::from_events(&events, procs);
        let busy = jade_core::check_conservation(&events, procs, m.makespan_ps).unwrap();
        assert_eq!(busy.len(), procs);
        assert_eq!(SimDuration(m.makespan_ps).as_secs_f64(), r.exec_time_s);
        assert_eq!(m.tasks_created, trace.tasks.len());
        assert_eq!(m.tasks_started, r.tasks_executed);
        assert_eq!(m.comm_bytes(), r.comm_bytes);
        assert_eq!(m.fetches, r.fetches);
        assert_eq!(
            SimDuration(m.object_latency_ps).as_secs_f64(),
            r.object_latency_s
        );
        assert_eq!(
            SimDuration(m.task_latency_ps).as_secs_f64(),
            r.task_latency_s
        );
        // Per-processor breakdowns reconstructed from spans match the
        // processor clock's own accounting bit-for-bit.
        for (p, b3) in r.per_proc_busy.iter().enumerate() {
            let pt = &m.per_proc[p];
            assert_eq!(SimDuration(pt.app_ps).as_secs_f64(), b3.0, "app proc {p}");
            assert_eq!(SimDuration(pt.comm_ps).as_secs_f64(), b3.1, "comm proc {p}");
            assert_eq!(SimDuration(pt.mgmt_ps).as_secs_f64(), b3.2, "mgmt proc {p}");
        }
    }

    #[test]
    fn pipeline_chain_serializes() {
        let mut b = TraceBuilder::new();
        let o = b.object("chain", 64, Some(0));
        for _ in 0..5 {
            b.task(spec(&[], &[o]), 1.0);
        }
        let trace = b.build();
        let r = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        // Its ~5 s of work serialize, jitter included.
        assert!(r.task_time_s > 4.5, "{}", r.task_time_s);
        assert!(r.exec_time_s >= r.task_time_s, "{r:?}");
    }

    // ---- fault injection ----

    #[test]
    fn inactive_plan_with_seed_is_bit_identical() {
        // A plan with all probabilities zero takes no injector draws: the
        // event stream is identical to the default config's, whatever the
        // seed says.
        let trace = commy_trace(4, 2);
        let (_, clean) =
            try_run_traced(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let mut c = cfg(4, LocalityMode::Locality);
        c.faults = FaultPlan::none().with_seed(99);
        let (_, seeded) = try_run_traced(&trace, &c).expect("simulation failed");
        assert_eq!(clean, seeded);
    }

    #[test]
    fn lossy_run_matches_fault_free_results() {
        let trace = commy_trace(4, 5);
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let (faulty, events) = try_run_traced(
            &trace,
            &faulty_cfg(4, "drop=0.2,dup=0.1,delay=0.2:0.001,reorder=0.1,seed=42"),
        )
        .expect("simulation failed");
        assert!(faulty.msgs_dropped > 0, "plan injected nothing");
        assert!(faulty.msgs_retried > 0, "drops should force retries");
        assert_eq!(faulty.tasks_executed, clean.tasks_executed);
        assert_eq!(faulty.final_versions, clean.final_versions);
        assert!(
            faulty.exec_time_s >= clean.exec_time_s,
            "faults cannot speed a run up"
        );
        jade_core::check_lifecycle(&events).unwrap();
    }

    #[test]
    fn lossy_run_is_deterministic() {
        let trace = commy_trace(4, 3);
        let c = faulty_cfg(4, "drop=0.1,dup=0.05,seed=7");
        let (a, ea) = try_run_traced(&trace, &c).expect("simulation failed");
        let (b, eb) = try_run_traced(&trace, &c).expect("simulation failed");
        assert_eq!(a.exec_time_s, b.exec_time_s);
        assert_eq!(a.msgs_dropped, b.msgs_dropped);
        assert_eq!(ea, eb, "same plan + seed => same event stream");
        // A different seed drops different messages.
        let (c2, _) = try_run_traced(&trace, &faulty_cfg(4, "drop=0.1,dup=0.05,seed=8"))
            .expect("simulation failed");
        assert_eq!(c2.final_versions, a.final_versions, "results still agree");
    }

    #[test]
    fn fail_stop_reexecutes_orphans() {
        // Long tasks on 4 procs; processor 2 dies mid-run. Its in-flight
        // tasks are re-dispatched and the results match the clean run.
        let trace = parallel_trace(12, 4, 1.0);
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let (faulty, events) =
            try_run_traced(&trace, &faulty_cfg(4, "fail=2@0.5")).expect("simulation failed");
        assert_eq!(faulty.workers_failed, 1);
        assert!(faulty.tasks_reexecuted >= 1, "proc 2 was mid-task at 0.5 s");
        assert_eq!(faulty.tasks_executed as u64, 12 + faulty.tasks_reexecuted);
        assert_eq!(faulty.final_versions, clean.final_versions);
        jade_core::check_lifecycle(&events).unwrap();
    }

    #[test]
    fn fail_stop_recovers_owned_objects() {
        // Proc 2 writes its object, dies; a later reader must still get the
        // new version (from the recovery copy at main).
        let mut b = TraceBuilder::new();
        let x = b.object("x", 4_000, Some(2));
        let out = b.object("out", 8, Some(1));
        b.task(spec(&[], &[x]), 0.2); // writer on proc 2
        let mut s = AccessSpec::new();
        s.wr(out).rd(x);
        b.task(s, 0.2); // reader on proc 1, serialized after the writer
        let trace = b.build();
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let faulty = try_run(&trace, &faulty_cfg(4, "fail=2@0.3")).expect("simulation failed");
        assert_eq!(faulty.final_versions, clean.final_versions);
        assert_eq!(faulty.tasks_executed as u64, 2 + faulty.tasks_reexecuted);
    }

    #[test]
    fn stalls_are_injected_and_slow_the_run() {
        let trace = parallel_trace(10, 2, 0.1);
        let clean = try_run(&trace, &cfg(2, LocalityMode::Locality)).expect("simulation failed");
        let faulty =
            try_run(&trace, &faulty_cfg(2, "stall=1.0:0.01,seed=5")).expect("simulation failed");
        assert_eq!(faulty.stalls, 10, "every task start stalls at p=1");
        assert!(faulty.exec_time_s > clean.exec_time_s);
        assert_eq!(faulty.tasks_executed, clean.tasks_executed);
    }

    #[test]
    fn combined_plan_with_failure_still_matches() {
        let trace = commy_trace(4, 4);
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let (faulty, events) = try_run_traced(
            &trace,
            &faulty_cfg(4, "drop=0.15,dup=0.05,stall=0.2:0.002,fail=3@0.8,seed=13"),
        )
        .expect("simulation failed");
        assert_eq!(faulty.workers_failed, 1);
        assert_eq!(faulty.final_versions, clean.final_versions);
        assert_eq!(
            faulty.tasks_executed as u64,
            trace.tasks.len() as u64 + faulty.tasks_reexecuted
        );
        jade_core::check_lifecycle(&events).unwrap();
    }

    // ---- checkpoint/restart ----

    /// Writer on proc 2 produces the sole copy of a large object; proc 2
    /// dies before anyone else holds it.
    fn sole_copy_trace() -> jade_core::Trace {
        let mut b = TraceBuilder::new();
        let x = b.object("x", 400_000, Some(2));
        let out = b.object("out", 8, Some(1));
        b.task(spec(&[], &[x]), 0.2);
        let mut s = AccessSpec::new();
        s.wr(out).rd(x);
        b.task(s, 0.2);
        b.build()
    }

    #[test]
    fn fail_stop_restore_is_charged_and_attributed() {
        // The old recovery path re-materialized sole copies for free; a
        // restore must now cost main time and show up in the byte books.
        let trace = sole_copy_trace();
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let (faulty, events) =
            try_run_traced(&trace, &faulty_cfg(4, "fail=2@0.3")).expect("simulation failed");
        assert_eq!(faulty.objects_restored, 1, "x's only copy died with 2");
        assert_eq!(faulty.restore_bytes, 400_000);
        assert_eq!(faulty.checkpoint_restores, 0, "no checkpoint configured");
        assert!(
            faulty.comm_bytes >= clean.comm_bytes + 400_000,
            "restore bytes missing from comm books: {} vs {}",
            faulty.comm_bytes,
            clean.comm_bytes
        );
        assert!(
            faulty.main_busy_s > clean.main_busy_s,
            "restore transfer must occupy main: {} vs {}",
            faulty.main_busy_s,
            clean.main_busy_s
        );
        assert_eq!(faulty.final_versions, clean.final_versions);
        jade_core::check_lifecycle(&events).unwrap();
    }

    #[test]
    fn checkpoint_covers_sole_copy_restore() {
        // A checkpoint captured after the write holds x's current payload:
        // recovery reads it from the checkpoint store instead of paying
        // the full recovery transfer.
        let trace = sole_copy_trace();
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let (r, events) = try_run_traced(&trace, &faulty_cfg(4, "fail=2@0.3,ckpt=0.25"))
            .expect("simulation failed");
        assert!(r.checkpoints >= 1);
        assert!(r.checkpoint_bytes > 400_000, "dirty payload not captured");
        assert_eq!(r.objects_restored, 1);
        assert_eq!(
            r.checkpoint_restores, 1,
            "restore should hit the checkpoint"
        );
        assert_eq!(r.final_versions, clean.final_versions);
        jade_core::check_lifecycle(&events).unwrap();
    }

    #[test]
    fn checkpoint_only_plan_completes_and_matches_results() {
        // Ticks keep firing through the run, each capture is charged, and
        // the tick chain terminates with the program.
        let trace = commy_trace(4, 3);
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let (r, events) =
            try_run_traced(&trace, &faulty_cfg(4, "ckpt=0.05")).expect("simulation failed");
        assert!(r.checkpoints >= 2, "got {} checkpoints", r.checkpoints);
        assert!(r.checkpoint_bytes > 0);
        assert_eq!(r.tasks_reexecuted, 0);
        assert_eq!(r.objects_restored, 0);
        assert_eq!(r.final_versions, clean.final_versions);
        assert_eq!(r.tasks_executed, clean.tasks_executed);
        assert!(
            r.exec_time_s >= clean.exec_time_s,
            "checkpoint capture cannot be free"
        );
        jade_core::check_lifecycle(&events).unwrap();
    }

    #[test]
    fn checkpoint_intervals_preserve_results_and_bound_reexecution() {
        // The headline invariant: any fail-stop plan crossed with any
        // checkpoint interval produces bit-identical application results,
        // and checkpoints never cause extra re-execution.
        let trace = parallel_trace(12, 4, 1.0);
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let base = try_run(&trace, &faulty_cfg(4, "fail=2@0.5")).expect("simulation failed");
        for iv in ["0.1", "0.45", "2.0"] {
            let (r, events) =
                try_run_traced(&trace, &faulty_cfg(4, &format!("fail=2@0.5,ckpt={iv}")))
                    .expect("simulation failed");
            assert_eq!(r.final_versions, clean.final_versions, "ckpt={iv}");
            assert!(
                r.tasks_reexecuted <= base.tasks_reexecuted,
                "ckpt={iv}: {} re-executed vs {} without checkpoints",
                r.tasks_reexecuted,
                base.tasks_reexecuted
            );
            jade_core::check_lifecycle(&events).unwrap();
        }
    }

    #[test]
    fn checkpointed_lossy_run_is_deterministic() {
        let trace = commy_trace(4, 3);
        let c = faulty_cfg(4, "drop=0.1,dup=0.05,seed=7,ckpt=0.2");
        let (a, ea) = try_run_traced(&trace, &c).expect("simulation failed");
        let (b, eb) = try_run_traced(&trace, &c).expect("simulation failed");
        assert_eq!(a.exec_time_s, b.exec_time_s);
        assert_eq!(a.checkpoints, b.checkpoints);
        assert_eq!(a.checkpoint_bytes, b.checkpoint_bytes);
        assert_eq!(ea, eb, "same plan + seed => same event stream");
    }

    /// Repeated update-then-read-everywhere phases on a hot object — the
    /// workload the adaptive-broadcast evidence machinery reacts to.
    fn hot_trace(procs: usize, rounds: usize) -> jade_core::Trace {
        let mut b = TraceBuilder::new();
        let hot = b.object("hot", 200_000, Some(0));
        let outs: Vec<_> = (0..procs)
            .map(|i| b.object(&format!("o{i}"), 8, Some(i)))
            .collect();
        for _ in 0..rounds {
            b.task_full(spec(&[], &[hot]), 0.01, None, true);
            b.next_phase();
            for &o in &outs {
                b.task(spec(&[hot], &[o]), 2.0);
            }
            b.next_phase();
        }
        b.build()
    }

    #[test]
    fn tuned_run_is_deterministic_and_preserves_results() {
        let trace = hot_trace(4, 5);
        let c = faulty_cfg(4, "fail=2@3.0,ckpt=0.5,drop=0.05,seed=9");
        let mut tuned = c.clone();
        tuned.tune = true;
        let untuned = try_run(&trace, &c).expect("simulation failed");
        let (a, ea) = try_run_traced(&trace, &tuned).expect("simulation failed");
        let (b, eb) = try_run_traced(&trace, &tuned).expect("simulation failed");
        assert_eq!(ea, eb, "tuned runs must be bit-identical");
        assert_eq!(a.tune, b.tune);
        assert!(!a.tune.decisions.is_empty(), "controller took no decisions");
        a.tune.check_ranges().unwrap();
        assert_eq!(a.final_versions, untuned.final_versions);
        assert_eq!(a.tasks_executed, untuned.tasks_executed);
        assert!(untuned.tune.decisions.is_empty());
    }

    #[test]
    fn tuned_checkpoints_stretch_when_no_failure_is_pending() {
        // Checkpoint-only plan: nothing will ever need recovering, so after
        // the first (statically scheduled) capture measures the cost, the
        // controller stretches the interval to its maximum and the capture
        // overhead all but disappears.
        let trace = commy_trace(4, 3);
        let c = faulty_cfg(4, "ckpt=0.05");
        let mut tuned = c.clone();
        tuned.tune = true;
        let stat = try_run(&trace, &c).expect("simulation failed");
        let r = try_run(&trace, &tuned).expect("simulation failed");
        assert!(
            r.checkpoints < stat.checkpoints,
            "tuned {} checkpoints vs static {}",
            r.checkpoints,
            stat.checkpoints
        );
        assert_eq!(r.final_versions, stat.final_versions);
        assert!(r.exec_time_s <= stat.exec_time_s);
    }

    #[test]
    fn static_evidence_margin_delays_broadcast_flip() {
        let trace = hot_trace(8, 6);
        let base = cfg(8, LocalityMode::Locality);
        let mut wide = base.clone();
        wide.evidence_margin = 4;
        let r0 = try_run(&trace, &base).expect("simulation failed");
        let r4 = try_run(&trace, &wide).expect("simulation failed");
        assert!(r0.broadcasts > 0, "broadcast mode should trigger");
        assert!(
            r4.broadcasts < r0.broadcasts,
            "margin 4 ({}) should flip later than margin 0 ({})",
            r4.broadcasts,
            r0.broadcasts
        );
        assert_eq!(r4.final_versions, r0.final_versions);
    }

    #[test]
    fn largest_evidence_margin_never_flips_to_broadcast() {
        // The margin is added to the break-even floor; the sum must
        // saturate, not overflow into a threshold every object meets.
        let trace = hot_trace(8, 6);
        let mut c = cfg(8, LocalityMode::Locality);
        c.evidence_margin = u32::MAX;
        let r = try_run(&trace, &c).expect("simulation failed");
        assert_eq!(r.broadcasts, 0);
        let base = try_run(&trace, &cfg(8, LocalityMode::Locality)).expect("simulation failed");
        assert_eq!(r.final_versions, base.final_versions);
    }

    #[test]
    fn invalid_fault_plans_are_rejected() {
        let trace = parallel_trace(4, 2, 0.1);
        let mut c = cfg(2, LocalityMode::Locality);
        c.faults = FaultPlan::parse("fail=0").unwrap();
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidFaultPlan(_))
        ));
        c.faults = FaultPlan::parse("fail=5").unwrap();
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidFaultPlan(_))
        ));
        c.faults = FaultPlan {
            drop_p: 1.5,
            ..FaultPlan::none()
        };
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidFaultPlan(_))
        ));
    }

    /// Audit (PR 7): `--faults` durations large enough to overflow the
    /// retry-backoff arithmetic used to panic mid-run with "SimDuration
    /// overflow"; now the plan is rejected up front as a value.
    #[test]
    fn oversized_plan_durations_are_rejected_not_panics() {
        let trace = parallel_trace(4, 2, 0.1);
        let mut c = cfg(2, LocalityMode::Locality);
        // The same bound guards the CLI path up front: `--faults` specs
        // with oversized durations fail at parse, not mid-run.
        assert!(FaultPlan::parse("delay=0.5:10000,seed=1").is_err());
        assert!(FaultPlan::parse("ckpt=2000000").is_err());
        // A 10,000 s delay window: ×2048 in the ack timeout would overflow
        // the u64 picosecond clock. (Constructed directly — parse rejects
        // it — to pin the entry-point validation itself.)
        c.faults = FaultPlan {
            delay_p: 0.5,
            delay: SimDuration::from_secs_f64(10_000.0),
            ..FaultPlan::none()
        };
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidFaultPlan(_))
        ));
        c.faults = FaultPlan {
            fail_proc: Some(1),
            fail_at: SimDuration::from_secs_f64(2_000_000.0),
            ..FaultPlan::none()
        };
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidFaultPlan(_))
        ));
        c.faults = FaultPlan {
            stall_p: 0.5,
            stall: SimDuration::from_secs_f64(10_000.0),
            ..FaultPlan::none()
        };
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidFaultPlan(_))
        ));
        c.faults = FaultPlan {
            checkpoint: Some(SimDuration::from_secs_f64(2_000_000.0)),
            ..FaultPlan::none()
        };
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidFaultPlan(_))
        ));
    }

    /// Audit (PR 7): machine-config values reachable from user
    /// configuration used to trip `from_secs_f64`'s asserts ("negative or
    /// non-finite time") deep in the event loop; now each is a typed
    /// `InvalidMachine` error from the entry point.
    #[test]
    fn bad_machine_configs_are_rejected_not_panics() {
        let trace = parallel_trace(4, 2, 0.1);
        // Non-positive bandwidth: message_time divides by it.
        let mut c = cfg(2, LocalityMode::Locality);
        c.machine.link_bandwidth = 0.0;
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidMachine(_))
        ));
        let mut c = cfg(2, LocalityMode::Locality);
        c.machine.link_bandwidth = f64::NAN;
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidMachine(_))
        ));
        // Negative latency or compute cost: negative task durations.
        let mut c = cfg(2, LocalityMode::Locality);
        c.machine.message_latency_s = -1e-3;
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidMachine(_))
        ));
        let mut c = cfg(2, LocalityMode::Locality);
        c.sec_per_op = -1.0;
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidMachine(_))
        ));
        // The scheduler needs room for at least one task a processor.
        let mut c = cfg(2, LocalityMode::Locality);
        c.target_tasks = 0;
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidMachine(_))
        ));
        // Every message is priced once, up front: one too slow to send in
        // representable virtual time is named, not a panic mid-run.
        let mut b = TraceBuilder::new();
        b.task(spec(&[], &[]), 0.1);
        let mut c = cfg(4, LocalityMode::Locality);
        c.machine.link_bandwidth = 1e-300;
        assert!(matches!(
            try_run(&b.build(), &c),
            Err(IpscError::InvalidMachine(why)) if why.contains("assign_bytes")
        ));
        let mut b = TraceBuilder::new();
        b.object("huge", usize::MAX / 2, Some(1));
        b.task(spec(&[], &[]), 0.1);
        assert!(matches!(
            try_run(&b.build(), &cfg(4, LocalityMode::Locality)),
            Err(IpscError::InvalidMachine(why)) if why.contains("huge")
        ));
        // An object whose lone transfer fits the clock, but whose ack timeout
        // under a lossy plan (4 round trips, backed off 1 024 times) does not.
        let mut b = TraceBuilder::new();
        let out = b.object("out", 8, Some(1));
        let big = b.object("big", 14_000_000_000_000, Some(0));
        let mut s = AccessSpec::new();
        s.wr(out).rd(big);
        b.task(s, 0.1);
        let trace = b.build();
        let mut c = cfg(2, LocalityMode::Locality);
        c.faults = FaultPlan::parse("seed=1").unwrap();
        assert!(
            try_run(&trace, &c).is_ok(),
            "the fault-free run fits the clock"
        );
        c.faults = FaultPlan::parse("dup=0.01,seed=1").unwrap();
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidMachine(why)) if why.contains("big")
        ));
        // A checkpoint's replica-table message and snapshot serialisation
        // grow with the object and task counts: priced before the run.
        let mut b = TraceBuilder::new();
        for i in 0..40 {
            let o = b.object(&format!("o{i}"), 1, Some(i % 2));
            b.task(spec(&[], &[o]), 0.1);
        }
        let mut c = cfg(2, LocalityMode::Locality);
        c.machine.link_bandwidth = 1.5e-5;
        c.faults = FaultPlan::parse("ckpt=1000").unwrap();
        assert!(matches!(
            try_run(&b.build(), &c),
            Err(IpscError::InvalidMachine(why)) if why.contains("checkpoint")
        ));
        // The replica table of one object fits; the dependence state of 40
        // tasks does not.
        let mut b = TraceBuilder::new();
        let o = b.object("o", 1, Some(1));
        for _ in 0..40 {
            b.task(spec(&[], &[o]), 0.1);
        }
        assert!(matches!(
            try_run(&b.build(), &c),
            Err(IpscError::InvalidMachine(why)) if why.contains("dependence state")
        ));
    }

    /// Every message fits the clock alone, but the run does not: two
    /// 2.8·10¹³-byte objects fetched for one task take 10⁷ s each at the
    /// paper's 2.8 MB/s, past the 2⁶⁴ ps (~213 days) the clock holds.
    #[test]
    fn a_run_past_the_clock_is_an_error_not_a_panic() {
        let mut b = TraceBuilder::new();
        let out = b.object("out", 8, Some(1));
        let x = b.object("x", 28_000_000_000_000, Some(0));
        let y = b.object("y", 28_000_000_000_000, Some(0));
        let mut s = AccessSpec::new();
        s.wr(out).rd(x).rd(y);
        b.task(s, 0.1);
        let trace = b.build();
        for run in [try_run, try_run_folded] {
            assert!(matches!(
                run(&trace, &cfg(2, LocalityMode::Locality)),
                Err(IpscError::InvalidMachine(why)) if why.contains("virtual clock")
            ));
        }
        assert!(matches!(
            try_run_traced(&trace, &cfg(2, LocalityMode::Locality)),
            Err(IpscError::InvalidMachine(why)) if why.contains("virtual clock")
        ));
    }

    #[test]
    fn calendar_events_stay_small() {
        // Every heap entry moves an event; message payloads live in the slab.
        let size = std::mem::size_of::<driver::Ev<Ev>>();
        assert!(size <= 32, "{size}");
    }

    #[test]
    fn prices_match_the_machine_model_bit_for_bit() {
        for procs in [1, 2, 5, 8, 32, 33] {
            let mut m = IpscSpec::paper(procs);
            for (latency, per_hop, bw) in
                [(47e-6, 1e-6, 2.8e6), (1e-3, 0.0, 1.1e6), (0.0, 3e-7, 7e5)]
            {
                (m.message_latency_s, m.per_hop_s, m.link_bandwidth) = (latency, per_hop, bw);
                for bytes in [0, 1, 16, 32, 256, 1000, 4097, 166_000, 1 << 30] {
                    for src in 0..procs {
                        for dst in [0, procs / 2, procs - 1] {
                            assert_eq!(
                                price(&m, bytes, hops(src, dst)),
                                Some(m.message_time(bytes, src, dst))
                            );
                        }
                    }
                }
            }
        }
    }

    // ---- split-phase prefetch ----

    #[test]
    fn prefetch_preserves_results_and_never_slows() {
        let trace = commy_trace(4, 5);
        let base = cfg(4, LocalityMode::Locality);
        let mut pf = base.clone();
        pf.prefetch = true;
        let off = try_run(&trace, &base).expect("simulation failed");
        let (on, events) = try_run_traced(&trace, &pf).expect("simulation failed");
        assert!(on.prefetches_issued > 0, "no prefetches issued");
        assert!(on.prefetch_hits > 0, "prefetched replies never landed");
        assert_eq!(on.final_versions, off.final_versions);
        assert_eq!(on.tasks_executed, off.tasks_executed);
        assert!(
            on.exec_time_s <= off.exec_time_s + 1e-9,
            "prefetch on {} must not be slower than prefetch off {}",
            on.exec_time_s,
            off.exec_time_s
        );
        jade_core::check_lifecycle(&events).unwrap();
    }

    /// Tasks run at proc 1 (their out's home) and each reads a distinct
    /// large object homed at proc 2 — every task fetches fresh data.
    fn cross_trace(n: usize) -> jade_core::Trace {
        let mut b = TraceBuilder::new();
        for i in 0..n {
            let out = b.object(&format!("out{i}"), 64, Some(1));
            let data = b.object(&format!("d{i}"), 200_000, Some(2));
            let mut s = AccessSpec::new();
            s.wr(out).rd(data);
            b.task(s, 0.3);
        }
        b.build()
    }

    #[test]
    fn prefetch_starts_fetches_before_assignment_arrives() {
        // With prefetch, the first ObjectRequest for a remote task is
        // issued by the main processor at assignment time — strictly
        // before the per-task requests the demand path sends after the
        // assignment message lands on the worker.
        let trace = cross_trace(1);
        let base = cfg(4, LocalityMode::Locality);
        let mut pf = base.clone();
        pf.prefetch = true;
        let first_request = |events: &[Event]| {
            events
                .iter()
                .find(|e| matches!(e.kind, EventKind::ObjectRequest { .. }))
                .map(|e| (e.time_ps, e.proc))
                .expect("cross trace always fetches")
        };
        let (_, e_off) = try_run_traced(&trace, &base).expect("simulation failed");
        let (_, e_on) = try_run_traced(&trace, &pf).expect("simulation failed");
        let (t_off, p_off) = first_request(&e_off);
        let (t_on, p_on) = first_request(&e_on);
        assert_ne!(p_off, 0, "demand requests come from the worker");
        assert_eq!(p_on, 0, "prefetch requests come from main");
        assert!(t_on < t_off, "prefetch {t_on} must precede demand {t_off}");
    }

    #[test]
    fn prefetch_composes_with_aggregation() {
        let trace = commy_trace(4, 3);
        let mut base = cfg(4, LocalityMode::Locality);
        base.aggregate_fetches = true;
        let mut pf = base.clone();
        pf.prefetch = true;
        let off = try_run(&trace, &base).expect("simulation failed");
        let (on, events) = try_run_traced(&trace, &pf).expect("simulation failed");
        assert!(on.prefetches_issued > 0);
        assert_eq!(on.final_versions, off.final_versions);
        assert_eq!(on.tasks_executed, off.tasks_executed);
        assert!(on.exec_time_s <= off.exec_time_s + 1e-9);
        jade_core::check_lifecycle(&events).unwrap();
    }

    #[test]
    fn prefetch_survives_lossy_network() {
        // Prefetched requests ride the same unreliable data plane: drops
        // fall back to the per-object ack/retry path bound to the
        // fetching processor, and the results still match the clean run.
        let trace = commy_trace(4, 4);
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let mut c = faulty_cfg(4, "drop=0.2,dup=0.1,delay=0.2:0.001,seed=21");
        c.prefetch = true;
        let (faulty, events) = try_run_traced(&trace, &c).expect("simulation failed");
        assert!(faulty.prefetches_issued > 0);
        assert!(faulty.msgs_dropped > 0, "plan injected nothing");
        assert_eq!(faulty.final_versions, clean.final_versions);
        assert_eq!(faulty.tasks_executed, clean.tasks_executed);
        jade_core::check_lifecycle(&events).unwrap();
    }

    #[test]
    fn prefetch_survives_fail_stop_and_checkpoints() {
        let trace = parallel_trace(12, 4, 1.0);
        let clean = try_run(&trace, &cfg(4, LocalityMode::Locality)).expect("simulation failed");
        let mut c = faulty_cfg(4, "fail=2@0.5,ckpt=0.25");
        c.prefetch = true;
        let (faulty, events) = try_run_traced(&trace, &c).expect("simulation failed");
        assert_eq!(faulty.workers_failed, 1);
        assert_eq!(faulty.final_versions, clean.final_versions);
        assert_eq!(faulty.tasks_executed as u64, 12 + faulty.tasks_reexecuted);
        jade_core::check_lifecycle(&events).unwrap();
    }

    #[test]
    fn prefetch_is_deterministic() {
        let trace = commy_trace(4, 3);
        let mut c = cfg(4, LocalityMode::Locality);
        c.prefetch = true;
        let (a, ea) = try_run_traced(&trace, &c).expect("simulation failed");
        let (b2, eb) = try_run_traced(&trace, &c).expect("simulation failed");
        assert_eq!(a.exec_time_s, b2.exec_time_s);
        assert_eq!(a.prefetches_issued, b2.prefetches_issued);
        assert_eq!(a.prefetch_hits, b2.prefetch_hits);
        assert_eq!(ea, eb);
    }

    #[test]
    fn prefetch_reports_overlap() {
        // Latency-hiding config: with two in-flight tasks per processor
        // the prefetched transfers overlap the predecessor's compute, and
        // the overlap metric sees it.
        let trace = cross_trace(8);
        let mut c = cfg(4, LocalityMode::Locality);
        c.prefetch = true;
        c.target_tasks = 2;
        let r = try_run(&trace, &c).expect("simulation failed");
        assert!(r.prefetches_issued > 0);
        assert!(r.overlap_frac > 0.0, "no fetch time hidden under compute");
        assert!(r.overlap_frac <= 1.0 + 1e-12);
    }

    #[test]
    fn pinned_replay_reproduces_the_recorded_run() {
        // Replaying a run's own schedule must be a fixed point: the pinned
        // run assigns every task to the processor the recording chose, in
        // the recorded order, so the event stream is bit-identical.
        let trace = commy_trace(4, 5);
        let base = cfg(4, LocalityMode::Locality);
        let (off, events) = try_run_traced(&trace, &base).expect("simulation failed");
        let mut pinned = base.clone();
        pinned.pinned = Some(PinnedSchedule::from_events(trace.tasks.len(), &events));
        let (rep, events_rep) = try_run_traced(&trace, &pinned).expect("simulation failed");
        assert_eq!(rep.exec_time_s, off.exec_time_s);
        assert_eq!(rep.final_versions, off.final_versions);
        assert_eq!(events, events_rep);
    }

    #[test]
    fn pinned_prefetch_is_monotone() {
        // The controlled comparison behind the overlap sweep: with the
        // schedule held fixed, prefetch can only move data earlier, so the
        // simulated time never grows and the result is bit-identical.
        let trace = commy_trace(4, 6);
        let base = cfg(4, LocalityMode::Locality);
        let (off, events) = try_run_traced(&trace, &base).expect("simulation failed");
        let mut pf = base.clone();
        pf.prefetch = true;
        pf.pinned = Some(PinnedSchedule::from_events(trace.tasks.len(), &events));
        let on = try_run(&trace, &pf).expect("simulation failed");
        assert!(on.prefetches_issued > 0, "no prefetches issued");
        assert_eq!(on.final_versions, off.final_versions);
        assert_eq!(on.tasks_executed, off.tasks_executed);
        assert!(
            on.exec_time_s <= off.exec_time_s + 1e-9,
            "pinned prefetch run {} slower than its recording {}",
            on.exec_time_s,
            off.exec_time_s
        );
    }

    #[test]
    fn pinned_schedule_from_events_skips_unstarted_tasks() {
        let trace = parallel_trace(6, 2, 0.4);
        let (_, events) =
            try_run_traced(&trace, &cfg(2, LocalityMode::Locality)).expect("simulation failed");
        let pin = PinnedSchedule::from_events(trace.tasks.len() + 3, &events);
        // Tasks past the trace keep the "never ran" sentinel and fall back
        // to live scheduling.
        assert_eq!(pin.assign.len(), trace.tasks.len() + 3);
        for i in trace.tasks.len()..trace.tasks.len() + 3 {
            assert_eq!(pin.assign[i], None);
            assert_eq!(pin.rank[i], u64::MAX);
        }
        // Every executed task got a distinct rank in event order.
        let mut ranks: Vec<u64> = pin.rank[..trace.tasks.len()].to_vec();
        ranks.retain(|&r| r != u64::MAX);
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ranks.len(), "ranks must be unique");
    }
}
