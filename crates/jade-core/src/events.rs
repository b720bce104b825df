//! Unified structured event layer shared by every Jade backend.
//!
//! The paper's evaluation is built on *instrumented runs*: every number in
//! Tables 2–14 and Figures 2–21 is an aggregation over low-level runtime
//! events (task dispatches, object fetches, broadcast sends, queue steals).
//! This module gives the reproduction the same substrate. All backends —
//! the dependence [`Countdown`](crate::Countdown), the DASH and iPSC/860 machine
//! simulators, and the real `jade-threads` executor — emit the same
//! [`Event`] schema into a [`Sink`], and the [`Metrics`] aggregator
//! reconstructs every reported counter and component-time breakdown from
//! the event stream alone.
//!
//! Three consumers sit on top:
//!
//! * [`MetricsFold`] — the single aggregation path for counters and
//!   per-processor `app`/`comm`/`mgmt` time breakdowns: a streaming fold,
//!   O(1) per event, that is itself a [`Sink`]. The simulators emit into
//!   it directly; [`Metrics::from_events`] loops a recorded stream
//!   through it;
//! * [`check_lifecycle`] / [`check_conservation`] — structural invariants:
//!   every task has exactly one created → dispatched → started → completed
//!   chain, and per-processor busy intervals tile the simulated makespan
//!   without overlap; [`check_order`] — no task starts, or is enabled,
//!   before its predecessors in the dependence graph gave up its edges;
//! * [`crate::chrome`] — a Chrome `trace_event` exporter so any run can be
//!   opened in `chrome://tracing` / Perfetto.
//!
//! Emission sites are generic over [`Sink`], so what an event costs is
//! decided where the sink type is chosen: [`NullSink`] compiles every
//! emission away (the default for `jade-threads`), a `Vec<Event>` records
//! every event, [`MetricsFold`] aggregates without storing, and a pair
//! `(A, B)` does both.

use crate::depgraph::DepGraph;
use crate::ids::{ObjectId, ProcId, TaskId};

/// Which component of the implementation a busy interval belongs to — the
/// paper's three-way breakdown of processor time (Figures 10/11 and 20/21
/// report the management component; 16–19 the communication component).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Component {
    /// Useful application work (task bodies).
    App,
    /// Communication: remote fetch stalls (DASH) or message serialization,
    /// transfer handlers and broadcast sends (iPSC/860).
    Comm,
    /// Task management: creation, dependence analysis, dispatch, completion.
    Mgmt,
}

impl Component {
    pub fn name(self) -> &'static str {
        match self {
            Component::App => "app",
            Component::Comm => "comm",
            Component::Mgmt => "mgmt",
        }
    }
}

/// Outcome of the locality heuristic for one task dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Locality {
    /// Task ran on the processor owning its locality object.
    Hit,
    /// Task had a locality object but ran elsewhere.
    Miss,
    /// Not measured: serial-phase task, or no locality object declared.
    Untracked,
}

/// One structured runtime event. `time_ps` is virtual picoseconds in the
/// simulators and a logical sequence number in the thread backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    pub time_ps: u64,
    pub proc: ProcId,
    pub kind: EventKind,
    pub task: Option<TaskId>,
    pub object: Option<ObjectId>,
}

/// The event vocabulary. Task lifecycle events are emitted by the
/// synchronizer (creation/enabling/completion) and the backends
/// (dispatch/start); object and message events by the machine models;
/// `Span` events record every processor-busy interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Task registered with the synchronizer (serial program order).
    TaskCreated,
    /// All declared accesses granted; the task may now run.
    TaskEnabled,
    /// Task bound to a processor. `stolen` marks a queue steal; `locality`
    /// is the heuristic outcome at binding time.
    TaskDispatched { stolen: bool, locality: Locality },
    /// iPSC scheduler deferred the task to the main-processor pool.
    TaskPooled,
    /// Task body began executing.
    TaskStarted,
    /// Task completed and its queue entries were released.
    TaskCompleted,
    /// A declared access was released mid-task (pipelining).
    AccessReleased,
    /// Request message sent for a remote object (iPSC pull protocol).
    ObjectRequest { bytes: u64 },
    /// Object data arrived at `proc`, creating a replica. `latency_ps` is
    /// the request-to-arrival latency (Figure 16-family numerator).
    ObjectFetch { bytes: u64, latency_ps: u64 },
    /// A coalesced (inspector/executor) reply delivered `objects` remote
    /// objects in **one** physical message; `bytes` is their combined
    /// payload. Each delivered object still emits its own `ObjectFetch`
    /// with its own payload bytes, so byte totals and per-object
    /// attribution are unchanged — this event marks the message boundary
    /// for message-count accounting (see `Metrics::fetch_messages`).
    AggregatedFetch { objects: u32, bytes: u64 },
    /// A write retired all outdated replicas of `object`.
    ObjectInvalidate,
    /// One broadcast of `bytes` to `receivers` other processors.
    ObjectBroadcast { bytes: u64, receivers: u32 },
    /// Control message sent (task assignment, completion notify).
    MsgSend { bytes: u64 },
    /// Control message received.
    MsgRecv { bytes: u64 },
    /// First parallel task of `phase` was created.
    PhaseStart { phase: u32 },
    /// A task of `phase` finished (the last such event ends the phase).
    PhaseEnd { phase: u32 },
    /// Processor-busy interval: `proc` was doing `component` work for
    /// `dur_ps` starting at `time_ps`. Per-processor spans never overlap
    /// and tile the makespan (see [`check_conservation`]).
    Span { component: Component, dur_ps: u64 },
    /// Fault injection: a data message of `bytes` was lost in transit.
    /// Emitted at the sender.
    MsgDropped { bytes: u64 },
    /// Recovery: a fetch request was re-sent after an ack timeout. The
    /// resend itself also emits a fresh `ObjectRequest`; this event only
    /// marks the retry decision.
    MsgRetried { bytes: u64 },
    /// Idempotent delivery: a duplicate or stale message arrived and was
    /// discarded instead of applied.
    MsgDiscarded { bytes: u64 },
    /// Fault injection: `proc` suffered a transient stall of `dur_ps`
    /// before starting a task (the stall also appears as a `Comm` span).
    ProcStalled { dur_ps: u64 },
    /// `proc` fail-stopped (simulators) or a worker's task body panicked
    /// (`jade-threads`).
    WorkerFailed,
    /// A task orphaned by a failure was handed back to the scheduler for
    /// re-execution; a fresh dispatched → started → completed leg follows.
    TaskReExecuted,
    /// The runtime captured a checkpoint of `bytes` (synchronizer state,
    /// ownership/replica tables, and object payloads dirtied since the
    /// previous checkpoint). The capture cost appears as ordinary spans.
    CheckpointTaken { bytes: u64 },
    /// Fail-stop recovery read `bytes` back from the most recent
    /// checkpoint. Only valid after a `CheckpointTaken` (see
    /// [`check_lifecycle`]).
    CheckpointRestored { bytes: u64 },
    /// Fail-stop recovery re-materialized a sole-copy object (whose only
    /// replica died with its owner) at the surviving owner, transferring
    /// `bytes` — the charged replacement for the old free-restore path.
    ObjectRestored { bytes: u64 },
    /// Split-phase prefetch: a fetch for `object` was issued on behalf of a
    /// task *before* that task reached its processor (DESIGN.md §17). The
    /// transfer itself still emits ordinary `ObjectRequest`/`ObjectFetch`
    /// events; this marks the early-issue decision.
    PrefetchIssued { bytes: u64 },
    /// A prefetched copy of `object` was still current when its task
    /// arrived at the processor: the fetch latency was (at least partly)
    /// hidden behind earlier work.
    PrefetchHit { bytes: u64 },
    /// A prefetched copy of `object` was written again before its task
    /// started; the stale copy is discarded and the object refetched at the
    /// normal (synchronous) point.
    PrefetchStale { bytes: u64 },
}

impl EventKind {
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TaskCreated => "task_created",
            EventKind::TaskEnabled => "task_enabled",
            EventKind::TaskDispatched { .. } => "task_dispatched",
            EventKind::TaskPooled => "task_pooled",
            EventKind::TaskStarted => "task_started",
            EventKind::TaskCompleted => "task_completed",
            EventKind::AccessReleased => "access_released",
            EventKind::ObjectRequest { .. } => "object_request",
            EventKind::ObjectFetch { .. } => "object_fetch",
            EventKind::AggregatedFetch { .. } => "aggregated_fetch",
            EventKind::ObjectInvalidate => "object_invalidate",
            EventKind::ObjectBroadcast { .. } => "object_broadcast",
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::MsgRecv { .. } => "msg_recv",
            EventKind::PhaseStart { .. } => "phase_start",
            EventKind::PhaseEnd { .. } => "phase_end",
            EventKind::Span { .. } => "span",
            EventKind::MsgDropped { .. } => "msg_dropped",
            EventKind::MsgRetried { .. } => "msg_retried",
            EventKind::MsgDiscarded { .. } => "msg_discarded",
            EventKind::ProcStalled { .. } => "proc_stalled",
            EventKind::WorkerFailed => "worker_failed",
            EventKind::TaskReExecuted => "task_reexecuted",
            EventKind::CheckpointTaken { .. } => "checkpoint_taken",
            EventKind::CheckpointRestored { .. } => "checkpoint_restored",
            EventKind::ObjectRestored { .. } => "object_restored",
            EventKind::PrefetchIssued { .. } => "prefetch_issued",
            EventKind::PrefetchHit { .. } => "prefetch_hit",
            EventKind::PrefetchStale { .. } => "prefetch_stale",
        }
    }
}

/// Statically-dispatched event destination.
///
/// Code generic over `Sink` monomorphizes: instantiated with [`NullSink`]
/// every emission body is empty and the optimizer deletes the surrounding
/// bookkeeping (clock ticks, event buffers) outright — the untraced hot
/// path carries **zero** event cost, statically. Instantiated with a
/// `Vec<Event>` every event is recorded; with [`MetricsFold`] each event
/// is aggregated and dropped; with a pair of sinks it goes to both.
pub trait Sink {
    /// `false` promises every event is discarded, letting callers skip
    /// even the *construction* of event data (timestamps, lookups) behind
    /// an `if S::ACTIVE` that folds away at compile time.
    const ACTIVE: bool;

    /// Record one event. [`NullSink`]'s implementation is empty.
    fn push(&mut self, ev: Event);

    /// Emit an event with no task/object attribution.
    #[inline]
    fn emit(&mut self, time_ps: u64, proc: ProcId, kind: EventKind) {
        if Self::ACTIVE {
            self.push(Event {
                time_ps,
                proc,
                kind,
                task: None,
                object: None,
            });
        }
    }

    /// Emit a task-attributed event.
    #[inline]
    fn emit_task(&mut self, time_ps: u64, proc: ProcId, kind: EventKind, task: TaskId) {
        if Self::ACTIVE {
            self.push(Event {
                time_ps,
                proc,
                kind,
                task: Some(task),
                object: None,
            });
        }
    }

    /// Emit an object-attributed event (optionally tied to a task).
    #[inline]
    fn emit_obj(
        &mut self,
        time_ps: u64,
        proc: ProcId,
        kind: EventKind,
        task: Option<TaskId>,
        object: ObjectId,
    ) {
        if Self::ACTIVE {
            self.push(Event {
                time_ps,
                proc,
                kind,
                task,
                object: Some(object),
            });
        }
    }

    /// Emit a processor-busy span. Zero-length spans are dropped: they
    /// carry no time and would only complicate the tiling invariant.
    #[inline]
    fn span(
        &mut self,
        start_ps: u64,
        proc: ProcId,
        component: Component,
        dur_ps: u64,
        task: Option<TaskId>,
    ) {
        if Self::ACTIVE && dur_ps > 0 {
            self.push(Event {
                time_ps: start_ps,
                proc,
                kind: EventKind::Span { component, dur_ps },
                task,
                object: None,
            });
        }
    }

    /// Consume the sink, returning whatever it recorded ([`NullSink`]
    /// recorded nothing).
    fn into_events(self) -> Vec<Event>
    where
        Self: Sized,
    {
        Vec::new()
    }
}

/// The recorder: every event is appended, in emission order.
impl Sink for Vec<Event> {
    const ACTIVE: bool = true;

    #[inline]
    fn push(&mut self, ev: Event) {
        Vec::push(self, ev);
    }

    fn into_events(self) -> Vec<Event> {
        self
    }
}

/// The statically-disabled event sink: a zero-sized type whose emissions
/// compile to nothing (see [`Sink`]). This is what the thread backend's
/// untraced mode instantiates its worker loop with.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    const ACTIVE: bool = false;

    #[inline]
    fn push(&mut self, _ev: Event) {}
}

/// A tee: every event goes to both sinks. The machine simulators run on
/// `(MetricsFold, R)` — `R = NullSink` untraced (the second push is empty
/// and compiles away), `R = Vec<Event>` traced. A tee is only a way in:
/// destructure it and ask each half for what it holds.
impl<A: Sink, B: Sink> Sink for (A, B) {
    const ACTIVE: bool = A::ACTIVE || B::ACTIVE;

    #[inline]
    fn push(&mut self, ev: Event) {
        self.0.push(ev);
        self.1.push(ev);
    }
}

/// Per-processor busy time, split by component (picoseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcTimes {
    pub app_ps: u64,
    pub comm_ps: u64,
    pub mgmt_ps: u64,
}

impl ProcTimes {
    pub fn busy_ps(&self) -> u64 {
        self.app_ps + self.comm_ps + self.mgmt_ps
    }
}

/// Start/end bounds of one phase of the computation, from
/// `PhaseStart`/`PhaseEnd` events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    pub start_ps: Option<u64>,
    pub end_ps: Option<u64>,
}

/// Everything the paper reports, reconstructed from an event stream alone.
///
/// All sums are integer picoseconds/bytes, so aggregation is exact and
/// independent of event order — event-derived numbers match the machine
/// models' own accounting bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    pub tasks_created: usize,
    pub tasks_enabled: usize,
    pub tasks_dispatched: usize,
    pub tasks_started: usize,
    pub tasks_completed: usize,
    /// Dispatches with `stolen = true`.
    pub steals: u64,
    /// Tasks deferred to the main-processor pool (iPSC).
    pub pooled: u64,
    pub locality_hits: usize,
    /// Dispatches where the heuristic outcome was measured (hit or miss).
    pub locality_tracked: usize,
    pub releases: u64,
    /// Completed object fetches (point-to-point transfers / remote stalls).
    pub fetches: u64,
    pub fetch_bytes: u64,
    /// Coalesced fetch messages (inspector/executor aggregation): each
    /// delivered ≥ 2 objects in one physical message.
    pub agg_fetches: u64,
    /// Objects that arrived inside coalesced messages.
    pub agg_objects: u64,
    /// Combined payload of coalesced messages (already part of
    /// [`Self::fetch_bytes`] via the per-object `ObjectFetch` events).
    pub agg_bytes: u64,
    pub requests: u64,
    pub request_bytes: u64,
    pub invalidations: u64,
    pub broadcasts: u64,
    /// Total broadcast payload delivered: `bytes * receivers` per event.
    pub broadcast_bytes: u64,
    pub msg_sends: u64,
    pub msg_recvs: u64,
    pub msg_bytes: u64,
    /// Sum of request-to-arrival latencies over all fetches.
    pub object_latency_ps: u64,
    /// Per task with fetches: last arrival minus first request, summed.
    pub task_latency_ps: u64,
    /// Per-processor component breakdown from `Span` events.
    pub per_proc: Vec<ProcTimes>,
    /// Latest span end over all processors.
    pub makespan_ps: u64,
    /// App + Comm span time attributed to tasks (DASH "task time":
    /// work plus fetch stalls; on the iPSC only App spans carry tasks'
    /// execution, so this equals `total().app_ps` there).
    pub task_span_ps: u64,
    pub phases: Vec<PhaseTimes>,
    /// Data messages lost in transit (fault injection).
    pub msgs_dropped: u64,
    /// Payload bytes of dropped messages.
    pub dropped_bytes: u64,
    /// Fetch requests re-sent after an ack timeout.
    pub msgs_retried: u64,
    /// Duplicate/stale deliveries discarded by idempotent delivery.
    pub msgs_discarded: u64,
    /// Payload bytes of discarded deliveries.
    pub discarded_bytes: u64,
    /// Transient processor stalls injected.
    pub stalls: u64,
    /// Total stalled time (also present in the `Comm` span breakdown).
    pub stall_ps: u64,
    /// Fail-stop processors / panicked worker attempts.
    pub workers_failed: u64,
    /// Tasks re-dispatched after a failure.
    pub tasks_reexecuted: u64,
    /// Checkpoints captured.
    pub checkpoints: u64,
    /// Total checkpoint payload captured (tables + dirty object bytes).
    pub checkpoint_bytes: u64,
    /// Fail-stop recoveries that restored from a checkpoint.
    pub checkpoint_restores: u64,
    /// Bytes read back from checkpoints during recovery.
    pub checkpoint_restored_bytes: u64,
    /// Sole-copy objects re-materialized after their owner fail-stopped.
    pub object_restores: u64,
    /// Payload bytes of those restores (part of [`Self::comm_bytes`]).
    pub restore_bytes: u64,
    /// Split-phase fetches issued ahead of task arrival (DESIGN.md §17).
    pub prefetches_issued: u64,
    /// Payload bytes of those early-issued fetches.
    pub prefetch_bytes: u64,
    /// Prefetched copies still current when their task arrived.
    pub prefetch_hits: u64,
    /// Prefetched copies invalidated before task start (refetched).
    pub prefetch_stale: u64,
    /// Communication time hidden under application work: the summed
    /// intersection of each fetch's in-flight window
    /// `[arrival - latency, arrival]` with the fetching processor's `App`
    /// spans. See [`Self::overlap_fraction`].
    pub overlap_ps: u64,
}

/// The streaming aggregator behind every [`Metrics`]: push events one at a
/// time, in any order, then [`finish`](MetricsFold::finish).
///
/// Each event is folded in O(1): counters and byte/time sums go straight
/// into the `Metrics` under construction, and a task's fetch window
/// (first request, last arrival) lives in a table indexed by task id less
/// the smallest id seen (`Windows`) — task ids are dense, so its size
/// follows the span of the ids that fetch, never their magnitude, and
/// nothing is hashed. Two things are still buffered until `finish`, because the
/// overlap metric intersects them and neither side arrives in time order:
/// one `(proc, sent, arrived)` triple per fetch with non-zero latency, and
/// one `(start, end)` pair per `App` span. Nothing else of the stream is
/// kept.
///
/// As a [`Sink`] the fold *is* the event destination: the machine
/// simulators emit into it directly, so an untraced run never materialises
/// its stream, and a traced run tees every event into the fold and a
/// recorder (`(MetricsFold, Vec<Event>)`). Both go through
/// [`MetricsFold::push`], as does [`Metrics::from_events`], which is why
/// the result of a run and the aggregation of its recorded stream cannot
/// differ.
#[derive(Clone, Debug)]
pub struct MetricsFold {
    m: Metrics,
    windows: Windows,
    /// Per-processor `App` spans as `(start, end)`.
    app_spans: Vec<Vec<(u64, u64)>>,
    /// Per-fetch in-flight windows as `(proc, sent, arrived)`.
    flights: Vec<(ProcId, u64, u64)>,
}

/// Per-task fetch windows, `(first request sent, last arrival)`, indexed by
/// task id less `base`.
#[derive(Clone, Debug, Default)]
struct Windows {
    base: u32,
    slots: Vec<(u64, u64)>,
}

impl Windows {
    /// A window no event has touched; `finish` skips it.
    const UNSEEN: (u64, u64) = (u64::MAX, 0);

    fn slot(&mut self, task: TaskId) -> &mut (u64, u64) {
        if self.slots.is_empty() {
            self.base = task.0;
        }
        if task.0 < self.base {
            // An id below every one seen so far (streams may arrive in any
            // order): open room at the front, at least doubling so a
            // descending stream still costs O(1) amortised per id.
            let room = ((self.base - task.0) as usize).max(self.slots.len());
            let room = room.min(self.base as usize);
            self.slots
                .splice(0..0, std::iter::repeat_n(Self::UNSEEN, room));
            self.base -= room as u32;
        }
        let i = (task.0 - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Self::UNSEEN);
        }
        &mut self.slots[i]
    }
}

impl MetricsFold {
    /// `procs` sizes the per-processor table; events from higher processor
    /// indices grow it as needed.
    pub fn new(procs: usize) -> MetricsFold {
        MetricsFold {
            m: Metrics {
                per_proc: vec![ProcTimes::default(); procs],
                ..Metrics::default()
            },
            windows: Windows::default(),
            app_spans: vec![Vec::new(); procs],
            flights: Vec::new(),
        }
    }

    /// Fold one event into the aggregate.
    #[inline]
    pub fn push(&mut self, e: &Event) {
        let m = &mut self.m;
        match e.kind {
            EventKind::TaskCreated => m.tasks_created += 1,
            EventKind::TaskEnabled => m.tasks_enabled += 1,
            EventKind::TaskDispatched { stolen, locality } => {
                m.tasks_dispatched += 1;
                if stolen {
                    m.steals += 1;
                }
                match locality {
                    Locality::Hit => {
                        m.locality_tracked += 1;
                        m.locality_hits += 1;
                    }
                    Locality::Miss => m.locality_tracked += 1,
                    Locality::Untracked => {}
                }
            }
            EventKind::TaskPooled => m.pooled += 1,
            EventKind::TaskStarted => m.tasks_started += 1,
            EventKind::TaskCompleted => m.tasks_completed += 1,
            EventKind::AccessReleased => m.releases += 1,
            EventKind::ObjectRequest { bytes } => {
                m.requests += 1;
                m.request_bytes += bytes;
                if let Some(t) = e.task {
                    let w = self.windows.slot(t);
                    w.0 = w.0.min(e.time_ps);
                }
            }
            EventKind::ObjectFetch { bytes, latency_ps } => {
                m.fetches += 1;
                m.fetch_bytes += bytes;
                m.object_latency_ps += latency_ps;
                if latency_ps > 0 {
                    self.flights
                        .push((e.proc, e.time_ps.saturating_sub(latency_ps), e.time_ps));
                }
                if let Some(t) = e.task {
                    let w = self.windows.slot(t);
                    w.1 = w.1.max(e.time_ps);
                }
            }
            EventKind::AggregatedFetch { objects, bytes } => {
                m.agg_fetches += 1;
                m.agg_objects += objects as u64;
                m.agg_bytes += bytes;
            }
            EventKind::ObjectInvalidate => m.invalidations += 1,
            EventKind::ObjectBroadcast { bytes, receivers } => {
                m.broadcasts += 1;
                m.broadcast_bytes += bytes * receivers as u64;
            }
            EventKind::MsgSend { bytes } => {
                m.msg_sends += 1;
                m.msg_bytes += bytes;
            }
            EventKind::MsgRecv { .. } => m.msg_recvs += 1,
            EventKind::PhaseStart { phase } => {
                // Emitters mark each phase once; the minimum keeps the
                // fold order-independent if a stream carries more.
                let ph = Metrics::phase_mut(&mut m.phases, phase);
                ph.start_ps = Some(ph.start_ps.map_or(e.time_ps, |s| s.min(e.time_ps)));
            }
            EventKind::PhaseEnd { phase } => {
                let ph = Metrics::phase_mut(&mut m.phases, phase);
                ph.end_ps = Some(ph.end_ps.unwrap_or(0).max(e.time_ps));
            }
            EventKind::Span { component, dur_ps } => {
                if e.proc >= m.per_proc.len() {
                    m.per_proc.resize(e.proc + 1, ProcTimes::default());
                }
                let pt = &mut m.per_proc[e.proc];
                match component {
                    Component::App => {
                        pt.app_ps += dur_ps;
                        if e.proc >= self.app_spans.len() {
                            self.app_spans.resize(e.proc + 1, Vec::new());
                        }
                        self.app_spans[e.proc].push((e.time_ps, e.time_ps + dur_ps));
                    }
                    Component::Comm => pt.comm_ps += dur_ps,
                    Component::Mgmt => pt.mgmt_ps += dur_ps,
                }
                m.makespan_ps = m.makespan_ps.max(e.time_ps + dur_ps);
                if e.task.is_some() && component != Component::Mgmt {
                    m.task_span_ps += dur_ps;
                }
            }
            EventKind::MsgDropped { bytes } => {
                m.msgs_dropped += 1;
                m.dropped_bytes += bytes;
            }
            EventKind::MsgRetried { .. } => m.msgs_retried += 1,
            EventKind::MsgDiscarded { bytes } => {
                m.msgs_discarded += 1;
                m.discarded_bytes += bytes;
            }
            EventKind::ProcStalled { dur_ps } => {
                m.stalls += 1;
                m.stall_ps += dur_ps;
            }
            EventKind::WorkerFailed => m.workers_failed += 1,
            EventKind::TaskReExecuted => m.tasks_reexecuted += 1,
            EventKind::CheckpointTaken { bytes } => {
                m.checkpoints += 1;
                m.checkpoint_bytes += bytes;
            }
            EventKind::CheckpointRestored { bytes } => {
                m.checkpoint_restores += 1;
                m.checkpoint_restored_bytes += bytes;
            }
            EventKind::ObjectRestored { bytes } => {
                m.object_restores += 1;
                m.restore_bytes += bytes;
            }
            EventKind::PrefetchIssued { bytes } => {
                m.prefetches_issued += 1;
                m.prefetch_bytes += bytes;
            }
            EventKind::PrefetchHit { .. } => m.prefetch_hits += 1,
            EventKind::PrefetchStale { .. } => m.prefetch_stale += 1,
        }
    }

    /// Close the fold: settle the per-task fetch windows and the overlap
    /// metric, and hand back the finished [`Metrics`].
    pub fn finish(self) -> Metrics {
        let MetricsFold {
            mut m,
            windows,
            mut app_spans,
            flights,
        } = self;
        for (first, last) in windows.slots {
            if first != u64::MAX && last >= first {
                m.task_latency_ps += last - first;
            }
        }
        // Overlap: how much of each fetch's in-flight time was hidden under
        // App work on the fetching processor. Per-processor spans are
        // emitted in time order (see `check_conservation`); the sort makes
        // the computation robust to streams that were merged or filtered.
        for spans in &mut app_spans {
            spans.sort_unstable();
        }
        // Where the previous flight on each processor started its walk:
        // flights arrive almost in span order, so the next one usually
        // starts within `NEAR` spans of it.
        const NEAR: usize = 8;
        let mut hints = vec![0usize; app_spans.len()];
        for (p, lo, hi) in flights {
            let Some(spans) = app_spans.get(p) else {
                continue;
            };
            // First span that could intersect: the one before the first
            // span starting at or after `lo`, then walk forward. The window
            // after the hint answers if the hint starts before `lo` and
            // the run of such starts ends inside it; else binary search.
            let from = hints[p];
            let near = (spans[from.min(spans.len())..].iter().take(NEAR))
                .take_while(|&&(s, _)| s < lo)
                .count();
            let mut i = if (from == 0 || near > 0) && near < NEAR {
                from + near
            } else {
                spans.partition_point(|&(s, _)| s < lo)
            };
            i = i.saturating_sub(1);
            hints[p] = i;
            while let Some(&(s, e)) = spans.get(i) {
                if s >= hi {
                    break;
                }
                m.overlap_ps += e.min(hi).saturating_sub(s.max(lo));
                i += 1;
            }
        }
        m
    }
}

impl Sink for MetricsFold {
    const ACTIVE: bool = true;

    #[inline]
    fn push(&mut self, ev: Event) {
        MetricsFold::push(self, &ev);
    }
}

impl Metrics {
    /// Aggregate a recorded event stream: a loop over [`MetricsFold`], the
    /// one aggregation path. `procs` sizes the per-processor table; events
    /// from higher processor indices grow it as needed.
    pub fn from_events(events: &[Event], procs: usize) -> Metrics {
        let mut fold = MetricsFold::new(procs);
        for e in events {
            fold.push(e);
        }
        fold.finish()
    }

    fn phase_mut(phases: &mut Vec<PhaseTimes>, phase: u32) -> &mut PhaseTimes {
        let i = phase as usize;
        if i >= phases.len() {
            phases.resize(i + 1, PhaseTimes::default());
        }
        &mut phases[i]
    }

    /// Whole-machine component totals.
    pub fn total(&self) -> ProcTimes {
        let mut t = ProcTimes::default();
        for p in &self.per_proc {
            t.app_ps += p.app_ps;
            t.comm_ps += p.comm_ps;
            t.mgmt_ps += p.mgmt_ps;
        }
        t
    }

    /// Total communicated bytes: fetches + broadcasts + fail-stop object
    /// restores. Aggregation does not change this sum —
    /// coalesced payloads are counted through their per-object
    /// `ObjectFetch` events.
    pub fn comm_bytes(&self) -> u64 {
        self.fetch_bytes + self.broadcast_bytes + self.restore_bytes
    }

    /// Physical fetch-reply messages on the wire: every uncoalesced fetch
    /// is its own message, and each coalesced message replaces the
    /// `agg_objects` it carried with a single `agg_fetches` entry.
    pub fn fetch_messages(&self) -> u64 {
        self.fetches - self.agg_objects + self.agg_fetches
    }

    /// Task locality percentage over tracked dispatches (0 when none were
    /// tracked, matching the machine models' convention).
    pub fn locality_pct(&self) -> f64 {
        if self.locality_tracked == 0 {
            0.0
        } else {
            100.0 * self.locality_hits as f64 / self.locality_tracked as f64
        }
    }

    /// Fraction of total fetch latency that was hidden under application
    /// work on the fetching processor (0.0 when nothing was fetched, 1.0
    /// when every in-flight interval sat entirely under a busy `App` span).
    /// This is the paper's communication/computation overlap, derived from
    /// the event stream alone: no backend reports it natively.
    pub fn overlap_fraction(&self) -> f64 {
        if self.object_latency_ps == 0 {
            0.0
        } else {
            self.overlap_ps as f64 / self.object_latency_ps as f64
        }
    }

    /// Mean length of the phases that had parallel activity (a
    /// `PhaseStart` is only emitted for parallel tasks), in picoseconds.
    pub fn mean_parallel_phase_ps(&self) -> f64 {
        let lens: Vec<u64> = self
            .phases
            .iter()
            .filter_map(|p| match (p.start_ps, p.end_ps) {
                (Some(s), Some(e)) if e >= s => Some(e - s),
                _ => None,
            })
            .collect();
        if lens.is_empty() {
            0.0
        } else {
            lens.iter().sum::<u64>() as f64 / lens.len() as f64
        }
    }
}

/// Verify that every task in the stream has exactly one
/// created → enabled → \[dispatched →\] started → completed chain, in that
/// order both by stream position and by timestamp. Tasks created but not
/// yet complete (partial streams) fail; pass only complete runs.
///
/// Faulty runs are covered too: a [`EventKind::TaskReExecuted`] event
/// rewinds a task's chain to the *enabled* stage, licensing one extra
/// dispatched → started leg. The rewind may also carry a timestamp earlier
/// than the events it cancels (a start optimistically charged into the
/// future on a processor that then died before that instant); monotonicity
/// is required within each leg, not across the rewind. Even under
/// re-execution every task must have
/// exactly one created, one enabled, and one completed event — a task that
/// completes twice (double execution applied) or never completes fails the
/// check.
///
/// Checkpoint events carry no task but obey their own ordering rule: a
/// [`EventKind::CheckpointRestored`] may only appear after at least one
/// [`EventKind::CheckpointTaken`] — a runtime cannot restore state it never
/// captured.
pub fn check_lifecycle(events: &[Event]) -> Result<(), String> {
    #[derive(Default, Clone)]
    struct Chain {
        created: usize,
        enabled: usize,
        dispatched: usize,
        started: usize,
        completed: usize,
        reexecuted: usize,
        stage: u8,
        last_time: u64,
    }
    let mut chains: Vec<Chain> = Vec::new();
    let mut checkpoints_taken = 0u64;
    for (pos, e) in events.iter().enumerate() {
        let stage = match e.kind {
            EventKind::TaskCreated => 1,
            EventKind::TaskEnabled => 2,
            EventKind::TaskDispatched { .. } => 3,
            EventKind::TaskStarted => 4,
            EventKind::TaskCompleted => 5,
            EventKind::TaskReExecuted => 0, // special-cased below
            EventKind::CheckpointTaken { .. } => {
                checkpoints_taken += 1;
                continue;
            }
            EventKind::CheckpointRestored { .. } => {
                if checkpoints_taken == 0 {
                    return Err(format!(
                        "checkpoint restored at #{pos} before any checkpoint was taken"
                    ));
                }
                continue;
            }
            _ => continue,
        };
        let id = e
            .task
            .ok_or_else(|| format!("lifecycle event without task at #{pos}"))?;
        if id.index() >= chains.len() {
            chains.resize(id.index() + 1, Chain::default());
        }
        let c = &mut chains[id.index()];
        if stage == 0 {
            // Re-execution rewinds the chain to "enabled" — and may rewind
            // the clock. Simulators charge costs by advancing local time
            // cursors, so a dispatch or start can be recorded at an instant
            // slightly in the future; a processor death before that instant
            // cancels those speculative events, and the re-execution carries
            // the (earlier) failure time. Each dispatched → started →
            // completed leg must still be monotone on its own.
            if c.stage < 2 {
                return Err(format!("{id:?}: re-executed before enabled at #{pos}"));
            }
            if c.completed > 0 {
                return Err(format!("{id:?}: re-executed after completion at #{pos}"));
            }
            c.reexecuted += 1;
            c.stage = 2;
            c.last_time = e.time_ps;
            continue;
        }
        if e.time_ps < c.last_time {
            return Err(format!(
                "{id:?}: {} timestamp regressed at #{pos}",
                e.kind.name(),
            ));
        }
        match stage {
            1 => c.created += 1,
            2 => c.enabled += 1,
            3 => c.dispatched += 1,
            4 => c.started += 1,
            5 => c.completed += 1,
            _ => unreachable!(),
        }
        if stage < c.stage {
            return Err(format!(
                "{id:?}: {} out of order (after stage {}) at #{pos}",
                e.kind.name(),
                c.stage
            ));
        }
        c.stage = stage;
        c.last_time = e.time_ps;
    }
    for (i, c) in chains.iter().enumerate() {
        let id = TaskId(i as u32);
        if c.created != 1 || c.enabled != 1 || c.completed != 1 {
            return Err(format!(
                "{id:?}: chain counts created={} enabled={} completed={} (want 1 each)",
                c.created, c.enabled, c.completed
            ));
        }
        if c.started < 1 || c.started > 1 + c.reexecuted {
            return Err(format!(
                "{id:?}: started {} times across {} re-executions",
                c.started, c.reexecuted
            ));
        }
        if c.dispatched > 1 + c.reexecuted {
            return Err(format!(
                "{id:?}: dispatched {} times across {} re-executions",
                c.dispatched, c.reexecuted
            ));
        }
    }
    Ok(())
}

/// Verify that a run obeyed `graph`, the dependence graph of its program
/// (DESIGN.md §4), comparing events by stream position:
///
/// * every `TaskStarted`, a re-execution's included, comes after each edge
///   into the task was given up: by the predecessor's `AccessReleased` of
///   the declaration the edge leaves from, if it released it mid-task,
///   else by its `TaskCompleted`;
/// * a created task whose edges were all given up has its `TaskEnabled` at
///   the event that gave up the last of them, or at its `TaskCreated` if
///   that is later: after it, and before the next creation, completion or
///   release. A task with an edge never given up has none.
///
/// Tasks never created are not checked, so a cancelled run passes as far
/// as it went. Matching a release to its declaration needs the
/// declarations a graph from [`DepGraph::rebuild`] keeps; the graph of
/// [`DepGraph::build`] checks streams without releases, as every replay of
/// a trace is. O(events + edges).
pub fn check_order(graph: &DepGraph, events: &[Event]) -> Result<(), String> {
    const NEVER: usize = usize::MAX;
    let at = |pos| match pos {
        NEVER => "never".to_string(),
        pos => format!("at #{pos}"),
    };
    let n = graph.preds().len();
    let task = |pos: usize, e: &Event| match e.task {
        Some(id) if id.index() < n => Ok(id.index()),
        _ => Err(format!(
            "{} at #{pos} names none of {n} tasks",
            e.kind.name()
        )),
    };
    let [mut created, mut enabled, mut completed] = [(); 3].map(|_| vec![NEVER; n]);
    // Per declaration, numbered task after task: its mid-task release.
    let mut released = vec![NEVER; graph.declarations()];
    // Per position: the creations, completions and releases before it.
    let mut transitions = vec![0u32; events.len() + 1];
    for (pos, e) in events.iter().enumerate() {
        transitions[pos + 1] = transitions[pos];
        let slot = match e.kind {
            EventKind::TaskCreated => &mut created[task(pos, e)?],
            EventKind::TaskEnabled => &mut enabled[task(pos, e)?],
            EventKind::TaskCompleted => &mut completed[task(pos, e)?],
            EventKind::AccessReleased => {
                let id = TaskId(task(pos, e)? as u32);
                let decl = e.object.and_then(|o| graph.position_of(id, o));
                let decl = decl.ok_or(format!("#{pos} releases what the graph does not know"))?;
                &mut released[graph.decls_of(id).start + decl]
            }
            _ => continue,
        };
        if *slot != NEVER {
            return Err(format!("{} at #{pos} repeats #{slot}", e.kind.name()));
        }
        *slot = pos;
        transitions[pos + 1] += u32::from(e.kind != EventKind::TaskEnabled);
    }
    // Per task: where the last edge into it was given up, 0 if it has none.
    let mut ready = vec![0; n];
    for p in (0..n).map(|p| TaskId(p as u32)) {
        for (decl, k) in graph.decls_of(p).enumerate() {
            let given_up = released[k].min(completed[p.index()]);
            graph.give_up(p, Some(decl), &[], |row| {
                row.iter()
                    .for_each(|s| ready[s.index()] = ready[s.index()].max(given_up))
            });
        }
    }
    for (pos, e) in events.iter().enumerate() {
        if e.kind == EventKind::TaskStarted && ready[task(pos, e)?] > pos {
            let s = task(pos, e)?;
            return Err(format!(
                "task#{s} started at #{pos}, ready {}",
                at(ready[s])
            ));
        }
    }
    for s in 0..n {
        let (last, e) = (ready[s].max(created[s]), enabled[s]);
        let on_time = match (last, e) {
            (NEVER, e) => e == NEVER,
            (_, NEVER) => false,
            _ => e > last && transitions[e] == transitions[last + 1],
        };
        if !on_time {
            return Err(format!("task#{s} enabled {}, ready {}", at(e), at(last)));
        }
    }
    Ok(())
}

/// Verify span conservation: per processor, busy intervals are emitted in
/// order, never overlap, and end at or before `makespan_ps`; and at least
/// one interval ends exactly at the makespan (the intervals *tile* the
/// run — every gap is genuine idle time, nothing double-books a
/// processor). Returns per-processor busy totals on success.
pub fn check_conservation(
    events: &[Event],
    procs: usize,
    makespan_ps: u64,
) -> Result<Vec<u64>, String> {
    let mut free_at = vec![0u64; procs];
    let mut busy = vec![0u64; procs];
    let mut latest_end = 0u64;
    for (pos, e) in events.iter().enumerate() {
        if let EventKind::Span { dur_ps, .. } = e.kind {
            if e.proc >= procs {
                return Err(format!("span on unknown proc {} at #{pos}", e.proc));
            }
            if e.time_ps < free_at[e.proc] {
                return Err(format!(
                    "proc {} spans overlap at #{pos}: start {} < previous end {}",
                    e.proc, e.time_ps, free_at[e.proc]
                ));
            }
            let end = e.time_ps + dur_ps;
            free_at[e.proc] = end;
            busy[e.proc] += dur_ps;
            latest_end = latest_end.max(end);
        }
    }
    if latest_end != makespan_ps {
        return Err(format!(
            "spans end at {latest_end} ps but makespan is {makespan_ps} ps"
        ));
    }
    Ok(busy)
}

// ---------------------------------------------------------------------------
// Multi-tenant streams
// ---------------------------------------------------------------------------

/// Identifies one tenant (one independently submitted program DAG) in a
/// multi-tenant service. Task and object ids are tenant-local — two tenants
/// both have a `TaskId(0)` — so each tenant's events stay in a stream of
/// their own, checked and reduced on their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessSpec;

    fn span(t: u64, proc: ProcId, c: Component, d: u64) -> Event {
        Event {
            time_ps: t,
            proc,
            kind: EventKind::Span {
                component: c,
                dur_ps: d,
            },
            task: None,
            object: None,
        }
    }

    fn task_ev(t: u64, proc: ProcId, kind: EventKind, id: u32) -> Event {
        Event {
            time_ps: t,
            proc,
            kind,
            task: Some(TaskId(id)),
            object: None,
        }
    }

    #[test]
    fn null_sink_records_nothing() {
        let mut s = NullSink;
        s.emit(0, 0, EventKind::TaskCreated);
        s.span(0, 0, Component::App, 10, None);
        assert!(s.into_events().is_empty());
    }

    #[test]
    fn recording_sink_drops_zero_spans() {
        let mut s: Vec<Event> = Vec::new();
        s.span(0, 0, Component::App, 0, None);
        s.span(5, 0, Component::App, 7, None);
        let evs = s.into_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].time_ps, 5);
    }

    #[test]
    fn metrics_counts_and_breakdowns() {
        let events = vec![
            task_ev(0, 0, EventKind::TaskCreated, 0),
            task_ev(0, 0, EventKind::TaskEnabled, 0),
            task_ev(
                1,
                1,
                EventKind::TaskDispatched {
                    stolen: true,
                    locality: Locality::Miss,
                },
                0,
            ),
            task_ev(2, 1, EventKind::TaskStarted, 0),
            span(2, 1, Component::App, 10),
            span(12, 1, Component::Comm, 4),
            task_ev(16, 1, EventKind::TaskCompleted, 0),
            span(0, 0, Component::Mgmt, 3),
        ];
        let m = Metrics::from_events(&events, 2);
        assert_eq!(m.tasks_created, 1);
        assert_eq!(m.steals, 1);
        assert_eq!(m.locality_tracked, 1);
        assert_eq!(m.locality_hits, 0);
        assert_eq!(
            m.per_proc[1],
            ProcTimes {
                app_ps: 10,
                comm_ps: 4,
                mgmt_ps: 0
            }
        );
        assert_eq!(m.per_proc[0].mgmt_ps, 3);
        assert_eq!(m.makespan_ps, 16);
        assert_eq!(m.total().busy_ps(), 17);
        assert_eq!(m.locality_pct(), 0.0);
    }

    #[test]
    fn metrics_task_latency_window() {
        // Task 0 requests at t=5 and t=8; arrivals at t=20 and t=30.
        let t0 = Some(TaskId(0));
        let o = ObjectId(0);
        let events = vec![
            Event {
                time_ps: 5,
                proc: 1,
                kind: EventKind::ObjectRequest { bytes: 4 },
                task: t0,
                object: Some(o),
            },
            Event {
                time_ps: 8,
                proc: 1,
                kind: EventKind::ObjectRequest { bytes: 4 },
                task: t0,
                object: Some(o),
            },
            Event {
                time_ps: 20,
                proc: 1,
                kind: EventKind::ObjectFetch {
                    bytes: 100,
                    latency_ps: 15,
                },
                task: t0,
                object: Some(o),
            },
            Event {
                time_ps: 30,
                proc: 1,
                kind: EventKind::ObjectFetch {
                    bytes: 100,
                    latency_ps: 22,
                },
                task: t0,
                object: Some(o),
            },
        ];
        let m = Metrics::from_events(&events, 2);
        assert_eq!(m.fetches, 2);
        assert_eq!(m.fetch_bytes, 200);
        assert_eq!(m.object_latency_ps, 37);
        assert_eq!(m.task_latency_ps, 25); // 30 - 5
    }

    #[test]
    fn fetch_windows_are_keyed_by_task_in_any_id_order() {
        // Task `id` requests at `id` and its fetch lands at `3 * id + 7`:
        // the sum of windows is the same whichever id the fold meets first,
        // and a table that grows toward lower ids must not lose a window.
        let window = |id: u32| {
            [
                task_ev(id as u64, 0, EventKind::ObjectRequest { bytes: 4 }, id),
                task_ev(
                    3 * id as u64 + 7,
                    0,
                    EventKind::ObjectFetch {
                        bytes: 8,
                        latency_ps: 1,
                    },
                    id,
                ),
            ]
        };
        let ids = [50_000u32, 50_003, 49_990, 7, 0, 50_001, 12];
        let want: u64 = ids.iter().map(|&id| 2 * id as u64 + 7).sum();
        for rotate in 0..ids.len() {
            let mut order = ids;
            order.rotate_left(rotate);
            let events: Vec<Event> = order.into_iter().flat_map(window).collect();
            assert_eq!(Metrics::from_events(&events, 1).task_latency_ps, want);
        }
        let descending: Vec<Event> = (0..2000u32).rev().flat_map(window).collect();
        let m = Metrics::from_events(&descending, 1);
        assert_eq!(m.task_latency_ps, (0..2000u64).map(|id| 2 * id + 7).sum());
    }

    #[test]
    fn lifecycle_accepts_well_formed_chain() {
        let events = vec![
            task_ev(0, 0, EventKind::TaskCreated, 0),
            task_ev(0, 0, EventKind::TaskEnabled, 0),
            task_ev(
                1,
                0,
                EventKind::TaskDispatched {
                    stolen: false,
                    locality: Locality::Untracked,
                },
                0,
            ),
            task_ev(2, 0, EventKind::TaskStarted, 0),
            task_ev(3, 0, EventKind::TaskCompleted, 0),
        ];
        assert!(check_lifecycle(&events).is_ok());
    }

    #[test]
    fn lifecycle_rejects_missing_start() {
        let events = vec![
            task_ev(0, 0, EventKind::TaskCreated, 0),
            task_ev(0, 0, EventKind::TaskEnabled, 0),
            task_ev(3, 0, EventKind::TaskCompleted, 0),
        ];
        assert!(check_lifecycle(&events).is_err());
    }

    #[test]
    fn lifecycle_accepts_reexecution_leg() {
        let dispatch = EventKind::TaskDispatched {
            stolen: false,
            locality: Locality::Untracked,
        };
        let events = vec![
            task_ev(0, 0, EventKind::TaskCreated, 0),
            task_ev(0, 0, EventKind::TaskEnabled, 0),
            task_ev(1, 2, dispatch, 0),
            task_ev(2, 2, EventKind::TaskStarted, 0),
            // Processor 2 dies mid-task; the scheduler re-dispatches.
            task_ev(5, 0, EventKind::TaskReExecuted, 0),
            task_ev(6, 1, dispatch, 0),
            task_ev(7, 1, EventKind::TaskStarted, 0),
            task_ev(9, 1, EventKind::TaskCompleted, 0),
        ];
        check_lifecycle(&events).unwrap();
        let m = Metrics::from_events(&events, 3);
        assert_eq!(m.tasks_reexecuted, 1);
        assert_eq!(m.tasks_started, 2);
        assert_eq!(m.tasks_completed, 1);
    }

    #[test]
    fn lifecycle_rejects_double_completion_after_reexecution() {
        let events = vec![
            task_ev(0, 0, EventKind::TaskCreated, 0),
            task_ev(0, 0, EventKind::TaskEnabled, 0),
            task_ev(2, 2, EventKind::TaskStarted, 0),
            task_ev(3, 2, EventKind::TaskCompleted, 0),
            task_ev(5, 0, EventKind::TaskReExecuted, 0),
        ];
        assert!(check_lifecycle(&events).is_err());
    }

    #[test]
    fn checkpoint_metrics_and_comm_bytes() {
        let ev = |kind| Event {
            time_ps: 0,
            proc: 0,
            kind,
            task: None,
            object: None,
        };
        let events = vec![
            ev(EventKind::CheckpointTaken { bytes: 100 }),
            ev(EventKind::CheckpointTaken { bytes: 40 }),
            ev(EventKind::CheckpointRestored { bytes: 60 }),
            ev(EventKind::ObjectRestored { bytes: 512 }),
        ];
        let m = Metrics::from_events(&events, 1);
        assert_eq!(m.checkpoints, 2);
        assert_eq!(m.checkpoint_bytes, 140);
        assert_eq!(m.checkpoint_restores, 1);
        assert_eq!(m.checkpoint_restored_bytes, 60);
        assert_eq!(m.object_restores, 1);
        assert_eq!(m.restore_bytes, 512);
        // Restored object payloads are real transfers: part of comm_bytes.
        assert_eq!(m.comm_bytes(), 512);
    }

    #[test]
    fn lifecycle_requires_checkpoint_before_restore() {
        let ev = |kind| Event {
            time_ps: 0,
            proc: 0,
            kind,
            task: None,
            object: None,
        };
        let bad = vec![ev(EventKind::CheckpointRestored { bytes: 10 })];
        assert!(check_lifecycle(&bad).is_err());
        let good = vec![
            ev(EventKind::CheckpointTaken { bytes: 10 }),
            ev(EventKind::CheckpointRestored { bytes: 10 }),
        ];
        assert!(check_lifecycle(&good).is_ok());
    }

    #[test]
    fn lifecycle_rejects_out_of_order() {
        let events = vec![
            task_ev(0, 0, EventKind::TaskCreated, 0),
            task_ev(2, 0, EventKind::TaskStarted, 0),
            task_ev(1, 0, EventKind::TaskEnabled, 0),
        ];
        assert!(check_lifecycle(&events).is_err());
    }

    /// The graph of tasks declaring `specs`, `(object, writes)` each,
    /// under replication.
    fn graph_of(specs: &[&[(u32, bool)]]) -> DepGraph {
        let specs: Vec<AccessSpec> = specs
            .iter()
            .map(|decls| {
                let mut s = AccessSpec::new();
                for &(o, writes) in *decls {
                    if writes {
                        s.wr(ObjectId(o));
                    } else {
                        s.rd(ObjectId(o));
                    }
                }
                s
            })
            .collect();
        let mut graph = DepGraph::default();
        graph.rebuild(specs.iter(), true);
        graph
    }

    use EventKind::{TaskCompleted as Done, TaskCreated as New, TaskEnabled as Ready};
    use EventKind::{TaskReExecuted as Redo, TaskStarted as Go};

    /// A stream of `(kind, task)` events; `(AccessReleased, t)` is written
    /// `rel(t, object)`. Times are stream positions.
    fn stream(evs: &[(EventKind, u32, Option<u32>)]) -> Vec<Event> {
        (evs.iter().enumerate())
            .map(|(t, &(kind, id, object))| Event {
                object: object.map(ObjectId),
                ..task_ev(t as u64, 0, kind, id)
            })
            .collect()
    }

    fn ev(kind: EventKind, id: u32) -> (EventKind, u32, Option<u32>) {
        (kind, id, None)
    }

    fn rel(id: u32, object: u32) -> (EventKind, u32, Option<u32>) {
        (EventKind::AccessReleased, id, Some(object))
    }

    #[test]
    fn order_rejects_a_start_before_its_predecessor_completes() {
        // 1 reads what 0 writes.
        let graph = graph_of(&[&[(0, true)], &[(0, false)]]);
        let head = [ev(New, 0), ev(Ready, 0), ev(New, 1), ev(Go, 0)];
        let good = [ev(Done, 0), ev(Ready, 1), ev(Go, 1), ev(Done, 1)];
        check_order(&graph, &stream(&[&head[..], &good].concat())).unwrap();
        let early = [ev(Go, 1), ev(Done, 0), ev(Ready, 1), ev(Done, 1)];
        let err = check_order(&graph, &stream(&[&head[..], &early].concat())).unwrap_err();
        assert!(err.contains("task#1 started at #4, ready at #5"), "{err}");
    }

    #[test]
    fn order_release_satisfies_exactly_its_own_sub_row() {
        // 0 writes objects 0 and 1; 1 reads object 0, 2 reads object 1.
        let graph = graph_of(&[&[(0, true), (1, true)], &[(0, false)], &[(1, false)]]);
        let run = |tail: &[(EventKind, u32, Option<u32>)]| {
            let head = [ev(New, 0), ev(Ready, 0), ev(New, 1), ev(New, 2), ev(Go, 0)];
            check_order(&graph, &stream(&[&head[..], tail].concat()))
        };
        // Releasing object 0 lets 1 run before 0 completes.
        let pipelined = [rel(0, 0), ev(Ready, 1), ev(Go, 1), ev(Done, 1)];
        let finish = [ev(Done, 0), ev(Ready, 2), ev(Go, 2), ev(Done, 2)];
        run(&[&pipelined[..], &finish].concat()).unwrap();
        // ... but not 2, which waits through object 1.
        let too_far = [rel(0, 0), ev(Ready, 1), ev(Ready, 2)];
        assert!(run(&too_far)
            .unwrap_err()
            .contains("task#2 enabled at #7, ready never"));
        let too_far = [
            rel(0, 0),
            ev(Ready, 1),
            ev(Go, 2),
            ev(Done, 0),
            ev(Ready, 2),
        ];
        assert!(run(&too_far)
            .unwrap_err()
            .contains("task#2 started at #7, ready at #8"));
    }

    #[test]
    fn order_release_of_another_declaration_satisfies_nothing() {
        let graph = graph_of(&[&[(0, true), (1, true)], &[(0, false)]]);
        let head = [ev(New, 0), ev(Ready, 0), ev(New, 1), ev(Go, 0)];
        // 0 releases object 1, which 1 does not wait through.
        let wrong = [rel(0, 1), ev(Ready, 1)];
        let err = check_order(&graph, &stream(&[&head[..], &wrong].concat())).unwrap_err();
        assert!(err.contains("task#1 enabled at #5, ready never"), "{err}");
        // A release the graph has no declaration for is an error itself.
        let undeclared = [rel(0, 2)];
        let err = check_order(&graph, &stream(&[&head[..], &undeclared].concat())).unwrap_err();
        assert!(
            err.contains("#4 releases what the graph does not know"),
            "{err}"
        );
    }

    #[test]
    fn order_rejects_an_enable_before_the_last_satisfying_event() {
        // 2 reads what 0 and 1 write; 3 is independent.
        let graph = graph_of(&[
            &[(0, true)],
            &[(1, true)],
            &[(0, false), (1, false)],
            &[(2, true)],
        ]);
        let head = [
            ev(New, 0),
            ev(Ready, 0),
            ev(New, 1),
            ev(Ready, 1),
            ev(New, 2),
            ev(Go, 0),
            ev(Go, 1),
            ev(Done, 0),
        ];
        let run = |tail: &[(EventKind, u32, Option<u32>)]| {
            check_order(&graph, &stream(&[&head[..], tail].concat()))
        };
        run(&[ev(Done, 1), ev(Ready, 2), ev(Go, 2), ev(Done, 2)]).unwrap();
        let early = [ev(Ready, 2), ev(Done, 1), ev(Go, 2), ev(Done, 2)];
        assert!(run(&early)
            .unwrap_err()
            .contains("task#2 enabled at #8, ready at #9"));
        // An enable after a later transition is late, and none at all is lost.
        let late = [ev(Done, 1), ev(New, 3), ev(Ready, 3), ev(Ready, 2)];
        assert!(run(&late)
            .unwrap_err()
            .contains("task#2 enabled at #11, ready at #8"));
        assert!(run(&[ev(Done, 1)])
            .unwrap_err()
            .contains("task#2 enabled never, ready at #8"));
    }

    #[test]
    fn order_accepts_a_reexecuted_tasks_second_start() {
        let graph = graph_of(&[&[(0, true)], &[(0, false)]]);
        let events = stream(&[
            ev(New, 0),
            ev(Ready, 0),
            ev(New, 1),
            ev(Go, 0),
            ev(Done, 0),
            ev(Ready, 1),
            ev(Go, 1),
            ev(Redo, 1),
            ev(Go, 1),
            ev(Done, 1),
        ]);
        check_order(&graph, &events).unwrap();
        check_lifecycle(&events).unwrap();
    }

    #[test]
    fn conservation_accepts_tiling_spans() {
        let events = vec![
            span(0, 0, Component::Mgmt, 5),
            span(10, 0, Component::App, 10),
            span(3, 1, Component::App, 8),
        ];
        let busy = check_conservation(&events, 2, 20).unwrap();
        assert_eq!(busy, vec![15, 8]);
    }

    #[test]
    fn conservation_rejects_overlap() {
        let events = vec![
            span(0, 0, Component::App, 10),
            span(5, 0, Component::Comm, 2),
        ];
        assert!(check_conservation(&events, 1, 10).is_err());
    }

    #[test]
    fn conservation_rejects_short_makespan() {
        let events = vec![span(0, 0, Component::App, 10)];
        assert!(check_conservation(&events, 1, 12).is_err());
    }

    #[test]
    fn prefetch_counters_aggregate() {
        let o = ObjectId(3);
        let ev = |kind| Event {
            time_ps: 0,
            proc: 1,
            kind,
            task: Some(TaskId(0)),
            object: Some(o),
        };
        let events = vec![
            ev(EventKind::PrefetchIssued { bytes: 100 }),
            ev(EventKind::PrefetchIssued { bytes: 50 }),
            ev(EventKind::PrefetchHit { bytes: 100 }),
            ev(EventKind::PrefetchStale { bytes: 50 }),
        ];
        let m = Metrics::from_events(&events, 2);
        assert_eq!(m.prefetches_issued, 2);
        assert_eq!(m.prefetch_bytes, 150);
        assert_eq!(m.prefetch_hits, 1);
        assert_eq!(m.prefetch_stale, 1);
        // Lifecycle ignores prefetch events entirely.
        assert!(check_lifecycle(&[]).is_ok());
    }

    #[test]
    fn overlap_counts_fetch_time_under_app_spans() {
        // Proc 1 runs App work over [10, 30); a fetch arrives at t=25 after
        // 20 ps in flight ([5, 25]): 15 ps of the flight is hidden.
        let fetch = Event {
            time_ps: 25,
            proc: 1,
            kind: EventKind::ObjectFetch {
                bytes: 64,
                latency_ps: 20,
            },
            task: Some(TaskId(0)),
            object: Some(ObjectId(0)),
        };
        let events = vec![span(10, 1, Component::App, 20), fetch];
        let m = Metrics::from_events(&events, 2);
        assert_eq!(m.overlap_ps, 15);
        assert_eq!(m.overlap_fraction(), 15.0 / 20.0);
    }

    #[test]
    fn overlap_ignores_other_processors_and_components() {
        // App work on proc 0 and Comm work on proc 1 hide nothing of a
        // fetch arriving at proc 1.
        let fetch = Event {
            time_ps: 30,
            proc: 1,
            kind: EventKind::ObjectFetch {
                bytes: 64,
                latency_ps: 30,
            },
            task: None,
            object: Some(ObjectId(0)),
        };
        let events = vec![
            span(0, 0, Component::App, 100),
            span(0, 1, Component::Comm, 30),
            fetch,
        ];
        let m = Metrics::from_events(&events, 2);
        assert_eq!(m.overlap_ps, 0);
        assert_eq!(m.overlap_fraction(), 0.0);
    }

    #[test]
    fn overlap_spans_multiple_app_intervals() {
        // Flight [0, 100] over two disjoint App spans [10,20) and [40,60):
        // 10 + 20 hidden of 100 in flight.
        let fetch = Event {
            time_ps: 100,
            proc: 0,
            kind: EventKind::ObjectFetch {
                bytes: 8,
                latency_ps: 100,
            },
            task: None,
            object: Some(ObjectId(0)),
        };
        let events = vec![
            span(10, 0, Component::App, 10),
            span(40, 0, Component::App, 20),
            fetch,
        ];
        let m = Metrics::from_events(&events, 1);
        assert_eq!(m.overlap_ps, 30);
    }

    #[test]
    fn overlap_search_agrees_with_brute_force_in_any_flight_order() {
        // 200 unit-gapped App spans on one processor and seeded flights in
        // ascending, descending and scattered order, short and long: the
        // hinted search, its window overrun and the binary-search fallback
        // must all land on the span a scan of every span finds.
        let spans: Vec<(u64, u64)> = (0..200).map(|i| (i * 10, i * 10 + 7)).collect();
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut flights: Vec<(u64, u64)> = (0..300)
            .map(|i| {
                let lo = match i / 100 {
                    0 => i * 19,
                    1 => (200 - i) * 19,
                    _ => next() % 2000,
                };
                (lo, lo + 1 + next() % [5, 40, 900][i as usize % 3])
            })
            .collect();
        flights.push((5000, 5001));
        flights.push((0, 1));
        let mut events: Vec<Event> = spans
            .iter()
            .map(|&(s, e)| span(s, 0, Component::App, e - s))
            .collect();
        let mut want = 0;
        for &(lo, hi) in &flights {
            events.push(Event {
                time_ps: hi,
                proc: 0,
                kind: EventKind::ObjectFetch {
                    bytes: 8,
                    latency_ps: hi - lo,
                },
                task: None,
                object: Some(ObjectId(0)),
            });
            want += spans
                .iter()
                .map(|&(s, e)| e.min(hi).saturating_sub(s.max(lo)))
                .sum::<u64>();
        }
        assert_eq!(Metrics::from_events(&events, 1).overlap_ps, want);
    }

    #[test]
    fn mean_parallel_phase_ignores_unstarted_phases() {
        let events = vec![
            Event {
                time_ps: 10,
                proc: 0,
                kind: EventKind::PhaseStart { phase: 1 },
                task: None,
                object: None,
            },
            Event {
                time_ps: 50,
                proc: 0,
                kind: EventKind::PhaseEnd { phase: 1 },
                task: None,
                object: None,
            },
            // Phase 0 only ever ends (serial-only): excluded from the mean.
            Event {
                time_ps: 9,
                proc: 0,
                kind: EventKind::PhaseEnd { phase: 0 },
                task: None,
                object: None,
            },
        ];
        let m = Metrics::from_events(&events, 1);
        assert_eq!(m.mean_parallel_phase_ps(), 40.0);
    }
}
