//! The iPSC/860 machine simulation: replays a Jade program trace under the
//! message-passing runtime algorithms of paper Sections 3.3–3.4.
//!
//! The main thread, the task lifecycle and the deadline gate are the one
//! simulator driver's ([`dsim::driver`]; DESIGN.md §4, "One simulator
//! driver"); this module is the iPSC's hooks into it: the central
//! scheduler, the assignment and completion messages, the fetch pipeline,
//! and the fault and recovery machinery.
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
//!
//! # Fault tolerance
//!
//! The *data plane* — object request/reply traffic, broadcast copies and
//! eager pushes — runs over an unreliable network when a
//! [`FaultPlan`] is configured: messages can be dropped,
//! duplicated, delayed or reordered, processors can stall transiently, and
//! one non-main processor can fail-stop. The runtime survives via
//!
//! * an **ack/timeout/retry** protocol on fetches: every request arms a
//!   timer with exponential backoff; if the reply has not arrived when the
//!   timer fires, the request is re-sent (`MsgRetried`);
//! * **version-checked idempotent delivery**: duplicated, stale or
//!   no-longer-wanted payloads are discarded (`MsgDiscarded`), never
//!   applied, so replays cannot corrupt object state;
//! * **re-dispatch on fail-stop**: tasks whose processor dies before their
//!   results were applied are rewound (`TaskReExecuted`) and pushed through
//!   the scheduler again; objects owned by the dead processor move to a
//!   live replica holder (or a recovery copy at main). Re-materializing a
//!   sole copy is *charged*: main pays the recovery transfer through the
//!   machine cost model and the bytes are attributed (`ObjectRestored`);
//! * **checkpoint/restart**: with `ckpt=<secs>` in the plan the runtime
//!   periodically captures the synchronizer state, the communicator's
//!   ownership/replica tables, and the payloads of objects dirtied since
//!   the previous capture at the main processor (`CheckpointTaken`). A
//!   later fail-stop restores lost sole copies the checkpoint covers with
//!   a cheap local read from the checkpoint store (`CheckpointRestored`)
//!   instead of the full recovery transfer, and tasks committed at the
//!   checkpoint are never re-dispatched.
//!
//! Control messages (ASSIGN/NOTIFY) use a reliable transport, mirroring
//! NX/2's guaranteed delivery; the paper's runtime likewise assumes
//! reliable system messages. Because the synchronizer's queue-based
//! dependence analysis never lets a writer retire a version that an
//! in-flight reader still holds access to, a run under *any* fault plan
//! produces bit-identical application results (final object versions, task
//! completions) to the fault-free run — only timing and the retry counters
//! differ.

use crate::communicator::{CommSnapshot, Communicator};
use crate::costs::IpscCosts;
use crate::scheduler::{Decision, IpscScheduler};
use dsim::driver::{self, Core, Machine, Run, SimError};
use dsim::{FaultPlan, IpscSpec, ProcClock, ProcId, SimDuration, SimTime, TimeKind};
use jade_core::{
    Component, Event, EventKind, LocalityMode, ObjectId, Sink, SnapshotSize, TaskId, Trace,
};
use std::collections::VecDeque;

/// Retry budget per fetched object. With the fault-plan drop probabilities
/// the acceptance harness allows (≤ 0.2 per leg), the chance of exhausting
/// this is below 2⁻⁵⁰ per fetch; hitting it indicates a broken plan.
const MAX_FETCH_ATTEMPTS: u32 = 24;

/// Configuration of one iPSC/860 run.
#[derive(Clone, Debug)]
pub struct IpscConfig {
    pub machine: IpscSpec,
    pub costs: IpscCosts,
    pub mode: LocalityMode,
    /// Seconds of compute per abstract operation (per-application
    /// calibration; see EXPERIMENTS.md).
    pub sec_per_op: f64,
    /// Target number of in-flight tasks per processor. 1 = latency hiding
    /// off (the paper's default for most experiments); 2 = on.
    pub target_tasks: usize,
    /// The adaptive broadcast optimization (Section 3.4.2).
    pub adaptive_broadcast: bool,
    /// Fetch a task's remote objects concurrently (Section 3.4.1). With
    /// `false`, each request waits for the previous reply (ablation).
    pub concurrent_fetches: bool,
    /// Inspector/executor aggregation (DESIGN.md §15): before dispatching
    /// a task's fetches, inspect its declared access set and coalesce the
    /// objects owned by one processor into a single request/reply message
    /// pair — when the Section 5.3 break-even test says the saved
    /// per-message overhead exceeds the added per-object header bytes.
    /// Only effective together with `concurrent_fetches`.
    pub aggregate_fetches: bool,
    /// Work-free methodology (Figures 20/21).
    pub work_free: bool,
    /// Disable read replication in the synchronizer (Section 5.1 analysis).
    pub replication: bool,
    /// The eager update protocol the paper discusses in Section 6: push
    /// each new version of an object to the consumers of the previous
    /// version as soon as it is produced. Helps regular applications
    /// (Water, String), generates excess communication for irregular ones.
    pub eager_update: bool,
    /// Deterministic per-task duration jitter (fraction, mean zero); see
    /// `jade_dash::DashConfig::jitter_frac`.
    pub jitter_frac: f64,
    /// Per-processor relative speeds (1.0 = nominal). Jade also ran on
    /// heterogeneous collections of workstations (paper Section 1); the
    /// centralized load balancer adapts because fast processors simply
    /// report completions more often. `None` = homogeneous.
    pub speed_factors: Option<Vec<f64>>,
    /// Model the interconnect as a single shared medium (workstation
    /// Ethernet) instead of a hypercube: all object transfers serialize on
    /// one wire.
    pub shared_medium: bool,
    /// Split-phase prefetch (DESIGN.md §17): when a task is assigned to a
    /// remote processor, the main processor immediately issues the task's
    /// object requests on its behalf, so the replies stream toward the
    /// processor while the assignment message is still in flight and its
    /// predecessor tasks still run. Versioned delivery refetches any
    /// object written again before the task starts. Only effective
    /// together with `concurrent_fetches`; a no-op under `work_free`.
    pub prefetch: bool,
    /// Fault injection plan (default: no faults). An inactive plan takes
    /// zero injector draws, so fault-free runs are bit-identical to runs
    /// on a build without the fault layer.
    pub faults: FaultPlan,
    /// Virtual-time budget: when the main processor reaches this much
    /// virtual time with program steps still left, it stops creating tasks,
    /// the already-created ones drain, and the run reports
    /// [`IpscRunResult::deadline_exceeded`] with partial metrics — the
    /// simulator analogue of the thread service's per-tenant wall-clock
    /// deadline. `None` = run to completion.
    pub deadline: Option<SimDuration>,
    /// Replay a recorded schedule: every task is assigned to the processor
    /// that ran it in the recorded run, and each processor starts its tasks
    /// in the recorded order. Used by the overlap sweep to isolate the
    /// communication effect of [`IpscConfig::prefetch`] from list-scheduling
    /// timing anomalies: with placement and order held fixed, earlier data
    /// arrival can only move task starts earlier (DESIGN.md §17). Tasks the
    /// recorded run never started (e.g. past a deadline cut) fall back to
    /// the normal scheduler. `None` = schedule live.
    pub pinned: Option<PinnedSchedule>,
    /// Static adaptive-broadcast evidence margin: extra consecutive
    /// widely-accessed versions required (on top of the drop-probability
    /// floor) before an object flips to broadcast mode. The tune-sweep
    /// static grid varies this; [`IpscConfig::tune`] overrides it online.
    pub evidence_margin: u32,
    /// Online self-tuning (DESIGN.md §19): re-derive the adaptive-broadcast
    /// evidence margin from the communicator's wide/narrow retired-version
    /// counters after every write retirement, and re-derive the checkpoint
    /// interval at every capture from the measured virtual capture cost and
    /// the plan's failure horizon (Young's approximation). All inputs are
    /// deterministic virtual-time quantities, so tuned runs stay
    /// bit-identical across repeats.
    pub tune: bool,
}

/// A schedule recorded from a baseline run's event stream, for replay via
/// [`IpscConfig::pinned`].
#[derive(Clone, Debug, Default)]
pub struct PinnedSchedule {
    /// Per task: the processor that executed it (`None` if it never ran).
    pub assign: Vec<Option<ProcId>>,
    /// Per task: global start position in the recorded run (`u64::MAX` if
    /// it never ran). Each processor's queue replays its tasks in this
    /// order.
    pub rank: Vec<u64>,
}

impl PinnedSchedule {
    /// Extract the schedule from a traced run: the processor and global
    /// position of every `TaskStarted` event (first start wins if a fault
    /// plan re-executed a task).
    pub fn from_events(n_tasks: usize, events: &[Event]) -> PinnedSchedule {
        let mut assign = vec![None; n_tasks];
        let mut rank = vec![u64::MAX; n_tasks];
        let mut next = 0u64;
        for e in events {
            if matches!(e.kind, EventKind::TaskStarted) {
                if let Some(t) = e.task {
                    if rank[t.index()] == u64::MAX {
                        assign[t.index()] = Some(e.proc);
                        rank[t.index()] = next;
                        next += 1;
                    }
                }
            }
        }
        PinnedSchedule { assign, rank }
    }
}

impl IpscConfig {
    pub fn paper(procs: usize, mode: LocalityMode, sec_per_op: f64) -> IpscConfig {
        IpscConfig {
            machine: IpscSpec::paper(procs),
            costs: IpscCosts::default(),
            mode,
            sec_per_op,
            target_tasks: 1,
            adaptive_broadcast: true,
            concurrent_fetches: true,
            aggregate_fetches: false,
            work_free: false,
            replication: true,
            eager_update: false,
            jitter_frac: 0.08,
            speed_factors: None,
            shared_medium: false,
            prefetch: false,
            faults: FaultPlan::none(),
            deadline: None,
            pinned: None,
            evidence_margin: 0,
            tune: false,
        }
    }

    /// A network-of-workstations configuration: shared 10-Mbit-class medium,
    /// higher per-message latency, and the given relative machine speeds.
    pub fn workstations(speeds: Vec<f64>, sec_per_op: f64) -> IpscConfig {
        let mut c = IpscConfig::paper(speeds.len(), LocalityMode::Locality, sec_per_op);
        c.machine.link_bandwidth = 1.1e6; // ~10 Mbit/s Ethernet payload rate
        c.machine.message_latency_s = 1e-3; // UDP/IP stack latency
        c.speed_factors = Some(speeds);
        c.shared_medium = true;
        c
    }
}

/// Measurements from one iPSC/860 run.
#[derive(Clone, Debug)]
pub struct IpscRunResult {
    pub procs: usize,
    /// Wall-clock (virtual) execution time of the whole program.
    pub exec_time_s: f64,
    /// Total task execution time (pure computation; unlike DASH this
    /// includes no communication — Section 5.2.2).
    pub task_time_s: f64,
    /// Percentage of locality-tracked tasks assigned to their target
    /// processor (Figures 12–15).
    pub locality_pct: f64,
    pub locality_tracked: usize,
    pub tasks_executed: usize,
    /// Bytes of shared-object transfer messages (Figures 16–19 numerator).
    pub comm_bytes: u64,
    /// Communication-to-computation ratio: Mbytes / task seconds.
    pub comm_to_comp: f64,
    /// Sum over all object requests of (reply arrival − request sent).
    pub object_latency_s: f64,
    /// Sum over all tasks of (last object arrival − first request sent).
    pub task_latency_s: f64,
    /// Number of point-to-point object transfers.
    pub fetches: u64,
    /// Object-request messages sent (one per uncoalesced fetch, one per
    /// coalesced bundle).
    pub requests: u64,
    /// Coalesced fetch messages: replies that delivered ≥ 2 objects in one
    /// physical message (inspector/executor aggregation).
    pub agg_fetches: u64,
    /// Objects delivered inside coalesced messages.
    pub agg_objects: u64,
    /// Physical fetch-reply messages: `fetches - agg_objects + agg_fetches`.
    pub fetch_messages: u64,
    /// Number of broadcast operations.
    pub broadcasts: u64,
    /// Tasks that passed through the unassigned pool.
    pub pooled: u64,
    /// Management time summed over processors.
    pub mgmt_time_s: f64,
    /// Management + communication time on the main processor.
    pub main_busy_s: f64,
    /// Mean length of parallel phases (Section 5.3 analysis).
    pub mean_parallel_phase_s: f64,
    /// Per-processor busy time, split as (app, comm, mgmt) seconds.
    pub per_proc_busy: Vec<(f64, f64, f64)>,
    /// Data messages lost in transit (fault injection).
    pub msgs_dropped: u64,
    /// Fetch requests re-sent after an ack timeout.
    pub msgs_retried: u64,
    /// Duplicate/stale deliveries discarded by idempotent delivery.
    pub msgs_discarded: u64,
    /// Transient processor stalls injected.
    pub stalls: u64,
    /// Processors that fail-stopped during the run.
    pub workers_failed: u64,
    /// Tasks re-dispatched after a fail-stop.
    pub tasks_reexecuted: u64,
    /// Checkpoints captured (`FaultPlan::checkpoint` interval).
    pub checkpoints: u64,
    /// Total checkpoint payload: metadata tables, synchronizer state, and
    /// dirty object bytes shipped to the main processor.
    pub checkpoint_bytes: u64,
    /// Fail-stop sole-copy restores satisfied from the last checkpoint.
    pub checkpoint_restores: u64,
    /// Sole-copy objects re-materialized at main after a fail-stop.
    pub objects_restored: u64,
    /// Payload bytes of those restores (included in `comm_bytes`).
    pub restore_bytes: u64,
    /// Object requests issued early by the split-phase prefetch path
    /// ([`IpscConfig::prefetch`]).
    pub prefetches_issued: u64,
    /// Prefetched objects already resident when their task's assignment
    /// arrived.
    pub prefetch_hits: u64,
    /// Prefetched objects written again before task start and refetched
    /// through the normal path (versioned-delivery rule; only reachable
    /// under fault injection).
    pub prefetch_stale: u64,
    /// Fraction of total object-fetch latency hidden under application
    /// compute on the fetching processor (0 when nothing was fetched).
    pub overlap_frac: f64,
    /// Final version of every shared object — the application result as the
    /// communicator sees it. Two runs computed the same thing iff these
    /// (and `tasks_executed`) agree; fault-parity checks compare them.
    pub final_versions: Vec<u64>,
    /// The [`IpscConfig::deadline`] budget expired before the program
    /// finished: `tasks_executed` and all other metrics cover only the
    /// prefix that ran. Always `false` without a configured deadline.
    pub deadline_exceeded: bool,
    /// Knob decisions the controller took during the run. Empty unless
    /// [`IpscConfig::tune`] is set; deterministic, so two runs of the same
    /// configuration produce equal logs.
    pub tune: jade_core::TuneLog,
}

/// The iPSC's own calendar events (beside the driver's main step and task
/// finish). A request's or reply's list lives in [`Sim::requests`] or
/// [`Sim::replies`] and the event carries the record's slot, so every
/// variant is a few words and the calendar's heap moves small entries.
#[derive(Clone, Copy, Debug)]
enum Ev {
    AssignArrive {
        proc: ProcId,
        task: TaskId,
    },
    /// A request for [`Msg::list`], one object or a coalesced bundle. The
    /// owners are recomputed at arrival; an object whose owner moved rides
    /// that owner's own reply.
    Request {
        slot: u32,
    },
    /// One reply message delivering [`Msg::list`]. Costs a single
    /// receive-handler interrupt.
    Reply {
        slot: u32,
    },
    /// A pushed copy: a broadcast, or an eager producer-to-consumer push
    /// (update protocol, Section 6).
    PushArrive {
        proc: ProcId,
        obj: ObjectId,
        version: u64,
    },
    NotifyArrive {
        proc: ProcId,
        task: TaskId,
    },
    /// Ack timer for one fetch attempt: if the reply is still pending when
    /// this fires, the request is re-sent with exponential backoff.
    FetchTimeout {
        proc: ProcId,
        task: TaskId,
        obj: ObjectId,
        attempt: u32,
    },
    /// Injected fail-stop of a processor.
    ProcFail {
        proc: ProcId,
    },
    /// Periodic checkpoint capture (`FaultPlan::checkpoint`). Reschedules
    /// itself until the program completes.
    CheckpointTick,
}

/// One object of a task's fetch set.
#[derive(Clone, Copy, Debug)]
struct Fetch {
    obj: ObjectId,
    /// `Some(attempt)` while the object is being fetched. A reply is
    /// accepted only then; the attempt number gates stale ack timers.
    pending: Option<u32>,
    /// The split-phase prefetch requested it: its replies stream in
    /// asynchronously and count as prefetch hits.
    prefetched: bool,
}

#[derive(Clone, Debug, Default)]
struct TState {
    assigned_to: ProcId,
    /// The objects this task has requested, sorted by object id: whether
    /// one is pending or was prefetched is a binary search, and a delivery
    /// clears `pending` in place. An entry outlives its fetch — a duplicate
    /// reply landing after the task finished is still handled as the
    /// prefetched (or demand) reply it is.
    fetches: Vec<Fetch>,
    /// Entries of `fetches` that are pending.
    outstanding: usize,
    ready: bool,
    /// Remaining objects to request (serial-fetch mode only).
    fetch_queue: VecDeque<ObjectId>,
    /// Passed through `send_assignment` at least once (re-dispatch state).
    dispatched: bool,
    /// The task's body finished and its writes were applied; it must never
    /// be re-executed, even if its processor dies before the completion
    /// notification lands.
    finished_local: bool,
    /// The split-phase prefetch path already issued this task's fetches at
    /// assignment time; `on_assign_arrive` reconciles instead of issuing.
    prefetch_issued: bool,
}

impl TState {
    fn slot(&self, o: ObjectId) -> Result<usize, usize> {
        self.fetches.binary_search_by_key(&o, |f| f.obj)
    }

    fn fetch(&self, o: ObjectId) -> Option<&Fetch> {
        self.slot(o).ok().map(|i| &self.fetches[i])
    }

    fn was_prefetched(&self, o: ObjectId) -> bool {
        self.fetch(o).is_some_and(|f| f.prefetched)
    }

    /// Start over with `objs` as the fetch set, every one pending its first
    /// attempt.
    fn request_all(&mut self, objs: &[ObjectId], prefetched: bool) {
        self.fetches.clear();
        self.fetches.extend(objs.iter().map(|&obj| Fetch {
            obj,
            pending: Some(0),
            prefetched,
        }));
        self.fetches.sort_unstable_by_key(|f| f.obj);
        self.outstanding = objs.len();
    }

    /// Mark `o`, not currently pending, as pending its first attempt by the
    /// demand path.
    fn request(&mut self, o: ObjectId) {
        let fresh = Fetch {
            obj: o,
            pending: Some(0),
            prefetched: false,
        };
        match self.slot(o) {
            Ok(i) => self.fetches[i] = fresh,
            Err(i) => self.fetches.insert(i, fresh),
        }
        self.outstanding += 1;
    }

    fn forget_fetches(&mut self) {
        self.fetches.clear();
        self.outstanding = 0;
        self.fetch_queue.clear();
    }

    fn all_arrived(&self) -> bool {
        self.outstanding == 0 && self.fetch_queue.is_empty()
    }
}

/// How a data message shows in the event stream if the network loses it.
struct DataMsg {
    sender: ProcId,
    /// The loss is stamped with the send, not the would-be arrival.
    stamp: SimTime,
    bytes: usize,
    task: TaskId,
    /// A bundle is reported under its first object.
    obj: ObjectId,
}

/// One in-flight request (`T = ObjectId`) or reply (`T = (ObjectId,
/// version)`): what its calendar event would otherwise carry.
struct Msg<T> {
    /// A request's objects, or a reply's `(object, version)` payloads.
    list: Vec<T>,
    /// The request was coalesced, which sizes its replies: a coalesced
    /// message carries a per-object entry for each object, a lone one none.
    coalesced: bool,
    /// The fetching processor: a request's requester, a reply's receiver.
    proc: ProcId,
    task: TaskId,
    /// When the request was sent (a reply keeps its request's stamp).
    sent_at: SimTime,
}

/// The records of the requests, or of the replies, in flight. A freed slot
/// keeps its list's buffer for the next message, so fetches stop
/// allocating once the deepest backlog of messages has been seen.
struct MsgSlab<T> {
    recs: Vec<Msg<T>>,
    free: Vec<u32>,
}

impl<T: Copy> MsgSlab<T> {
    fn new() -> MsgSlab<T> {
        MsgSlab {
            recs: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A slot for a new message to `proc` with an empty list.
    fn alloc(&mut self, proc: ProcId, task: TaskId, sent_at: SimTime, coalesced: bool) -> u32 {
        let Some(slot) = self.free.pop() else {
            self.recs.push(Msg {
                list: Vec::new(),
                coalesced,
                proc,
                task,
                sent_at,
            });
            return (self.recs.len() - 1) as u32;
        };
        let m = &mut self.recs[slot as usize];
        m.list.clear();
        (m.coalesced, m.proc, m.task, m.sent_at) = (coalesced, proc, task, sent_at);
        slot
    }

    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// A second record for a duplicated message.
    fn duplicate(&mut self, slot: u32) -> u32 {
        let Msg {
            coalesced,
            proc,
            task,
            sent_at,
            ..
        } = self[slot];
        let copy = self.alloc(proc, task, sent_at, coalesced);
        let list = std::mem::take(&mut self[slot].list);
        self[copy].list.extend_from_slice(&list);
        self[slot].list = list;
        copy
    }

    fn live(&self) -> usize {
        self.recs.len() - self.free.len()
    }
}

impl<T> std::ops::Index<u32> for MsgSlab<T> {
    type Output = Msg<T>;
    fn index(&self, slot: u32) -> &Msg<T> {
        &self.recs[slot as usize]
    }
}

impl<T> std::ops::IndexMut<u32> for MsgSlab<T> {
    fn index_mut(&mut self, slot: u32) -> &mut Msg<T> {
        &mut self.recs[slot as usize]
    }
}

/// Hops between two nodes, as [`IpscSpec::message_time`] counts them: the
/// Hamming distance of the labels (0 from a node to itself).
#[inline]
fn hops(a: ProcId, b: ProcId) -> usize {
    (a ^ b).count_ones() as usize
}

/// [`IpscSpec::message_time`] of `bytes` over `hops` hops, by the same
/// expression, or `None` where that would overflow virtual time.
fn price(m: &IpscSpec, bytes: usize, hops: usize) -> Option<SimDuration> {
    SimDuration::try_from_secs_f64(
        m.message_latency_s + m.per_hop_s * hops as f64 + bytes as f64 / m.link_bandwidth,
    )
}

/// The durations of [`IpscCosts`] in picoseconds (the creation cost is the
/// driver's), and the wire time of every fixed-size message, converted once
/// per run.
struct Costs {
    sched: SimDuration,
    recv_handler: SimDuration,
    request_send: SimDuration,
    object_recv: SimDuration,
    complete: SimDuration,
    notify_handler: SimDuration,
    /// Hop counts a message can travel: `0..=dimension`.
    hop_counts: usize,
    /// Assignment, notification and lone-request message times, by hop
    /// count.
    assign: Vec<SimDuration>,
    notify: Vec<SimDuration>,
    request: Vec<SimDuration>,
    /// `object[o * hop_counts + h]`: a message carrying object `o` alone
    /// (a lone reply, an eager push, a checkpoint payload) over `h` hops.
    object: Vec<SimDuration>,
}

impl Costs {
    /// Convert `cfg`'s costs and price its fixed-size messages, naming the
    /// first field that is negative, non-finite or too large to represent.
    fn of(cfg: &IpscConfig, trace: &Trace) -> Result<Costs, SimError> {
        let c = &cfg.costs;
        let m = &cfg.machine;
        let time = driver::cost;
        let hop_counts = m.dimension() as usize + 1;
        let too_big = |what: String| {
            SimError::InvalidMachine(format!(
                "{what} is too large to send in representable virtual time"
            ))
        };
        let by_hops = |name: &str, bytes: usize| {
            (0..hop_counts)
                .map(|h| price(m, bytes, h))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| too_big(format!("{name} = {bytes}")))
        };
        let mut object = Vec::with_capacity(trace.objects.len() * hop_counts);
        for ob in &trace.objects {
            for h in 0..hop_counts {
                object.push(price(m, ob.size_bytes, h).ok_or_else(|| {
                    too_big(format!("object {} of {} bytes", ob.name, ob.size_bytes))
                })?);
            }
        }
        Ok(Costs {
            sched: time("sched_s", c.sched_s)?,
            recv_handler: time("recv_handler_s", c.recv_handler_s)?,
            request_send: time("request_send_s", c.request_send_s)?,
            object_recv: time("object_recv_s", c.object_recv_s)?,
            complete: time("complete_s", c.complete_s)?,
            notify_handler: time("notify_handler_s", c.notify_handler_s)?,
            hop_counts,
            assign: by_hops("assign_bytes", c.assign_bytes)?,
            notify: by_hops("notify_bytes", c.notify_bytes)?,
            request: by_hops("request_bytes", c.request_bytes)?,
            object,
        })
    }

    /// Wire time of object `o` alone over `h` hops.
    fn object(&self, o: ObjectId, h: usize) -> SimDuration {
        self.object[o.index() * self.hop_counts + h]
    }
}

struct Sim<'a, R: Sink> {
    core: Core<'a, Ev, R>,
    cfg: &'a IpscConfig,
    costs: Costs,
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
    /// Shared-medium wire occupancy (workstation configurations): index 0
    /// of a one-entry clock; `None` on switched networks. The wire is a
    /// pseudo-processor and gets no event spans.
    wire: Option<ProcClock>,
    /// Phases whose `PhaseStart` has been emitted.
    phase_started: Vec<bool>,
    /// Message faults are possible, so fetches arm ack timers. False for
    /// fail-stop-only or stall-only plans: no timer events, no retries.
    lossy: bool,
    /// Fail-stopped processors.
    dead: Vec<bool>,
    /// Replay support ([`IpscConfig::pinned`]): each processor's recorded
    /// task sequence in start order, and a cursor into it. A processor only
    /// starts the task its cursor points at, so execution order matches the
    /// recording even when assignment *arrivals* land in a different order.
    pin_seq: Vec<Vec<TaskId>>,
    pin_cursor: Vec<usize>,
    /// Per-processor monotone floor for interrupt-handler completion
    /// stamps ([`Sim::handler_op`]).
    hstamp: Vec<SimTime>,
    // Native fault tallies, cross-checked against the event stream.
    n_dropped: u64,
    n_retried: u64,
    n_discarded: u64,
    n_reexec: u64,
    n_checkpoints: u64,
    n_ckpt_bytes: u64,
    n_ckpt_restores: u64,
    n_restore_bytes: u64,
    n_prefetch_issued: u64,
    n_prefetch_hits: u64,
    n_prefetch_stale: u64,
    /// The communicator tables of the latest checkpoint; fail-stop
    /// recovery consults them. The payload store at main is cumulative
    /// across checkpoints, so coverage is judged against the latest
    /// capture's version vector alone.
    last_ckpt: Option<CommSnapshot>,
    /// The size of the synchronizer state a checkpoint captures, kept from
    /// counters: tasks are registered in it at each capture, and retired
    /// as they complete.
    sync_size: SnapshotSize,
    /// Feedback controller ([`IpscConfig::tune`]); its log is surfaced in
    /// [`IpscRunResult::tune`].
    ctl: jade_core::Controller,
    // Scratch the per-task paths reuse instead of building a `Vec` each.
    /// The objects a task must fetch, in declaration order.
    needed: Vec<ObjectId>,
    /// A fetch set grouped by owner ([`Sim::group_by_owner`]): the first
    /// `n` entries are live, the rest keep their buffers for next time.
    groups: Vec<(ProcId, Vec<ObjectId>)>,
    /// Per processor: its index in `groups` while grouping, else `NO_GROUP`.
    group_of: Vec<usize>,
    /// The eager-update targets of one write: the retiring version's
    /// consumers.
    eager: Vec<ProcId>,
    /// The requests and the replies in flight.
    requests: MsgSlab<ObjectId>,
    replies: MsgSlab<(ObjectId, u64)>,
}

const NO_GROUP: usize = usize::MAX;

/// Reject machine parameters and fail-stop targets that would poison
/// virtual-time arithmetic or the scheduler deep in the event loop
/// (division by a non-positive bandwidth, a negative latency, a processor
/// that cannot die): every value here is reachable from user
/// configuration, so each failure is a typed error, not a panic.
fn validate_machine(cfg: &IpscConfig) -> Result<(), SimError> {
    let bad = |why: String| Err(SimError::InvalidMachine(why));
    let m = &cfg.machine;
    if !(m.link_bandwidth.is_finite() && m.link_bandwidth > 0.0) {
        return bad(format!(
            "link bandwidth must be finite and positive, got {}",
            m.link_bandwidth
        ));
    }
    for (name, v) in [
        ("message latency", m.message_latency_s),
        ("per-hop latency", m.per_hop_s),
    ] {
        if !(v.is_finite() && (0.0..=3_600.0).contains(&v)) {
            return bad(format!("{name} must be in [0, 3600] seconds, got {v}"));
        }
    }
    if cfg.target_tasks == 0 {
        return bad("target tasks per processor must be at least 1".into());
    }
    if let Some(speeds) = &cfg.speed_factors {
        if speeds.is_empty() {
            return bad("speed factor list is empty".into());
        }
        for (i, &s) in speeds.iter().enumerate() {
            if !(s.is_finite() && s > 0.0) {
                return bad(format!(
                    "speed factor for processor {i} must be finite and positive, got {s}"
                ));
            }
        }
    }
    if let Some(fp) = cfg.faults.fail_proc {
        if fp == jade_core::MAIN_PROC {
            return Err(SimError::InvalidFaultPlan(
                "the main processor cannot fail-stop (it holds the scheduler \
                 and the recovery copies)"
                    .into(),
            ));
        }
        if fp >= m.procs {
            return Err(SimError::InvalidFaultPlan(format!(
                "fail-stop processor {fp} out of range (machine has {})",
                m.procs
            )));
        }
    }
    Ok(())
}

dsim::entry_points!(IpscConfig => IpscRunResult, Sim::new);

impl<'a, R: Sink> Sim<'a, R> {
    fn new(core: Core<'a, Ev, R>, cfg: &'a IpscConfig) -> Result<Self, SimError> {
        validate_machine(cfg)?;
        let trace = core.trace;
        let costs = Costs::of(cfg, trace)?;
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
                    per[p.min(procs - 1)].push(trace.tasks[i].id);
                }
            }
            per
        } else {
            Vec::new()
        };
        let mut sim = Sim {
            core,
            cfg,
            costs,
            sched: IpscScheduler::new(procs, cfg.target_tasks, cfg.mode.uses_locality()),
            comm: Communicator::new(trace, procs, cfg.adaptive_broadcast, plan.drop_p),
            tstate: vec![TState::default(); trace.tasks.len()],
            queues: vec![VecDeque::new(); procs],
            debt_comm: vec![SimDuration::ZERO; procs],
            debt_mgmt: vec![SimDuration::ZERO; procs],
            wire: cfg.shared_medium.then(|| ProcClock::new(1)),
            phase_started: vec![false; trace.phases.max(1) as usize],
            lossy: plan.drop_p > 0.0
                || plan.dup_p > 0.0
                || plan.delay_p > 0.0
                || plan.reorder_p > 0.0,
            dead: vec![false; procs],
            pin_seq,
            pin_cursor: vec![0; procs],
            hstamp: vec![SimTime::ZERO; procs],
            n_dropped: 0,
            n_retried: 0,
            n_discarded: 0,
            n_reexec: 0,
            n_checkpoints: 0,
            n_ckpt_bytes: 0,
            n_ckpt_restores: 0,
            n_restore_bytes: 0,
            n_prefetch_issued: 0,
            n_prefetch_hits: 0,
            n_prefetch_stale: 0,
            last_ckpt: None,
            sync_size: SnapshotSize::default(),
            ctl: jade_core::Controller::new(),
            needed: Vec::new(),
            groups: Vec::new(),
            group_of: vec![NO_GROUP; procs],
            eager: Vec::new(),
            requests: MsgSlab::new(),
            replies: MsgSlab::new(),
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

    /// Wire time of a message whose size varies (a coalesced bundle, a
    /// checkpoint's replica table); every other message's time is looked
    /// up in [`Costs`].
    fn msg(&self, bytes: usize, src: ProcId, dst: ProcId) -> SimDuration {
        price(&self.cfg.machine, bytes, hops(src, dst)).expect("virtual time overflow")
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

    /// Target processor of a task: the current owner of its locality object.
    fn target_of(&self, id: TaskId) -> ProcId {
        self.core.trace.tasks[id.index()]
            .spec
            .locality_object()
            .map_or(jade_core::MAIN_PROC, |o| self.comm.owner(o))
    }

    fn send_assignment(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        // Locality is judged at assignment, against the owner of the
        // locality object at this moment (ownership is dynamic).
        let target = self.target_of(id);
        self.core.dispatched(t, p, id, target, false);
        self.tstate[id.index()].assigned_to = p;
        self.tstate[id.index()].dispatched = true;
        if p == 0 {
            self.core
                .schedule(t, Ev::AssignArrive { proc: 0, task: id });
        } else {
            if self.cfg.prefetch && self.cfg.concurrent_fetches && !self.cfg.work_free {
                // Split-phase prefetch (DESIGN.md §17): main issues the
                // task's fetches on `p`'s behalf before the assignment
                // message itself leaves.
                self.issue_fetches(0, p, id, t);
            }
            let dur = self.costs.assign[hops(0, p)];
            self.core.events.emit_task(
                t.0,
                0,
                EventKind::MsgSend {
                    bytes: self.cfg.costs.assign_bytes as u64,
                },
                id,
            );
            let send_end = self.handler_op(0, t, dur, TimeKind::Comm);
            self.core
                .schedule(send_end, Ev::AssignArrive { proc: p, task: id });
        }
    }

    fn on_assign_arrive(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        // "The interrupt handler that received the message containing the
        // task immediately sends out messages requesting the remote objects"
        if p != 0 {
            self.core.events.emit_task(
                t.0,
                p,
                EventKind::MsgRecv {
                    bytes: self.cfg.costs.assign_bytes as u64,
                },
                id,
            );
        }
        let t1 = self.handler_op(p, t, self.costs.recv_handler, TimeKind::Mgmt);
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
        if self.tstate[id.index()].prefetch_issued {
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
    /// under fault injection — the synchronizer serializes writers against
    /// enabled readers) is refetched through the normal path.
    fn reconcile_prefetch(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        let trace = self.core.trace;
        let mut t_cur = t;
        for d in trace.tasks[id.index()].spec.decls() {
            let o = d.object;
            let fetch = self.tstate[id.index()].fetch(o);
            if fetch.is_some_and(|f| f.pending.is_some()) {
                continue; // prefetch reply still in flight toward `p`
            }
            let was_prefetched = fetch.is_some_and(|f| f.prefetched);
            if self.comm.needs_fetch(p, o) {
                if was_prefetched {
                    self.n_prefetch_stale += 1;
                    self.core.events.emit_obj(
                        t_cur.0,
                        p,
                        EventKind::PrefetchStale {
                            bytes: trace.object_size(o) as u64,
                        },
                        Some(id),
                        o,
                    );
                }
                // The refetch is an ordinary fetch, not a prefetch hit.
                self.tstate[id.index()].request(o);
                t_cur = self.send_request(p, p, id, &[o], 0, t_cur);
            } else {
                // Locally satisfied — either the prefetch landed (its hit
                // was counted at delivery) or no fetch was ever needed;
                // both consume the version (feeds the adaptive-broadcast
                // trigger, like a demand fetch).
                self.comm.note_access(p, o);
            }
        }
        let ts = &mut self.tstate[id.index()];
        if ts.all_arrived() {
            ts.ready = true;
        }
    }

    /// Plan and issue `id`'s fetches to `p`. The plan lists the declared
    /// objects `p` does not hold at their current version, in declaration
    /// order; [`Sim::send_requests`] coalesces and sends them.
    ///
    /// A demand fetch runs when the assignment arrives, with `p` as the
    /// issuer. A split-phase prefetch (DESIGN.md §17) is the same fetch
    /// issued early: at assignment, with main as the issuer. Its replies,
    /// ack timers and retries still belong to `p`, so a lost prefetch
    /// degrades to the per-object retry path, and
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
            self.tstate[id.index()].prefetch_issued = true;
            for &o in &needed {
                self.n_prefetch_issued += 1;
                self.core.events.emit_obj(
                    t.0,
                    0,
                    EventKind::PrefetchIssued {
                        bytes: trace.object_size(o) as u64,
                    },
                    Some(id),
                    o,
                );
            }
        }
        if needed.is_empty() && !prefetch {
            self.tstate[id.index()].ready = true;
        } else if self.cfg.concurrent_fetches {
            self.tstate[id.index()].request_all(&needed, prefetch);
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
    /// aggregation on this is the inspector/executor pass: the objects of
    /// one owner form one bundle where the break-even holds. Otherwise each
    /// object is a bundle of its own.
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
                t_cur = self.send_request(issuer, p, id, bundle, 0, t_cur);
            }
            return;
        }
        let n = self.group_by_owner(needed);
        let groups = std::mem::take(&mut self.groups);
        for (_, group) in &groups[..n] {
            let coalesce = group.len() >= 2 && self.aggregation_pays(group.len());
            for bundle in group.chunks(if coalesce { group.len() } else { 1 }) {
                t_cur = self.send_request(issuer, p, id, bundle, 0, t_cur);
            }
        }
        self.groups = groups;
    }

    /// Inspector pass of the aggregation optimization (DESIGN.md §15):
    /// group `objs` by each object's *current* owner into the first `n`
    /// entries of `self.groups` and return `n`, preserving the given order
    /// inside every group and first-appearance order across groups
    /// (deterministic — no hashing). The executor then coalesces each group
    /// that passes the Section 5.3 break-even test into one request/reply
    /// message pair; a request handler regroups what it received the same
    /// way.
    fn group_by_owner(&mut self, objs: &[ObjectId]) -> usize {
        let mut n = 0;
        for &o in objs {
            let owner = self.comm.owner(o);
            if self.group_of[owner] == NO_GROUP {
                self.group_of[owner] = n;
                match self.groups.get_mut(n) {
                    Some(group) => {
                        group.0 = owner;
                        group.1.clear();
                    }
                    None => self.groups.push((owner, Vec::new())),
                }
                n += 1;
            }
            self.groups[self.group_of[owner]].1.push(o);
        }
        for (owner, _) in &self.groups[..n] {
            self.group_of[*owner] = NO_GROUP;
        }
        n
    }

    /// Section 5.3 break-even for coalescing `k` fetches from one owner
    /// into a single request/reply pair. A message's fixed cost is its
    /// wire latency both ways plus the sender/receiver software handlers;
    /// coalescing saves `k - 1` of those and pays for `2k` per-object
    /// header entries (request list + reply directory) at the link
    /// bandwidth. Aggregate only when the savings win.
    fn aggregation_pays(&self, k: usize) -> bool {
        let m = &self.cfg.machine;
        let c = &self.cfg.costs;
        let per_msg =
            2.0 * (m.message_latency_s + m.per_hop_s) + c.request_send_s + c.object_recv_s;
        let saved = (k as f64 - 1.0) * per_msg;
        let extra = 2.0 * k as f64 * c.agg_entry_bytes as f64 / m.link_bandwidth;
        saved > extra
    }

    /// The size rule: a coalesced request or reply carries a per-object
    /// header entry for each of its `n` objects, a lone one none.
    fn entry_bytes(&self, coalesced: bool, n: usize) -> usize {
        if coalesced {
            n * self.cfg.costs.agg_entry_bytes
        } else {
            0
        }
    }

    fn send_next_fetch(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        let Some(o) = self.tstate[id.index()].fetch_queue.pop_front() else {
            return;
        };
        self.tstate[id.index()].request(o);
        self.send_request(p, p, id, &[o], 0, t);
    }

    /// Put one data message on the unreliable network: draw its fate,
    /// report a loss at the sender, and schedule one calendar event per
    /// delivered copy, `arrives` being the fault-free arrival. The last copy
    /// takes `ev` itself: a duplicate gets its own copy of the message
    /// record, and a lost message frees its record.
    fn transmit(&mut self, msg: DataMsg, arrives: SimTime, ev: Ev) {
        let fate = self.core.inj.message_fate();
        if fate.dropped() {
            self.n_dropped += 1;
            self.core.events.emit_obj(
                msg.stamp.0,
                msg.sender,
                EventKind::MsgDropped {
                    bytes: msg.bytes as u64,
                },
                Some(msg.task),
                msg.obj,
            );
            match ev {
                Ev::Request { slot } => self.requests.release(slot),
                Ev::Reply { slot } => self.replies.release(slot),
                _ => {}
            }
        }
        let last = fate.copies.len().saturating_sub(1);
        for (i, extra) in fate.copies.enumerate() {
            let copy = match ev {
                Ev::Request { slot } if i < last => Ev::Request {
                    slot: self.requests.duplicate(slot),
                },
                Ev::Reply { slot } if i < last => Ev::Reply {
                    slot: self.replies.duplicate(slot),
                },
                _ => ev,
            };
            self.core.schedule(arrives + extra, copy);
        }
    }

    /// When message faults are possible, arm the ack timer for `attempt`
    /// of `p`'s fetch of `o`, sent at `sent`.
    fn arm_ack_timer(
        &mut self,
        p: ProcId,
        id: TaskId,
        o: ObjectId,
        owner: ProcId,
        attempt: u32,
        sent: SimTime,
    ) {
        if self.lossy {
            let timeout = self.retry_timeout(o, p, owner, attempt);
            self.core.schedule_timer(
                sent + timeout,
                Ev::FetchTimeout {
                    proc: p,
                    task: id,
                    obj: o,
                    attempt,
                },
            );
        }
    }

    /// Send (or re-send) one request for `objs`, all owned by one processor:
    /// a lone object, or a coalesced bundle of two or more. The request
    /// shares one message fate; when message faults are possible each
    /// object arms its own ack timer for `attempt`, so a lost bundle
    /// degrades to the per-object fetch/retry path. Returns the time the
    /// request send completed on `issuer`.
    ///
    /// `issuer` pays the request-send handler time and the request's wire
    /// leg; the reply, ack timers and any retries are bound to `p` (the
    /// fetching processor). The two differ only on the split-phase
    /// prefetch path, where the main processor issues on `p`'s behalf.
    fn send_request(
        &mut self,
        issuer: ProcId,
        p: ProcId,
        id: TaskId,
        objs: &[ObjectId],
        attempt: u32,
        t: SimTime,
    ) -> SimTime {
        let owner = self.comm.owner(objs[0]);
        let coalesced = objs.len() >= 2;
        let sent = if issuer == owner {
            // Prefetch of objects the issuer already owns (main-resident
            // data): there is no request message to compose or lose — the
            // owner starts streaming the reply directly.
            let slot = self.requests.alloc(p, id, t, coalesced);
            self.requests[slot].list.extend_from_slice(objs);
            self.core.schedule(t, Ev::Request { slot });
            t
        } else {
            // Issuing on behalf of another processor happens inside the
            // dispatch handler main is already paying for (split-phase
            // prefetch): the request packet joins the outgoing transfer, so
            // no separate send-handler occupancy — the owner and requester
            // still pay their full receive-side costs.
            let sent = if issuer == p {
                self.handler_op(issuer, t, self.costs.request_send, TimeKind::Comm)
            } else {
                t
            };
            let bytes = self.cfg.costs.request_bytes + self.entry_bytes(coalesced, objs.len());
            self.core.events.emit_obj(
                sent.0,
                issuer,
                EventKind::ObjectRequest {
                    bytes: bytes as u64,
                },
                Some(id),
                objs[0],
            );
            let request = DataMsg {
                sender: issuer,
                stamp: sent,
                bytes,
                task: id,
                obj: objs[0],
            };
            let wire = if coalesced {
                self.msg(bytes, issuer, owner)
            } else {
                self.costs.request[hops(issuer, owner)]
            };
            let slot = self.requests.alloc(p, id, sent, coalesced);
            self.requests[slot].list.extend_from_slice(objs);
            self.transmit(request, sent + wire, Ev::Request { slot });
            sent
        };
        for &o in objs {
            self.arm_ack_timer(p, id, o, owner, attempt, sent);
        }
        sent
    }

    /// A request arrived. Owners are recomputed per object (a fail-stop
    /// while the request was in flight moves recovery copies); each current
    /// owner answers with one reply, sized by the request's size rule even
    /// when regrouping leaves it a single object.
    fn on_request(&mut self, slot: u32, t: SimTime) {
        let Msg {
            coalesced,
            proc: requester,
            task,
            sent_at,
            ..
        } = self.requests[slot];
        let objs = std::mem::take(&mut self.requests[slot].list);
        let n = self.group_by_owner(&objs);
        self.requests[slot].list = objs;
        self.requests.release(slot);
        let groups = std::mem::take(&mut self.groups);
        for (owner, group) in &groups[..n] {
            let owner = *owner;
            let reply = self.replies.alloc(requester, task, sent_at, coalesced);
            let mut bytes = self.entry_bytes(coalesced, group.len());
            for &o in group {
                self.comm.record_request(requester, o);
                bytes += self.core.trace.object_size(o);
                let v = self.comm.version(o);
                self.replies[reply].list.push((o, v));
            }
            // The owner's processor is occupied for the full reply send:
            // object distribution delays the owner's computation (Section
            // 5.3). The exception is a split-phase prefetch reply, which the
            // message system streams asynchronously — the wire and byte
            // counters see the traffic, but no processor stalls for it
            // (DESIGN.md §17).
            let ts = &self.tstate[task.index()];
            let prefetch = group.iter().any(|&o| ts.was_prefetched(o));
            let dur = if coalesced {
                self.msg(bytes, owner, requester)
            } else {
                self.costs.object(group[0], hops(owner, requester))
            };
            let mut send_end = if prefetch {
                t + dur
            } else {
                self.handler_op(owner, t, dur, TimeKind::Comm)
            };
            if let Some(wire) = &mut self.wire {
                // Workstation Ethernet: one transfer on the medium at a time.
                send_end = wire.occupy(0, t, dur, TimeKind::Comm).max(send_end);
            }
            let msg = DataMsg {
                sender: owner,
                stamp: send_end,
                bytes,
                task,
                obj: group[0],
            };
            self.transmit(msg, send_end, Ev::Reply { slot: reply });
        }
        self.groups = groups;
    }

    /// A reply arrived: one receive-handler interrupt, then each object
    /// delivers individually through the version-checked idempotent path —
    /// stale or unwanted entries are discarded (their ack timers re-fetch
    /// them singly). A reply that delivers two or more objects was one
    /// coalesced message and says so (`AggregatedFetch`).
    fn on_reply(&mut self, slot: u32, t: SimTime) {
        let Msg {
            proc: p,
            task,
            sent_at: requested_at,
            ..
        } = self.replies[slot];
        if self.dead[p] {
            self.replies.release(slot);
            return;
        }
        let items = std::mem::take(&mut self.replies[slot].list);
        // Receiving costs handler time whether or not the payload is kept:
        // a duplicate still interrupts the processor. A prefetched reply
        // instead lands by asynchronous transfer — no interrupt, the data
        // is simply resident when the assignment reconciles (DESIGN.md §17).
        let ts = &self.tstate[task.index()];
        let prefetch = items.iter().any(|&(o, _)| ts.was_prefetched(o));
        let t1 = if prefetch {
            t
        } else {
            self.handler_op(p, t, self.costs.object_recv, TimeKind::Comm)
        };
        let mut delivered = 0u32;
        let mut delivered_bytes = 0u64;
        let mut first_obj = None;
        for &(obj, version) in &items {
            if self.accept_reply(p, obj, version, task, requested_at, t) {
                delivered += 1;
                delivered_bytes += self.core.trace.object_size(obj) as u64;
                first_obj.get_or_insert(obj);
            }
        }
        self.replies[slot].list = items;
        self.replies.release(slot);
        if delivered >= 2 {
            self.core.events.emit_obj(
                t.0,
                p,
                EventKind::AggregatedFetch {
                    objects: delivered,
                    bytes: delivered_bytes,
                },
                Some(task),
                first_obj.expect("delivered implies an object"),
            );
        }
        if delivered > 0 {
            let ts = &mut self.tstate[task.index()];
            if ts.all_arrived() {
                ts.ready = true;
                self.fill(p, t1);
            } else if !self.cfg.concurrent_fetches {
                self.send_next_fetch(p, task, t1);
            }
        }
    }

    /// Version-checked idempotent delivery of one object of a reply to
    /// task `task` on `p`. A duplicate of an
    /// already-satisfied fetch, a reply overtaken by a re-dispatch, or a
    /// stale version is discarded (`false`), never applied.
    fn accept_reply(
        &mut self,
        p: ProcId,
        obj: ObjectId,
        version: u64,
        task: TaskId,
        requested_at: SimTime,
        t: SimTime,
    ) -> bool {
        let bytes = self.core.trace.object_size(obj) as u64;
        let ts = &self.tstate[task.index()];
        let wanted = ts.slot(obj).ok().filter(|&i| {
            ts.assigned_to == p && !ts.finished_local && ts.fetches[i].pending.is_some()
        });
        let slot = match wanted {
            Some(slot) if self.comm.deliver(p, obj, version, bytes) => slot,
            _ => {
                self.n_discarded += 1;
                self.core.events.emit_obj(
                    t.0,
                    p,
                    EventKind::MsgDiscarded { bytes },
                    Some(task),
                    obj,
                );
                return false;
            }
        };
        self.core.events.emit_obj(
            t.0,
            p,
            EventKind::ObjectFetch {
                bytes,
                latency_ps: t.since(requested_at).0,
            },
            Some(task),
            obj,
        );
        let ts = &mut self.tstate[task.index()];
        ts.fetches[slot].pending = None;
        ts.outstanding -= 1;
        if ts.fetches[slot].prefetched {
            // The fetch this reply satisfies was initiated by the
            // split-phase prefetch: the early issue paid off.
            self.n_prefetch_hits += 1;
            self.core
                .events
                .emit_obj(t.0, p, EventKind::PrefetchHit { bytes }, Some(task), obj);
        }
        true
    }

    /// Ack timeout for fetch `attempt`: a generous multiple of the
    /// request+reply round trip (so legitimate replies never race the
    /// timer under fault-plan latencies), doubling per attempt.
    fn retry_timeout(&self, o: ObjectId, p: ProcId, owner: ProcId, attempt: u32) -> SimDuration {
        let h = hops(p, owner);
        let rtt = self.costs.request[h] + self.costs.object(o, h);
        let slack = self.core.inj.plan().delay + self.core.inj.plan().reorder_window;
        (rtt.mul_u64(4) + slack.mul_u64(2)).mul_u64(1 << attempt.min(10))
    }

    fn on_fetch_timeout(&mut self, p: ProcId, id: TaskId, o: ObjectId, attempt: u32, t: SimTime) {
        if self.dead[p] {
            return;
        }
        let ts = &mut self.tstate[id.index()];
        // Stale timer: the reply arrived, the task moved processors after a
        // fail-stop, or a newer attempt is already in flight.
        if ts.assigned_to != p || ts.finished_local {
            return;
        }
        let Some(fetch) = ts.slot(o).ok().map(|i| &mut ts.fetches[i]) else {
            return;
        };
        if fetch.pending != Some(attempt) {
            return;
        }
        let next = attempt + 1;
        if next >= MAX_FETCH_ATTEMPTS {
            self.core.fatal = Some(SimError::RetriesExhausted {
                task: id,
                object: o,
                attempts: next,
            });
            return;
        }
        fetch.pending = Some(next);
        self.n_retried += 1;
        self.core.events.emit_obj(
            t.0,
            p,
            EventKind::MsgRetried {
                bytes: self.cfg.costs.request_bytes as u64,
            },
            Some(id),
            o,
        );
        self.send_request(p, p, id, &[o], next, t);
    }

    /// A pushed copy (broadcast or eager update) arrived at `p`.
    fn on_pushed_arrive(&mut self, p: ProcId, obj: ObjectId, version: u64, t: SimTime) {
        if self.dead[p] {
            return;
        }
        self.handler_op(p, t, self.costs.object_recv, TimeKind::Comm);
        if !self.comm.deliver_pushed(p, obj, version) {
            // Stale (a newer version exists) or duplicate (already held).
            self.n_discarded += 1;
            self.core.events.emit_obj(
                t.0,
                p,
                EventKind::MsgDiscarded {
                    bytes: self.core.trace.object_size(obj) as u64,
                },
                None,
                obj,
            );
        }
    }

    fn on_finish(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        // From here on the task's writes are applied to the shared-object
        // layer; it must never be re-executed, even if `p` dies before the
        // completion notification reaches the scheduler.
        self.tstate[id.index()].finished_local = true;
        let trace = self.core.trace;
        let rec = &trace.tasks[id.index()];
        let mut t_cur = self
            .core
            .occupy(p, t, self.costs.complete, TimeKind::Mgmt, Some(id));
        // New versions of written objects; broadcast when in broadcast mode.
        for o in rec.spec.written_objects() {
            // The eager update protocol pushes the new version to the
            // previous version's consumers (captured before the bump).
            let mut eager = std::mem::take(&mut self.eager);
            eager.clear();
            if self.cfg.eager_update && !self.cfg.work_free {
                eager.extend(self.comm.consumers(o));
            }
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
            if bcast && !self.cfg.work_free && self.core.pc.procs() == 1 {
                // Degenerate single-processor case (paper Section 5.3): the
                // lone processor always holds every version, so every update
                // triggers a broadcast operation whose local buffering cost
                // degrades performance. Modeled as a fraction of the wire
                // time plus the message latency.
                let bytes = self.core.trace.object_size(o);
                self.comm.record_broadcast(o, bytes, 0);
                self.core.events.emit_obj(
                    t_cur.0,
                    p,
                    EventKind::ObjectBroadcast {
                        bytes: bytes as u64,
                        receivers: 0,
                    },
                    Some(id),
                    o,
                );
                let dur = SimDuration::from_secs_f64(
                    self.cfg.machine.message_latency_s
                        + 0.2 * bytes as f64 / self.cfg.machine.link_bandwidth,
                );
                t_cur = self.core.occupy(p, t_cur, dur, TimeKind::Comm, None);
            }
            if bcast && !self.cfg.work_free && self.core.pc.procs() > 1 {
                let bytes = self.core.trace.object_size(o);
                // Dead processors are out of the tree; the root still pays
                // for every live receiver whether or not the network then
                // loses an individual copy.
                let receivers = (0..self.core.pc.procs())
                    .filter(|&q| q != p && !self.dead[q])
                    .count();
                self.comm.record_broadcast(o, bytes, receivers);
                self.core.events.emit_obj(
                    t_cur.0,
                    p,
                    EventKind::ObjectBroadcast {
                        bytes: bytes as u64,
                        receivers: receivers as u32,
                    },
                    Some(id),
                    o,
                );
                let root_busy = self.cfg.machine.broadcast_root_busy(bytes);
                let done = self.core.occupy(p, t_cur, root_busy, TimeKind::Comm, None);
                let arrival = t_cur + self.cfg.machine.broadcast_time(bytes);
                let version = self.comm.version(o);
                for q in 0..self.core.pc.procs() {
                    if q == p || self.dead[q] {
                        continue;
                    }
                    let copy = DataMsg {
                        sender: p,
                        stamp: t_cur,
                        bytes,
                        task: id,
                        obj: o,
                    };
                    self.transmit(
                        copy,
                        arrival.max(done),
                        Ev::PushArrive {
                            proc: q,
                            obj: o,
                            version,
                        },
                    );
                }
                t_cur = done;
            }
            if !bcast && !eager.is_empty() && self.core.pc.procs() > 1 {
                // Update protocol: push the new version to the previous
                // version's consumers, serializing on the producer's link.
                let bytes = self.core.trace.object_size(o);
                let version = self.comm.version(o);
                for &q in &eager {
                    if q == p {
                        continue;
                    }
                    self.comm.record_eager(o, bytes);
                    self.core.events.emit_obj(
                        t_cur.0,
                        p,
                        EventKind::EagerPush {
                            bytes: bytes as u64,
                        },
                        Some(id),
                        o,
                    );
                    let dur = self.costs.object(o, hops(p, q));
                    t_cur = self.core.occupy(p, t_cur, dur, TimeKind::Comm, None);
                    let push = DataMsg {
                        sender: p,
                        stamp: t_cur,
                        bytes,
                        task: id,
                        obj: o,
                    };
                    self.transmit(
                        push,
                        t_cur,
                        Ev::PushArrive {
                            proc: q,
                            obj: o,
                            version,
                        },
                    );
                }
            }
            self.eager = eager;
        }
        let phase_end = EventKind::PhaseEnd { phase: rec.phase };
        self.core.events.emit(t_cur.0, p, phase_end);
        self.core.executing[p] = None;
        if self.core.main_blocked == Some(id) {
            // Serial task: completion is processed locally, and main resumes
            // after the successors it enabled.
            self.sync_size.complete(&rec.spec);
            self.complete(id, p, t_cur);
            self.core.cal.schedule(t_cur, driver::Ev::MainStep);
            return;
        }
        // Completion notification to the main processor.
        if p == 0 {
            self.core
                .schedule(t_cur, Ev::NotifyArrive { proc: 0, task: id });
        } else {
            self.core.events.emit_task(
                t_cur.0,
                p,
                EventKind::MsgSend {
                    bytes: self.cfg.costs.notify_bytes as u64,
                },
                id,
            );
            let send_end = self.core.occupy(
                p,
                t_cur,
                self.costs.notify[hops(p, 0)],
                TimeKind::Comm,
                None,
            );
            self.core
                .schedule(send_end, Ev::NotifyArrive { proc: p, task: id });
        }
        self.fill(p, t_cur);
    }

    fn on_notify(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        if p != 0 {
            self.core.events.emit_task(
                t.0,
                0,
                EventKind::MsgRecv {
                    bytes: self.cfg.costs.notify_bytes as u64,
                },
                id,
            );
        }
        let end = self.handler_op(0, t, self.costs.notify_handler, TimeKind::Mgmt);
        // Completion processing removes the task from the load books first,
        // so successors enabled below see the freed processor.
        self.sched.finish(p);
        self.sync_size
            .complete(&self.core.trace.tasks[id.index()].spec);
        self.complete(id, p, end);
        let comm = &self.comm;
        let trace = self.core.trace;
        let pulled = self.sched.try_pull(p, |task| {
            trace.tasks[task.index()]
                .spec
                .locality_object()
                .map_or(jade_core::MAIN_PROC, |o| comm.owner(o))
        });
        if let Some(next) = pulled {
            self.send_assignment(p, next, end);
        }
    }

    /// Periodic checkpoint capture. Every live worker ships its slice of
    /// the replica table to the main processor, owners ship the payloads of
    /// objects dirtied since the previous capture (and not already held at
    /// main), and main serializes the synchronizer state into the
    /// checkpoint store, charged at its `JSNP` size ([`SnapshotSize`]). The
    /// captured *state* is atomic — the tables are snapshotted at the tick
    /// — but the capture *cost* lands on the processor timelines through
    /// the machine cost model like any other protocol work.
    fn on_checkpoint_tick(&mut self, t: SimTime) {
        if self.core.main_done && self.core.deps.all_complete() {
            return; // program over: end the tick chain
        }
        if self.core.past_deadline(t) {
            // Past the deadline no new work starts, so a deadline-cut run
            // would otherwise tick forever against never-completing tasks.
            return;
        }
        // Remaining failure horizon: virtual picoseconds until the plan's
        // pending fail-stop, `None` once it landed (or was never planned).
        let horizon = match self.cfg.faults.fail_proc {
            Some(fp) if !self.dead[fp] => {
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
        for rec in &trace.tasks[self.sync_size.task_count()..self.core.deps.task_count()] {
            self.sync_size.register(&rec.spec);
        }
        let sync_len = self.sync_size.encoded_len();
        let mut bytes = snap.table_bytes() + sync_len as u64;
        let nobjs = trace.objects.len();
        // Workers ship their replica-table slices: per object a held
        // version (8 bytes) and an accessed bit (1 byte).
        for p in 1..self.core.pc.procs() {
            if self.dead[p] {
                continue;
            }
            let dur = self.msg(nobjs * 9, p, 0);
            self.handler_op(p, t, dur, TimeKind::Comm);
            self.handler_op(0, t, self.costs.recv_handler, TimeKind::Mgmt);
        }
        // Owners ship payloads of objects whose version moved since the
        // last checkpoint; main's checkpoint store is cumulative, so a
        // clean object is already covered by an earlier capture, and a
        // copy main holds live needs no transfer.
        for i in 0..nobjs {
            let o = ObjectId(i as u32);
            let clean = self
                .last_ckpt
                .as_ref()
                .is_some_and(|c| c.version(o) == snap.version(o));
            if clean || !self.comm.needs_fetch(0, o) {
                continue;
            }
            let owner = self.comm.owner(o);
            let size = self.core.trace.object_size(o);
            bytes += size as u64;
            let dur = self.costs.object(o, hops(owner, 0));
            self.handler_op(owner, t, dur, TimeKind::Comm);
            self.handler_op(0, t, self.costs.object_recv, TimeKind::Mgmt);
        }
        // Main serializes the synchronizer snapshot to stable storage.
        let ser = SimDuration::from_secs_f64(
            self.cfg.machine.message_latency_s + sync_len as f64 / self.cfg.machine.link_bandwidth,
        );
        let end = self.handler_op(0, t, ser, TimeKind::Mgmt);
        self.n_checkpoints += 1;
        self.n_ckpt_bytes += bytes;
        self.core
            .events
            .emit(end.0, 0, EventKind::CheckpointTaken { bytes });
        self.last_ckpt = Some(snap);
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
    /// else pays the full recovery transfer (the path that used to be
    /// modeled as free). A task whose body finished is never re-dispatched,
    /// so neither is one the last checkpoint recorded as completed.
    fn on_proc_fail(&mut self, p: ProcId, t: SimTime) {
        if self.dead[p] {
            return;
        }
        self.dead[p] = true;
        self.core.events.emit(t.0, p, EventKind::WorkerFailed);
        let lost = self.comm.fail_proc(p);
        self.sched.fail(p);
        self.debt_comm[p] = SimDuration::ZERO;
        self.debt_mgmt[p] = SimDuration::ZERO;
        self.queues[p].clear();
        self.core.executing[p] = None;
        let mut t_cur = t;
        for o in lost {
            let size = self.core.trace.object_size(o);
            let bytes = size as u64;
            let covered = self
                .last_ckpt
                .as_ref()
                .is_some_and(|c| c.covers(o, self.comm.version(o)));
            let dur = if covered {
                // Local read from main's checkpoint store: buffering only
                // (same wire-time fraction as local broadcast buffering).
                SimDuration::from_secs_f64(0.2 * size as f64 / self.cfg.machine.link_bandwidth)
            } else {
                // Full recovery-copy transfer into main's memory.
                SimDuration::from_secs_f64(
                    self.cfg.machine.message_latency_s
                        + size as f64 / self.cfg.machine.link_bandwidth,
                )
            };
            t_cur = self.handler_op(0, t_cur, dur, TimeKind::Comm);
            self.comm.record_restore(o, bytes);
            self.n_restore_bytes += bytes;
            if covered {
                self.n_ckpt_restores += 1;
                self.core
                    .events
                    .emit(t_cur.0, 0, EventKind::CheckpointRestored { bytes });
            }
            self.core
                .events
                .emit_obj(t_cur.0, 0, EventKind::ObjectRestored { bytes }, None, o);
        }
        let orphans: Vec<TaskId> = self
            .core
            .trace
            .tasks
            .iter()
            .filter(|rec| {
                let ts = &self.tstate[rec.id.index()];
                ts.dispatched && ts.assigned_to == p && !ts.finished_local
            })
            .map(|rec| rec.id)
            .collect();
        for id in orphans {
            let ts = &mut self.tstate[id.index()];
            ts.dispatched = false;
            ts.ready = false;
            ts.forget_fetches();
            ts.prefetch_issued = false;
            self.n_reexec += 1;
            self.core.events.emit_task(
                t_cur.0,
                jade_core::MAIN_PROC,
                EventKind::TaskReExecuted,
                id,
            );
            self.on_enabled(id, t_cur);
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
        let end = self.handler_op(0, t, self.costs.sched, TimeKind::Mgmt);
        // A replayed schedule overrides both the trace placement and the
        // locality mode: the point of pinning is to reproduce the recorded
        // run's task→processor map exactly.
        let placement = if let Some(pin) = &self.cfg.pinned {
            pin.assign
                .get(id.index())
                .copied()
                .flatten()
                .map(|p| p.min(self.core.pc.procs() - 1))
        } else if self.cfg.mode.honors_placement() {
            rec.placement.map(|p| p.min(self.core.pc.procs() - 1))
        } else {
            None
        };
        let target = self.target_of(id);
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
                    if self.core.deadline_cuts(t) {
                        return;
                    }
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
            if r == expected && r != u64::MAX && !self.core.deadline_cuts(t) {
                self.pin_cursor[p] += 1;
                self.queues[p].pop_front();
                self.start_task(p, head, t);
                return;
            }
        }
        if self.core.deadline_cuts(t) {
            return;
        }
        self.queues[p].pop_front();
        self.start_task(p, head, t);
    }

    fn finish(&mut self, p: ProcId, id: TaskId, t: SimTime) {
        if self.dead[p] {
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
                if self.dead[proc] {
                    return; // assignment in flight to a dead processor
                }
                self.on_assign_arrive(proc, task, t);
            }
            Ev::Request { slot } => self.on_request(slot, t),
            Ev::Reply { slot } => self.on_reply(slot, t),
            Ev::PushArrive { proc, obj, version } => self.on_pushed_arrive(proc, obj, version, t),
            Ev::NotifyArrive { proc, task } => self.on_notify(proc, task, t),
            Ev::FetchTimeout {
                proc,
                task,
                obj,
                attempt,
            } => self.on_fetch_timeout(proc, task, obj, attempt, t),
            Ev::ProcFail { proc } => self.on_proc_fail(proc, t),
            Ev::CheckpointTick => self.on_checkpoint_tick(t),
        }
    }

    fn speed(&self, p: ProcId) -> f64 {
        self.cfg
            .speed_factors
            .as_ref()
            .map_or(1.0, |s| s[p % s.len()].max(1e-6))
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
        // Every message record went back to the slab with its last event.
        debug_assert_eq!(self.requests.live(), 0, "request slots leaked");
        debug_assert_eq!(self.replies.live(), 0, "reply slots leaked");
        // The event stream must reproduce the machine model's own books.
        debug_assert_eq!(m.comm_bytes(), self.comm.bytes_transferred);
        debug_assert_eq!(m.fetches, self.comm.object_sends);
        debug_assert_eq!(m.broadcasts, self.comm.broadcasts);
        debug_assert_eq!(m.pooled, self.sched.pooled_total);
        debug_assert_eq!(m.msgs_dropped, self.n_dropped);
        debug_assert_eq!(m.msgs_retried, self.n_retried);
        debug_assert_eq!(m.msgs_discarded, self.n_discarded);
        debug_assert_eq!(m.tasks_reexecuted, self.n_reexec);
        debug_assert_eq!(m.checkpoints, self.n_checkpoints);
        debug_assert_eq!(m.checkpoint_bytes, self.n_ckpt_bytes);
        debug_assert_eq!(m.checkpoint_restores, self.n_ckpt_restores);
        debug_assert_eq!(m.object_restores, self.comm.object_restores);
        debug_assert_eq!(m.restore_bytes, self.n_restore_bytes);
        debug_assert_eq!(m.prefetches_issued, self.n_prefetch_issued);
        debug_assert_eq!(m.prefetch_hits, self.n_prefetch_hits);
        debug_assert_eq!(m.prefetch_stale, self.n_prefetch_stale);
        debug_assert_eq!(
            m.workers_failed,
            self.dead.iter().filter(|&&d| d).count() as u64
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
            deadline_exceeded: run.deadline_exceeded,
            tune: self.ctl.log,
            per_proc_busy: run.per_proc_busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IpscError;
    use jade_core::{AccessSpec, TraceBuilder};

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
        let mut c = IpscConfig::paper(procs, mode, 1.0);
        c.jitter_frac = 0.0; // exact timing assertions below
        c
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
        let r = run(&trace, &c);
        assert_eq!(r.tasks_executed, 10);
        assert!(r.exec_time_s >= 1.0);
        assert_eq!(r.comm_bytes, 0, "no communication on one processor");
    }

    #[test]
    fn parallel_speedup() {
        let trace = parallel_trace(32, 8, 1.0);
        let r1 = run(&trace, &cfg(1, LocalityMode::Locality));
        let r8 = run(&trace, &cfg(8, LocalityMode::Locality));
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
        let r = run(&trace, &cfg(8, LocalityMode::Locality));
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
        let r = run(&trace, &cfg(8, LocalityMode::NoLocality));
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
        let r = run(&trace, &cfg(4, LocalityMode::Locality));
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
        let r = run(&trace, &cfg(4, LocalityMode::Locality));
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
        let r_on = run(&trace, &on);
        let r_off = run(&trace, &off);
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
        let r1 = run(&trace, &c1);
        let r2 = run(&trace, &c2);
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
        let r = run(&trace, &cfg(4, LocalityMode::TaskPlacement));
        // Homes match placements, so every task is a locality hit.
        assert_eq!(r.locality_pct, 100.0);
        // And with the Locality mode, placements are ignored.
        let r2 = run(&trace, &cfg(4, LocalityMode::Locality));
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
        let r = run(&trace, &cfg(4, LocalityMode::TaskPlacement));
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
        let r = run(&trace, &c);
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
        let conc = run(&trace, &cfg(4, LocalityMode::Locality));
        let mut c = cfg(4, LocalityMode::Locality);
        c.concurrent_fetches = false;
        let serial = run(&trace, &c);
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
        let a = run(&trace, &cfg(4, LocalityMode::Locality));
        let b2 = run(&trace, &cfg(4, LocalityMode::Locality));
        assert_eq!(a.exec_time_s, b2.exec_time_s);
        assert_eq!(a.comm_bytes, b2.comm_bytes);
        assert_eq!(a.locality_pct, b2.locality_pct);
    }

    #[test]
    fn eager_update_overlaps_transfer_with_computation() {
        // Eager pushes pay off when the consumer is busy while the new
        // version is produced: the transfer overlaps the consumer's other
        // work instead of starting after it (paper Section 6's update
        // protocol, which worked well for regular repetitive patterns).
        let mut b = TraceBuilder::new();
        let hot = b.object("hot", 400_000, Some(1));
        let filler = b.object("filler", 8, Some(2));
        let out = b.object("out", 8, Some(2));
        for _ in 0..8 {
            let mut w = AccessSpec::new();
            w.wr(hot);
            b.task(w, 0.01); // producer (runs on proc 1, hot's owner)
            let mut f = AccessSpec::new();
            f.wr(filler);
            b.task(f, 0.5); // keeps the consumer processor busy
            let mut s = AccessSpec::new();
            s.wr(out).rd(filler).rd(hot);
            b.task(s, 0.05); // consumer: needs hot after the filler
        }
        let trace = b.build();
        let base = cfg(4, LocalityMode::Locality);
        let mut eager = base.clone();
        eager.eager_update = true;
        let r0 = run(&trace, &base);
        let r1 = run(&trace, &eager);
        assert!(
            r1.exec_time_s < r0.exec_time_s,
            "eager {} should beat demand {}",
            r1.exec_time_s,
            r0.exec_time_s
        );
    }

    #[test]
    fn heterogeneous_workstations_balance_by_speed() {
        // 4 workstations, one of them 4x faster: the centralized balancer
        // naturally feeds the fast machine more tasks, so the makespan
        // tracks the aggregate speed, not the slowest machine.
        let trace = parallel_trace(64, 4, 1.0);
        let speeds = vec![1.0, 1.0, 1.0, 4.0];
        let mut c = IpscConfig::workstations(speeds, 1.0);
        c.jitter_frac = 0.0;
        let r = run(&trace, &c);
        assert_eq!(r.tasks_executed, 64);
        // Total work 64 s over aggregate speed 7 ≈ 9.1 s; naive division by
        // 4 equal machines of speed 1 would take 16 s.
        assert!(
            r.exec_time_s < 14.0,
            "fast machine under-used: {}",
            r.exec_time_s
        );
    }

    #[test]
    fn shared_medium_serializes_transfers() {
        // Many concurrent fetches of a large object: on the hypercube the
        // replies only serialize at the owner; on a shared medium they also
        // serialize on the wire, so the Ethernet run cannot be faster.
        let mut b = TraceBuilder::new();
        let hot = b.object("hot", 500_000, Some(0));
        let outs: Vec<_> = (0..6)
            .map(|i| b.object(&format!("o{i}"), 8, Some(1 + i % 3)))
            .collect();
        for &o in &outs {
            let mut s = AccessSpec::new();
            s.wr(o).rd(hot);
            b.task(s, 0.1);
        }
        let trace = b.build();
        let mut eth = IpscConfig::workstations(vec![1.0; 4], 1.0);
        eth.adaptive_broadcast = false;
        let mut cube = eth.clone();
        cube.shared_medium = false;
        let r_eth = run(&trace, &eth);
        let r_cube = run(&trace, &cube);
        assert!(
            r_eth.exec_time_s >= r_cube.exec_time_s,
            "shared medium {} vs switched {}",
            r_eth.exec_time_s,
            r_cube.exec_time_s
        );
    }

    #[test]
    fn event_stream_reconstructs_run() {
        // Mixed serial + parallel trace with real communication: the event
        // stream alone must reproduce the run result and tile the timeline.
        let procs = 4;
        let trace = commy_trace(procs, 3);
        let (r, events) = run_traced(&trace, &cfg(procs, LocalityMode::Locality));
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
        let r = run(&trace, &cfg(4, LocalityMode::Locality));
        assert!(r.exec_time_s >= 5.0, "{}", r.exec_time_s);
    }

    // ---- fault injection ----

    #[test]
    fn inactive_plan_with_seed_is_bit_identical() {
        // A plan with all probabilities zero takes no injector draws: the
        // event stream is identical to the default config's, whatever the
        // seed says.
        let trace = commy_trace(4, 2);
        let (_, clean) = run_traced(&trace, &cfg(4, LocalityMode::Locality));
        let mut c = cfg(4, LocalityMode::Locality);
        c.faults = FaultPlan::none().with_seed(99);
        let (_, seeded) = run_traced(&trace, &c);
        assert_eq!(clean, seeded);
    }

    #[test]
    fn lossy_run_matches_fault_free_results() {
        let trace = commy_trace(4, 5);
        let clean = run(&trace, &cfg(4, LocalityMode::Locality));
        let (faulty, events) = run_traced(
            &trace,
            &faulty_cfg(4, "drop=0.2,dup=0.1,delay=0.2:0.001,reorder=0.1,seed=42"),
        );
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
        let (a, ea) = run_traced(&trace, &c);
        let (b, eb) = run_traced(&trace, &c);
        assert_eq!(a.exec_time_s, b.exec_time_s);
        assert_eq!(a.msgs_dropped, b.msgs_dropped);
        assert_eq!(ea, eb, "same plan + seed => same event stream");
        // A different seed drops different messages.
        let (c2, _) = run_traced(&trace, &faulty_cfg(4, "drop=0.1,dup=0.05,seed=8"));
        assert_eq!(c2.final_versions, a.final_versions, "results still agree");
    }

    #[test]
    fn fail_stop_reexecutes_orphans() {
        // Long tasks on 4 procs; processor 2 dies mid-run. Its in-flight
        // tasks are re-dispatched and the results match the clean run.
        let trace = parallel_trace(12, 4, 1.0);
        let clean = run(&trace, &cfg(4, LocalityMode::Locality));
        let (faulty, events) = run_traced(&trace, &faulty_cfg(4, "fail=2@0.5"));
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
        let clean = run(&trace, &cfg(4, LocalityMode::Locality));
        let faulty = run(&trace, &faulty_cfg(4, "fail=2@0.3"));
        assert_eq!(faulty.final_versions, clean.final_versions);
        assert_eq!(faulty.tasks_executed as u64, 2 + faulty.tasks_reexecuted);
    }

    #[test]
    fn stalls_are_injected_and_slow_the_run() {
        let trace = parallel_trace(10, 2, 0.1);
        let clean = run(&trace, &cfg(2, LocalityMode::Locality));
        let faulty = run(&trace, &faulty_cfg(2, "stall=1.0:0.01,seed=5"));
        assert_eq!(faulty.stalls, 10, "every task start stalls at p=1");
        assert!(faulty.exec_time_s > clean.exec_time_s);
        assert_eq!(faulty.tasks_executed, clean.tasks_executed);
    }

    #[test]
    fn combined_plan_with_failure_still_matches() {
        let trace = commy_trace(4, 4);
        let clean = run(&trace, &cfg(4, LocalityMode::Locality));
        let (faulty, events) = run_traced(
            &trace,
            &faulty_cfg(4, "drop=0.15,dup=0.05,stall=0.2:0.002,fail=3@0.8,seed=13"),
        );
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
        let clean = run(&trace, &cfg(4, LocalityMode::Locality));
        let (faulty, events) = run_traced(&trace, &faulty_cfg(4, "fail=2@0.3"));
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
        let clean = run(&trace, &cfg(4, LocalityMode::Locality));
        let (r, events) = run_traced(&trace, &faulty_cfg(4, "fail=2@0.3,ckpt=0.25"));
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
        let clean = run(&trace, &cfg(4, LocalityMode::Locality));
        let (r, events) = run_traced(&trace, &faulty_cfg(4, "ckpt=0.05"));
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
        let clean = run(&trace, &cfg(4, LocalityMode::Locality));
        let base = run(&trace, &faulty_cfg(4, "fail=2@0.5"));
        for iv in ["0.1", "0.45", "2.0"] {
            let (r, events) = run_traced(&trace, &faulty_cfg(4, &format!("fail=2@0.5,ckpt={iv}")));
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
        let (a, ea) = run_traced(&trace, &c);
        let (b, eb) = run_traced(&trace, &c);
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
        let untuned = run(&trace, &c);
        let (a, ea) = run_traced(&trace, &tuned);
        let (b, eb) = run_traced(&trace, &tuned);
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
        let stat = run(&trace, &c);
        let r = run(&trace, &tuned);
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
        let r0 = run(&trace, &base);
        let r4 = run(&trace, &wide);
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
        // A 10,000 s delay window: ×2048 in retry_timeout would overflow
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
        // Jitter fraction beyond 2 makes the duration multiplier negative.
        let mut c = cfg(2, LocalityMode::Locality);
        c.jitter_frac = 3.0;
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidMachine(_))
        ));
        // Speed factors must be positive and finite.
        let mut c = cfg(2, LocalityMode::Locality);
        c.speed_factors = Some(vec![1.0, -0.5]);
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidMachine(_))
        ));
        let mut c = cfg(2, LocalityMode::Locality);
        c.speed_factors = Some(Vec::new());
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
        // Every runtime cost is a time: finite and non-negative.
        let mut c = cfg(2, LocalityMode::Locality);
        c.costs.create_s = -1.0;
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidMachine(why)) if why.contains("create_s")
        ));
        let mut c = cfg(2, LocalityMode::Locality);
        c.costs.object_recv_s = f64::NAN;
        assert!(matches!(
            try_run(&trace, &c),
            Err(IpscError::InvalidMachine(why)) if why.contains("object_recv_s")
        ));
        // Every fixed message size is priced once, up front: one too large
        // for virtual time is named, not a panic mid-run.
        let trace = commy_trace(4, 2);
        type Field = fn(&mut IpscCosts) -> &mut usize;
        let fields: [(&str, Field); 3] = [
            ("assign_bytes", |c| &mut c.assign_bytes),
            ("notify_bytes", |c| &mut c.notify_bytes),
            ("request_bytes", |c| &mut c.request_bytes),
        ];
        for (name, field) in fields {
            let mut c = cfg(4, LocalityMode::Locality);
            *field(&mut c.costs) = usize::MAX / 2;
            assert!(
                matches!(
                    try_run(&trace, &c),
                    Err(IpscError::InvalidMachine(why)) if why.contains(name)
                ),
                "{name}"
            );
        }
        let mut b = TraceBuilder::new();
        b.object("huge", usize::MAX / 2, Some(1));
        b.task(spec(&[], &[]), 0.1);
        assert!(matches!(
            try_run(&b.build(), &cfg(4, LocalityMode::Locality)),
            Err(IpscError::InvalidMachine(why)) if why.contains("huge")
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

    #[test]
    fn deadline_cuts_the_run_with_partial_metrics() {
        let trace = parallel_trace(16, 2, 0.5);
        let mut c = cfg(2, LocalityMode::Locality);
        // Full run takes ~4+ virtual seconds; budget one.
        c.deadline = Some(SimDuration::from_secs_f64(1.0));
        let r = try_run(&trace, &c).expect("deadline run completes cleanly");
        assert!(r.deadline_exceeded);
        assert!(
            r.tasks_executed < 16,
            "expected a partial run, got {} tasks",
            r.tasks_executed
        );
        assert!(r.tasks_executed > 0, "one virtual second fits some tasks");
        // A zero budget executes nothing and still drains cleanly.
        c.deadline = Some(SimDuration::ZERO);
        let r0 = try_run(&trace, &c).expect("zero-deadline run");
        assert!(r0.deadline_exceeded);
        assert_eq!(r0.tasks_executed, 0);
    }

    #[test]
    fn generous_deadline_is_bit_identical_to_none() {
        let trace = commy_trace(4, 2);
        let base = cfg(4, LocalityMode::Locality);
        let mut budgeted = base.clone();
        budgeted.deadline = Some(SimDuration::from_secs_f64(1e5));
        let (ra, ea) = run_traced(&trace, &base);
        let (rb, eb) = run_traced(&trace, &budgeted);
        assert!(!rb.deadline_exceeded);
        assert_eq!(ra.exec_time_s, rb.exec_time_s);
        assert_eq!(ra.final_versions, rb.final_versions);
        assert_eq!(ea, eb, "an unexercised budget changes nothing");
    }

    #[test]
    fn deadline_with_checkpoint_ticks_terminates() {
        // Regression companion to the checkpoint-tick let-else: a deadline
        // must not leave the tick chain rescheduling forever after main
        // stops creating tasks.
        let trace = parallel_trace(16, 2, 0.5);
        let mut c = faulty_cfg(2, "ckpt=0.3");
        c.deadline = Some(SimDuration::from_secs_f64(1.0));
        let r = try_run(&trace, &c).expect("budgeted checkpointed run");
        assert!(r.deadline_exceeded);
        assert!(r.checkpoints >= 1, "ticks ran before the budget expired");
    }

    // ---- split-phase prefetch ----

    #[test]
    fn prefetch_preserves_results_and_never_slows() {
        let trace = commy_trace(4, 5);
        let base = cfg(4, LocalityMode::Locality);
        let mut pf = base.clone();
        pf.prefetch = true;
        let off = run(&trace, &base);
        let (on, events) = run_traced(&trace, &pf);
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
        let (_, e_off) = run_traced(&trace, &base);
        let (_, e_on) = run_traced(&trace, &pf);
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
        let off = run(&trace, &base);
        let (on, events) = run_traced(&trace, &pf);
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
        let clean = run(&trace, &cfg(4, LocalityMode::Locality));
        let mut c = faulty_cfg(4, "drop=0.2,dup=0.1,delay=0.2:0.001,seed=21");
        c.prefetch = true;
        let (faulty, events) = run_traced(&trace, &c);
        assert!(faulty.prefetches_issued > 0);
        assert!(faulty.msgs_dropped > 0, "plan injected nothing");
        assert_eq!(faulty.final_versions, clean.final_versions);
        assert_eq!(faulty.tasks_executed, clean.tasks_executed);
        jade_core::check_lifecycle(&events).unwrap();
    }

    #[test]
    fn prefetch_survives_fail_stop_and_checkpoints() {
        let trace = parallel_trace(12, 4, 1.0);
        let clean = run(&trace, &cfg(4, LocalityMode::Locality));
        let mut c = faulty_cfg(4, "fail=2@0.5,ckpt=0.25");
        c.prefetch = true;
        let (faulty, events) = run_traced(&trace, &c);
        assert_eq!(faulty.workers_failed, 1);
        assert_eq!(faulty.final_versions, clean.final_versions);
        assert_eq!(faulty.tasks_executed as u64, 12 + faulty.tasks_reexecuted);
        jade_core::check_lifecycle(&events).unwrap();
    }

    #[test]
    fn prefetch_respects_deadline_budget() {
        let trace = parallel_trace(16, 2, 0.5);
        let mut c = cfg(2, LocalityMode::Locality);
        c.prefetch = true;
        c.deadline = Some(SimDuration::from_secs_f64(1.0));
        let r = try_run(&trace, &c).expect("budgeted prefetch run");
        assert!(r.deadline_exceeded);
        assert!(r.tasks_executed > 0 && r.tasks_executed < 16);
    }

    #[test]
    fn prefetch_is_deterministic() {
        let trace = commy_trace(4, 3);
        let mut c = cfg(4, LocalityMode::Locality);
        c.prefetch = true;
        let (a, ea) = run_traced(&trace, &c);
        let (b2, eb) = run_traced(&trace, &c);
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
        let r = run(&trace, &c);
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
        let (off, events) = run_traced(&trace, &base);
        let mut pinned = base.clone();
        pinned.pinned = Some(PinnedSchedule::from_events(trace.tasks.len(), &events));
        let (rep, events_rep) = run_traced(&trace, &pinned);
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
        let (off, events) = run_traced(&trace, &base);
        let mut pf = base.clone();
        pf.prefetch = true;
        pf.pinned = Some(PinnedSchedule::from_events(trace.tasks.len(), &events));
        let on = run(&trace, &pf);
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
        let (_, events) = run_traced(&trace, &cfg(2, LocalityMode::Locality));
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
