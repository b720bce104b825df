//! The data plane's transport: the request, reply and broadcast-copy
//! messages that move shared objects, over the unreliable network a
//! [`FaultPlan`](dsim::FaultPlan) describes. The runtime ([`Host`]) asks
//! for "objects `objs` for task `t` on processor `p`" and is handed each
//! object once, when it arrives; it never sees an attempt number or a
//! timer. The transport owns the message records, the wire prices, every
//! message's fate, and the protocol that makes delivery reliable:
//!
//! * **ack/timeout/retry**: under message faults every fetched object arms
//!   an ack timer, parked in the calendar's timer heap because nearly every
//!   one fires to find nothing pending. A timer that finds its reply
//!   missing re-sends the request (`MsgRetried`) with exponential backoff,
//!   up to [`MAX_FETCH_ATTEMPTS`];
//! * **idempotent delivery**: a payload nobody waits for, or one the
//!   shared-object layer refuses as stale, is discarded (`MsgDiscarded`),
//!   never applied, so duplicates and replays cannot corrupt object state.
//!
//! Control messages (ASSIGN/NOTIFY) use NX/2's guaranteed delivery, as the
//! paper's runtime assumes; only their prices live here.

use crate::communicator::Communicator;
use crate::costs::{
    AGG_ENTRY_BYTES, ASSIGN_BYTES, NOTIFY_BYTES, OBJECT_RECV, REQUEST_BYTES, REQUEST_SEND,
};
use crate::IpscConfig;
use dsim::driver::{Machine, SimError};
use dsim::{IpscSpec, ProcId, SimDuration, SimTime, TimeKind};
use jade_core::{EventKind, ObjectId, Sink, TaskId, Trace};

/// Retry budget per fetched object. With the fault-plan drop probabilities
/// the acceptance harness allows (≤ 0.2 per leg), the chance of exhausting
/// this is below 2⁻⁵⁰ per fetch; hitting it indicates a broken plan.
pub(crate) const MAX_FETCH_ATTEMPTS: u32 = 24;

/// The transport's calendar events, carried inside the runtime's own. A
/// message event carries its record's slot in [`Net`], so the calendar's
/// heap moves small entries.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Ev {
    /// A request for its record's objects, one or a coalesced bundle. The
    /// owners are recomputed at arrival; an object whose owner moved rides
    /// that owner's own reply.
    Request(u32),
    /// One reply message delivering its record's payloads. Costs a single
    /// receive-handler interrupt.
    Reply(u32),
    /// A broadcast copy arriving at its record's processor.
    Push(u32),
    /// Ack timer for one fetch attempt: if the reply is still pending when
    /// this fires, the request is re-sent with exponential backoff.
    FetchTimeout {
        proc: ProcId,
        task: TaskId,
        obj: ObjectId,
        attempt: u32,
    },
}

/// The runtime the transport serves: a [`Machine`], whose core holds the
/// calendar, the event sinks and the fault draws, over the shared-object
/// layer the transport routes by and serves from.
pub(crate) trait Host<'a, R: Sink>: Machine<'a, R, Ev: From<Ev>> {
    fn net(&mut self) -> &mut Net;

    fn comm(&mut self) -> &mut Communicator;

    /// Interrupt-handler work of `dur` on `p` from `t`; returns its end.
    fn handler_op(&mut self, p: ProcId, t: SimTime, dur: SimDuration, kind: TimeKind) -> SimTime;

    /// Hand a reply's `(object, version)` payload, requested at
    /// `requested_at` (by the split-phase prefetch if `prefetched`), to
    /// `task`'s pending fetch on `p` at `t`: `true` if the shared-object
    /// layer applied it, `false` if it is stale.
    fn deliver(
        &mut self,
        p: ProcId,
        task: TaskId,
        payload: (ObjectId, u64),
        requested_at: SimTime,
        prefetched: bool,
        t: SimTime,
    ) -> bool;

    /// A reply delivered objects of `task`'s fetch on `p`; its receive
    /// handler ended at `t`.
    fn fetched(&mut self, p: ProcId, task: TaskId, t: SimTime);

    /// Fetch `objs` for `task` on `p` with one request: a lone object, or a
    /// coalesced bundle of two or more, all owned by one processor and none
    /// pending for `task` until now. `issuer` pays the request's send
    /// handler and wire leg; the reply, ack timers and retries are bound to
    /// `p`. The two differ only when main prefetches on `p`'s behalf.
    /// Returns when the send completed on `issuer`.
    fn send_request(
        &mut self,
        issuer: ProcId,
        p: ProcId,
        task: TaskId,
        objs: &[ObjectId],
        t: SimTime,
    ) -> SimTime {
        let f = &mut self.net().fetches[task.index()];
        for &obj in objs {
            let fresh = Fetch {
                obj,
                pending: Some(0),
                prefetched: issuer != p,
            };
            match f.list[..f.sorted].binary_search_by_key(&obj, |f| f.obj) {
                Ok(i) => f.list[i] = fresh,
                Err(_) => f.list.push(fresh),
            }
        }
        f.outstanding += objs.len();
        send(self, issuer, p, task, objs, 0, t)
    }

    /// Send one broadcast copy of `(object, version)`, written by `task`,
    /// from `from` to `to`: it leaves at `stamp` and arrives at `arrives`.
    fn push(
        &mut self,
        from: ProcId,
        to: ProcId,
        task: TaskId,
        payload: (ObjectId, u64),
        stamp: SimTime,
        arrives: SimTime,
    ) {
        let slot = self.net().msgs.alloc(to, task, stamp, false);
        self.net().msgs[slot].list.push(payload);
        let bytes = self.core().trace.object_size(payload.0) as u64;
        transmit(self, from, stamp, bytes, arrives, slot, Ev::Push);
    }

    /// Handle one of the transport's events.
    fn on_net(&mut self, ev: Ev, t: SimTime) {
        match ev {
            Ev::Request(slot) => on_request(self, slot, t),
            Ev::Reply(slot) => on_reply(self, slot, t),
            Ev::Push(slot) => on_push(self, slot, t),
            Ev::FetchTimeout {
                proc,
                task,
                obj,
                attempt,
            } => on_timeout(self, proc, task, obj, attempt, t),
        }
    }
}

/// The transport's state: prices, message records and every task's fetches.
pub(crate) struct Net {
    pub(crate) costs: Costs,
    /// Message faults are possible, so fetches arm ack timers.
    lossy: bool,
    /// The most a fault adds to one leg: the plan's delay and reorder window.
    slack: SimDuration,
    msgs: MsgSlab,
    fetches: Vec<Fetches>,
    /// Scratch for grouping a fetch set by owner.
    pub(crate) groups: Groups,
    // Native fault tallies, cross-checked against the event stream (the
    // injector counts the drops).
    pub(crate) n_retried: u64,
    pub(crate) n_discarded: u64,
}

impl Net {
    /// Price `cfg`'s messages for `trace`, and check that the longest ack
    /// timeout fits the clock, naming the first object that does not.
    pub(crate) fn new(cfg: &IpscConfig, trace: &Trace) -> Result<Net, SimError> {
        let plan = cfg.faults;
        let net = Net {
            costs: Costs::of(&cfg.machine, trace)?,
            lossy: plan.drop_p + plan.dup_p + plan.delay_p + plan.reorder_p > 0.0,
            slack: plan.delay + plan.reorder_window,
            msgs: MsgSlab::default(),
            fetches: vec![Fetches::default(); trace.tasks.len()],
            groups: Groups::default(),
            n_retried: 0,
            n_discarded: 0,
        };
        // The timeout grows with the hop count and the attempt number, so
        // the farthest owner's last attempt bounds every other.
        let farthest = net.costs.hop_counts - 1;
        let last = MAX_FETCH_ATTEMPTS - 1;
        let unbounded = (0..trace.objects.len() as u32)
            .find(|&o| net.lossy && net.timeout(ObjectId(o), farthest, last).is_none());
        match unbounded {
            Some(o) => Err(too_big(format!(
                "the ack timeout of object {}",
                trace.objects[o as usize].name
            ))),
            None => Ok(net),
        }
    }

    /// Ack timeout for fetch `attempt` of `o` over `h` hops: a generous
    /// multiple of the request+reply round trip (so legitimate replies
    /// never race the timer under fault-plan latencies), doubling per
    /// attempt. `None` where that overflows virtual time.
    fn timeout(&self, o: ObjectId, h: usize, attempt: u32) -> Option<SimDuration> {
        let rtt = self.costs.request[h]
            .0
            .checked_add(self.costs.object(o, h).0)?;
        let base = rtt
            .checked_mul(4)?
            .checked_add(self.slack.0.checked_mul(2)?)?;
        base.checked_mul(1 << attempt.min(10)).map(SimDuration)
    }

    /// Forget `task`'s fetches: their replies and timers find nothing.
    pub(crate) fn cancel(&mut self, task: TaskId) {
        let f = &mut self.fetches[task.index()];
        f.list.clear();
        (f.sorted, f.outstanding) = (0, 0);
    }

    /// Message records in flight: none once the calendar has run dry.
    pub(crate) fn live(&self) -> usize {
        self.msgs.live()
    }

    /// `task`'s fetches still pending.
    pub(crate) fn outstanding(&self, task: TaskId) -> usize {
        self.fetches[task.index()].outstanding
    }

    fn fetch(&mut self, task: TaskId, o: ObjectId) -> Option<Fetch> {
        let f = &mut self.fetches[task.index()];
        f.slot(o).ok().map(|i| f.list[i])
    }

    pub(crate) fn pending(&mut self, task: TaskId, o: ObjectId) -> bool {
        self.fetch(task, o).is_some_and(|f| f.pending.is_some())
    }

    /// The split-phase prefetch requested `o` for `task`: its replies
    /// stream in asynchronously, and its delivery is a prefetch hit.
    pub(crate) fn prefetched(&mut self, task: TaskId, o: ObjectId) -> bool {
        self.fetch(task, o).is_some_and(|f| f.prefetched)
    }
}

/// One object of a task's fetch set.
#[derive(Clone, Copy, Debug)]
struct Fetch {
    obj: ObjectId,
    /// `Some(attempt)` while the object is being fetched. A reply is
    /// accepted only then; the attempt number gates stale ack timers.
    pending: Option<u32>,
    prefetched: bool,
}

/// The objects a task has requested: whether one is pending or was
/// prefetched is a binary search, and a delivery clears `pending` in place.
/// Requests append; the next lookup sorts them in by object id. An entry
/// outlives its fetch — a duplicate reply landing after the task finished
/// is still handled as the prefetched (or demand) reply it is.
#[derive(Clone, Debug, Default)]
struct Fetches {
    list: Vec<Fetch>,
    /// The length of `list`'s prefix sorted by object id.
    sorted: usize,
    /// Entries of `list` that are pending.
    outstanding: usize,
}

impl Fetches {
    fn slot(&mut self, o: ObjectId) -> Result<usize, usize> {
        if self.sorted < self.list.len() {
            self.list.sort_unstable_by_key(|f| f.obj);
            self.sorted = self.list.len();
        }
        self.list.binary_search_by_key(&o, |f| f.obj)
    }
}

/// One message in flight: a request, a reply or a broadcast copy.
struct Msg {
    /// The objects carried: a request's (versions unused), or the
    /// `(object, version)` payloads a reply or a copy delivers.
    list: Vec<(ObjectId, u64)>,
    /// The request was coalesced, which sizes its replies: a coalesced
    /// message carries a per-object entry for each object, a lone one none.
    coalesced: bool,
    /// The fetching processor (a copy's receiver).
    proc: ProcId,
    /// The fetching task (a copy's writer).
    task: TaskId,
    /// When the request was sent (a reply keeps its request's stamp).
    sent_at: SimTime,
}

/// The records of the messages in flight. A freed slot keeps its list's
/// buffer for the next message, so fetches stop allocating once the
/// deepest backlog of messages has been seen.
#[derive(Default)]
struct MsgSlab {
    recs: Vec<Msg>,
    free: Vec<u32>,
}

impl MsgSlab {
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
        let m = &mut self[slot];
        m.list.clear();
        (m.coalesced, m.proc, m.task, m.sent_at) = (coalesced, proc, task, sent_at);
        slot
    }

    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// A second record for a duplicated message.
    fn duplicate(&mut self, slot: u32) -> u32 {
        let m = &self[slot];
        let copy = self.alloc(m.proc, m.task, m.sent_at, m.coalesced);
        let list = std::mem::take(&mut self[slot].list);
        self[copy].list.extend_from_slice(&list);
        self[slot].list = list;
        copy
    }

    fn live(&self) -> usize {
        self.recs.len() - self.free.len()
    }
}

impl std::ops::Index<u32> for MsgSlab {
    type Output = Msg;
    fn index(&self, slot: u32) -> &Msg {
        &self.recs[slot as usize]
    }
}

impl std::ops::IndexMut<u32> for MsgSlab {
    fn index_mut(&mut self, slot: u32) -> &mut Msg {
        &mut self.recs[slot as usize]
    }
}

/// Hops between two nodes, as [`IpscSpec::message_time`] counts them: the
/// Hamming distance of the labels (0 from a node to itself).
#[inline]
pub(crate) fn hops(a: ProcId, b: ProcId) -> usize {
    (a ^ b).count_ones() as usize
}

/// [`IpscSpec::message_time`] of `bytes` over `hops` hops, by the same
/// expression, or `None` where that would overflow virtual time.
pub(crate) fn price(m: &IpscSpec, bytes: usize, hops: usize) -> Option<SimDuration> {
    SimDuration::try_from_secs_f64(
        m.message_latency_s + m.per_hop_s * hops as f64 + bytes as f64 / m.link_bandwidth,
    )
}

/// The error for a `what` too large to send in representable virtual time.
pub(crate) fn too_big(what: String) -> SimError {
    SimError::InvalidMachine(format!(
        "{what} is too large to send in representable virtual time"
    ))
}

/// [`price`] of `bytes` over every hop count `0..hop_counts`, naming
/// `what` if one overflows.
pub(crate) fn by_hops(
    m: &IpscSpec,
    bytes: usize,
    what: &str,
) -> Result<Vec<SimDuration>, SimError> {
    (0..=m.dimension() as usize)
        .map(|h| price(m, bytes, h))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| too_big(format!("{what} = {bytes}")))
}

/// The wire time of every fixed-size message on the configured machine,
/// priced once per run.
pub(crate) struct Costs {
    machine: IpscSpec,
    /// Hop counts a message can travel: `0..=dimension`.
    hop_counts: usize,
    /// Assignment, notification and lone-request message times, by hop
    /// count.
    pub(crate) assign: Vec<SimDuration>,
    pub(crate) notify: Vec<SimDuration>,
    request: Vec<SimDuration>,
    /// `object[o * hop_counts + h]`: a message carrying object `o` alone
    /// (a lone reply, a checkpoint payload) over `h` hops.
    object: Vec<SimDuration>,
}

impl Costs {
    /// Price `m`'s fixed-size messages and `trace`'s objects, naming the
    /// first message too large to send in representable virtual time.
    fn of(m: &IpscSpec, trace: &Trace) -> Result<Costs, SimError> {
        let hop_counts = m.dimension() as usize + 1;
        let mut object = Vec::with_capacity(trace.objects.len() * hop_counts);
        for ob in &trace.objects {
            for h in 0..hop_counts {
                object.push(price(m, ob.size_bytes, h).ok_or_else(|| {
                    too_big(format!("object {} of {} bytes", ob.name, ob.size_bytes))
                })?);
            }
        }
        Ok(Costs {
            machine: m.clone(),
            hop_counts,
            assign: by_hops(m, ASSIGN_BYTES, "assign_bytes")?,
            notify: by_hops(m, NOTIFY_BYTES, "notify_bytes")?,
            request: by_hops(m, REQUEST_BYTES, "request_bytes")?,
            object,
        })
    }

    /// Wire time of a coalesced bundle of `bytes` from `src` to `dst`.
    fn bundle(&self, bytes: u64, src: ProcId, dst: ProcId) -> SimDuration {
        price(&self.machine, bytes as usize, hops(src, dst)).expect("virtual time overflow")
    }

    /// Wire time of object `o` alone over `h` hops.
    pub(crate) fn object(&self, o: ObjectId, h: usize) -> SimDuration {
        self.object[o.index() * self.hop_counts + h]
    }
}

/// Scratch for grouping a fetch set by each object's *current* owner; the
/// entries past the live ones keep their buffers.
#[derive(Default)]
pub(crate) struct Groups {
    list: Vec<(ProcId, Vec<ObjectId>)>,
    /// Per processor: the index of its group while that entry is live and
    /// names it (a stale index fails the check, so none is ever cleared).
    of: Vec<usize>,
}

impl Groups {
    /// Group `objs` by `owner`, in the given order inside every group and
    /// in first-appearance order across groups (deterministic, no hashing).
    pub(crate) fn group(
        &mut self,
        objs: impl Iterator<Item = ObjectId>,
        mut owner: impl FnMut(ObjectId) -> ProcId,
    ) -> &[(ProcId, Vec<ObjectId>)] {
        let mut n = 0;
        for o in objs {
            let owner = owner(o);
            if owner >= self.of.len() {
                self.of.resize(owner + 1, 0);
            }
            let mut i = self.of[owner];
            if i >= n || self.list[i].0 != owner {
                (i, self.of[owner]) = (n, n);
                if n == self.list.len() {
                    self.list.push((owner, Vec::new()));
                }
                self.list[n].0 = owner;
                self.list[n].1.clear();
                n += 1;
            }
            self.list[i].1.push(o);
        }
        &self.list[..n]
    }

    /// `owner`'s group in the last grouping, which must have one.
    pub(crate) fn of(&self, owner: ProcId) -> &[ObjectId] {
        &self.list[self.of[owner]].1
    }
}

/// Put one data message of `bytes`, the record in `slot`, sent at `at`, on
/// the unreliable network: draw its fate, report a loss at the sender
/// `from`, and schedule one `ev` per delivered copy, `arrives` being the
/// fault-free arrival. The last copy takes the record itself: a duplicate
/// gets its own copy of the record, and a lost message frees it.
fn transmit<'a, R: Sink, H: Host<'a, R>>(
    h: &mut H,
    from: ProcId,
    at: SimTime,
    bytes: u64,
    arrives: SimTime,
    slot: u32,
    ev: fn(u32) -> Ev,
) {
    let fate = h.core().inj.message_fate();
    if fate.dropped() {
        let net = h.net();
        let (task, obj) = (net.msgs[slot].task, net.msgs[slot].list[0].0);
        net.msgs.release(slot);
        let kind = EventKind::MsgDropped { bytes };
        h.core().events.emit_obj(at.0, from, kind, Some(task), obj);
    }
    let last = fate.copies.len().saturating_sub(1);
    for (i, extra) in fate.copies.enumerate() {
        let copy = if i == last {
            slot
        } else {
            h.net().msgs.duplicate(slot)
        };
        h.core().schedule(arrives + extra, ev(copy).into());
    }
}

/// [`Host::send_request`] for fetch `attempt`. The request shares one
/// message fate; when message faults are possible each object arms its own
/// ack timer for `attempt`, so a lost bundle degrades to the per-object
/// fetch/retry path.
fn send<'a, R: Sink, H: Host<'a, R>>(
    h: &mut H,
    issuer: ProcId,
    p: ProcId,
    task: TaskId,
    objs: &[ObjectId],
    attempt: u32,
    t: SimTime,
) -> SimTime {
    let owner = h.comm().owner(objs[0]);
    let coalesced = objs.len() >= 2;
    // Prefetch of objects the issuer already owns (main-resident data):
    // there is no request message to compose or lose — the owner starts
    // streaming the reply directly. Issuing on behalf of another processor
    // happens inside the dispatch handler main is already paying for
    // (split-phase prefetch): the request packet joins the outgoing
    // transfer, so no separate send-handler occupancy — the owner and
    // requester still pay their full receive-side costs.
    let direct = issuer == owner;
    let sent = if issuer == p && !direct {
        h.handler_op(issuer, t, REQUEST_SEND, TimeKind::Comm)
    } else {
        t
    };
    let slot = h.net().msgs.alloc(p, task, sent, coalesced);
    h.net().msgs[slot].list.extend(objs.iter().map(|&o| (o, 0)));
    if direct {
        h.core().schedule(t, Ev::Request(slot).into());
    } else {
        let bytes = (REQUEST_BYTES + usize::from(coalesced) * objs.len() * AGG_ENTRY_BYTES) as u64;
        let kind = EventKind::ObjectRequest { bytes };
        h.core()
            .events
            .emit_obj(sent.0, issuer, kind, Some(task), objs[0]);
        let costs = &h.net().costs;
        let wire = if coalesced {
            costs.bundle(bytes, issuer, owner)
        } else {
            costs.request[hops(issuer, owner)]
        };
        transmit(h, issuer, sent, bytes, sent + wire, slot, Ev::Request);
    }
    if h.net().lossy {
        for &obj in objs {
            let timeout = h
                .net()
                .timeout(obj, hops(p, owner), attempt)
                .expect("ack timeouts are bounded at setup");
            let ev = Ev::FetchTimeout {
                proc: p,
                task,
                obj,
                attempt,
            };
            h.core().schedule_timer(sent + timeout, ev.into());
        }
    }
    sent
}

/// A request arrived. Owners are recomputed per object (a fail-stop while
/// the request was in flight moves recovery copies); each current owner
/// answers with one reply, sized by the request's size rule even when
/// regrouping leaves it a single object.
fn on_request<'a, R: Sink, H: Host<'a, R>>(h: &mut H, slot: u32, t: SimTime) {
    let net = h.net();
    let m = &net.msgs[slot];
    let (coalesced, requester, task, sent_at) = (m.coalesced, m.proc, m.task, m.sent_at);
    let objs = std::mem::take(&mut net.msgs[slot].list);
    let mut groups = std::mem::take(&mut net.groups);
    let n = groups
        .group(objs.iter().map(|&(o, _)| o), |o| h.comm().owner(o))
        .len();
    let net = h.net();
    net.msgs[slot].list = objs;
    net.msgs.release(slot);
    for &(owner, ref group) in &groups.list[..n] {
        let reply = h.net().msgs.alloc(requester, task, sent_at, coalesced);
        // The size rule: a coalesced message carries a per-object entry.
        let mut bytes = (usize::from(coalesced) * group.len() * AGG_ENTRY_BYTES) as u64;
        for &o in group {
            let comm = h.comm();
            comm.record_request(requester, o);
            let v = comm.version(o);
            bytes += h.core().trace.object_size(o) as u64;
            h.net().msgs[reply].list.push((o, v));
        }
        // The owner's processor is occupied for the full reply send:
        // object distribution delays the owner's computation (Section
        // 5.3). The exception is a split-phase prefetch reply, which the
        // message system streams asynchronously — the wire and byte
        // counters see the traffic, but no processor stalls for it
        // (DESIGN.md §17).
        let net = h.net();
        let prefetch = group.iter().any(|&o| net.prefetched(task, o));
        let dur = if coalesced {
            net.costs.bundle(bytes, owner, requester)
        } else {
            net.costs.object(group[0], hops(owner, requester))
        };
        let send_end = if prefetch {
            t + dur
        } else {
            h.handler_op(owner, t, dur, TimeKind::Comm)
        };
        transmit(h, owner, send_end, bytes, send_end, reply, Ev::Reply);
    }
    h.net().groups = groups;
}

/// A reply arrived: one receive-handler interrupt, then each object
/// delivers individually through the version-checked idempotent path —
/// stale or unwanted entries are discarded (their ack timers re-fetch them
/// singly). A reply that delivers two or more objects was one coalesced
/// message and says so (`AggregatedFetch`).
fn on_reply<'a, R: Sink, H: Host<'a, R>>(h: &mut H, slot: u32, t: SimTime) {
    let m = &h.net().msgs[slot];
    let (p, task, sent_at) = (m.proc, m.task, m.sent_at);
    if !h.comm().is_alive(p) {
        h.net().msgs.release(slot);
        return;
    }
    let net = h.net();
    let items = std::mem::take(&mut net.msgs[slot].list);
    // Receiving costs handler time whether or not the payload is kept: a
    // duplicate still interrupts the processor. A prefetched reply instead
    // lands by asynchronous transfer — no interrupt, the data is simply
    // resident when the assignment reconciles (DESIGN.md §17).
    let t1 = if items.iter().any(|&(o, _)| net.prefetched(task, o)) {
        t
    } else {
        h.handler_op(p, t, OBJECT_RECV, TimeKind::Comm)
    };
    let (mut delivered, mut delivered_bytes, mut first) = (0u32, 0u64, None);
    for &(obj, version) in &items {
        if accept(h, p, task, (obj, version), sent_at, t) {
            delivered += 1;
            delivered_bytes += h.core().trace.object_size(obj) as u64;
            first.get_or_insert(obj);
        }
    }
    let net = h.net();
    net.msgs[slot].list = items;
    net.msgs.release(slot);
    if let (2.., Some(first)) = (delivered, first) {
        let kind = EventKind::AggregatedFetch {
            objects: delivered,
            bytes: delivered_bytes,
        };
        h.core().events.emit_obj(t.0, p, kind, Some(task), first);
    }
    if delivered > 0 {
        h.fetched(p, task, t1);
    }
}

/// Version-checked idempotent delivery of one object of a reply to `task`
/// on `p`. A duplicate of an already-satisfied fetch, a reply overtaken by
/// a re-dispatch, or a stale version is discarded (`false`), never
/// applied.
fn accept<'a, R: Sink, H: Host<'a, R>>(
    h: &mut H,
    p: ProcId,
    task: TaskId,
    (obj, version): (ObjectId, u64),
    requested_at: SimTime,
    t: SimTime,
) -> bool {
    let f = &mut h.net().fetches[task.index()];
    let pending = f.slot(obj).ok().filter(|&i| f.list[i].pending.is_some());
    if let Some(i) = pending {
        let prefetched = f.list[i].prefetched;
        if h.deliver(p, task, (obj, version), requested_at, prefetched, t) {
            let f = &mut h.net().fetches[task.index()];
            f.list[i].pending = None;
            f.outstanding -= 1;
            return true;
        }
    }
    h.net().n_discarded += 1;
    let bytes = h.core().trace.object_size(obj) as u64;
    let kind = EventKind::MsgDiscarded { bytes };
    h.core().events.emit_obj(t.0, p, kind, Some(task), obj);
    false
}

/// A broadcast copy arrived.
fn on_push<'a, R: Sink, H: Host<'a, R>>(h: &mut H, slot: u32, t: SimTime) {
    let net = h.net();
    let (p, (obj, version)) = (net.msgs[slot].proc, net.msgs[slot].list[0]);
    net.msgs.release(slot);
    if !h.comm().is_alive(p) {
        return;
    }
    h.handler_op(p, t, OBJECT_RECV, TimeKind::Comm);
    if !h.comm().deliver_pushed(p, obj, version) {
        // Stale (a newer version exists) or duplicate (already held).
        h.net().n_discarded += 1;
        let bytes = h.core().trace.object_size(obj) as u64;
        let kind = EventKind::MsgDiscarded { bytes };
        h.core().events.emit_obj(t.0, p, kind, None, obj);
    }
}

/// The ack timer of fetch `attempt` of `obj` for `task` on `p` fired: if
/// that attempt is still pending, re-send it, or fail the run once the
/// retry budget is spent. Any other timer is stale.
fn on_timeout<'a, R: Sink, H: Host<'a, R>>(
    h: &mut H,
    p: ProcId,
    task: TaskId,
    obj: ObjectId,
    attempt: u32,
    t: SimTime,
) {
    let alive = h.comm().is_alive(p);
    let f = &mut h.net().fetches[task.index()];
    let pending = f.slot(obj).ok().map(|i| &mut f.list[i]);
    let Some(fetch) = pending.filter(|f| alive && f.pending == Some(attempt)) else {
        return;
    };
    let next = attempt + 1;
    if next >= MAX_FETCH_ATTEMPTS {
        h.core().fatal = Some(SimError::RetriesExhausted {
            task,
            object: obj,
            attempts: next,
        });
        return;
    }
    fetch.pending = Some(next);
    h.net().n_retried += 1;
    let kind = EventKind::MsgRetried {
        bytes: REQUEST_BYTES as u64,
    };
    h.core().events.emit_obj(t.0, p, kind, Some(task), obj);
    send(h, p, p, task, &[obj], next, t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::driver::{self, Core, Params, Run};
    use dsim::FaultPlan;
    use jade_core::{AccessSpec, LocalityMode, NullSink, TraceBuilder};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// A runtime without a scheduler: each task runs on the processor its
    /// trace places it on, once the transport has handed it every object it
    /// reads. Main issues the fetches of odd tasks on their behalf.
    struct Probe<'a> {
        core: Core<'a, Ev, NullSink>,
        net: Net,
        comm: Communicator,
        /// Per task: the objects it requested, and how often each arrived.
        wanted: Vec<Vec<(ObjectId, u32)>>,
        ready: Vec<VecDeque<TaskId>>,
    }

    impl<'a> Machine<'a, NullSink> for Probe<'a> {
        type Ev = Ev;
        type Result = (Vec<Vec<(ObjectId, u32)>>, usize);

        fn core(&mut self) -> &mut Core<'a, Ev, NullSink> {
            &mut self.core
        }

        fn enable(&mut self, id: TaskId, t: SimTime) {
            let rec = &self.core.trace.tasks[id.index()];
            let p = rec.placement.expect("every task is placed");
            let reads = rec.spec.decls().iter();
            let reads = reads.filter(|d| self.comm.needs_fetch(p, d.object));
            let objs: Vec<ObjectId> = reads.map(|d| d.object).collect();
            self.wanted[id.index()] = objs.iter().map(|&o| (o, 0)).collect();
            if objs.is_empty() {
                return self.fetched(p, id, t);
            }
            let issuer = if id.0 % 2 == 1 { 0 } else { p };
            let mut groups = std::mem::take(&mut self.net.groups);
            let comm = &self.comm;
            for (_, bundle) in groups.group(objs.into_iter(), |o| comm.owner(o)) {
                self.send_request(issuer, p, id, bundle, t);
            }
            self.net.groups = groups;
        }

        fn enable_serial(&mut self, _: TaskId, _: SimTime) {
            unreachable!("the probe's traces have no serial phase");
        }

        fn fill(&mut self, p: ProcId, t: SimTime) {
            if self.core.executing[p].is_none() {
                if let Some(id) = self.ready[p].pop_front() {
                    self.start_task(p, id, t);
                }
            }
        }

        fn finish(&mut self, p: ProcId, id: TaskId, t: SimTime) {
            self.core.executing[p] = None;
            self.complete(id, p, t);
            self.fill(p, t);
        }

        fn handle(&mut self, ev: Ev, t: SimTime) {
            self.on_net(ev, t);
        }

        fn result(self, _: Run) -> Self::Result {
            (self.wanted, self.net.live())
        }
    }

    impl<'a> Host<'a, NullSink> for Probe<'a> {
        fn net(&mut self) -> &mut Net {
            &mut self.net
        }

        fn comm(&mut self) -> &mut Communicator {
            &mut self.comm
        }

        fn handler_op(&mut self, p: ProcId, t: SimTime, d: SimDuration, k: TimeKind) -> SimTime {
            self.core.occupy(p, t, d, k, None)
        }

        fn deliver(
            &mut self,
            p: ProcId,
            task: TaskId,
            (o, version): (ObjectId, u64),
            _: SimTime,
            _: bool,
            _: SimTime,
        ) -> bool {
            let bytes = self.core.trace.object_size(o) as u64;
            let applied = self.comm.deliver(p, o, version, bytes);
            let wanted = &mut self.wanted[task.index()];
            let i = wanted.iter().position(|w| w.0 == o);
            wanted[i.expect("only requested objects arrive")].1 += u32::from(applied);
            applied
        }

        fn fetched(&mut self, p: ProcId, task: TaskId, t: SimTime) {
            if self.net.outstanding(task) == 0 {
                self.ready[p].push_back(task);
                self.fill(p, t);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Under any drop, duplicate, delay and reorder fates, the transport
        /// hands every requested object to the runtime exactly once and
        /// frees every message record, or the run ends in
        /// `RetriesExhausted` after the retry budget.
        #[test]
        fn each_object_arrives_once_or_the_retries_run_out(
            drop_pick in 0usize..5,
            dup in 0u32..60,
            delay in 0u32..100,
            reorder in 0u32..100,
            seed in any::<u64>(),
            homes in prop::collection::vec(0usize..8, 1..10),
            tasks in prop::collection::vec((1usize..8, any::<u64>()), 1..8),
        ) {
            let mut b = TraceBuilder::new();
            let data: Vec<_> = homes
                .iter()
                .enumerate()
                .map(|(i, &h)| b.object(&format!("d{i}"), 100 + 1000 * i, Some(h)))
                .collect();
            for (i, &(p, reads)) in tasks.iter().enumerate() {
                let mut s = AccessSpec::new();
                s.wr(b.object(&format!("out{i}"), 8, Some(p)));
                for (j, &o) in data.iter().enumerate() {
                    if reads >> j & 1 == 1 {
                        s.rd(o);
                    }
                }
                b.task_full(s, 1.0, Some(p), false);
            }
            let trace = b.build();
            let mut cfg = IpscConfig::paper(8, LocalityMode::TaskPlacement, 1e-3);
            cfg.faults = FaultPlan {
                drop_p: [0.0, 0.05, 0.2, 0.5, 0.9][drop_pick],
                dup_p: dup as f64 / 100.0,
                delay_p: delay as f64 / 100.0,
                delay: SimDuration::from_micros(500),
                reorder_p: reorder as f64 / 100.0,
                reorder_window: SimDuration::from_micros(200),
                seed,
                ..FaultPlan::none()
            };
            let params = Params {
                procs: 8,
                sec_per_op: cfg.sec_per_op,
                create: SimDuration::from_micros(10),
                work_free: false,
                replication: true,
                faults: cfg.faults,
            };
            let run = driver::simulate(&trace, params, NullSink, |core| {
                Ok(Probe {
                    net: Net::new(&cfg, core.trace)?,
                    comm: Communicator::new(core.trace, 8, false, 0.0),
                    wanted: vec![Vec::new(); core.trace.tasks.len()],
                    ready: vec![VecDeque::new(); 8],
                    core,
                })
            });
            match run {
                Ok(((wanted, live), _)) => {
                    for (task, objs) in wanted.iter().enumerate() {
                        for &(o, n) in objs {
                            prop_assert_eq!(n, 1, "task {} got {:?} {} times", task, o, n);
                        }
                    }
                    prop_assert_eq!(live, 0, "message records leaked");
                }
                Err(e) => prop_assert!(
                    matches!(e, SimError::RetriesExhausted { attempts, .. }
                        if attempts == MAX_FETCH_ATTEMPTS),
                    "{e}"
                ),
            }
        }
    }
}
