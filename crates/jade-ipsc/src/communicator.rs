//! The communicator: Jade's software shared-object layer on message-passing
//! machines (paper Sections 3.3–3.4.2).
//!
//! The communicator implements the abstraction of a single address space in
//! software. It tracks, per shared object:
//!
//! * the current **version** (bumped each time a writer task completes);
//! * the **owner** — the last processor to write the object, guaranteed to
//!   hold the latest version;
//! * which processors hold a valid **replica** of the current version
//!   (replication for concurrent read access, Section 3.4.1);
//! * the set of processors that have **requested** the current version —
//!   the owner's evidence for the adaptive broadcast trigger: once every
//!   processor has accessed the same version of an object, all succeeding
//!   versions of that object are broadcast on production (Section 3.4.2).
//!
//! Delivery is **idempotent and version-checked**: [`Communicator::deliver`]
//! applies a payload only if it carries the current version to a live
//! processor, so duplicated, delayed, or reordered messages (fault
//! injection) are discarded rather than applied. Point-to-point payload
//! bytes are therefore accounted at *acceptance*, while broadcast bytes
//! are accounted at the *send* (the root pays for the tree whether or not
//! an individual copy is lost); under a fault-free run the two
//! conventions coincide with counting every transfer exactly once.
//!
//! This module is pure bookkeeping; the event-level costs live in the
//! simulator (`crate::sim`: broadcast trees) and its transport
//! (`crate::net`: request/reply messages, retry timers).

use dsim::ProcId;
use jade_core::{ObjectId, Trace};

const NO_VERSION: u64 = u64::MAX;

/// Per-object byte attribution, split by transfer mechanism.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjectTraffic {
    /// Accepted point-to-point fetch payload bytes.
    pub fetch_bytes: u64,
    /// Broadcast payload bytes (`size × receivers` per broadcast).
    pub broadcast_bytes: u64,
    /// Fail-stop recovery bytes: sole copies re-materialized at a surviving
    /// processor after their owner died.
    pub restore_bytes: u64,
}

impl ObjectTraffic {
    pub fn total(&self) -> u64 {
        self.fetch_bytes + self.broadcast_bytes + self.restore_bytes
    }
}

/// Per-object ownership, versioning, replication and broadcast state.
///
/// The per-processor tables are object-major and flat: object `o`'s row
/// is contiguous, so retiring a version rewrites one row and the trigger
/// scan reads one.
pub struct Communicator {
    procs: usize,
    version: Vec<u64>,
    owner: Vec<ProcId>,
    /// `have[o * procs + p]` = version of object `o` held by processor `p`
    /// (`NO_VERSION` = none).
    have: Vec<u64>,
    /// Bit words per processor set: `words = ceil(procs / 64)`.
    words: usize,
    /// Bit `p` of object `o`'s `words`-long row, starting at
    /// `accessed[o * words]`: processor `p` has *consumed* the current
    /// version of `o` — by requesting it from the owner or by a
    /// locally-satisfied declared access. Producing a version does not
    /// count: otherwise every object on a 2-processor run would trigger
    /// broadcast mode, which contradicts the paper's Tables 13/14.
    accessed: Vec<u64>,
    broadcast_mode: Vec<bool>,
    adaptive_broadcast: bool,
    /// Consecutive retired versions of each object that were widely
    /// accessed — the accumulated consumer evidence for the broadcast
    /// trigger. Reset by a narrowly-accessed version and by *any*
    /// alive-set change: evidence accumulated against a larger receiver
    /// set must not satisfy the smaller set's cheaper break-even (a
    /// fail-stop shrinks [`Self::evidence_needed`], and stale evidence
    /// would instantly flip an object into broadcast mode on an unrelated
    /// death).
    evidence: Vec<u32>,
    /// Extra evidence demanded on top of the §3.4.2 break-even before an
    /// object flips into broadcast mode — the feedback controller's knob
    /// (DESIGN.md §19); 0 (the default) is the paper's behavior.
    margin: u32,
    /// Retired versions that were widely accessed (feedback-controller
    /// observation; deterministic — a pure function of trace and plan).
    pub wide_retired: u64,
    /// Retired versions that were not widely accessed.
    pub narrow_retired: u64,
    /// Configured data-message loss rate (from the fault plan). Under loss
    /// each broadcast multiplies the retransmission surface by its receiver
    /// count, so the §3.4.2 break-even needs proportionally more evidence
    /// before flipping an object into broadcast mode; see
    /// [`Self::evidence_needed`].
    drop_p: f64,
    /// The live processors as `words` bit words (bits at `procs` and above
    /// are clear). Fail-stopped processors are excluded from the broadcast
    /// trigger and from delivery.
    alive: Vec<u64>,
    /// Per-object byte attribution (fetch/broadcast/restore).
    traffic: Vec<ObjectTraffic>,
    /// Bytes of shared-object payload transferred (accepted replies +
    /// broadcasts + restores).
    pub bytes_transferred: u64,
    /// Number of accepted point-to-point object transfers.
    pub object_sends: u64,
    /// Number of broadcast operations performed.
    pub broadcasts: u64,
    /// Number of sole-copy objects re-materialized after owner death.
    pub object_restores: u64,
}

/// Bit `p` of a row of bit words: (word index, mask).
#[inline]
fn bit(p: ProcId) -> (usize, u64) {
    (p / 64, 1 << (p % 64))
}

impl Communicator {
    /// Initial state: each object's only copy lives at its home processor
    /// (the processor that allocated/initialized it); version 0. `drop_p`
    /// is the fault plan's data-message loss rate (0 when fault-free),
    /// folded into the adaptive-broadcast break-even.
    pub fn new(trace: &Trace, procs: usize, adaptive_broadcast: bool, drop_p: f64) -> Communicator {
        let n = trace.objects.len();
        let words = procs.div_ceil(64);
        let mut have = vec![NO_VERSION; n * procs];
        let mut owner = Vec::with_capacity(n);
        for (i, ob) in trace.objects.iter().enumerate() {
            let home = ob.home.unwrap_or(jade_core::MAIN_PROC).min(procs - 1);
            owner.push(home);
            have[i * procs + home] = 0;
        }
        let mut alive = vec![0; words];
        for p in 0..procs {
            let (w, m) = bit(p);
            alive[w] |= m;
        }
        Communicator {
            procs,
            version: vec![0; n],
            owner,
            have,
            words,
            accessed: vec![0; n * words], // nothing consumed yet
            broadcast_mode: vec![false; n],
            adaptive_broadcast,
            evidence: vec![0; n],
            margin: 0,
            wide_retired: 0,
            narrow_retired: 0,
            drop_p,
            alive,
            traffic: vec![ObjectTraffic::default(); n],
            bytes_transferred: 0,
            object_sends: 0,
            broadcasts: 0,
            object_restores: 0,
        }
    }

    /// Object `i`'s row of `accessed` bit words.
    fn accessed_row(&self, i: usize) -> &[u64] {
        &self.accessed[i * self.words..(i + 1) * self.words]
    }

    /// Current owner (the last writer) of an object.
    pub fn owner(&self, o: ObjectId) -> ProcId {
        self.owner[o.index()]
    }

    /// Current version of an object.
    pub fn version(&self, o: ObjectId) -> u64 {
        self.version[o.index()]
    }

    /// All current object versions: the communicator's view of the final
    /// application state. Two runs computed the same results iff their
    /// version vectors (and the per-task completion set) agree.
    pub fn final_versions(&self) -> Vec<u64> {
        self.version.clone()
    }

    /// Is the processor still participating in the protocol?
    pub fn is_alive(&self, p: ProcId) -> bool {
        let (w, m) = bit(p);
        self.alive[w] & m != 0
    }

    /// Does processor `p` need to fetch `o` before running a task that
    /// accesses it?
    pub fn needs_fetch(&self, p: ProcId, o: ObjectId) -> bool {
        self.have[o.index() * self.procs + p] != self.version[o.index()]
    }

    /// Record that `requester` asked the owner for the current version —
    /// this is what the owner observes for the broadcast trigger. Payload
    /// bytes are accounted when the reply is *accepted* ([`Self::deliver`]),
    /// not here: a dropped reply moves no object.
    pub fn record_request(&mut self, requester: ProcId, o: ObjectId) {
        self.note_access(requester, o);
    }

    /// Record a locally-satisfied declared access: the processor already
    /// holds the current version (it is the owner or got it by broadcast)
    /// and a task on it declared an access.
    pub fn note_access(&mut self, p: ProcId, o: ObjectId) {
        let (w, m) = bit(p);
        self.accessed[o.index() * self.words + w] |= m;
    }

    /// Deliver a point-to-point fetch reply of `expected_version` to `p`.
    /// Applied — replica installed, `bytes` accounted — only if `p` is
    /// alive and the payload is still the current version; stale deliveries
    /// return `false` and change nothing. Re-delivery of the current
    /// version is idempotent on the replica state but each accepted reply
    /// accounts its payload (the owner sent a full reply per request); the
    /// transport filters out *duplicated* copies of a single request before
    /// calling this, using its per-task pending set.
    pub fn deliver(&mut self, p: ProcId, o: ObjectId, expected_version: u64, bytes: u64) -> bool {
        let i = o.index();
        if !self.is_alive(p) || self.version[i] != expected_version {
            return false;
        }
        self.have[i * self.procs + p] = expected_version;
        self.bytes_transferred += bytes;
        self.traffic[i].fetch_bytes += bytes;
        self.object_sends += 1;
        true
    }

    /// Has the current version been accessed by every live processor? (The
    /// adaptive-broadcast trigger condition.)
    pub fn widely_accessed(&self, o: ObjectId) -> bool {
        self.accessed_row(o.index())
            .iter()
            .zip(&self.alive)
            .all(|(&a, &live)| a & live == live)
    }

    /// Is the object in broadcast mode?
    pub fn in_broadcast_mode(&self, o: ObjectId) -> bool {
        self.broadcast_mode[o.index()]
    }

    /// How many consecutive widely-accessed versions an object must retire
    /// before flipping into broadcast mode. Loss-free this is 1 — the
    /// paper's §3.4.2 trigger exactly. Under a configured drop rate each
    /// broadcast expects `drop_p × receivers` lost copies, each repaired by
    /// a retransmitted point-to-point fetch, so the break-even demands that
    /// much extra evidence that the all-consumer pattern is persistent.
    pub fn evidence_needed(&self) -> u32 {
        let live: u32 = self.alive.iter().map(|w| w.count_ones()).sum();
        let receivers = live.saturating_sub(1);
        // The margin is user input: saturate, so a huge margin means
        // "never broadcast" rather than wrapping to a small threshold.
        1u32.saturating_add((self.drop_p * receivers as f64).ceil() as u32)
            .saturating_add(self.margin)
    }

    /// Extra evidence currently demanded beyond the drop-rate break-even.
    pub fn evidence_margin(&self) -> u32 {
        self.margin
    }

    /// Set the evidence margin (the feedback controller's knob). Takes
    /// effect on the next trigger evaluation; already-flipped objects stay
    /// in broadcast mode.
    pub fn set_evidence_margin(&mut self, margin: u32) {
        self.margin = margin;
    }

    /// A writer task on `p` completed, producing a new version of `o`.
    /// Returns `true` if the new version should be broadcast.
    pub fn on_write_complete(&mut self, p: ProcId, o: ObjectId) -> bool {
        let i = o.index();
        // Evaluate the trigger on the version being retired: a widely
        // accessed version accumulates evidence, a narrowly accessed one
        // resets it.
        if self.adaptive_broadcast {
            if self.widely_accessed(o) {
                self.wide_retired += 1;
                self.evidence[i] += 1;
                if self.evidence[i] >= self.evidence_needed() {
                    self.broadcast_mode[i] = true;
                }
            } else {
                self.narrow_retired += 1;
                self.evidence[i] = 0;
            }
        }
        self.version[i] += 1;
        self.owner[i] = p;
        let v = self.version[i];
        let row = &mut self.have[i * self.procs..(i + 1) * self.procs];
        row.fill(NO_VERSION);
        row[p] = v;
        self.accessed[i * self.words..(i + 1) * self.words].fill(0);
        self.broadcast_mode[i]
    }

    /// Account a broadcast of `o` delivered to `receivers` processors (the
    /// simulator schedules the deliveries and decides, per receiver, whether
    /// the copy survives the network).
    pub fn record_broadcast(&mut self, o: ObjectId, bytes: usize, receivers: usize) {
        let payload = bytes as u64 * receivers as u64;
        self.bytes_transferred += payload;
        self.traffic[o.index()].broadcast_bytes += payload;
        self.broadcasts += 1;
    }

    /// Deliver a broadcast copy of version `v` to `p`. Bytes were
    /// accounted at the send; this only installs the replica. Returns
    /// `false` for stale/duplicate/dead-target copies.
    pub fn deliver_pushed(&mut self, p: ProcId, o: ObjectId, v: u64) -> bool {
        let i = o.index();
        let j = i * self.procs + p;
        if !self.is_alive(p) || self.version[i] != v || self.have[j] == v {
            return false;
        }
        self.have[j] = v;
        true
    }

    /// Per-object byte attribution.
    pub fn object_traffic(&self, o: ObjectId) -> ObjectTraffic {
        self.traffic[o.index()]
    }

    /// Capture what a checkpoint keeps of the communicator: the object
    /// versions (what recovery and the next capture compare against) and
    /// the shape of the tables (what the capture is charged for).
    pub fn snapshot(&self) -> CommSnapshot {
        CommSnapshot {
            procs: self.procs,
            version: self.version.clone(),
        }
    }

    /// Account one sole-copy restore of `o` (called by the simulator after
    /// [`Self::fail_proc`] reported the object, once the restore transfer
    /// has been charged through the machine cost model).
    pub fn record_restore(&mut self, o: ObjectId, bytes: u64) {
        self.bytes_transferred += bytes;
        self.traffic[o.index()].restore_bytes += bytes;
        self.object_restores += 1;
    }

    /// Processor `p` fail-stopped. Its replicas and trigger evidence are
    /// gone; objects it owned move to a live holder of the current version,
    /// or — when the dead processor held the only copy — are re-materialized
    /// at the main processor (the runtime's recovery copy).
    ///
    /// **Every** object's accumulated broadcast-trigger evidence resets on
    /// the alive-set change, not just the dead processor's: the death
    /// shrinks the receiver count and with it [`Self::evidence_needed`],
    /// so evidence accumulated under the old, larger threshold could
    /// otherwise instantly flip an object into broadcast mode on an
    /// unrelated fail-stop. The streak must be re-earned against the live
    /// set. Objects the dead processor owned additionally reset
    /// `broadcast_mode` and their consumer sets — the dead owner's
    /// observations described a consumer set that no longer exists — and
    /// move ownership.
    ///
    /// Returns the objects whose **only** copy died with `p`. The caller
    /// must charge each restore transfer through the machine cost model and
    /// account it with [`Self::record_restore`] — this method only moves
    /// the metadata.
    pub fn fail_proc(&mut self, p: ProcId) -> Vec<ObjectId> {
        let (w, m) = bit(p);
        self.alive[w] &= !m;
        let mut restored = Vec::new();
        for i in 0..self.version.len() {
            self.have[i * self.procs + p] = NO_VERSION;
            self.accessed[i * self.words + w] &= !m;
            self.evidence[i] = 0;
            if self.owner[i] == p {
                self.accessed[i * self.words..(i + 1) * self.words].fill(0);
                self.broadcast_mode[i] = false;
                let v = self.version[i];
                let row = &self.have[i * self.procs..(i + 1) * self.procs];
                let holder = (0..self.procs).find(|&q| self.is_alive(q) && row[q] == v);
                let new_owner = match holder {
                    Some(q) => q,
                    None => {
                        restored.push(ObjectId(i as u32));
                        jade_core::MAIN_PROC
                    }
                };
                self.owner[i] = new_owner;
                self.have[i * self.procs + new_owner] = v;
            }
        }
        restored
    }
}

/// A checkpoint's view of the communicator: the per-object versions at
/// capture time. Fail-stop recovery consults it to decide which lost sole
/// copies the checkpoint covers (object version unchanged since capture —
/// the payload is in the checkpoint) versus which need the expensive
/// recovery-copy transfer. The ownership/replica/broadcast-mode tables are
/// *charged* as part of the capture ([`Self::table_bytes`]) but not copied:
/// recovery rebuilds them from the live communicator
/// ([`Communicator::fail_proc`]) and nothing reads a captured one.
#[derive(Clone, Debug, PartialEq)]
pub struct CommSnapshot {
    procs: usize,
    version: Vec<u64>,
}

impl CommSnapshot {
    /// Version of `o` captured in this checkpoint.
    pub fn version(&self, o: ObjectId) -> u64 {
        self.version[o.index()]
    }

    /// Does this checkpoint hold the payload for version `v` of `o`?
    pub fn covers(&self, o: ObjectId, v: u64) -> bool {
        self.version
            .get(o.index())
            .is_some_and(|&captured| captured == v)
    }

    /// Encoded size of the metadata tables (payload bytes are accounted
    /// separately, per dirty object, when the checkpoint is taken): per
    /// object a version (8), an owner (4), a mode flag (1), an evidence
    /// counter (4), and per processor a held-version entry (8) plus an
    /// accessed bit (1).
    pub fn table_bytes(&self) -> u64 {
        let n = self.version.len() as u64;
        n * (17 + 9 * self.procs as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::TraceBuilder;
    use proptest::prelude::*;

    fn trace2() -> Trace {
        let mut b = TraceBuilder::new();
        b.object("a", 1000, Some(0));
        b.object("b", 2000, Some(1));
        b.build()
    }

    fn o(n: u32) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn initial_state() {
        let c = Communicator::new(&trace2(), 4, true, 0.0);
        assert_eq!(c.owner(o(0)), 0);
        assert_eq!(c.owner(o(1)), 1);
        assert!(!c.needs_fetch(0, o(0)));
        assert!(c.needs_fetch(0, o(1)));
        assert!(c.needs_fetch(2, o(0)));
        assert!(c.is_alive(3));
    }

    #[test]
    fn fetch_and_replicate() {
        let mut c = Communicator::new(&trace2(), 4, true, 0.0);
        c.record_request(2, o(0));
        assert!(c.deliver(2, o(0), 0, 1000));
        assert!(!c.needs_fetch(2, o(0)));
        assert_eq!(c.bytes_transferred, 1000);
        assert_eq!(c.object_sends, 1);
        assert_eq!(c.object_traffic(o(0)).fetch_bytes, 1000);
        // Replication: processor 3 can fetch the same version too.
        c.record_request(3, o(0));
        assert!(c.deliver(3, o(0), 0, 1000));
        assert!(!c.needs_fetch(3, o(0)));
    }

    #[test]
    fn redelivery_is_idempotent_on_state() {
        let mut c = Communicator::new(&trace2(), 4, true, 0.0);
        c.record_request(2, o(0));
        assert!(c.deliver(2, o(0), 0, 1000));
        // A second accepted reply (two tasks on one processor fetching the
        // same object) re-installs the same replica and accounts its own
        // payload; duplicated copies of a *single* request never reach the
        // communicator (the simulator's pending set filters them).
        assert!(c.deliver(2, o(0), 0, 1000));
        assert!(!c.needs_fetch(2, o(0)));
        assert_eq!(c.bytes_transferred, 2000);
        assert_eq!(c.object_sends, 2);
    }

    #[test]
    fn write_bumps_version_and_invalidates() {
        let mut c = Communicator::new(&trace2(), 4, true, 0.0);
        c.record_request(2, o(0));
        assert!(c.deliver(2, o(0), 0, 1000));
        let bcast = c.on_write_complete(2, o(0));
        assert!(!bcast, "not widely accessed yet");
        assert_eq!(c.owner(o(0)), 2);
        assert_eq!(c.version(o(0)), 1);
        assert!(c.needs_fetch(0, o(0)), "old copy invalidated");
        assert!(!c.needs_fetch(2, o(0)));
    }

    #[test]
    fn stale_delivery_ignored() {
        let mut c = Communicator::new(&trace2(), 4, true, 0.0);
        c.record_request(2, o(0));
        // Version bumps while the reply is in flight.
        c.on_write_complete(3, o(0));
        assert!(!c.deliver(2, o(0), 0, 1000));
        assert!(c.needs_fetch(2, o(0)), "stale copy must not satisfy");
        assert_eq!(c.bytes_transferred, 0, "stale payload not accounted");
    }

    #[test]
    fn broadcast_triggers_after_all_access() {
        let mut c = Communicator::new(&trace2(), 3, true, 0.0);
        // Processors 1 and 2 request the version owned by 0; a task on the
        // owner also declares an access.
        c.record_request(1, o(0));
        c.record_request(2, o(0));
        assert!(!c.widely_accessed(o(0)), "producing is not consuming");
        c.note_access(0, o(0));
        assert!(c.widely_accessed(o(0)));
        assert!(!c.in_broadcast_mode(o(0)));
        // The next write flips the object into broadcast mode.
        assert!(c.on_write_complete(0, o(0)));
        assert!(c.in_broadcast_mode(o(0)));
        // And stays there for succeeding versions.
        assert!(c.on_write_complete(1, o(0)));
    }

    #[test]
    fn no_broadcast_when_disabled() {
        let mut c = Communicator::new(&trace2(), 2, false, 0.0);
        c.record_request(1, o(0));
        c.note_access(0, o(0));
        assert!(c.widely_accessed(o(0)));
        assert!(!c.on_write_complete(0, o(0)));
        assert!(!c.in_broadcast_mode(o(0)));
    }

    #[test]
    fn partial_access_does_not_trigger() {
        let mut c = Communicator::new(&trace2(), 4, true, 0.0);
        c.record_request(1, o(0));
        c.record_request(2, o(0));
        // Processor 3 never accessed it.
        assert!(!c.widely_accessed(o(0)));
        assert!(!c.on_write_complete(0, o(0)));
    }

    #[test]
    fn broadcast_delivery_and_accounting() {
        let mut c = Communicator::new(&trace2(), 4, true, 0.0);
        for p in 1..4 {
            c.record_request(p, o(0));
            assert!(c.deliver(p, o(0), 0, 1000));
        }
        c.note_access(0, o(0));
        assert!(c.on_write_complete(0, o(0)));
        c.record_broadcast(o(0), 1000, 3);
        assert_eq!(c.bytes_transferred, 3000 + 3000);
        assert_eq!(c.broadcasts, 1);
        // Broadcast bytes attributed to the object that was broadcast.
        assert_eq!(c.object_traffic(o(0)).broadcast_bytes, 3000);
        assert_eq!(c.object_traffic(o(0)).fetch_bytes, 3000);
        assert_eq!(c.object_traffic(o(1)), ObjectTraffic::default());
        assert!(c.deliver_pushed(2, o(0), 1));
        assert!(!c.needs_fetch(2, o(0)));
        // Stale broadcast delivery ignored.
        c.on_write_complete(0, o(0));
        assert!(!c.deliver_pushed(3, o(0), 1));
        assert!(c.needs_fetch(3, o(0)));
    }

    #[test]
    fn single_processor_degenerate_case() {
        // With one processor every version is trivially widely accessed:
        // the degenerate case the paper notes for 1-processor runs.
        let mut b = TraceBuilder::new();
        b.object("x", 100, Some(0));
        let t = b.build();
        let mut c = Communicator::new(&t, 1, true, 0.0);
        assert!(!c.widely_accessed(o(0)), "nothing consumed yet");
        c.note_access(0, o(0));
        assert!(c.widely_accessed(o(0)));
        assert!(c.on_write_complete(0, o(0)));
    }

    #[test]
    fn fail_stop_reassigns_ownership_to_live_replica() {
        let mut c = Communicator::new(&trace2(), 4, true, 0.0);
        // Processor 2 writes `a`; processor 3 fetches the new version.
        c.on_write_complete(2, o(0));
        c.record_request(3, o(0));
        assert!(c.deliver(3, o(0), 1, 1000));
        let restored = c.fail_proc(2);
        assert!(
            restored.is_empty(),
            "a live replica means nothing to restore"
        );
        assert!(!c.is_alive(2));
        assert_eq!(c.owner(o(0)), 3, "live replica holder takes over");
        assert_eq!(c.version(o(0)), 1, "no version lost");
        assert!(!c.needs_fetch(3, o(0)));
        // Deliveries to the dead processor are refused.
        assert!(!c.deliver(2, o(0), 1, 1000));
        assert!(!c.deliver_pushed(2, o(0), 1));
    }

    #[test]
    fn fail_stop_restores_sole_copy_at_main() {
        let mut c = Communicator::new(&trace2(), 4, true, 0.0);
        // Processor 2 writes `a` and dies before anyone fetched it.
        c.on_write_complete(2, o(0));
        let restored = c.fail_proc(2);
        assert_eq!(restored, vec![o(0)], "the sole copy must be reported");
        assert_eq!(c.owner(o(0)), 0, "recovery copy lives at main");
        assert!(!c.needs_fetch(0, o(0)));
        assert_eq!(c.version(o(0)), 1);
        // The caller charges the transfer and attributes the bytes.
        c.record_restore(o(0), 1000);
        assert_eq!(c.bytes_transferred, 1000);
        assert_eq!(c.object_restores, 1);
        let t = c.object_traffic(o(0));
        assert_eq!(t.restore_bytes, 1000);
        assert_eq!(t.total(), 1000, "restore bytes keep total() conserved");
    }

    #[test]
    fn dead_processors_do_not_block_broadcast_trigger() {
        let mut c = Communicator::new(&trace2(), 3, true, 0.0);
        let restored = c.fail_proc(2);
        assert!(restored.is_empty(), "proc 2 owned nothing");
        c.note_access(0, o(0));
        assert!(
            !c.widely_accessed(o(0)),
            "live processor 1 is still awaited"
        );
        c.record_request(1, o(0));
        assert!(c.widely_accessed(o(0)), "only live processors count");
    }

    #[test]
    fn owner_death_resets_broadcast_mode_and_evidence() {
        let mut c = Communicator::new(&trace2(), 3, true, 0.0);
        // Flip object `a` into broadcast mode with owner 2.
        c.on_write_complete(2, o(0));
        c.record_request(0, o(0));
        c.record_request(1, o(0));
        c.note_access(2, o(0));
        assert!(c.on_write_complete(2, o(0)), "trigger fires");
        assert!(c.in_broadcast_mode(o(0)));
        // The owner dies holding the sole copy: mode and evidence reset —
        // the dead owner's observations described a consumer set that no
        // longer exists.
        let restored = c.fail_proc(2);
        assert_eq!(restored, vec![o(0)]);
        assert!(!c.in_broadcast_mode(o(0)));
        assert!(!c.widely_accessed(o(0)), "consumer evidence cleared");
        // The new owner must re-earn the trigger from scratch.
        assert!(!c.on_write_complete(0, o(0)));
        c.record_request(1, o(0));
        c.note_access(0, o(0));
        assert!(c.on_write_complete(0, o(0)), "re-earned over live set");
    }

    #[test]
    fn drop_rate_demands_more_evidence_before_broadcast() {
        // With 4 live processors (3 receivers) and drop=0.4, the break-even
        // needs 1 + ceil(1.2) = 3 consecutive widely-accessed versions.
        let mut c = Communicator::new(&trace2(), 4, true, 0.4);
        assert_eq!(c.evidence_needed(), 3);
        let consume_all = |c: &mut Communicator| {
            for p in 1..4 {
                c.record_request(p, o(0));
            }
            c.note_access(0, o(0));
        };
        consume_all(&mut c);
        assert!(!c.on_write_complete(0, o(0)), "evidence 1 of 3");
        consume_all(&mut c);
        assert!(!c.on_write_complete(0, o(0)), "evidence 2 of 3");
        consume_all(&mut c);
        assert!(c.on_write_complete(0, o(0)), "evidence 3 of 3: flips");
        assert!(c.in_broadcast_mode(o(0)));
        // Loss-free the same machine flips on the first widely-accessed
        // version — the unchanged §3.4.2 behavior.
        let mut lossless = Communicator::new(&trace2(), 4, true, 0.0);
        assert_eq!(lossless.evidence_needed(), 1);
        consume_all(&mut lossless);
        assert!(lossless.on_write_complete(0, o(0)));
    }

    #[test]
    fn narrow_version_resets_accumulated_evidence() {
        let mut c = Communicator::new(&trace2(), 4, true, 0.4);
        assert_eq!(c.evidence_needed(), 3);
        for _ in 0..2 {
            for p in 1..4 {
                c.record_request(p, o(0));
            }
            c.note_access(0, o(0));
            assert!(!c.on_write_complete(0, o(0)));
        }
        // A narrowly-consumed version breaks the streak...
        c.record_request(1, o(0));
        assert!(!c.on_write_complete(0, o(0)));
        // ...so two more widely-accessed versions still do not flip.
        for _ in 0..2 {
            for p in 1..4 {
                c.record_request(p, o(0));
            }
            c.note_access(0, o(0));
            assert!(!c.on_write_complete(0, o(0)));
        }
    }

    #[test]
    fn non_owner_death_does_not_instantly_flip_broadcast_mode() {
        // Fail-stop mid-accumulation: with 4 live processors and drop=0.4
        // the break-even needs 3 consecutive widely-accessed versions.
        let mut c = Communicator::new(&trace2(), 4, true, 0.4);
        assert_eq!(c.evidence_needed(), 3);
        let consume_all = |c: &mut Communicator, owner: ProcId| {
            for p in 0..4 {
                if p != owner && c.is_alive(p) {
                    c.record_request(p, o(0));
                }
            }
            c.note_access(owner, o(0));
        };
        consume_all(&mut c, 0);
        assert!(!c.on_write_complete(0, o(0)), "evidence 1 of 3");
        consume_all(&mut c, 0);
        assert!(!c.on_write_complete(0, o(0)), "evidence 2 of 3");
        // A *non-owner* dies: the threshold shrinks to 1 + ceil(0.4 * 2)
        // = 2. The two units of evidence were earned against the larger
        // receiver set — they must not satisfy the smaller break-even.
        let restored = c.fail_proc(3);
        assert!(restored.is_empty(), "proc 3 owned nothing");
        assert_eq!(c.evidence_needed(), 2);
        consume_all(&mut c, 0);
        assert!(
            !c.on_write_complete(0, o(0)),
            "stale evidence must not flip the object on an unrelated death"
        );
        assert!(!c.in_broadcast_mode(o(0)));
        // The streak re-earned against the live set flips as normal.
        consume_all(&mut c, 0);
        assert!(c.on_write_complete(0, o(0)), "re-earned evidence 2 of 2");
        assert!(c.in_broadcast_mode(o(0)));
    }

    #[test]
    fn evidence_margin_raises_the_break_even() {
        let mut c = Communicator::new(&trace2(), 4, true, 0.0);
        assert_eq!(c.evidence_needed(), 1);
        c.set_evidence_margin(1);
        assert_eq!(c.evidence_needed(), 2);
        assert_eq!(c.evidence_margin(), 1);
        let consume_all = |c: &mut Communicator| {
            for p in 1..4 {
                c.record_request(p, o(0));
            }
            c.note_access(0, o(0));
        };
        consume_all(&mut c);
        assert!(!c.on_write_complete(0, o(0)), "margin demands a streak");
        consume_all(&mut c);
        assert!(c.on_write_complete(0, o(0)), "streak satisfies margin");
        // Width statistics accumulated for the controller.
        assert_eq!((c.wide_retired, c.narrow_retired), (2, 0));
        c.on_write_complete(0, o(0));
        assert_eq!((c.wide_retired, c.narrow_retired), (2, 1));
    }

    #[test]
    fn snapshot_captures_versions_and_coverage() {
        let mut c = Communicator::new(&trace2(), 4, true, 0.0);
        c.on_write_complete(2, o(0));
        let snap = c.snapshot();
        assert_eq!(snap.version(o(0)), 1);
        assert!(snap.covers(o(0), 1));
        assert!(!snap.covers(o(0), 2));
        assert!(!snap.covers(ObjectId(99), 0), "unknown object not covered");
        assert_eq!(snap.table_bytes(), 2 * (17 + 9 * 4));
        // Replica and trigger tables are charged, not captured: moving them
        // without writing anything leaves the snapshot what it was.
        c.record_request(3, o(0));
        assert!(c.deliver(3, o(0), 1, 1000));
        assert_eq!(c.snapshot(), snap);
        // A later write leaves the snapshot stale for that object.
        c.on_write_complete(3, o(0));
        assert!(!snap.covers(o(0), c.version(o(0))));
        assert!(
            snap.covers(o(1), c.version(o(1))),
            "untouched object still covered"
        );
    }

    /// The communicator as first written: processor-major replica table,
    /// one `bool` per (object, processor) pair, and scans over all of it.
    struct Model {
        procs: usize,
        version: Vec<u64>,
        owner: Vec<ProcId>,
        have: Vec<Vec<u64>>,
        accessed: Vec<Vec<bool>>,
        broadcast_mode: Vec<bool>,
        evidence: Vec<u32>,
        alive: Vec<bool>,
        adaptive: bool,
        drop_p: f64,
        margin: u32,
    }

    impl Model {
        fn new(trace: &Trace, procs: usize, adaptive: bool, drop_p: f64) -> Model {
            let n = trace.objects.len();
            let mut have = vec![vec![NO_VERSION; n]; procs];
            let owner: Vec<_> = trace
                .objects
                .iter()
                .map(|ob| ob.home.unwrap_or(0).min(procs - 1))
                .collect();
            for (i, &home) in owner.iter().enumerate() {
                have[home][i] = 0;
            }
            Model {
                procs,
                version: vec![0; n],
                owner,
                have,
                accessed: vec![vec![false; procs]; n],
                broadcast_mode: vec![false; n],
                evidence: vec![0; n],
                alive: vec![true; procs],
                adaptive,
                drop_p,
                margin: 0,
            }
        }

        fn needs_fetch(&self, p: ProcId, i: usize) -> bool {
            self.have[p][i] != self.version[i]
        }

        fn widely_accessed(&self, i: usize) -> bool {
            (0..self.procs).all(|p| self.accessed[i][p] || !self.alive[p])
        }

        fn deliver(&mut self, p: ProcId, i: usize, v: u64) -> bool {
            if !self.alive[p] || self.version[i] != v {
                return false;
            }
            self.have[p][i] = v;
            true
        }

        fn deliver_pushed(&mut self, p: ProcId, i: usize, v: u64) -> bool {
            if !self.alive[p] || self.version[i] != v || self.have[p][i] == v {
                return false;
            }
            self.have[p][i] = v;
            true
        }

        fn on_write_complete(&mut self, p: ProcId, i: usize) -> bool {
            if self.adaptive {
                if self.widely_accessed(i) {
                    self.evidence[i] += 1;
                    let live = self.alive.iter().filter(|&&a| a).count();
                    let needed = 1
                        + (self.drop_p * live.saturating_sub(1) as f64).ceil() as u32
                        + self.margin;
                    if self.evidence[i] >= needed {
                        self.broadcast_mode[i] = true;
                    }
                } else {
                    self.evidence[i] = 0;
                }
            }
            self.version[i] += 1;
            self.owner[i] = p;
            for q in 0..self.procs {
                self.have[q][i] = if q == p { self.version[i] } else { NO_VERSION };
                self.accessed[i][q] = false;
            }
            self.broadcast_mode[i]
        }

        fn fail_proc(&mut self, p: ProcId) -> Vec<ObjectId> {
            self.alive[p] = false;
            let mut restored = Vec::new();
            for i in 0..self.version.len() {
                self.have[p][i] = NO_VERSION;
                self.accessed[i][p] = false;
                self.evidence[i] = 0;
                if self.owner[i] == p {
                    self.accessed[i].fill(false);
                    self.broadcast_mode[i] = false;
                    let v = self.version[i];
                    let holder = (0..self.procs).find(|&q| self.alive[q] && self.have[q][i] == v);
                    let new_owner = holder.unwrap_or_else(|| {
                        restored.push(ObjectId(i as u32));
                        0
                    });
                    self.owner[i] = new_owner;
                    self.have[new_owner][i] = v;
                }
            }
            restored
        }
    }

    const OBJECTS: usize = 4;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The flat, bit-word communicator answers every query the way the
        /// naive tables do, after every call of a random sequence — across
        /// processor counts that fill less than, exactly, and more than one
        /// bit word.
        #[test]
        fn flat_tables_match_the_naive_model(
            procs_pick in 0usize..8,
            adaptive in any::<bool>(),
            drop_pick in 0usize..3,
            margin in 0u32..3,
            homes in prop::collection::vec(any::<u64>(), OBJECTS..OBJECTS + 1),
            ops in prop::collection::vec((0u8..7, any::<u64>(), 0usize..OBJECTS, any::<bool>()), 1..80),
        ) {
            let procs = [1, 2, 31, 32, 33, 64, 65, 130][procs_pick];
            let drop_p = [0.0, 0.02, 0.3][drop_pick];
            let mut b = TraceBuilder::new();
            for (i, h) in homes.iter().enumerate() {
                b.object(&format!("o{i}"), 100, Some((h % procs as u64) as usize));
            }
            let trace = b.build();
            let mut c = Communicator::new(&trace, procs, adaptive, drop_p);
            let mut m = Model::new(&trace, procs, adaptive, drop_p);
            c.set_evidence_margin(margin);
            m.margin = margin;
            for (op, pick, i, fresh) in ops {
                let p = (pick % procs as u64) as usize;
                let o = ObjectId(i as u32);
                // A current or a stale version, for the version-checked paths.
                let v = if fresh { m.version[i] } else { m.version[i].wrapping_sub(1) };
                match op {
                    0 => {
                        c.note_access(p, o);
                        m.accessed[i][p] = true;
                    }
                    1 => {
                        c.record_request(p, o);
                        m.accessed[i][p] = true;
                    }
                    2 => prop_assert_eq!(c.deliver(p, o, v, 100), m.deliver(p, i, v)),
                    3 => prop_assert_eq!(c.deliver_pushed(p, o, v), m.deliver_pushed(p, i, v)),
                    4 | 5 => prop_assert_eq!(c.on_write_complete(p, o), m.on_write_complete(p, i)),
                    // Main never fail-stops; a second death of one
                    // processor is as harmless as the first.
                    _ if procs > 1 => {
                        let q = 1 + (pick % (procs as u64 - 1)) as usize;
                        prop_assert_eq!(c.fail_proc(q), m.fail_proc(q));
                    }
                    _ => {}
                }
                for j in 0..OBJECTS {
                    let oj = ObjectId(j as u32);
                    prop_assert_eq!(c.owner(oj), m.owner[j]);
                    prop_assert_eq!(c.widely_accessed(oj), m.widely_accessed(j));
                    prop_assert_eq!(c.in_broadcast_mode(oj), m.broadcast_mode[j]);
                    for q in 0..procs {
                        prop_assert_eq!(c.needs_fetch(q, oj), m.needs_fetch(q, j));
                    }
                }
                for q in 0..procs {
                    prop_assert_eq!(c.is_alive(q), m.alive[q]);
                }
                prop_assert_eq!(c.final_versions(), m.version.clone());
            }
        }
    }
}
