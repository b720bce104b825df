//! The configuration of one iPSC/860 run, its validation, and the result.

use dsim::driver::SimError;
use dsim::{FaultPlan, IpscSpec, ProcId};
use jade_core::{Event, EventKind, LocalityMode};

/// Configuration of one iPSC/860 run.
#[derive(Clone, Debug)]
pub struct IpscConfig {
    pub machine: IpscSpec,
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
    /// Read replication (Section 3.4.1): `true` lets tasks that only read
    /// an object run concurrently; `false` orders every access to an
    /// object like a write (the Section 5.1 analysis). The rule lives in
    /// the trace's dependence graph ([`Trace::dep_graph`](jade_core::Trace::dep_graph)).
    pub replication: bool,
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
    /// Replay a recorded schedule: every task is assigned to the processor
    /// that ran it in the recorded run, and each processor starts its tasks
    /// in the recorded order. Used by the overlap sweep to isolate the
    /// communication effect of [`IpscConfig::prefetch`] from list-scheduling
    /// timing anomalies: with placement and order held fixed, earlier data
    /// arrival can only move task starts earlier (DESIGN.md §17). Tasks the
    /// recorded run never started fall back to the normal scheduler.
    /// `None` = schedule live.
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
            mode,
            sec_per_op,
            target_tasks: 1,
            adaptive_broadcast: true,
            concurrent_fetches: true,
            aggregate_fetches: false,
            work_free: false,
            replication: true,
            prefetch: false,
            faults: FaultPlan::none(),
            pinned: None,
            evidence_margin: 0,
            tune: false,
        }
    }

    /// Reject machine parameters and fail-stop targets that would poison
    /// virtual-time arithmetic or the scheduler deep in the event loop
    /// (division by a non-positive bandwidth, a negative latency, a processor
    /// that cannot die): every value here is reachable from user
    /// configuration, so each failure is a typed error, not a panic.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        let bad = |why: String| Err(SimError::InvalidMachine(why));
        let m = &self.machine;
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
        if self.target_tasks == 0 {
            return bad("target tasks per processor must be at least 1".into());
        }
        if let Some(fp) = self.faults.fail_proc {
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
    /// Total checkpoint payload: metadata tables, dependence state, and
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
    /// Knob decisions the controller took during the run. Empty unless
    /// [`IpscConfig::tune`] is set; deterministic, so two runs of the same
    /// configuration produce equal logs.
    pub tune: jade_core::TuneLog,
}
