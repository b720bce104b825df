//! Cluster-granularity memory-system model for DASH.
//!
//! On DASH all shared-object communication happens implicitly, on demand, as
//! tasks reference remote data; the paper observes it as differences in task
//! execution time (Figures 6–9). This model tracks, per shared object, which
//! clusters hold a valid cached copy and whether the newest copy is dirty,
//! and charges the Appendix-B line latencies when a task's cluster must
//! fetch the object.
//!
//! Accesses that hit in the task's own cluster cost nothing *extra*: the
//! per-task work calibration already includes local memory traffic, which is
//! how the single-processor Jade times line up with the stripped serial
//! times (Table 1 vs Tables 2–5).

use dsim::{DashHit, DashSpec, SimDuration};
use jade_core::{AccessMode, AccessSpec, ObjectId, Trace};

/// Tracks object residency and prices task accesses.
///
/// Directory state is flat: every object's sharer set is a bit mask over
/// the clusters, `words` `u64`s long (one, up to 64 clusters), all of them
/// in one allocation. A task's access is then one bit test and one store;
/// whether a held copy is the only one never has to be asked, because a hit
/// is free either way.
pub struct MemSim {
    machine: DashSpec,
    /// `u64`s per sharer set.
    words: usize,
    /// Clusters holding a valid copy: object `o`'s set is
    /// `sharers[o * words..][..words]`, cluster `c` bit `c % 64` of word
    /// `c / 64`.
    sharers: Vec<u64>,
    /// Per object: the newest copy is dirty (in the one cluster that then
    /// holds it).
    dirty: Vec<bool>,
    sizes: Vec<usize>,
    /// Total bytes moved between clusters (diagnostic).
    pub bytes_moved: u64,
}

impl MemSim {
    /// Objects start resident (clean) in their home cluster: the program's
    /// initialization wrote them there.
    pub fn new(machine: DashSpec, trace: &Trace) -> MemSim {
        let words = machine.clusters().div_ceil(64).max(1);
        let mut sharers = vec![0u64; words * trace.objects.len()];
        for (set, o) in sharers.chunks_exact_mut(words).zip(&trace.objects) {
            let home_proc = o
                .home
                .unwrap_or(jade_core::MAIN_PROC)
                .min(machine.procs - 1);
            let home = machine.cluster_of(home_proc);
            set[home / 64] = 1 << (home % 64);
        }
        let sizes = trace
            .objects
            .iter()
            .map(|o| o.cache_bytes.unwrap_or(o.size_bytes))
            .collect();
        MemSim {
            machine,
            words,
            sharers,
            dirty: vec![false; trace.objects.len()],
            sizes,
            bytes_moved: 0,
        }
    }

    /// Price and apply all accesses in `spec` performed by a task running on
    /// processor `proc`. Returns the extra communication time the task
    /// spends stalled on remote fetches.
    pub fn task_accesses(&mut self, proc: usize, spec: &AccessSpec) -> SimDuration {
        self.task_accesses_with(proc, spec, false, |_, _, _| {})
    }

    /// Like [`task_accesses`](Self::task_accesses), but reports every
    /// inter-cluster fetch as `(object, bytes, stall)` — the per-access
    /// detail behind the event layer's `ObjectFetch` records. Accesses
    /// that hit in the task's own cluster are not reported.
    ///
    /// `aggregate` applies the inspector/executor aggregation pass
    /// (DESIGN.md §15): the runtime inspected the task's declared access set
    /// at enable time, so after the *first* remote miss has opened the
    /// path, every further remote object in the same set streams behind it
    /// at [`DashSpec::agg_streamed_cycles`] per line instead of paying a
    /// full round trip. Directory state transitions and `bytes_moved` are
    /// identical to the unaggregated walk — only the stall time shrinks.
    pub fn task_accesses_with(
        &mut self,
        proc: usize,
        spec: &AccessSpec,
        aggregate: bool,
        mut on_fetch: impl FnMut(ObjectId, u64, SimDuration),
    ) -> SimDuration {
        let cluster = self.machine.cluster_of(proc);
        let mut total = SimDuration::ZERO;
        let mut opened = false;
        for d in spec.decls() {
            let (mut cost, bytes) = self.access(cluster, d.object.index(), d.mode);
            if bytes > 0 {
                if aggregate && opened {
                    // Streamed tail of the bundle: latency already paid.
                    cost = cost.min(self.machine.streamed_time(bytes as usize));
                }
                opened = true;
                on_fetch(d.object, bytes, cost);
            }
            total += cost;
        }
        total
    }

    /// Objects in `spec` that would miss in `cluster` right now, with their
    /// transfer sizes — the candidate set a split-phase prefetch issued at
    /// task-enable time would stream toward the cluster (DESIGN.md §17).
    /// Read-only: no directory state changes.
    pub fn missing_in<'a>(
        &'a self,
        cluster: usize,
        spec: &'a AccessSpec,
    ) -> impl Iterator<Item = (ObjectId, u64)> + 'a {
        spec.decls()
            .iter()
            .filter(move |d| !self.holds(cluster, d.object.index()))
            .map(|d| (d.object, self.sizes[d.object.index()] as u64))
    }

    /// Does `cluster` hold a valid copy of `obj`?
    #[inline]
    fn holds(&self, cluster: usize, obj: usize) -> bool {
        self.sharers[obj * self.words + cluster / 64] >> (cluster % 64) & 1 == 1
    }

    /// One access by `cluster`: its stall and the bytes it fetched from
    /// another cluster (both zero when the cluster held a copy — exclusive
    /// or not, a hit costs nothing extra), with the directory transition
    /// applied.
    fn access(&mut self, cluster: usize, obj: usize, mode: AccessMode) -> (SimDuration, u64) {
        let held = self.holds(cluster, obj);
        let set = &mut self.sharers[obj * self.words..][..self.words];
        let (word, bit) = (cluster / 64, 1u64 << (cluster % 64));
        let hit = if self.dirty[obj] {
            DashHit::RemoteDirty
        } else {
            DashHit::RemoteClean
        };
        if mode == AccessMode::Read {
            // A read fetches a clean copy into this cluster; a dirty copy
            // is written back (its holder stays a sharer) and the line
            // becomes shared.
            set[word] |= bit;
        } else {
            // The writer ends up with the only copy, and it is dirty.
            set.fill(0);
            set[word] = bit;
        }
        self.dirty[obj] = mode != AccessMode::Read;
        if held {
            return (SimDuration::ZERO, 0);
        }
        let bytes = self.sizes[obj];
        self.bytes_moved += bytes as u64;
        (self.machine.transfer_time(bytes, hit), bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::ObjectRecord;

    fn trace_with_objects(homes: &[usize], sizes: &[usize]) -> Trace {
        let mut trace = Trace::default();
        trace.objects = homes
            .iter()
            .zip(sizes)
            .enumerate()
            .map(|(i, (&h, &s))| ObjectRecord {
                id: ObjectId(i as u32),
                name: format!("o{i}"),
                size_bytes: s,
                cache_bytes: None,
                home: Some(h),
            })
            .collect();
        trace
    }

    fn rd_spec(o: u32) -> AccessSpec {
        let mut s = AccessSpec::new();
        s.rd(ObjectId(o));
        s
    }

    fn wr_spec(o: u32) -> AccessSpec {
        let mut s = AccessSpec::new();
        s.wr(ObjectId(o));
        s
    }

    #[test]
    fn local_read_is_free() {
        let m = DashSpec::paper(8);
        let mut mem = MemSim::new(m, &trace_with_objects(&[0], &[1024]));
        // Proc 0 is in the home cluster of object 0.
        assert_eq!(mem.task_accesses(0, &rd_spec(0)), SimDuration::ZERO);
        assert_eq!(mem.bytes_moved, 0);
    }

    #[test]
    fn remote_read_charges_then_caches() {
        let m = DashSpec::paper(8);
        let mut mem = MemSim::new(m.clone(), &trace_with_objects(&[0], &[1600]));
        // Proc 4 is in cluster 1: first read is a remote clean fetch.
        let c1 = mem.task_accesses(4, &rd_spec(0));
        assert_eq!(c1, m.transfer_time(1600, DashHit::RemoteClean));
        // Second read from the same cluster hits.
        let c2 = mem.task_accesses(5, &rd_spec(0));
        assert_eq!(c2, SimDuration::ZERO);
        assert_eq!(mem.bytes_moved, 1600);
    }

    #[test]
    fn write_invalidates_sharers() {
        let m = DashSpec::paper(12);
        let mut mem = MemSim::new(m.clone(), &trace_with_objects(&[0], &[320]));
        // Clusters 1 and 2 read the object.
        mem.task_accesses(4, &rd_spec(0));
        mem.task_accesses(8, &rd_spec(0));
        // Cluster 0 writes: it holds a copy, but not exclusively, so the
        // invalidation round costs something... then cluster 1's next read
        // sees a dirty remote copy.
        let _ = mem.task_accesses(0, &wr_spec(0));
        let c = mem.task_accesses(4, &rd_spec(0));
        assert_eq!(c, m.transfer_time(320, DashHit::RemoteDirty));
    }

    #[test]
    fn repeated_exclusive_writes_are_free() {
        let m = DashSpec::paper(8);
        let mut mem = MemSim::new(m.clone(), &trace_with_objects(&[4], &[4096]));
        // First write by the home cluster itself (proc 4, cluster 1): it is
        // the only sharer, so exclusive already.
        assert_eq!(mem.task_accesses(4, &wr_spec(0)), SimDuration::ZERO);
        assert_eq!(mem.task_accesses(4, &wr_spec(0)), SimDuration::ZERO);
        // A write from another cluster pays a dirty fetch.
        let c = mem.task_accesses(0, &wr_spec(0));
        assert_eq!(c, m.transfer_time(4096, DashHit::RemoteDirty));
    }

    #[test]
    fn task_with_multiple_objects_sums_costs() {
        let m = DashSpec::paper(8);
        let mut mem = MemSim::new(m.clone(), &trace_with_objects(&[0, 4], &[160, 160]));
        let mut spec = AccessSpec::new();
        spec.rd(ObjectId(0)).rd(ObjectId(1));
        let c = mem.task_accesses(0, &spec);
        // Object 0 local, object 1 remote clean.
        assert_eq!(c, m.transfer_time(160, DashHit::RemoteClean));
    }
}
