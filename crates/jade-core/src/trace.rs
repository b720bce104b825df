//! Program traces: the machine-independent record of a Jade execution.
//!
//! Jade programs are deterministic: the task DAG (creation order, access
//! specifications, per-task work) does not depend on which machine runs the
//! program — only the timing does. The [`TraceRuntime`] exploits this. It
//! executes the program **serially** (which is also how the paper obtains
//! its `stripped` baseline), producing both the program's real numeric
//! output and a [`Trace`]. The machine runtimes (`jade-dash`, `jade-ipsc`)
//! then replay the trace's scheduling and communication under their cost
//! models.

use crate::access::AccessSpec;
use crate::depgraph::DepGraph;
use crate::ids::{ObjectId, ProcId, TaskId};
use crate::runtime::JadeRuntime;
use crate::store::Store;
use crate::task::{TaskCtx, TaskDef};
use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;

/// Everything a machine simulator needs to know about one task.
#[derive(Clone, Debug)]
pub struct TaskRecord {
    pub id: TaskId,
    /// Diagnostic label from the task builder: borrowed for recorded tasks
    /// (a [`TaskDef`]'s label is `&'static str`), owned only by synthetic
    /// ones, so recording a task allocates nothing for it.
    pub label: Cow<'static, str>,
    /// Ordered access specification; first declaration = locality object.
    pub spec: AccessSpec,
    /// Abstract operations charged by the body (`TaskCtx::charge`).
    pub work: f64,
    /// Explicit placement requested by the program (Task-Placement level).
    pub placement: Option<ProcId>,
    /// Main-thread serial-phase code (always runs on the main processor).
    pub serial_phase: bool,
    /// Application phase index at creation time.
    pub phase: u32,
}

/// Metadata for one shared object.
#[derive(Clone, Debug)]
pub struct ObjectRecord {
    pub id: ObjectId,
    pub name: String,
    /// Communication size in bytes (final size; objects that grow during
    /// execution are charged at their final size, a documented
    /// simplification).
    pub size_bytes: usize,
    /// Cache-hierarchy transfer size (None = `size_bytes`); see
    /// `Store::set_cache_bytes`.
    pub cache_bytes: Option<usize>,
    /// Memory-module home assigned by the program (`None` = main processor).
    pub home: Option<ProcId>,
}

/// A complete machine-independent program trace.
///
/// Build one with [`TraceRuntime`], [`TraceBuilder`] or from [`Trace::default`]:
/// besides its public fields it keeps its dependence graphs
/// ([`Trace::dep_graph`]).
#[derive(Clone)]
pub struct Trace {
    pub objects: Vec<ObjectRecord>,
    /// Tasks in serial program (creation) order.
    pub tasks: Vec<TaskRecord>,
    /// Number of phases the program declared (`JadeRuntime::begin_phase`).
    pub phases: u32,
    graphs: GraphMemo,
}

/// A trace's dependence graphs, each built on first use: one slot per
/// `replication` value, holding the graph and the fingerprint of the
/// specifications it was built from. A clone starts empty.
#[derive(Default)]
struct GraphMemo([OnceLock<(u64, DepGraph)>; 2]);

impl Clone for GraphMemo {
    fn clone(&self) -> Self {
        GraphMemo::default()
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("objects", &self.objects)
            .field("tasks", &self.tasks)
            .field("phases", &self.phases)
            .finish_non_exhaustive()
    }
}

/// One step of the specifications' fingerprint (the FxHash mix).
#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

impl Trace {
    /// Total charged work over all tasks, in abstract operations.
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.work).sum()
    }

    /// Total charged work over non-serial-phase (parallel) tasks.
    pub fn parallel_work(&self) -> f64 {
        self.tasks
            .iter()
            .filter(|t| !t.serial_phase)
            .map(|t| t.work)
            .sum()
    }

    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    pub fn object_size(&self, o: ObjectId) -> usize {
        self.objects[o.index()].size_bytes
    }

    /// Bytes a cache-coherent machine moves when the object is accessed.
    pub fn object_cache_bytes(&self, o: ObjectId) -> usize {
        let ob = &self.objects[o.index()];
        ob.cache_bytes.unwrap_or(ob.size_bytes)
    }

    pub fn object_home(&self, o: ObjectId) -> ProcId {
        self.objects[o.index()]
            .home
            .unwrap_or(crate::ids::MAIN_PROC)
    }

    /// Internal consistency checks. Both machine simulators run them at
    /// entry and refuse a trace that fails, since its fields are public;
    /// [`TraceBuilder::build`] asserts them in debug builds.
    ///
    /// Verifies that access specs reference allocated objects, ids are
    /// dense and ordered, work values are finite and non-negative, and
    /// phases are in range. Returns a list of violations (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        self.check().0
    }

    /// The dependence graph of this trace under `replication` (see
    /// [`DepGraph`]), or the first problem [`validate`](Self::validate)
    /// names. The first call for each `replication` value builds the graph
    /// and keeps it. Every call validates the trace, and the same walk
    /// fingerprints every declaration: a trace whose specifications were
    /// changed after the graph was kept gets a graph built afresh.
    pub fn dep_graph(&self, replication: bool) -> Result<Cow<'_, DepGraph>, String> {
        let (problems, fingerprint) = self.check();
        if let Some(why) = problems.into_iter().next() {
            return Err(why);
        }
        let slot = &self.graphs.0[usize::from(replication)];
        let (kept_for, graph) =
            slot.get_or_init(|| (fingerprint, DepGraph::build(self, replication)));
        Ok(if *kept_for == fingerprint {
            Cow::Borrowed(graph)
        } else {
            Cow::Owned(DepGraph::build(self, replication))
        })
    }

    /// [`validate`](Self::validate)'s problems, and a fingerprint of the
    /// specifications: every task's declaration count and declarations.
    fn check(&self) -> (Vec<String>, u64) {
        let mut problems = Vec::new();
        let mut fingerprint = self.tasks.len() as u64;
        for (i, ob) in self.objects.iter().enumerate() {
            if ob.id.index() != i {
                problems.push(format!("object record {i} has id {:?}", ob.id));
            }
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.id.index() != i {
                problems.push(format!("task record {i} has id {:?}", t.id));
            }
            if !t.work.is_finite() || t.work < 0.0 {
                problems.push(format!("task {i} has bad work {}", t.work));
            }
            if t.phase >= self.phases.max(1) {
                problems.push(format!("task {i} has phase {} of {}", t.phase, self.phases));
            }
            fingerprint = mix(fingerprint, t.spec.len() as u64);
            for d in t.spec.decls() {
                if d.object.index() >= self.objects.len() {
                    problems.push(format!("task {i} references unallocated {:?}", d.object));
                }
                fingerprint = mix(fingerprint, (d.object.0 as u64) << 2 | d.mode as u64);
            }
        }
        (problems, fingerprint)
    }
}

/// Convenience constructor for traces built directly from metadata (no task
/// bodies). Used heavily by simulator unit tests, property tests, and
/// synthetic workload experiments.
#[derive(Default)]
pub struct TraceBuilder {
    trace: Trace,
}

impl TraceBuilder {
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Add an object; returns its id.
    pub fn object(&mut self, name: &str, size_bytes: usize, home: Option<ProcId>) -> ObjectId {
        let id = ObjectId(self.trace.objects.len() as u32);
        self.trace.objects.push(ObjectRecord {
            id,
            name: name.to_string(),
            size_bytes,
            cache_bytes: None,
            home,
        });
        id
    }

    /// Add a task with the given spec and work; returns its id.
    pub fn task(&mut self, spec: AccessSpec, work: f64) -> TaskId {
        self.task_full(spec, work, None, false)
    }

    /// Add a task with full control over placement and serial-phase flag.
    pub fn task_full(
        &mut self,
        spec: AccessSpec,
        work: f64,
        placement: Option<ProcId>,
        serial_phase: bool,
    ) -> TaskId {
        let id = TaskId(self.trace.tasks.len() as u32);
        self.trace.tasks.push(TaskRecord {
            id,
            label: Cow::Owned(format!("t{}", id.0)),
            spec,
            work,
            placement,
            serial_phase,
            phase: self.trace.phases - 1,
        });
        id
    }

    /// Start a new phase.
    pub fn next_phase(&mut self) {
        self.trace.phases += 1;
    }

    pub fn build(self) -> Trace {
        debug_assert!(
            self.trace.validate().is_empty(),
            "{:?}",
            self.trace.validate()
        );
        self.trace
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            objects: Vec::new(),
            tasks: Vec::new(),
            phases: 1,
            graphs: GraphMemo::default(),
        }
    }
}

/// The trace-recording (and serially-executing) runtime.
///
/// `submit` executes the task body immediately — serial execution trivially
/// satisfies every data dependence — while recording the task's metadata.
/// After [`JadeRuntime::finish`], [`TraceRuntime::into_parts`] yields the
/// final [`Store`] (the program's actual output) and the [`Trace`].
pub struct TraceRuntime {
    store: Store,
    tasks: Vec<TaskRecord>,
    phase: u32,
    phases: u32,
}

impl Default for TraceRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRuntime {
    pub fn new() -> TraceRuntime {
        TraceRuntime {
            store: Store::new(),
            tasks: Vec::new(),
            phase: 0,
            phases: 1,
        }
    }

    /// Finish and decompose into the final store and the recorded trace.
    pub fn into_parts(self) -> (Store, Trace) {
        let objects = self
            .store
            .object_meta()
            .map(|(id, name, size, cache, home)| ObjectRecord {
                id,
                name: name.to_string(),
                size_bytes: size,
                cache_bytes: cache,
                home,
            })
            .collect();
        let trace = Trace {
            objects,
            tasks: self.tasks,
            phases: self.phases,
            ..Trace::default()
        };
        (self.store, trace)
    }
}

impl JadeRuntime for TraceRuntime {
    fn store(&self) -> &Store {
        &self.store
    }

    fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    fn submit(&mut self, def: TaskDef) -> TaskId {
        let id = TaskId(u32::try_from(self.tasks.len()).expect("too many tasks"));
        let work = {
            let ctx = TaskCtx::new(&self.store, id, def.label, &def.spec);
            (def.body)(&ctx);
            ctx.charged()
        };
        self.tasks.push(TaskRecord {
            id,
            label: Cow::Borrowed(def.label),
            spec: def.spec,
            work,
            placement: def.placement,
            serial_phase: def.serial_phase,
            phase: self.phase,
        });
        id
    }

    fn begin_phase(&mut self) {
        // Phase 0 exists implicitly; a boundary starts the next phase.
        self.phase += 1;
        self.phases = self.phases.max(self.phase + 1);
    }

    fn finish(&mut self) {
        // Serial execution: everything already ran in submit().
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskBuilder;

    #[test]
    fn records_and_executes() {
        let mut rt = TraceRuntime::new();
        let a = rt.create("a", 8, 1.0f64);
        let b = rt.create("b", 8, 0.0f64);
        rt.submit(TaskBuilder::new("copy").rd(a).wr(b).body(move |ctx| {
            *ctx.wr(b) = *ctx.rd(a) * 2.0;
            ctx.charge(5.0);
        }));
        rt.begin_phase();
        rt.submit(TaskBuilder::new("inc").rd_wr(b).body(move |ctx| {
            *ctx.wr(b) += 1.0;
            ctx.charge(1.0);
        }));
        rt.finish();
        let (store, trace) = rt.into_parts();
        assert_eq!(*store.read(b), 3.0);
        assert_eq!(trace.task_count(), 2);
        assert_eq!(trace.total_work(), 6.0);
        assert_eq!(trace.tasks[0].phase, 0);
        assert_eq!(trace.tasks[1].phase, 1);
        assert_eq!(trace.phases, 2);
        assert_eq!(trace.tasks[0].spec.locality_object(), Some(a.id()));
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
    }

    #[test]
    fn serial_order_is_program_order() {
        // Tasks writing the same object must observe each other's effects in
        // submission order when executed by the trace runtime.
        let mut rt = TraceRuntime::new();
        let v = rt.create("v", 0, Vec::<u32>::new());
        for i in 0..10u32 {
            rt.submit(TaskBuilder::new("push").wr(v).body(move |ctx| {
                ctx.wr(v).push(i);
            }));
        }
        rt.finish();
        let (store, _) = rt.into_parts();
        assert_eq!(*store.read(v), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn validate_catches_bad_work() {
        let mut trace = Trace::default();
        trace.tasks.push(TaskRecord {
            id: TaskId(0),
            label: "bad".into(),
            spec: AccessSpec::new(),
            work: f64::NAN,
            placement: None,
            serial_phase: false,
            phase: 0,
        });
        assert!(!trace.validate().is_empty());
    }

    #[test]
    fn homes_recorded() {
        let mut rt = TraceRuntime::new();
        let a = rt.create("a", 128, [0u8; 16]);
        rt.set_home(a, 3);
        rt.finish();
        let (_, trace) = rt.into_parts();
        assert_eq!(trace.object_home(a.id()), 3);
        assert_eq!(trace.object_size(a.id()), 128);
    }
}
