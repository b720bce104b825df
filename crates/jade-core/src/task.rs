//! Task construction (`withonly`) and the task-body execution context.
//!
//! A Jade task is a block of code plus an access specification. In C-Jade:
//!
//! ```c
//! withonly { rd(positions); wr(contrib); } do (i) { ... }
//! ```
//!
//! Here the same task is built as:
//!
//! ```ignore
//! rt.submit(
//!     TaskBuilder::new("interactions")
//!         .rd(positions)
//!         .wr(contrib)
//!         .body(move |ctx| {
//!             let pos = ctx.rd(positions);
//!             let mut c = ctx.wr(contrib);
//!             /* ... */
//!             ctx.charge(work_ops);
//!         }),
//! );
//! ```

use crate::access::{AccessMode, AccessSpec};
use crate::ids::{Handle, ObjectId, ProcId, TaskId};
use crate::store::{ReadGuard, Store, WriteGuard};
use std::cell::Cell;

/// The closure type of a task body. Bodies receive a [`TaskCtx`] that grants
/// access to exactly the objects the task declared. Bodies are `Fn`, not
/// `FnOnce`: a recovering runtime may re-execute a task whose first attempt
/// died with its worker, so bodies must be re-callable (all task-visible
/// state lives in the store and is reached through the context, so app
/// bodies satisfy this naturally).
pub type TaskBody = Box<dyn for<'a> Fn(&TaskCtx<'a>) + Send>;

/// A fully-specified task ready for submission to a runtime.
pub struct TaskDef {
    /// Short human label for diagnostics ("internal-update", "trace-rays").
    pub label: &'static str,
    /// The access specification, in declaration order.
    pub spec: AccessSpec,
    /// Explicit task placement, if the programmer requested it (the paper's
    /// *Task Placement* optimization level for Ocean and Panel Cholesky).
    pub placement: Option<ProcId>,
    /// True for serial-phase tasks: main-thread code between parallel
    /// phases, which executes on the main processor.
    pub serial_phase: bool,
    /// The task body.
    pub body: TaskBody,
}

/// Fluent builder for [`TaskDef`]s. Declaration order is preserved: the
/// first `rd`/`wr` names the locality object.
pub struct TaskBuilder {
    label: &'static str,
    spec: AccessSpec,
    placement: Option<ProcId>,
    serial_phase: bool,
}

impl TaskBuilder {
    pub fn new(label: &'static str) -> TaskBuilder {
        TaskBuilder {
            label,
            spec: AccessSpec::new(),
            placement: None,
            serial_phase: false,
        }
    }

    /// Declare a read access.
    pub fn rd(mut self, h: impl Into<ObjectId>) -> Self {
        self.spec.rd(h);
        self
    }

    /// Declare a write access.
    pub fn wr(mut self, h: impl Into<ObjectId>) -> Self {
        self.spec.wr(h);
        self
    }

    /// Declare a read-write access.
    pub fn rd_wr(mut self, h: impl Into<ObjectId>) -> Self {
        self.spec.rd_wr(h);
        self
    }

    /// Explicitly place the task on processor `p`.
    pub fn place(mut self, p: ProcId) -> Self {
        self.placement = Some(p);
        self
    }

    /// Optionally place the task (`None` leaves scheduling to the runtime).
    pub fn place_opt(mut self, p: Option<ProcId>) -> Self {
        self.placement = p;
        self
    }

    /// Mark this task as main-thread serial-phase code.
    pub fn serial_phase(mut self) -> Self {
        self.serial_phase = true;
        self
    }

    /// Current spec (for inspection in tests).
    pub fn spec(&self) -> &AccessSpec {
        &self.spec
    }

    /// Attach the body, producing a submittable [`TaskDef`].
    pub fn body(self, f: impl for<'a> Fn(&TaskCtx<'a>) + Send + 'static) -> TaskDef {
        TaskDef {
            label: self.label,
            spec: self.spec,
            placement: self.placement,
            serial_phase: self.serial_phase,
            body: Box::new(f),
        }
    }
}

/// The execution context handed to a running task body.
///
/// Every access is checked against the declared specification — an
/// undeclared access panics with a diagnostic, mirroring how the Jade
/// implementation detects access violations at run time and halts.
pub struct TaskCtx<'a> {
    store: &'a Store,
    task: TaskId,
    label: &'static str,
    spec: &'a AccessSpec,
    charged: Cell<f64>,
    /// Objects whose rights the task gave up mid-execution (`release`).
    released: std::cell::RefCell<Vec<ObjectId>>,
    /// Runtime callback invoked on `release` so waiting tasks can proceed.
    release_hook: Option<&'a dyn Fn(ObjectId)>,
}

impl<'a> TaskCtx<'a> {
    /// Used by runtimes to frame a body execution. Not part of the app API.
    pub fn new(store: &'a Store, task: TaskId, label: &'static str, spec: &'a AccessSpec) -> Self {
        TaskCtx {
            store,
            task,
            label,
            spec,
            charged: Cell::new(0.0),
            released: std::cell::RefCell::new(Vec::new()),
            release_hook: None,
        }
    }

    /// Like [`TaskCtx::new`], with a hook the runtime uses to propagate
    /// mid-task releases to its synchronizer.
    pub fn with_release_hook(
        store: &'a Store,
        task: TaskId,
        label: &'static str,
        spec: &'a AccessSpec,
        hook: &'a dyn Fn(ObjectId),
    ) -> Self {
        let mut ctx = TaskCtx::new(store, task, label, spec);
        ctx.release_hook = Some(hook);
        ctx
    }

    /// Give up the right to access `h` before the task completes — Jade's
    /// advanced pipelining statements (`no_rd(o)` / `no_wr(o)`). Successor
    /// tasks waiting on the object may start immediately; any later access
    /// to it from this task panics, exactly like an undeclared access.
    ///
    /// Drop any guards on the object before releasing: a successor may
    /// acquire it at once.
    pub fn release(&self, h: impl Into<ObjectId>) {
        let id = h.into();
        assert!(
            !self.released.borrow().contains(&id),
            "task {:?} ({}) released object {:?} twice",
            self.task,
            self.label,
            id,
        );
        assert!(
            self.spec.mode_of(id).is_some(),
            "task {:?} ({}) released undeclared object {:?}",
            self.task,
            self.label,
            id,
        );
        self.released.borrow_mut().push(id);
        if let Some(hook) = self.release_hook {
            hook(id);
        }
    }

    /// The id of the running task.
    pub fn task_id(&self) -> TaskId {
        self.task
    }

    fn check(&self, id: ObjectId, need_write: bool) {
        assert!(
            !self.released.borrow().contains(&id),
            "access violation: task {:?} ({}) touched released object {} ({:?})",
            self.task,
            self.label,
            self.store.name(id),
            id,
        );
        let mode = self.spec.mode_of(id).unwrap_or_else(|| {
            panic!(
                "access violation: task {:?} ({}) touched undeclared object {} ({:?})",
                self.task,
                self.label,
                self.store.name(id),
                id,
            )
        });
        let ok = if need_write {
            mode.writes()
        } else {
            mode.reads()
        };
        assert!(
            ok,
            "access violation: task {:?} ({}) needs {} on object {} but declared {:?}",
            self.task,
            self.label,
            if need_write { "write" } else { "read" },
            self.store.name(id),
            mode,
        );
    }

    /// Read a declared object.
    pub fn rd<T: 'static>(&self, h: Handle<T>) -> ReadGuard<'a, T> {
        self.check(h.id(), false);
        self.store.read(h)
    }

    /// Write a declared object.
    pub fn wr<T: 'static>(&self, h: Handle<T>) -> WriteGuard<'a, T> {
        self.check(h.id(), true);
        self.store.write(h)
    }

    /// Charge `ops` abstract operations of computation to this task.
    ///
    /// The machine simulators convert charged operations to virtual time
    /// with a per-application, per-machine calibration constant; the
    /// `jade-threads` backend ignores charges (real time is real).
    pub fn charge(&self, ops: f64) {
        debug_assert!(ops >= 0.0 && ops.is_finite());
        self.charged.set(self.charged.get() + ops);
    }

    /// Total operations charged so far.
    pub fn charged(&self) -> f64 {
        self.charged.get()
    }

    /// The declared mode for an object (for generic helper code).
    pub fn declared_mode(&self, id: ObjectId) -> Option<AccessMode> {
        self.spec.mode_of(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Store, Handle<Vec<f64>>, Handle<f64>) {
        let mut store = Store::new();
        let v = store.create("v", 16, vec![1.0, 2.0]);
        let s = store.create("s", 8, 0.0f64);
        (store, v, s)
    }

    #[test]
    fn builder_collects_spec_in_order() {
        let (_, v, s) = setup();
        let b = TaskBuilder::new("t").rd(v).wr(s);
        assert_eq!(b.spec().locality_object(), Some(v.id()));
        assert_eq!(b.spec().len(), 2);
        let def = b.body(|_| {});
        assert_eq!(def.label, "t");
        assert!(!def.serial_phase);
        assert_eq!(def.placement, None);
    }

    #[test]
    fn ctx_grants_declared_accesses() {
        let (store, v, s) = setup();
        let mut spec = AccessSpec::new();
        spec.rd(v).wr(s);
        let ctx = TaskCtx::new(&store, TaskId(0), "t", &spec);
        let total: f64 = ctx.rd(v).iter().sum();
        *ctx.wr(s) = total;
        ctx.charge(2.0);
        assert_eq!(ctx.charged(), 2.0);
        drop(ctx);
        assert_eq!(*store.read(s), 3.0);
    }

    #[test]
    #[should_panic(expected = "undeclared object")]
    fn undeclared_access_panics() {
        let (store, v, s) = setup();
        let mut spec = AccessSpec::new();
        spec.rd(v);
        let ctx = TaskCtx::new(&store, TaskId(1), "t", &spec);
        let _ = ctx.rd(s);
    }

    #[test]
    #[should_panic(expected = "undeclared object")]
    fn undeclared_write_panics() {
        let (store, v, s) = setup();
        let mut spec = AccessSpec::new();
        spec.rd(v);
        let ctx = TaskCtx::new(&store, TaskId(1), "t", &spec);
        let _ = ctx.wr(s);
    }

    #[test]
    #[should_panic(expected = "released object")]
    fn write_after_release_panics() {
        let (store, v, _) = setup();
        let mut spec = AccessSpec::new();
        spec.rd_wr(v);
        let ctx = TaskCtx::new(&store, TaskId(1), "t", &spec);
        ctx.wr(v).push(3.0);
        ctx.release(v);
        let _ = ctx.wr(v);
    }

    #[test]
    #[should_panic(expected = "needs write")]
    fn read_only_cannot_write() {
        let (store, v, _) = setup();
        let mut spec = AccessSpec::new();
        spec.rd(v);
        let ctx = TaskCtx::new(&store, TaskId(2), "t", &spec);
        let _ = ctx.wr(v);
    }

    #[test]
    fn rd_wr_allows_both() {
        let (store, v, _) = setup();
        let mut spec = AccessSpec::new();
        spec.rd_wr(v);
        let ctx = TaskCtx::new(&store, TaskId(3), "t", &spec);
        {
            let mut w = ctx.wr(v);
            w.push(9.0);
        }
        assert_eq!(ctx.rd(v).len(), 3);
    }

    #[test]
    fn placement_and_serial_flags() {
        let (_, v, _) = setup();
        let def = TaskBuilder::new("serial")
            .rd(v)
            .place(3)
            .serial_phase()
            .body(|_| {});
        assert_eq!(def.placement, Some(3));
        assert!(def.serial_phase);
    }
}
