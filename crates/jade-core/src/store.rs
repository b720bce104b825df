//! The shared-object store: Jade's "single mutable shared memory".
//!
//! Every piece of data a Jade program shares between tasks is a *shared
//! object* allocated in this store. The store is heterogeneous (each object
//! carries its own payload type) and thread-safe: the `jade-threads` backend
//! executes task bodies on worker threads against the same store the trace
//! runtime uses serially.
//!
//! Per-object `RwLock`s serve two purposes: they make the store `Sync`, and
//! they *dynamically verify* the synchronizer's core guarantee — two
//! conflicting accesses are never granted concurrently. Task bodies acquire
//! object locks through [`crate::task::TaskCtx`], which also checks every
//! access against the task's declared access specification, exactly as the
//! Jade implementation detects undeclared accesses at run time.
//!
//! The lock is erased, the payload is typed: a slot holds a
//! `Box<dyn Any>` whose concrete type is `RwLock<T>`, so the payload type is
//! checked once per acquisition (one `TypeId` comparison, before the lock is
//! touched) and the guards dereference straight to `T` — a body's
//! `pos[i]` inside a loop costs what it costs on a plain slice.

use crate::ids::{Handle, ObjectId, ProcId};
use std::any::Any;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

struct Slot {
    name: String,
    size_bytes: usize,
    /// Bytes actually touched through a cache hierarchy (None = same as
    /// `size_bytes`). Message-passing machines move whole objects; a
    /// cache-coherent machine only moves the lines the computation touches.
    cache_bytes: Option<usize>,
    /// Memory-module home assigned by the allocating program (used by the
    /// machine runtimes for locality decisions). `None` = main processor.
    home: Option<ProcId>,
    /// The object's `RwLock<T>`, type-erased.
    lock: Box<dyn Any + Send + Sync>,
}

/// A heterogeneous, thread-safe collection of shared objects.
#[derive(Default)]
pub struct Store {
    slots: Vec<Slot>,
}

impl Store {
    pub fn new() -> Store {
        Store { slots: Vec::new() }
    }

    /// Allocate a shared object holding `data`.
    ///
    /// `size_bytes` is the object's *communication size*: how many bytes the
    /// machine models charge to move it. For a `Vec<f64>` payload this is
    /// `8 * len`, matching how the paper sizes its objects (e.g. Water's
    /// 165,888-byte position object).
    pub fn create<T: Send + Sync + 'static>(
        &mut self,
        name: impl Into<String>,
        size_bytes: usize,
        data: T,
    ) -> Handle<T> {
        let id = ObjectId(u32::try_from(self.slots.len()).expect("too many objects"));
        self.slots.push(Slot {
            name: name.into(),
            size_bytes,
            cache_bytes: None,
            home: None,
            lock: Box::new(RwLock::new(data)),
        });
        Handle {
            id,
            _marker: PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn name(&self, id: ObjectId) -> &str {
        &self.slots[id.index()].name
    }

    pub fn size_bytes(&self, id: ObjectId) -> usize {
        self.slots[id.index()].size_bytes
    }

    /// Bytes moved through a cache hierarchy when the object is accessed
    /// (defaults to the full communication size).
    pub fn cache_bytes(&self, id: ObjectId) -> usize {
        let s = &self.slots[id.index()];
        s.cache_bytes.unwrap_or(s.size_bytes)
    }

    /// Set the cache-transfer size separately from the message size (for
    /// objects whose wire representation is denser than the bytes a task
    /// actually touches, or vice versa).
    pub fn set_cache_bytes(&mut self, id: ObjectId, bytes: usize) {
        self.slots[id.index()].cache_bytes = Some(bytes);
    }

    /// The memory-module home the program assigned (None = unplaced).
    pub fn home(&self, id: ObjectId) -> Option<ProcId> {
        self.slots[id.index()].home
    }

    /// Assign the object's memory-module home. On DASH this is the processor
    /// in whose memory module the object is allocated; on the iPSC it is the
    /// object's initial owner.
    pub fn set_home(&mut self, id: ObjectId, home: ProcId) {
        self.slots[id.index()].home = Some(home);
    }

    /// The object's lock, downcast to the handle's payload type. Panics on
    /// mismatch without touching the lock, so the object stays usable.
    fn typed<T: 'static>(&self, h: Handle<T>, doing: &str) -> (&RwLock<T>, &str) {
        let slot = &self.slots[h.id.index()];
        let lock = slot
            .lock
            .downcast_ref::<RwLock<T>>()
            .unwrap_or_else(|| panic!("type mismatch {doing} object {:?} ({})", h.id, slot.name));
        (lock, &slot.name)
    }

    /// Acquire a read guard on the object. Panics if the payload type does
    /// not match the handle type, or (in the threads backend) if a writer
    /// currently holds the object — which the synchronizer must prevent.
    pub fn read<T: 'static>(&self, h: Handle<T>) -> ReadGuard<'_, T> {
        let (lock, name) = self.typed(h, "reading");
        let guard = lock.try_read().unwrap_or_else(|_| {
            panic!("object {name} read-locked while write-held: synchronizer violation")
        });
        ReadGuard { guard }
    }

    /// Acquire a write guard on the object. Panics on type mismatch or if
    /// any other holder exists (synchronizer violation).
    pub fn write<T: 'static>(&self, h: Handle<T>) -> WriteGuard<'_, T> {
        let (lock, name) = self.typed(h, "writing");
        let guard = lock.try_write().unwrap_or_else(|_| {
            panic!("object {name} write-locked while held: synchronizer violation")
        });
        WriteGuard { guard }
    }

    /// Read an object and clone the payload out (convenient for extracting
    /// final results after a run).
    pub fn snapshot<T: Clone + 'static>(&self, h: Handle<T>) -> T {
        self.read(h).clone()
    }

    /// Iterate over `(name, size_bytes, cache_bytes, home)` in id order,
    /// for trace recording.
    pub fn object_meta(
        &self,
    ) -> impl Iterator<Item = (&str, usize, Option<usize>, Option<ProcId>)> {
        (self.slots.iter()).map(|s| (s.name.as_str(), s.size_bytes, s.cache_bytes, s.home))
    }
}

/// RAII read access to a shared object's payload.
pub struct ReadGuard<'a, T: 'static> {
    guard: RwLockReadGuard<'a, T>,
}

impl<T: 'static> Deref for ReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// RAII write access to a shared object's payload.
pub struct WriteGuard<'a, T: 'static> {
    guard: RwLockWriteGuard<'a, T>,
}

impl<T: 'static> Deref for WriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: 'static> DerefMut for WriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_read_write() {
        let mut store = Store::new();
        let h = store.create("vec", 24, vec![1.0f64, 2.0, 3.0]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.name(h.id()), "vec");
        assert_eq!(store.size_bytes(h.id()), 24);
        {
            let mut w = store.write(h);
            w[0] = 10.0;
        }
        let r = store.read(h);
        assert_eq!(r[0], 10.0);
    }

    #[test]
    fn concurrent_reads_allowed() {
        let mut store = Store::new();
        let h = store.create("x", 8, 42u64);
        let r1 = store.read(h);
        let r2 = store.read(h);
        assert_eq!(*r1 + *r2, 84);
    }

    #[test]
    #[should_panic(expected = "synchronizer violation")]
    fn write_while_read_panics() {
        let mut store = Store::new();
        let h = store.create("x", 8, 42u64);
        let _r = store.read(h);
        let _w = store.write(h);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_caught() {
        let mut store = Store::new();
        let h = store.create("x", 8, 42u64);
        let wrong: Handle<String> = Handle::from_id(h.id());
        let _ = store.read(wrong);
    }

    /// The payload type is checked before the lock is touched: a refused
    /// acquisition neither holds nor poisons the object.
    #[test]
    fn type_mismatch_leaves_object_lockable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut store = Store::new();
        let h = store.create("x", 8, 42u64);
        let wrong: Handle<String> = Handle::from_id(h.id());
        let message = |r: std::thread::Result<()>| {
            *r.expect_err("mismatched access must panic")
                .downcast::<String>()
                .expect("formatted panic message")
        };
        let msg = message(catch_unwind(AssertUnwindSafe(|| drop(store.read(wrong)))));
        assert!(msg.contains("type mismatch reading object"), "{msg}");
        assert!(msg.contains("(x)"), "{msg}");
        let msg = message(catch_unwind(AssertUnwindSafe(|| drop(store.write(wrong)))));
        assert!(msg.contains("type mismatch writing object"), "{msg}");
        *store.write(h) += 1;
        assert_eq!(*store.read(h), 43);
    }

    #[test]
    fn homes() {
        let mut store = Store::new();
        let h = store.create("x", 8, 0u8);
        assert_eq!(store.home(h.id()), None);
        store.set_home(h.id(), 5);
        assert_eq!(store.home(h.id()), Some(5));
    }

    #[test]
    fn snapshot_clones() {
        let mut store = Store::new();
        let h = store.create("v", 16, vec![1u32, 2]);
        let v = store.snapshot(h);
        assert_eq!(v, vec![1, 2]);
        // Store still usable afterwards.
        let _ = store.write(h);
    }

    #[test]
    fn store_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Store>();
    }
}
