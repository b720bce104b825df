//! The outside-in trace: spans the benchmark records around its own calls
//! into each layer's public functions, and accumulators for the task
//! bodies those layers run on their worker threads.
//!
//! Spans are kept in memory and written when the run ends. Only the
//! harness thread opens spans, so they nest on one stack; task bodies run
//! on the runtime's own threads and are summed instead, one cache line per
//! thread, because a batch runs hundreds of thousands of them.

use jade::core::{JadeRuntime, Store, TaskBody, TaskDef, TaskId};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One interval on the harness thread.
pub struct Span {
    /// The layer call, e.g. `threads.finish` or `dash.run`.
    pub name: &'static str,
    /// Which input, e.g. an application and processor count; may be empty.
    pub detail: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, the span that caused this one.
    pub parent: Option<usize>,
    pub pass: u32,
}

/// In-memory span store for one workload run. A disabled recorder times
/// exactly the same way but keeps nothing: the untraced run uses one, so
/// both runs share their code.
pub struct Recorder {
    workload: &'static str,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub pass: u32,
}

/// A span that has begun and not ended.
pub struct Open {
    idx: usize,
    t0: Instant,
}

/// Count, total and self time (total minus the part child spans cover) of
/// every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Recorder {
        Recorder {
            workload,
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new("")
        }
    }

    /// Open a span under the innermost open one; close it with [`end`].
    ///
    /// [`end`]: Recorder::end
    pub fn begin(&mut self, name: &'static str, detail: &str) -> Open {
        let t0 = Instant::now();
        let idx = if self.enabled {
            let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                detail: detail.to_string(),
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                pass: self.pass,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        } else {
            0
        };
        Open { idx, t0 }
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let dt = open.t0.elapsed();
        if self.enabled {
            assert_eq!(
                self.open.pop(),
                Some(open.idx),
                "spans close innermost first"
            );
            let s = &mut self.spans[open.idx];
            s.end_ns = s.start_ns + dt.as_nanos() as u64;
        }
        dt.as_secs_f64()
    }

    /// Time `f`, a call into a layer, as a span; returns its result and
    /// its duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, detail: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, detail);
        let r = f();
        (r, self.end(open))
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time = duration minus child spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Print the self-time table (span minus children), largest first.
    pub fn print_self_times(&self) {
        let mut rows: Vec<_> = self.self_times().into_iter().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1.self_ns));
        println!("self time by span (duration minus child spans):");
        println!(
            "  {:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in rows {
            println!(
                "  {:<24} {:>8} {:>12.3} {:>12.3}",
                name,
                t.count,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6
            );
        }
    }

    /// Write the spans as a Chrome `trace_event` document.
    pub fn write_chrome(&self, w: &mut impl Write) -> std::io::Result<()> {
        write!(w, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if s.detail.is_empty() { "" } else { " " };
            write!(
                w,
                "\n{{\"name\":\"{}{sep}{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"workload\":\"{}\",\
                 \"pass\":{}}}}}",
                s.name,
                s.detail,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                self.workload,
                s.pass
            )?;
        }
        writeln!(w, "\n]}}")
    }
}

/// Cost of one `Instant::now()` pair in nanoseconds, subtracted from
/// per-call accumulators: an empty task body would otherwise read as one
/// timer call long.
pub fn timer_ns() -> f64 {
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..2000 {
                std::hint::black_box(Instant::now().elapsed());
            }
            t0.elapsed().as_nanos() as f64 / 2000.0
        })
        .collect();
    crate::stats::median(&samples)
}

const SLOTS: usize = 32;

#[repr(align(128))]
#[derive(Default)]
struct Slot {
    ns: AtomicU64,
    calls: AtomicU64,
}

/// Sum of task-body time across the runtime's worker threads. Each thread
/// adds to its own cache line, so the hot path takes no lock and shares no
/// line with another worker.
pub struct BodyAcc {
    slots: [Slot; SLOTS],
}

fn thread_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        // `Relaxed`: the counter hands out distinct numbers and publishes
        // nothing else.
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SLOTS;
    }
    SLOT.with(|s| *s)
}

impl BodyAcc {
    pub fn new() -> Arc<BodyAcc> {
        Arc::new(BodyAcc {
            slots: std::array::from_fn(|_| Slot::default()),
        })
    }

    /// Re-box `def`'s body, through the public `TaskDef.body` field, so
    /// that each call adds its duration here.
    pub fn wrap(self: &Arc<Self>, def: &mut TaskDef) {
        let acc = Arc::clone(self);
        let body: TaskBody = std::mem::replace(&mut def.body, Box::new(|_| {}));
        def.body = Box::new(move |ctx| {
            let t0 = Instant::now();
            body(ctx);
            let dt = t0.elapsed().as_nanos() as u64;
            // `Relaxed`: statistics, read only after the batch has joined.
            let slot = &acc.slots[thread_slot()];
            slot.ns.fetch_add(dt, Ordering::Relaxed);
            slot.calls.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// `(calls, seconds)` so far, less `timer_ns` per call.
    pub fn totals(&self, timer_ns: f64) -> (u64, f64) {
        let calls: u64 = self
            .slots
            .iter()
            .map(|s| s.calls.load(Ordering::Relaxed))
            .sum();
        let ns: u64 = self
            .slots
            .iter()
            .map(|s| s.ns.load(Ordering::Relaxed))
            .sum();
        (calls, (ns as f64 - calls as f64 * timer_ns).max(0.0) * 1e-9)
    }
}

/// A [`JadeRuntime`] that times the wrapped runtime from outside: every
/// `submit` and `finish` call, and every task body through the public
/// `TaskDef.body` field.
pub struct Spanned<'a, R: JadeRuntime> {
    inner: &'a mut R,
    rec: &'a mut Recorder,
    bodies: &'a Arc<BodyAcc>,
    pub submit_calls: u64,
    pub submit_ns: u64,
    pub finish_s: f64,
}

impl<'a, R: JadeRuntime> Spanned<'a, R> {
    pub fn new(inner: &'a mut R, rec: &'a mut Recorder, bodies: &'a Arc<BodyAcc>) -> Self {
        Spanned {
            inner,
            rec,
            bodies,
            submit_calls: 0,
            submit_ns: 0,
            finish_s: 0.0,
        }
    }

    /// Seconds inside `submit`, less `timer_ns` per call.
    pub fn submit_s(&self, timer_ns: f64) -> f64 {
        (self.submit_ns as f64 - self.submit_calls as f64 * timer_ns).max(0.0) * 1e-9
    }
}

impl<R: JadeRuntime> JadeRuntime for Spanned<'_, R> {
    fn store(&self) -> &Store {
        self.inner.store()
    }

    fn store_mut(&mut self) -> &mut Store {
        self.inner.store_mut()
    }

    fn submit(&mut self, mut def: TaskDef) -> TaskId {
        self.bodies.wrap(&mut def);
        let t0 = Instant::now();
        let id = self.inner.submit(def);
        self.submit_ns += t0.elapsed().as_nanos() as u64;
        self.submit_calls += 1;
        id
    }

    fn begin_phase(&mut self) {
        self.inner.begin_phase();
    }

    fn finish(&mut self) {
        let inner = &mut *self.inner;
        let ((), dt) = self.rec.time("threads.finish", "", || inner.finish());
        self.finish_s += dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade::core::{TaskBuilder, TraceRuntime};

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new("t");
        let outer = rec.begin("outer", "");
        let inner = rec.begin("inner", "x");
        rec.time("leaf", "", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(inner);
        rec.end(outer);
        let t = rec.self_times();
        assert_eq!(t["leaf"].self_ns, t["leaf"].total_ns);
        assert_eq!(t["inner"].self_ns, t["inner"].total_ns - t["leaf"].total_ns);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        assert_eq!(rec.spans()[2].parent, Some(1));
        let mut doc = Vec::new();
        rec.write_chrome(&mut doc).unwrap();
        let doc = jade::core::chrome::parse_json(std::str::from_utf8(&doc).unwrap()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);
        let mut off = Recorder::disabled();
        let id = off.begin("outer", "");
        assert_eq!(off.time("leaf", "", || 7).0, 7);
        off.end(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn spanned_counts_submits_finishes_and_bodies() {
        let mut rt = TraceRuntime::new();
        let mut rec = Recorder::new("t");
        let acc = BodyAcc::new();
        let x = rt.create("x", 8, 0u64);
        let mut sp = Spanned::new(&mut rt, &mut rec, &acc);
        for _ in 0..5 {
            sp.submit(
                TaskBuilder::new("inc")
                    .rd_wr(x)
                    .body(move |ctx| *ctx.wr(x) += 1),
            );
        }
        sp.finish();
        assert_eq!(sp.submit_calls, 5);
        assert_eq!(acc.totals(0.0).0, 5);
        assert_eq!(*rt.store().read(x), 5);
        assert_eq!(rec.self_times()["threads.finish"].count, 1);
    }
}
