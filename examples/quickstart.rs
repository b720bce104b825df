//! Quickstart: the Jade programming model in five minutes.
//!
//! A Jade program is a *serial* program plus declarations of how each task
//! accesses shared data. The runtime extracts the concurrency: tasks with
//! disjoint or read-only-shared access specifications run in parallel,
//! conflicting tasks run in the original serial order.
//!
//! Run with: `cargo run --release --example quickstart`

use jade::core::{chrome, Metrics};
use jade::{JadeRuntime, TaskBuilder, ThreadRuntime};

fn main() {
    // A runtime with one worker per core (real OS-thread parallelism).
    let mut rt = ThreadRuntime::default();
    println!("running on {} workers", rt.workers());

    // Record structured lifecycle events (DESIGN.md §10) for the batch.
    rt.enable_events();

    // Shared objects: the "single mutable shared memory" of Jade. The
    // second argument is the communication size used by the machine models;
    // the thread backend ignores it.
    let input = rt.create("input", 8 * 1_000, (0..1_000u64).collect::<Vec<_>>());
    let partial: Vec<_> = (0..8)
        .map(|i| rt.create(&format!("partial[{i}]"), 8, 0u64))
        .collect();
    let total = rt.create("total", 8, 0u64);

    // Parallel phase: eight tasks read the (replicated) input and write
    // their own partial sum — no conflicts, so they all run concurrently.
    for (i, &p) in partial.iter().enumerate() {
        rt.submit(
            TaskBuilder::new("partial-sum")
                .wr(p) // first declaration = locality object
                .rd(input)
                .body(move |ctx| {
                    let xs = ctx.rd(input);
                    *ctx.wr(p) = xs.iter().skip(i).step_by(8).map(|&x| x * x).sum();
                }),
        );
    }

    // Serial phase: the reduction declares reads of every partial sum, so
    // the synchronizer runs it after all of them — no explicit barrier.
    {
        let partial = partial.clone();
        let mut tb = TaskBuilder::new("reduce").wr(total);
        for &p in &partial {
            tb = tb.rd(p);
        }
        rt.submit(tb.body(move |ctx| {
            *ctx.wr(total) = partial.iter().map(|&p| *ctx.rd(p)).sum();
        }));
    }

    rt.finish();
    let got = *rt.store().read(total);
    let expect: u64 = (0..1_000u64).map(|x| x * x).sum();
    assert_eq!(got, expect);
    println!("sum of squares over 1000 elements = {got}");
    let s = rt.last_stats();
    println!(
        "executed {} tasks ({} where they were queued, {} stolen)",
        s.executed, s.locality_hits, s.steals
    );

    // The same numbers reconstruct from the structured event stream alone,
    // and the stream exports to Chrome's trace viewer (chrome://tracing or
    // ui.perfetto.dev). The machine simulators record the identical schema
    // via `jade::dash::try_run_traced` / `jade::ipsc::try_run_traced`, or
    // `repro --trace-out FILE` for a full application.
    let events = rt.take_events();
    let m = Metrics::from_events(&events, rt.workers());
    assert_eq!(m.tasks_started, s.executed);
    assert_eq!(m.steals as usize, s.steals);
    let mut json = Vec::new();
    chrome::write_chrome_trace(&mut json, &events).unwrap();
    let path = std::env::temp_dir().join("jade-quickstart-trace.json");
    std::fs::write(&path, &json).unwrap();
    println!(
        "recorded {} events; Chrome trace written to {}",
        events.len(),
        path.display()
    );
}
