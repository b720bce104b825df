//! One random program, every runtime. The serial `TraceRuntime` is the
//! oracle; `ThreadRuntime` at 1, 2 and 4 workers and a `JadeService`
//! tenant must each compute what it computes and obey the program's
//! dependence graph (`check_order`): no task starts, or is enabled, before
//! every task it waits for has completed or released the declaration it
//! waits through. The DASH and iPSC simulators replay the same programs
//! against the same oracle and check in `tests/events.rs`.

mod common;

use common::{graph, logs, program_strategy, run, tenant};
use jade::core::{check_lifecycle, check_order};
use jade::{JadeService, Outcome, ServiceConfig, TenantOptions, ThreadRuntime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Results equal the serial run's final logs, and every stream passes
    /// `check_order` and `check_lifecycle`.
    #[test]
    fn every_runtime_obeys_the_dependence_graph(
        prog in program_strategy(30),
    ) {
        let serial = run(&mut jade::TraceRuntime::new(), &prog);
        let graph = graph(&prog);
        let checked = |what: &str, events: &[jade::core::Event]| {
            check_order(&graph, events).unwrap_or_else(|e| panic!("{what}: order: {e}"));
            check_lifecycle(events).unwrap_or_else(|e| panic!("{what}: lifecycle: {e}"));
        };

        for workers in [1, 2, 4] {
            let mut rt = ThreadRuntime::new(workers);
            rt.enable_events();
            prop_assert_eq!(&run(&mut rt, &prog), &serial, "{} workers", workers);
            checked(&format!("{workers} workers"), &rt.take_events());
        }

        let svc = JadeService::new(ServiceConfig::new(2));
        let (program, objs) = tenant(&prog, None);
        let r = svc.wait(svc.submit(program, TenantOptions::default()).unwrap());
        svc.shutdown();
        prop_assert_eq!(&r.outcome, &Outcome::Completed);
        prop_assert_eq!(&logs(&r.store, &objs), &serial, "service tenant");
        checked("service tenant", &r.events);
    }
}
