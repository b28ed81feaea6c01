//! Integration tests of the monitor front end: filter composition orders,
//! tool chains behind filters, and the online shims feeding a filter stack.

use std::sync::mpsc;
use velodrome::{Velodrome, VelodromeConfig};
use velodrome_events::{semantics, Op, TraceBuilder};
use velodrome_monitor::shim::Runtime;
use velodrome_monitor::tool::{Tool, Warning};
use velodrome_monitor::{
    run_tool, AtomicitySpec, EmptyTool, ReentrantLockFilter, SpecFilter, ThreadLocalFilter,
    ToolChain,
};

#[derive(Default)]
struct Sink {
    ops: Vec<Op>,
}

impl Tool for Sink {
    fn name(&self) -> &'static str {
        "sink"
    }
    fn op(&mut self, _i: usize, op: Op) {
        self.ops.push(op);
    }
    fn take_warnings(&mut self) -> Vec<Warning> {
        Vec::new()
    }
}

fn messy_trace() -> velodrome_events::Trace {
    let mut b = TraceBuilder::new();
    // Re-entrant locking, thread-local churn, and an excluded block.
    b.acquire("T1", "m").acquire("T1", "m");
    b.read("T1", "private").write("T1", "private");
    b.begin("T1", "checked").read("T1", "shared").end("T1");
    b.begin("T1", "excluded").write("T1", "shared").end("T1");
    b.release("T1", "m").release("T1", "m");
    b.read("T2", "shared");
    b.finish()
}

#[test]
fn filters_compose_in_either_order() {
    let trace = messy_trace();
    let count_ops = |reentrant_outer: bool| -> usize {
        if reentrant_outer {
            let mut f = ReentrantLockFilter::new(ThreadLocalFilter::new(Sink::default()));
            run_tool(&mut f, &trace);
            f.into_inner().into_inner().ops.len()
        } else {
            let mut f = ThreadLocalFilter::new(ReentrantLockFilter::new(Sink::default()));
            run_tool(&mut f, &trace);
            f.into_inner().into_inner().ops.len()
        }
    };
    // Both orders suppress the same operations on this trace: 2 re-entrant
    // lock ops and 3 thread-local accesses (private x2, first shared).
    assert_eq!(count_ops(true), count_ops(false));
}

#[test]
fn spec_filter_inside_a_chain() {
    let trace = messy_trace();
    let excluded = velodrome_events::Label::new(1); // "excluded"
    let chain = ToolChain::new()
        .with(SpecFilter::new(
            AtomicitySpec::excluding([excluded]),
            Sink::default(),
        ))
        .with(EmptyTool::new());
    let mut chain = chain;
    let warnings = run_tool(&mut chain, &trace);
    assert!(warnings.is_empty());
}

#[test]
fn full_stack_over_live_threads() {
    // Shims → re-entrant filter → thread-local filter → sink: the surviving
    // stream is well-formed and contains only shared traffic.
    let rt = Runtime::recorder();
    let shared = rt.shared("shared", 0i64);
    let private = rt.shared("private", 0i64);
    let lock = rt.lock("m", ());
    let tok = rt.fork();
    let handle = {
        let rt2 = rt.clone();
        let shared2 = shared.clone();
        let lock2 = lock.clone();
        std::thread::spawn(move || {
            rt2.adopt(tok);
            for _ in 0..5 {
                let _g = lock2.lock();
                let v = shared2.get();
                shared2.set(v + 1);
            }
        })
    };
    for _ in 0..5 {
        let v = private.get();
        private.set(v + 1);
        let _g = lock.lock();
        let v = shared.get();
        shared.set(v + 1);
    }
    handle.join().unwrap();
    rt.join(tok);
    let (trace, _) = rt.finish();
    assert_eq!(semantics::validate(&trace), Ok(()));

    let mut stack = ReentrantLockFilter::new(ThreadLocalFilter::new(Sink::default()));
    run_tool(&mut stack, &trace);
    let surviving = &stack.inner().inner().ops;
    // All private accesses suppressed; shared accesses survive once shared.
    assert!(surviving.iter().all(|op| match op.var() {
        Some(x) => trace.names().var(x) == "shared",
        None => true,
    }));
    assert!(surviving.iter().any(|op| op.is_access()));
}

#[test]
fn reentrant_filter_keeps_trace_well_formed_for_validators() {
    // A trace with re-entrancy fails validation raw, passes after filtering.
    let mut b = TraceBuilder::new();
    b.acquire("T1", "m")
        .acquire("T1", "m")
        .release("T1", "m")
        .release("T1", "m");
    let trace = b.finish();
    assert!(semantics::validate(&trace).is_err());

    let mut filter = ReentrantLockFilter::new(Sink::default());
    run_tool(&mut filter, &trace);
    let filtered = velodrome_events::Trace::from_ops(filter.into_inner().ops.iter().copied());
    assert_eq!(semantics::validate(&filtered), Ok(()));
}

/// An online run hands the names it recorded to its tool before taking
/// the warnings, so a warning names the block and the threads as the
/// recorded trace does, not as `L0` and `T0`. Two channels force the
/// interleaving: the worker writes `balance` between `main`'s read and
/// write inside `audit_and_adjust`.
#[test]
fn online_warnings_carry_the_recorded_names() {
    let rt = Runtime::online(Velodrome::with_config(VelodromeConfig::default()));
    let balance = rt.shared("balance", 0i64);
    rt.name_current_thread("main");
    let (to_worker, worker_turn) = mpsc::channel();
    let (to_main, main_turn) = mpsc::channel();
    let tok = rt.fork();
    let worker = {
        let rt = rt.clone();
        let balance = balance.clone();
        std::thread::spawn(move || {
            rt.adopt(tok);
            rt.name_current_thread("worker");
            worker_turn.recv().unwrap();
            balance.set(10);
            to_main.send(()).unwrap();
        })
    };
    rt.atomic("audit_and_adjust", || {
        let v = balance.get();
        to_worker.send(()).unwrap();
        main_turn.recv().unwrap();
        balance.set(v - 1);
    });
    worker.join().unwrap();
    rt.join(tok);
    let (trace, warnings) = rt.finish();
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    let w = &warnings[0];
    assert_eq!(trace.names().label(w.label.unwrap()), "audit_and_adjust");
    assert!(
        w.message
            .starts_with("audit_and_adjust is not atomic: cycle [main:audit_and_adjust -> worker:"),
        "{}",
        w.message
    );
    let details = w.details.as_deref().unwrap_or_default();
    assert!(details.contains("balance"), "{details}");
}
