//! Integration of the live-thread shims with filters and online analyses:
//! the reproduction's answer to RoadRunner's instrumentation pipeline.

use std::sync::atomic::{AtomicI64, Ordering};
use velodrome::{check_trace, Velodrome, VelodromeConfig};
use velodrome_events::{semantics, Trace};
use velodrome_monitor::shim::Runtime;
use velodrome_monitor::{run_tool, ReentrantLockFilter, ThreadLocalFilter};

/// Four real threads under a correct locking discipline: the trace is
/// well-formed, the data is consistent, and Velodrome stays silent.
#[test]
fn four_threads_locked_counter_is_atomic() {
    let rt = Runtime::recorder();
    let counter = rt.shared("counter", 0i64);
    let lock = rt.lock("lock", ());
    let per_thread = 25;

    let mut handles = Vec::new();
    let mut tokens = Vec::new();
    for _ in 0..4 {
        let tok = rt.fork();
        tokens.push(tok);
        let rt2 = rt.clone();
        let c = counter.clone();
        let l = lock.clone();
        handles.push(std::thread::spawn(move || {
            rt2.adopt(tok);
            for _ in 0..per_thread {
                rt2.atomic("increment", || {
                    let _g = l.lock();
                    let v = c.get();
                    c.set(v + 1);
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for tok in tokens {
        rt.join(tok);
    }
    let (trace, _) = rt.finish();
    assert_eq!(semantics::validate(&trace), Ok(()));
    assert_eq!(counter.get_unmonitored(), 4 * per_thread);
    assert!(check_trace(&trace).is_empty());
}

/// The online tool behind the shims produces exactly the warnings an
/// offline re-analysis of the recorded trace produces.
#[test]
fn online_equals_offline() {
    let rt = Runtime::online(Velodrome::new());
    let x = rt.shared("x", 0);
    let tok = rt.fork();
    let h = {
        let rt2 = rt.clone();
        let x2 = x.clone();
        std::thread::spawn(move || {
            rt2.adopt(tok);
            for _ in 0..20 {
                x2.set(1);
            }
        })
    };
    for _ in 0..20 {
        rt.atomic("rmw", || {
            let v = x.get();
            x.set(v + 1);
        });
    }
    h.join().unwrap();
    rt.join(tok);
    let (trace, online) = rt.finish();
    let offline = check_trace(&trace);
    assert_eq!(online.len(), offline.len());
    for (a, b) in online.iter().zip(&offline) {
        assert_eq!(a.op_index, b.op_index);
        assert_eq!(a.label, b.label);
    }
}

/// Replaying a recorded trace through the runtime is transparent: for
/// every corpus trace, `Runtime::replay` plus `finish` gives the warnings
/// an offline `run_tool` with the same engine configuration gives, byte
/// for byte (including a trace that ends inside an open block, which
/// `finish` closes).
#[test]
fn runtime_replay_matches_run_tool_over_the_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir exists")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".trace.json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 20, "corpus shrank to {}", paths.len());
    for path in paths {
        let json = std::fs::read_to_string(&path).expect("corpus trace reads");
        let trace = Trace::from_json(&json).expect("corpus trace parses");
        let engine = || {
            Velodrome::with_config(VelodromeConfig {
                names: trace.names().clone(),
                ..VelodromeConfig::default()
            })
        };
        let rt = Runtime::online(engine());
        rt.replay(trace.ops());
        let (_, replayed) = rt.finish();
        let offline = run_tool(&mut engine(), &trace);
        let bytes = |ws: &[velodrome_monitor::Warning]| serde_json::to_string(ws).unwrap();
        assert_eq!(bytes(&replayed), bytes(&offline), "{}", path.display());
    }
}

/// Filters compose with the engine: a re-entrant, thread-local-heavy
/// workload passes cleanly through the filter stack.
#[test]
fn filter_stack_preserves_verdicts() {
    let rt = Runtime::recorder();
    let shared = rt.shared("shared", 0);
    let private = rt.shared("private", 0);
    let lock = rt.lock("m", ());
    let tok = rt.fork();
    let h = {
        let rt2 = rt.clone();
        let s = shared.clone();
        let l = lock.clone();
        std::thread::spawn(move || {
            rt2.adopt(tok);
            for _ in 0..10 {
                let _g = l.lock();
                let v = s.get();
                s.set(v + 1);
            }
        })
    };
    for _ in 0..10 {
        // Private churn plus correct shared updates.
        let v = private.get();
        private.set(v + 1);
        let _g = lock.lock();
        let v = shared.get();
        shared.set(v + 1);
    }
    h.join().unwrap();
    rt.join(tok);
    let (trace, _) = rt.finish();

    let mut stack = ReentrantLockFilter::new(ThreadLocalFilter::new(Velodrome::new()));
    let warnings = velodrome_monitor::run_tool(&mut stack, &trace);
    assert!(warnings.is_empty(), "{warnings:?}");
}

/// Heavy cross-thread traffic through the shims never corrupts the global
/// event order (stress).
#[test]
fn shim_stress_well_formed() {
    let rt = Runtime::recorder();
    let vars: Vec<_> = (0..4).map(|i| rt.shared(&format!("v{i}"), 0i64)).collect();
    let locks: Vec<_> = (0..2).map(|i| rt.lock(&format!("m{i}"), ())).collect();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(3));
    let work = std::sync::Arc::new(AtomicI64::new(0));

    let mut handles = Vec::new();
    let mut tokens = Vec::new();
    for w in 0..3 {
        let tok = rt.fork();
        tokens.push(tok);
        let rt2 = rt.clone();
        let vars = vars.clone();
        let locks = locks.clone();
        let barrier = barrier.clone();
        let work = work.clone();
        handles.push(std::thread::spawn(move || {
            rt2.adopt(tok);
            barrier.wait();
            for i in 0..30 {
                // Lock choice keyed to the variable: consistent protection.
                let var_idx = (w + i) % vars.len();
                let v = &vars[var_idx];
                let l = &locks[var_idx % locks.len()];
                rt2.atomic("op", || {
                    let _g = l.lock();
                    let cur = v.get();
                    v.set(cur + 1);
                });
                work.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for tok in tokens {
        rt.join(tok);
    }
    let (trace, _) = rt.finish();
    assert_eq!(semantics::validate(&trace), Ok(()));
    assert_eq!(work.load(Ordering::Relaxed), 90);
    // The single-lock-per-block discipline is atomic.
    assert!(check_trace(&trace).is_empty());
}
