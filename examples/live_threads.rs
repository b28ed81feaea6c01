//! Online checking of *real* Rust threads through the monitor shims —
//! the reproduction's stand-in for RoadRunner's bytecode instrumentation.
//!
//! Two OS threads hammer a shared counter. The `deposit` section uses the
//! lock correctly; `audit_and_adjust` reads the counter in one critical
//! section and writes it in another, so Velodrome flags it online while
//! the threads are still running. OS scheduling is nondeterministic, so
//! like a real testing session the example re-runs the program until a
//! violating interleaving is observed.
//!
//! Run: `cargo run -p velodrome-examples --bin live_threads`

use velodrome::{Velodrome, VelodromeConfig};
use velodrome_events::Trace;
use velodrome_monitor::shim::Runtime;
use velodrome_monitor::Warning;

fn run_once() -> (Trace, Vec<Warning>) {
    let rt = Runtime::online(Velodrome::with_config(VelodromeConfig::default()));
    let counter = rt.shared("counter", 0i64);
    let lock = rt.lock("counterLock", ());
    rt.name_current_thread("main");

    let tok = rt.fork();
    let handle = {
        let rt = rt.clone();
        let counter = counter.clone();
        let lock = lock.clone();
        std::thread::Builder::new()
            .name("worker".into())
            .spawn(move || {
                rt.adopt(tok);
                for _ in 0..50 {
                    // Correct: one critical section.
                    rt.atomic("deposit", || {
                        let _g = lock.lock();
                        let v = counter.get();
                        counter.set(v + 10);
                    });
                }
            })
            .expect("spawn worker")
    };

    for _ in 0..50 {
        // Buggy: check and adjust in separate critical sections.
        rt.atomic("audit_and_adjust", || {
            let v = {
                let _g = lock.lock();
                counter.get()
            };
            std::thread::yield_now(); // widen the window, as real code would
            let _g = lock.lock();
            counter.set(v - 1);
        });
    }

    handle.join().expect("worker finished");
    rt.join(tok);
    rt.finish()
}

fn main() {
    let attempts = 20;
    for attempt in 1..=attempts {
        let (trace, warnings) = run_once();
        // Online warnings are rendered with the names the run recorded.
        let blames = |w: &Warning, method: &str| w.message.starts_with(&format!("{method} "));
        assert!(
            warnings.iter().all(|w| !blames(w, "deposit")),
            "the correctly locked deposit must never be blamed"
        );
        if let Some(w) = warnings.iter().find(|w| blames(w, "audit_and_adjust")) {
            println!(
                "attempt {attempt}: monitored {} events; caught online at op {}:",
                trace.len(),
                w.op_index
            );
            println!("  audit_and_adjust is not atomic (check-then-act across two lock regions)");
            return;
        }
        println!(
            "attempt {attempt}: {} events, interleaving was serializable",
            trace.len()
        );
    }
    println!("no violating interleaving in {attempts} attempts (unusually lucky scheduling)");
}
