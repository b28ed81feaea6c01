//! Instrumentation shims for live multithreaded Rust code.
//!
//! RoadRunner rewrites Java bytecode so every lock operation, field access,
//! and atomic-method entry/exit emits an event. Rust has no load-time
//! rewriting, so this module provides the *shim* equivalent (the
//! "custom shims" route): programs use [`Shared`] variables, [`TLock`]
//! locks, and [`Runtime::atomic`] sections, and every use emits the
//! corresponding event into a globally ordered stream that is recorded
//! and/or fed online to a back-end [`Tool`].
//!
//! Events are emitted while holding a single runtime mutex, so the recorded
//! order is a real interleaving of the execution (a total observation
//! order), exactly what a dynamic analysis observes.
//!
//! # Example
//!
//! ```
//! use velodrome_monitor::shim::Runtime;
//!
//! let rt = Runtime::recorder();
//! let x = rt.shared("x", 0i64);
//! rt.atomic("increment", || {
//!     let v = x.get();
//!     x.set(v + 1);
//! });
//! let (trace, _warnings) = rt.finish();
//! assert_eq!(trace.len(), 4); // begin, rd, wr, end
//! ```

use crate::budget::{DegradationLevel, ResourceBudget};
use crate::tool::{Tool, Warning, WarningCategory};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use velodrome_events::{Label, LockId, Op, ThreadId, Trace, VarId};

/// Fault-tolerance telemetry of a [`Runtime`]: the ladder state, what
/// tripped, and when. Reading it is the supported way to tell whether the
/// analysis behind a run was degraded (and from which event onward).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeTelemetry {
    /// Current degradation-ladder state of the runtime.
    pub ladder: DegradationLevel,
    /// Events observed (emitted by shims or synthesized by `finish`).
    pub events_seen: u64,
    /// Tool callbacks that panicked (the tool is quarantined on the first).
    pub tool_panics: u64,
    /// Events not retained in the replay trace because the trace budget
    /// tripped.
    pub trace_events_dropped: u64,
    /// Ladder transitions taken.
    pub degradations: u64,
    /// `End`/`Release` events synthesized by [`Runtime::finish`] for
    /// threads that died inside transactions or while holding locks.
    pub synthesized_events: u64,
    /// Event index of the first ladder transition, if any.
    pub degraded_at: Option<usize>,
}

impl RuntimeTelemetry {
    /// Mirrors the runtime's fault-tolerance counters into a telemetry
    /// registry as gauges under the stable `runtime.*` names (see
    /// [`velodrome_telemetry::names`]). A no-op on the disabled handle.
    /// The ladder gauge carries [`DegradationLevel::rung`], which is
    /// monotone non-decreasing over a run.
    pub fn publish(&self, telemetry: &velodrome_telemetry::Telemetry) {
        use velodrome_telemetry::names;
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.set_gauge(names::RUNTIME_EVENTS_SEEN, self.events_seen);
        telemetry.set_gauge(names::RUNTIME_TOOL_PANICS, self.tool_panics);
        telemetry.set_gauge(
            names::RUNTIME_TRACE_EVENTS_DROPPED,
            self.trace_events_dropped,
        );
        telemetry.set_gauge(names::RUNTIME_DEGRADATIONS, self.degradations);
        telemetry.set_gauge(names::RUNTIME_SYNTHESIZED_EVENTS, self.synthesized_events);
        telemetry.set_gauge(names::RUNTIME_LADDER, self.ladder.rung());
    }
}

struct RuntimeState {
    trace: Trace,
    tool: Option<Box<dyn Tool + Send>>,
    warnings: Vec<Warning>,
    threads: HashMap<std::thread::ThreadId, ThreadId>,
    next_thread: u32,
    next_var: u32,
    next_lock: u32,
    labels: HashMap<String, Label>,
    finished: bool,
    budget: ResourceBudget,
    telemetry: RuntimeTelemetry,
    /// `false` once the replay-trace budget has tripped.
    retain_trace: bool,
    /// Per-thread count of currently open atomic blocks.
    open_txns: HashMap<ThreadId, u32>,
    /// Per-thread locks currently held, in acquisition order.
    held_locks: HashMap<ThreadId, Vec<LockId>>,
}

impl RuntimeState {
    fn emit(&mut self, op: Op) {
        assert!(!self.finished, "event emitted after Runtime::finish");
        let index = self.telemetry.events_seen as usize;
        self.telemetry.events_seen += 1;

        // Track open transactions and held locks so `finish` can synthesize
        // the implied closing events for threads that never got there.
        match op {
            Op::Begin { t, .. } => *self.open_txns.entry(t).or_insert(0) += 1,
            Op::End { t } => {
                if let Some(depth) = self.open_txns.get_mut(&t) {
                    *depth = depth.saturating_sub(1);
                }
            }
            Op::Acquire { t, m } => self.held_locks.entry(t).or_default().push(m),
            Op::Release { t, m } => {
                if let Some(held) = self.held_locks.get_mut(&t) {
                    if let Some(pos) = held.iter().rposition(|&h| h == m) {
                        held.remove(pos);
                    }
                }
            }
            _ => {}
        }

        if self.retain_trace
            && self.budget.max_trace_events > 0
            && self.trace.len() >= self.budget.max_trace_events
        {
            self.retain_trace = false;
            self.degrade(
                DegradationLevel::TraceDropped,
                op.tid(),
                index,
                format!(
                    "replay-trace budget exhausted at event {index}: {} events retained, \
                     further events are analyzed but not recorded",
                    self.trace.len()
                ),
            );
        }
        if self.retain_trace {
            self.trace.push(op);
        } else {
            self.telemetry.trace_events_dropped += 1;
        }

        // Panic isolation: a crashing back-end must never take the host
        // down. The runtime's own state is consistent at this point (the
        // closure touches only the tool), so `AssertUnwindSafe` is sound,
        // and parking_lot mutexes do not poison.
        let panicked = match self.tool.as_mut() {
            Some(tool) => catch_unwind(AssertUnwindSafe(|| tool.op(index, op))).err(),
            None => None,
        };
        if let Some(payload) = panicked {
            self.quarantine_tool(op.tid(), index, &payload);
        }
    }

    /// Steps down the degradation ladder (transitions are monotonic),
    /// counting the transition and surfacing it as a `Degraded` warning.
    fn degrade(&mut self, to: DegradationLevel, t: ThreadId, index: usize, reason: String) {
        if to <= self.telemetry.ladder {
            return;
        }
        self.telemetry.ladder = to;
        self.telemetry.degradations += 1;
        if self.telemetry.degraded_at.is_none() {
            self.telemetry.degraded_at = Some(index);
        }
        self.warnings.push(Warning {
            tool: "runtime",
            category: WarningCategory::Degraded,
            label: None,
            thread: t,
            op_index: index,
            message: format!("degraded to {to}: {reason}"),
            details: None,
        });
    }

    /// Quarantines a panicked tool: warnings it accumulated before the
    /// panic are salvaged, the tool is removed (and dropped under its own
    /// panic guard), the runtime degrades to recorder-only mode, and the
    /// panic payload is preserved in the `Degraded` warning.
    fn quarantine_tool(&mut self, t: ThreadId, index: usize, payload: &(dyn std::any::Any + Send)) {
        self.telemetry.tool_panics += 1;
        let mut tool = self.tool.take();
        let name = tool.as_ref().map(|tl| tl.name()).unwrap_or("tool");
        let reason = format!(
            "tool `{name}` panicked at event {index}: {}",
            panic_message(payload)
        );
        // Salvage the verdicts the tool reached before panicking — the
        // byte-identical-prefix guarantee depends on not losing them.
        if let Some(tl) = tool.as_mut() {
            if let Ok(salvaged) = catch_unwind(AssertUnwindSafe(|| tl.take_warnings())) {
                self.warnings.extend(salvaged);
            }
        }
        // Dropping the tool may itself panic; isolate that too.
        let _ = catch_unwind(AssertUnwindSafe(move || drop(tool)));
        self.degrade(DegradationLevel::RecorderOnly, t, index, reason);
    }

    /// Synthesizes the events implied by threads that are still inside
    /// open transactions or holding locks: per thread (in identifier
    /// order), releases in reverse acquisition order, then one `End` per
    /// open block. Synthesized events flow through the normal `emit` path
    /// (so an online tool observes them) and are flagged in the trace.
    fn synthesize_closing_events(&mut self) {
        let mut threads: Vec<ThreadId> = self
            .held_locks
            .iter()
            .filter(|(_, held)| !held.is_empty())
            .map(|(&t, _)| t)
            .chain(
                self.open_txns
                    .iter()
                    .filter(|(_, &depth)| depth > 0)
                    .map(|(&t, _)| t),
            )
            .collect();
        threads.sort_by_key(|t| t.raw());
        threads.dedup();
        for t in threads {
            let held = self.held_locks.get(&t).cloned().unwrap_or_default();
            for &m in held.iter().rev() {
                self.emit_synthesized(Op::Release { t, m });
            }
            let depth = self.open_txns.get(&t).copied().unwrap_or(0);
            for _ in 0..depth {
                self.emit_synthesized(Op::End { t });
            }
        }
    }

    fn emit_synthesized(&mut self, op: Op) {
        let before = self.trace.len();
        self.emit(op);
        if self.trace.len() > before {
            self.trace.mark_synthesized(before);
        }
        self.telemetry.synthesized_events += 1;
    }

    fn current_thread(&mut self) -> ThreadId {
        let os = std::thread::current().id();
        if let Some(&t) = self.threads.get(&os) {
            return t;
        }
        let t = ThreadId::new(self.next_thread);
        self.next_thread += 1;
        self.threads.insert(os, t);
        let name = std::thread::current().name().map(str::to_owned);
        if let Some(name) = name {
            self.trace.names_mut().name_thread(t, name);
        }
        t
    }
}

/// A handle to the monitoring runtime. Cheap to clone; all clones share the
/// same event stream.
#[derive(Clone)]
pub struct Runtime {
    state: Arc<Mutex<RuntimeState>>,
}

use crate::isolate::panic_message;

impl Runtime {
    fn with_tool(tool: Option<Box<dyn Tool + Send>>, budget: ResourceBudget) -> Self {
        Self {
            state: Arc::new(Mutex::new(RuntimeState {
                trace: Trace::new(),
                tool,
                warnings: Vec::new(),
                threads: HashMap::new(),
                next_thread: 0,
                next_var: 0,
                next_lock: 0,
                labels: HashMap::new(),
                finished: false,
                budget,
                telemetry: RuntimeTelemetry::default(),
                retain_trace: true,
                open_txns: HashMap::new(),
                held_locks: HashMap::new(),
            })),
        }
    }

    /// Creates a runtime that records the trace for offline analysis.
    pub fn recorder() -> Self {
        Self::with_tool(None, ResourceBudget::UNLIMITED)
    }

    /// Creates a runtime that records the trace *and* feeds each event to
    /// `tool` online, under the event lock.
    pub fn online(tool: impl Tool + Send + 'static) -> Self {
        Self::with_tool(Some(Box::new(tool)), ResourceBudget::UNLIMITED)
    }

    /// Like [`Runtime::online`], with an explicit [`ResourceBudget`]. The
    /// runtime enforces `max_trace_events` (trace retention); analysis-side
    /// budgets are enforced by the tool itself.
    pub fn online_with_budget(tool: impl Tool + Send + 'static, budget: ResourceBudget) -> Self {
        Self::with_tool(Some(Box::new(tool)), budget)
    }

    /// Like [`Runtime::recorder`], with an explicit [`ResourceBudget`].
    pub fn recorder_with_budget(budget: ResourceBudget) -> Self {
        Self::with_tool(None, budget)
    }

    /// Current fault-tolerance telemetry (ladder state, panics, drops).
    pub fn telemetry(&self) -> RuntimeTelemetry {
        self.state.lock().telemetry
    }

    /// Current degradation-ladder state of the runtime.
    pub fn ladder(&self) -> DegradationLevel {
        self.state.lock().telemetry.ladder
    }

    /// Allocates a new instrumented shared variable initialized to `value`.
    pub fn shared<T>(&self, name: &str, value: T) -> Shared<T> {
        let mut st = self.state.lock();
        let id = VarId::new(st.next_var);
        st.next_var += 1;
        st.trace.names_mut().name_var(id, name);
        Shared {
            rt: self.clone(),
            id,
            value: Arc::new(Mutex::new(value)),
        }
    }

    /// Allocates a new instrumented lock protecting `value`.
    pub fn lock<T>(&self, name: &str, value: T) -> TLock<T> {
        let mut st = self.state.lock();
        let id = LockId::new(st.next_lock);
        st.next_lock += 1;
        st.trace.names_mut().name_lock(id, name);
        TLock {
            rt: self.clone(),
            id,
            inner: Arc::new(Mutex::new(value)),
        }
    }

    fn intern_label(&self, name: &str) -> Label {
        let mut st = self.state.lock();
        if let Some(&l) = st.labels.get(name) {
            return l;
        }
        let l = Label::new(st.labels.len() as u32);
        st.labels.insert(name.to_owned(), l);
        st.trace.names_mut().name_label(l, name);
        l
    }

    /// Runs `body` inside an atomic block labeled `label`, emitting
    /// `begin`/`end` events around it. Nested calls produce nested blocks.
    pub fn atomic<R>(&self, label: &str, body: impl FnOnce() -> R) -> R {
        let l = self.intern_label(label);
        {
            let mut st = self.state.lock();
            let t = st.current_thread();
            st.emit(Op::Begin { t, l });
        }
        let result = body();
        {
            let mut st = self.state.lock();
            let t = st.current_thread();
            st.emit(Op::End { t });
        }
        result
    }

    /// Reserves a thread identifier for a child the current thread is about
    /// to spawn, emitting the `fork` event. The returned token must be
    /// passed to [`Runtime::adopt`] inside the child.
    pub fn fork(&self) -> ForkToken {
        let mut st = self.state.lock();
        let parent = st.current_thread();
        let child = ThreadId::new(st.next_thread);
        st.next_thread += 1;
        st.emit(Op::Fork { t: parent, child });
        ForkToken { child }
    }

    /// Binds the calling OS thread to the identifier reserved by
    /// [`Runtime::fork`].
    ///
    /// # Panics
    ///
    /// Panics if the calling thread already has an identifier.
    pub fn adopt(&self, token: ForkToken) {
        let mut st = self.state.lock();
        let os = std::thread::current().id();
        assert!(
            !st.threads.contains_key(&os),
            "adopt called on a thread that already has an identifier"
        );
        st.threads.insert(os, token.child);
        let name = std::thread::current().name().map(str::to_owned);
        if let Some(name) = name {
            st.trace.names_mut().name_thread(token.child, name);
        }
    }

    /// Emits the `join` event for a child thread that has terminated (call
    /// after `JoinHandle::join` returns).
    pub fn join(&self, token: ForkToken) {
        let mut st = self.state.lock();
        let t = st.current_thread();
        st.emit(Op::Join {
            t,
            child: token.child,
        });
    }

    /// Registers a display name for the calling thread.
    pub fn name_current_thread(&self, name: &str) {
        let mut st = self.state.lock();
        let t = st.current_thread();
        st.trace.names_mut().name_thread(t, name);
    }

    /// Feeds recorded operations through the runtime, under the event
    /// lock, exactly as if shims had emitted them: the same budgets, panic
    /// quarantine and open-block bookkeeping apply, and [`Runtime::finish`]
    /// closes whatever the ops leave open.
    ///
    /// For a runtime whose events all come from replay: thread ids are
    /// taken from the ops, not from the calling OS thread, so mixing
    /// replay with live shims would conflate threads.
    pub fn replay(&self, ops: &[Op]) {
        let mut st = self.state.lock();
        for &op in ops {
            st.emit(op);
        }
    }

    /// Number of events recorded so far.
    pub fn events_recorded(&self) -> usize {
        self.state.lock().trace.len()
    }

    /// Finishes monitoring: flushes the online tool (if any) and returns the
    /// recorded trace together with all warnings produced.
    ///
    /// # Semantics
    ///
    /// * **Idempotent.** The first call returns the trace and warnings;
    ///   subsequent calls are no-ops returning an empty trace and no
    ///   warnings (they never panic, so racing shutdown paths are safe).
    /// * **Names.** The tool is handed the names the runtime recorded
    ///   ([`Tool::set_names`]) before its warnings are taken, so they name
    ///   threads, variables, locks and blocks as the returned trace does.
    ///   A runtime fed only by [`Runtime::replay`] records no names and
    ///   leaves the tool the ones it was built with.
    /// * **Open transactions and held locks.** Threads that died (or were
    ///   abandoned) inside an atomic block or while holding a [`TLock`]
    ///   leave the event stream dangling. `finish` synthesizes the implied
    ///   closing events — per thread in identifier order, `rel` for each
    ///   held lock in reverse acquisition order, then one `end` per open
    ///   block — feeds them through the online tool like real events, and
    ///   flags them in the trace ([`Trace::synthesized`]). This keeps the
    ///   trace well-formed for replay and lets the analysis close its
    ///   transactions, at the cost of treating the truncated block as if it
    ///   had completed (the sound direction: no violation is invented).
    /// * **Panic isolation.** Tool flush callbacks run under the same
    ///   panic guard as event callbacks; a panicking tool is quarantined
    ///   and reported as a `Degraded` warning instead of unwinding into
    ///   the host.
    ///
    /// Further event *emission* after `finish` panics (emitting into a
    /// finished runtime is a host bug, not a tool fault).
    pub fn finish(&self) -> (Trace, Vec<Warning>) {
        let mut st = self.state.lock();
        if st.finished {
            return (Trace::new(), Vec::new());
        }
        st.synthesize_closing_events();
        st.finished = true;
        if let Some(mut tool) = st.tool.take() {
            let index = st.telemetry.events_seen as usize;
            let names = (!st.trace.names().is_empty()).then(|| st.trace.names().clone());
            let flushed = catch_unwind(AssertUnwindSafe(|| {
                tool.end_of_trace();
                if let Some(names) = names {
                    tool.set_names(names);
                }
                tool.take_warnings()
            }));
            match flushed {
                Ok(w) => st.warnings.extend(w),
                Err(payload) => {
                    st.tool = Some(tool);
                    st.quarantine_tool(ThreadId::new(0), index, &payload);
                }
            }
        }
        (
            std::mem::take(&mut st.trace),
            std::mem::take(&mut st.warnings),
        )
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Runtime")
            .field("events", &st.trace.len())
            .field("online", &st.tool.is_some())
            .finish()
    }
}

/// Token linking a spawned thread to the `fork` event emitted by its parent.
#[derive(Debug, Clone, Copy)]
pub struct ForkToken {
    child: ThreadId,
}

impl ForkToken {
    /// The child's thread identifier.
    pub fn thread_id(self) -> ThreadId {
        self.child
    }
}

/// An instrumented shared variable.
///
/// Every [`get`](Shared::get) emits a read event and every
/// [`set`](Shared::set) a write event, in the global observation order.
/// Individual accesses are atomic; sequences of accesses are not — which is
/// precisely what an atomicity checker is for.
#[derive(Clone)]
pub struct Shared<T> {
    rt: Runtime,
    id: VarId,
    value: Arc<Mutex<T>>,
}

impl<T: Clone> Shared<T> {
    /// Reads the current value, emitting a read event.
    pub fn get(&self) -> T {
        let mut st = self.rt.state.lock();
        let t = st.current_thread();
        st.emit(Op::Read { t, x: self.id });
        self.value.lock().clone()
    }

    /// Reads the value *without* emitting an event — for assertions in
    /// tests and examples, never for monitored program logic.
    pub fn get_unmonitored(&self) -> T {
        self.value.lock().clone()
    }
}

impl<T> Shared<T> {
    /// Writes a new value, emitting a write event.
    pub fn set(&self, value: T) {
        let mut st = self.rt.state.lock();
        let t = st.current_thread();
        st.emit(Op::Write { t, x: self.id });
        *self.value.lock() = value;
    }

    /// The variable's identifier in the event stream.
    pub fn id(&self) -> VarId {
        self.id
    }
}

impl<T> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

/// An instrumented mutex.
///
/// Acquisition blocks like a real lock and emits `acq`/`rel` events at the
/// points where the lock is actually taken and handed back.
pub struct TLock<T> {
    rt: Runtime,
    id: LockId,
    inner: Arc<Mutex<T>>,
}

impl<T> Clone for TLock<T> {
    fn clone(&self) -> Self {
        Self {
            rt: self.rt.clone(),
            id: self.id,
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> std::fmt::Debug for TLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TLock")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<T> TLock<T> {
    /// Acquires the lock, emitting an acquire event, and returns a guard
    /// that emits the release event when dropped.
    pub fn lock(&self) -> TLockGuard<'_, T> {
        let guard = self.inner.lock();
        {
            let mut st = self.rt.state.lock();
            let t = st.current_thread();
            st.emit(Op::Acquire { t, m: self.id });
        }
        TLockGuard {
            lock: self,
            guard: Some(guard),
        }
    }

    /// The lock's identifier in the event stream.
    pub fn id(&self) -> LockId {
        self.id
    }
}

/// Guard returned by [`TLock::lock`]; releases (and emits `rel`) on drop.
pub struct TLockGuard<'a, T> {
    lock: &'a TLock<T>,
    guard: Option<parking_lot::MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for TLockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard taken")
    }
}

impl<T> std::ops::DerefMut for TLockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard taken")
    }
}

impl<T> Drop for TLockGuard<'_, T> {
    fn drop(&mut self) {
        // Emit the release before actually unlocking, so no other thread's
        // acquire can be observed between the two.
        let mut st = self.lock.rt.state.lock();
        let t = st.current_thread();
        st.emit(Op::Release { t, m: self.lock.id });
        drop(st);
        self.guard.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::semantics;

    #[test]
    fn single_thread_events_in_program_order() {
        let rt = Runtime::recorder();
        let x = rt.shared("x", 0);
        let m = rt.lock("m", ());
        rt.atomic("update", || {
            let _g = m.lock();
            let v = x.get();
            x.set(v + 1);
        });
        let (trace, warnings) = rt.finish();
        assert!(warnings.is_empty());
        let kinds: Vec<_> = trace.ops().iter().map(|o| format!("{o}")).collect();
        assert_eq!(
            kinds,
            vec![
                "begin_L0(T0)",
                "acq(T0, m0)",
                "rd(T0, x0)",
                "wr(T0, x0)",
                "rel(T0, m0)",
                "end(T0)"
            ]
        );
        assert_eq!(semantics::validate(&trace), Ok(()));
    }

    #[test]
    fn names_are_recorded() {
        let rt = Runtime::recorder();
        let x = rt.shared("balance", 100);
        x.set(50);
        rt.name_current_thread("main");
        let (trace, _) = rt.finish();
        assert_eq!(trace.names().var(x.id()), "balance");
        assert_eq!(trace.names().thread(ThreadId::new(0)), "main");
    }

    #[test]
    fn two_real_threads_produce_well_formed_trace() {
        let rt = Runtime::recorder();
        let x = rt.shared("x", 0i64);
        let m = rt.lock("m", ());
        let tok = rt.fork();
        let handle = {
            let rt2 = rt.clone();
            let x2 = x.clone();
            let m2 = m.clone();
            std::thread::spawn(move || {
                rt2.adopt(tok);
                for _ in 0..10 {
                    let _g = m2.lock();
                    let v = x2.get();
                    x2.set(v + 1);
                }
            })
        };
        for _ in 0..10 {
            let _g = m.lock();
            let v = x.get();
            x.set(v + 1);
        }
        handle.join().unwrap();
        rt.join(tok);
        let (trace, _) = rt.finish();
        assert_eq!(semantics::validate(&trace), Ok(()));
        // 2 threads * 10 iterations * 4 ops + fork + join.
        assert_eq!(trace.len(), 82);
        // The final value is 20: the lock makes increments atomic.
        assert_eq!(x.value.lock().clone(), 20);
    }

    #[test]
    fn online_tool_sees_every_event() {
        #[derive(Default)]
        struct Counter(u64);
        impl Tool for Counter {
            fn name(&self) -> &'static str {
                "counter"
            }
            fn op(&mut self, _i: usize, _op: Op) {
                self.0 += 1;
            }
            fn take_warnings(&mut self) -> Vec<Warning> {
                vec![Warning {
                    tool: "counter",
                    category: crate::tool::WarningCategory::Other,
                    label: None,
                    thread: ThreadId::new(0),
                    op_index: self.0 as usize,
                    message: format!("saw {} events", self.0),
                    details: None,
                }]
            }
        }
        let rt = Runtime::online(Counter::default());
        let x = rt.shared("x", 0);
        x.set(1);
        let _ = x.get();
        let (trace, warnings) = rt.finish();
        assert_eq!(trace.len(), 2);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].message.contains("saw 2 events"));
    }

    #[test]
    fn guard_gives_access_to_protected_data() {
        let rt = Runtime::recorder();
        let m = rt.lock("m", vec![1, 2, 3]);
        {
            let mut g = m.lock();
            g.push(4);
            assert_eq!(g.len(), 4);
        }
        let (trace, _) = rt.finish();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    #[should_panic(expected = "after Runtime::finish")]
    fn emitting_after_finish_panics() {
        let rt = Runtime::recorder();
        let x = rt.shared("x", 0);
        let _ = rt.finish();
        x.set(1);
    }

    #[test]
    fn fork_token_exposes_child_id() {
        let rt = Runtime::recorder();
        let _ = rt.shared("x", 0); // force main registration later
        let tok = rt.fork();
        assert_eq!(tok.thread_id(), ThreadId::new(1));
    }
}
