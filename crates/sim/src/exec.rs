//! Deterministic interpreter for [`Program`]s.
//!
//! The executor interleaves thread steps one operation at a time under a
//! pluggable [`Scheduler`], producing a well-formed event [`Trace`]. It
//! models:
//!
//! * blocking lock acquisition (a thread about to acquire a held lock is
//!   not runnable);
//! * re-entrant locks, emitting only the outermost acquire/release — the
//!   stream RoadRunner's front end would deliver after filtering;
//! * fork/join: the main thread (`T0`) runs the setup prologue, forks every
//!   worker, joins them in order once they finish, then runs the teardown
//!   epilogue;
//! * local compute as scheduler steps that emit no events.

use crate::ir::{Program, Stmt};
use crate::sched::{SchedView, Scheduler};
use std::collections::HashMap;
use velodrome_events::{LockId, Op, ThreadId, Trace};
use velodrome_telemetry::{names, PhaseStat, Telemetry};

/// What a thread would do on its next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextAction {
    /// Emit this operation.
    Emit(Op),
    /// Perform one unit of local compute (no event).
    Work,
    /// The thread has finished.
    Done,
}

#[derive(Debug, Clone, Copy)]
enum Exit {
    /// Plain frame: just pop.
    None,
    /// Loop body: re-run `remaining` more times, then pop.
    LoopBack { remaining: u32 },
    /// Emit a release (unless re-entrant) and pop.
    Release(LockId),
    /// Emit an `end` and pop.
    End,
}

#[derive(Debug)]
struct Frame<'p> {
    stmts: &'p [Stmt],
    idx: usize,
    exit: Exit,
}

#[derive(Debug)]
struct Cursor<'p> {
    frames: Vec<Frame<'p>>,
    work_left: u32,
}

impl<'p> Cursor<'p> {
    fn new(stmts: &'p [Stmt]) -> Self {
        let mut c = Self {
            frames: vec![Frame {
                stmts,
                idx: 0,
                exit: Exit::None,
            }],
            work_left: 0,
        };
        c.normalize();
        c
    }

    fn done(&self) -> bool {
        self.work_left == 0 && self.frames.is_empty()
    }

    /// Advances past non-emitting structure so the next action is directly
    /// readable from the cursor.
    fn normalize(&mut self) {
        if self.work_left > 0 {
            return;
        }
        loop {
            let Some(top) = self.frames.last_mut() else {
                return;
            };
            let stmts: &'p [Stmt] = top.stmts;
            if top.idx >= stmts.len() {
                match &mut top.exit {
                    Exit::LoopBack { remaining } if *remaining > 0 => {
                        *remaining -= 1;
                        top.idx = 0;
                    }
                    Exit::None | Exit::LoopBack { .. } => {
                        self.frames.pop();
                    }
                    Exit::Release(_) | Exit::End => return, // pending exit emission
                }
                continue;
            }
            match &stmts[top.idx] {
                Stmt::Compute(0) => top.idx += 1,
                Stmt::Compute(n) => {
                    self.work_left = *n;
                    top.idx += 1;
                    return;
                }
                Stmt::Loop(n, body) => {
                    let (n, body): (u32, &'p [Stmt]) = (*n, body);
                    top.idx += 1;
                    if n > 0 && !body.is_empty() {
                        self.frames.push(Frame {
                            stmts: body,
                            idx: 0,
                            exit: Exit::LoopBack { remaining: n - 1 },
                        });
                    }
                }
                Stmt::Read(_) | Stmt::Write(_) | Stmt::Sync(..) | Stmt::Atomic(..) => return,
            }
        }
    }

    /// The next action, assuming the cursor is normalized.
    fn next_action(&self, t: ThreadId) -> NextAction {
        if self.work_left > 0 {
            return NextAction::Work;
        }
        let Some(top) = self.frames.last() else {
            return NextAction::Done;
        };
        if top.idx >= top.stmts.len() {
            return match top.exit {
                Exit::Release(m) => NextAction::Emit(Op::Release { t, m }),
                Exit::End => NextAction::Emit(Op::End { t }),
                _ => unreachable!("normalized cursor has a pending exit"),
            };
        }
        match &top.stmts[top.idx] {
            Stmt::Read(x) => NextAction::Emit(Op::Read { t, x: *x }),
            Stmt::Write(x) => NextAction::Emit(Op::Write { t, x: *x }),
            Stmt::Sync(m, _) => NextAction::Emit(Op::Acquire { t, m: *m }),
            Stmt::Atomic(l, _) => NextAction::Emit(Op::Begin { t, l: *l }),
            Stmt::Loop(..) | Stmt::Compute(_) => {
                unreachable!("normalized cursor points at an emitting statement")
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MainPhase {
    Setup,
    /// About to fork global worker `g`.
    Fork(usize),
    /// About to join global worker `g`.
    Join(usize),
    Teardown,
    Done,
}

/// Outcome of running a program to completion (or deadlock).
#[derive(Debug)]
pub struct RunResult {
    /// The recorded trace.
    pub trace: Trace,
    /// `true` when the run ended with unfinished but blocked threads.
    pub deadlocked: bool,
    /// Scheduler steps taken (events plus compute units).
    pub steps: u64,
}

/// Interprets a [`Program`] under a [`Scheduler`].
pub struct Executor<'p, S> {
    program: &'p Program,
    scheduler: S,
    /// Worker cursors; worker `i` is thread `T(i+1)`.
    cursors: Vec<Cursor<'p>>,
    main_cursor: Cursor<'p>,
    main_phase: MainPhase,
    /// Number of workers the main thread has forked so far.
    forked: usize,
    /// Lock → (holder, re-entrancy depth).
    locks: HashMap<LockId, (ThreadId, u32)>,
    trace: Trace,
    steps: u64,
    max_steps: u64,
    /// Registry `phase.scheduler_step` is published to when the run
    /// ends; the disabled handle unless telemetry is attached.
    telemetry: Telemetry,
    /// Scheduler picks, each timed (kept only when telemetry is attached).
    sched_step: PhaseStat,
}

impl<'p, S: Scheduler> Executor<'p, S> {
    const MAIN: ThreadId = ThreadId::new(0);

    /// Creates an executor for `program` with the given scheduler.
    pub fn new(program: &'p Program, scheduler: S) -> Self {
        let cursors = program.workers().map(|t| Cursor::new(&t.stmts)).collect();
        let main_cursor = Cursor::new(&program.setup);
        let mut trace = Trace::new();
        *trace.names_mut() = program.names.clone();
        let mut exec = Self {
            program,
            scheduler,
            cursors,
            main_cursor,
            main_phase: MainPhase::Setup,
            forked: 0,
            locks: HashMap::new(),
            trace,
            steps: 0,
            max_steps: 1 << 32,
            telemetry: Telemetry::disabled(),
            sched_step: PhaseStat::default(),
        };
        exec.settle_main();
        exec
    }

    /// Overrides the runaway-guard step limit.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Attaches a telemetry registry: each scheduler pick is counted and
    /// timed, and [`run`](Self::run) publishes the totals as
    /// `phase.scheduler_step` when it returns.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    fn worker_tid(i: usize) -> ThreadId {
        ThreadId::new(i as u32 + 1)
    }

    /// The `[start, end)` global worker range of the phase containing
    /// global worker `g`.
    fn phase_bounds_of(&self, g: usize) -> (usize, usize) {
        let mut start = 0;
        for phase in &self.program.phases {
            let end = start + phase.len();
            if g < end {
                return (start, end);
            }
            start = end;
        }
        unreachable!("worker {g} out of range");
    }

    /// Eagerly moves the main thread through transitions that need no steps.
    fn settle_main(&mut self) {
        loop {
            match self.main_phase {
                MainPhase::Setup if self.main_cursor.done() => {
                    if self.program.worker_count() == 0 {
                        self.main_cursor = Cursor::new(&self.program.teardown);
                        self.main_phase = MainPhase::Teardown;
                    } else {
                        self.main_phase = MainPhase::Fork(0);
                        return;
                    }
                }
                MainPhase::Teardown if self.main_cursor.done() => {
                    self.main_phase = MainPhase::Done;
                }
                _ => return,
            }
        }
    }

    /// The next action of a thread (main included).
    pub fn next_action(&self, t: ThreadId) -> NextAction {
        if t == Self::MAIN {
            return match self.main_phase {
                MainPhase::Setup | MainPhase::Teardown => self.main_cursor.next_action(t),
                MainPhase::Fork(g) => NextAction::Emit(Op::Fork {
                    t,
                    child: Self::worker_tid(g),
                }),
                MainPhase::Join(g) => NextAction::Emit(Op::Join {
                    t,
                    child: Self::worker_tid(g),
                }),
                MainPhase::Done => NextAction::Done,
            };
        }
        self.cursors[t.index() - 1].next_action(t)
    }

    /// Whether a thread can take its next step now.
    fn runnable(&self, t: ThreadId) -> bool {
        if t != Self::MAIN && t.index() > self.forked {
            return false; // not forked yet
        }
        match self.next_action(t) {
            NextAction::Done => false,
            NextAction::Work => true,
            NextAction::Emit(op) => match op {
                Op::Acquire { m, .. } => match self.locks.get(&m) {
                    Some((holder, _)) => *holder == t,
                    None => true,
                },
                Op::Join { child, .. } => self.cursors[child.index() - 1].done(),
                _ => true,
            },
        }
    }

    fn emit(&mut self, op: Op) {
        let index = self.trace.len();
        self.trace.push(op);
        self.scheduler.observe(index, op);
    }

    fn step(&mut self, t: ThreadId) {
        self.steps += 1;
        if t == Self::MAIN {
            self.step_main();
        } else {
            self.step_cursor(t);
        }
    }

    fn step_main(&mut self) {
        match self.main_phase {
            MainPhase::Setup => self.step_cursor(Self::MAIN),
            MainPhase::Fork(g) => {
                if self.program.emit_fork_join {
                    self.emit(Op::Fork {
                        t: Self::MAIN,
                        child: Self::worker_tid(g),
                    });
                }
                self.forked = g + 1;
                let (start, end) = self.phase_bounds_of(g);
                self.main_phase = if g + 1 < end {
                    MainPhase::Fork(g + 1)
                } else {
                    MainPhase::Join(start)
                };
            }
            MainPhase::Join(g) => {
                debug_assert!(self.cursors[g].done(), "joining an unfinished worker");
                if self.program.emit_fork_join {
                    self.emit(Op::Join {
                        t: Self::MAIN,
                        child: Self::worker_tid(g),
                    });
                }
                let (_, end) = self.phase_bounds_of(g);
                if g + 1 < end {
                    self.main_phase = MainPhase::Join(g + 1);
                } else if end < self.program.worker_count() {
                    // Next phase starts once this one is fully joined.
                    self.main_phase = MainPhase::Fork(end);
                } else {
                    self.main_cursor = Cursor::new(&self.program.teardown);
                    self.main_phase = MainPhase::Teardown;
                }
            }
            MainPhase::Teardown => self.step_cursor(Self::MAIN),
            MainPhase::Done => {}
        }
        self.settle_main();
    }

    fn cursor_mut(&mut self, t: ThreadId) -> &mut Cursor<'p> {
        if t == Self::MAIN {
            &mut self.main_cursor
        } else {
            &mut self.cursors[t.index() - 1]
        }
    }

    fn step_cursor(&mut self, t: ThreadId) {
        let cursor = self.cursor_mut(t);
        if cursor.work_left > 0 {
            cursor.work_left -= 1;
            cursor.normalize();
            return;
        }
        let Some(top) = cursor.frames.last_mut() else {
            return; // Done: stepping is a no-op.
        };
        let stmts: &'p [Stmt] = top.stmts;
        if top.idx >= stmts.len() {
            let exit = top.exit;
            cursor.frames.pop();
            match exit {
                Exit::Release(m) => {
                    let entry = self.locks.get_mut(&m).expect("releasing a held lock");
                    debug_assert_eq!(entry.0, t, "release by non-holder");
                    entry.1 -= 1;
                    if entry.1 == 0 {
                        self.locks.remove(&m);
                        self.emit(Op::Release { t, m });
                    }
                }
                Exit::End => self.emit(Op::End { t }),
                _ => unreachable!("normalized cursor exit"),
            }
        } else {
            match &stmts[top.idx] {
                Stmt::Read(x) => {
                    let x = *x;
                    top.idx += 1;
                    self.emit(Op::Read { t, x });
                }
                Stmt::Write(x) => {
                    let x = *x;
                    top.idx += 1;
                    self.emit(Op::Write { t, x });
                }
                Stmt::Sync(m, body) => {
                    let (m, body): (LockId, &'p [Stmt]) = (*m, body);
                    top.idx += 1;
                    cursor.frames.push(Frame {
                        stmts: body,
                        idx: 0,
                        exit: Exit::Release(m),
                    });
                    let entry = self.locks.entry(m).or_insert((t, 0));
                    debug_assert_eq!(entry.0, t, "scheduler ran a blocked thread");
                    entry.1 += 1;
                    if entry.1 == 1 {
                        self.emit(Op::Acquire { t, m });
                    }
                }
                Stmt::Atomic(l, body) => {
                    let (l, body): (_, &'p [Stmt]) = (*l, body);
                    top.idx += 1;
                    cursor.frames.push(Frame {
                        stmts: body,
                        idx: 0,
                        exit: Exit::End,
                    });
                    self.emit(Op::Begin { t, l });
                }
                Stmt::Loop(..) | Stmt::Compute(_) => unreachable!("normalized cursor"),
            }
        }
        self.cursor_mut(t).normalize();
    }

    /// Runs the program to completion, returning the trace.
    pub fn run(mut self) -> RunResult {
        let deadlocked = self.run_steps();
        self.sched_step
            .publish(&self.telemetry, names::PHASE_SCHEDULER_STEP);
        RunResult {
            trace: self.trace,
            deadlocked,
            steps: self.steps,
        }
    }

    /// Steps until every thread is done, none can run (returns whether any
    /// thread was left unfinished: a deadlock), or the step limit is hit.
    fn run_steps(&mut self) -> bool {
        let mut runnable_ids: Vec<ThreadId> = Vec::new();
        let mut next_ops: Vec<Option<Op>> = Vec::new();
        loop {
            if self.steps >= self.max_steps {
                return false;
            }
            runnable_ids.clear();
            next_ops.clear();
            let mut any_unfinished = self.main_phase != MainPhase::Done;
            for i in 0..=self.program.worker_count() {
                let t = ThreadId::new(i as u32);
                if t != Self::MAIN && !self.cursors[i - 1].done() {
                    any_unfinished = true;
                }
                if self.runnable(t) {
                    runnable_ids.push(t);
                    next_ops.push(match self.next_action(t) {
                        NextAction::Emit(op) => Some(op),
                        _ => None,
                    });
                }
            }
            if runnable_ids.is_empty() {
                return any_unfinished;
            }
            let view = SchedView {
                runnable: &runnable_ids,
                next_ops: &next_ops,
                step: self.steps,
            };
            let choice = if self.telemetry.is_enabled() {
                let start = self.sched_step.begin(1);
                let choice = self.scheduler.pick(&view);
                self.sched_step.end(start);
                choice
            } else {
                self.scheduler.pick(&view)
            };
            let t = runnable_ids[choice.min(runnable_ids.len() - 1)];
            self.step(t);
        }
    }
}

/// Runs `program` under `scheduler` and returns the result.
pub fn run_program<S: Scheduler>(program: &Program, scheduler: S) -> RunResult {
    Executor::new(program, scheduler).run()
}

/// Like [`run_program`], with scheduler picks counted and timed, and
/// published into `telemetry` as `phase.scheduler_step` on return.
pub fn run_program_with_telemetry<S: Scheduler>(
    program: &Program,
    scheduler: S,
    telemetry: &Telemetry,
) -> RunResult {
    Executor::new(program, scheduler)
        .with_telemetry(telemetry)
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Program, ProgramBuilder};
    use crate::sched::RoundRobin;
    use velodrome_events::semantics;

    fn two_worker_program() -> Program {
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        let m = b.lock("m");
        let l = b.label("inc");
        let body = vec![Stmt::Loop(
            3,
            vec![Stmt::Atomic(
                l,
                vec![Stmt::Sync(m, vec![Stmt::Read(x), Stmt::Write(x)])],
            )],
        )];
        b.setup(vec![Stmt::Write(x)]);
        b.teardown(vec![Stmt::Read(x)]);
        b.worker(body.clone());
        b.worker(body);
        b.finish()
    }

    #[test]
    fn round_robin_run_is_well_formed() {
        let p = two_worker_program();
        let result = run_program(&p, RoundRobin::new());
        assert!(!result.deadlocked);
        assert_eq!(semantics::validate(&result.trace), Ok(()));
        // setup write + 2 forks + 2 workers * 3 * (begin+acq+rd+wr+rel+end)
        // + 2 joins + teardown read.
        assert_eq!(result.trace.len(), 1 + 2 + 2 * 3 * 6 + 2 + 1);
    }

    #[test]
    fn fork_precedes_worker_ops_and_join_follows() {
        let p = two_worker_program();
        let trace = run_program(&p, RoundRobin::new()).trace;
        let ops = trace.ops();
        let first_fork = ops
            .iter()
            .position(|o| matches!(o, Op::Fork { .. }))
            .unwrap();
        let first_worker = ops
            .iter()
            .position(|o| o.tid() != ThreadId::new(0))
            .unwrap();
        assert!(first_fork < first_worker);
        let last_join = ops
            .iter()
            .rposition(|o| matches!(o, Op::Join { .. }))
            .unwrap();
        let last_worker = ops
            .iter()
            .rposition(|o| o.tid() != ThreadId::new(0))
            .unwrap();
        assert!(last_join > last_worker);
    }

    #[test]
    fn locks_provide_mutual_exclusion_in_trace() {
        let p = two_worker_program();
        let trace = run_program(&p, RoundRobin::new()).trace;
        let mut holder: Option<ThreadId> = None;
        for (_, op) in trace.iter() {
            match op {
                Op::Acquire { t, .. } => {
                    assert_eq!(holder, None);
                    holder = Some(t);
                }
                Op::Release { t, .. } => {
                    assert_eq!(holder, Some(t));
                    holder = None;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn reentrant_sync_emits_outermost_pair_only() {
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        let m = b.lock("m");
        b.worker(vec![Stmt::Sync(
            m,
            vec![Stmt::Sync(m, vec![Stmt::Write(x)])],
        )]);
        let p = b.finish();
        let trace = run_program(&p, RoundRobin::new()).trace;
        let acquires = trace
            .ops()
            .iter()
            .filter(|o| matches!(o, Op::Acquire { .. }))
            .count();
        let releases = trace
            .ops()
            .iter()
            .filter(|o| matches!(o, Op::Release { .. }))
            .count();
        assert_eq!((acquires, releases), (1, 1));
        assert_eq!(semantics::validate(&trace), Ok(()));
    }

    #[test]
    fn compute_emits_no_events_but_consumes_steps() {
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        b.worker(vec![Stmt::Compute(10), Stmt::Write(x)]);
        let p = b.finish();
        let result = run_program(&p, RoundRobin::new());
        // fork + write + join events; 10 extra compute steps.
        assert_eq!(result.trace.len(), 3);
        assert!(result.steps >= 13);
    }

    #[test]
    fn empty_program_terminates() {
        let p = Program::new();
        let result = run_program(&p, RoundRobin::new());
        assert!(!result.deadlocked);
        assert!(result.trace.is_empty());
    }

    #[test]
    fn no_worker_program_runs_setup_and_teardown() {
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        b.setup(vec![Stmt::Write(x)]);
        b.teardown(vec![Stmt::Read(x)]);
        let p = b.finish();
        let result = run_program(&p, RoundRobin::new());
        assert!(!result.deadlocked);
        assert_eq!(result.trace.len(), 2);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut b = ProgramBuilder::new();
        let m1 = b.lock("m1");
        let m2 = b.lock("m2");
        let x = b.var("x");
        // Classic lock-order inversion; the compute padding lets round-robin
        // interleave the two outer acquires before the inner ones.
        b.worker(vec![Stmt::Sync(
            m1,
            vec![Stmt::Compute(5), Stmt::Sync(m2, vec![Stmt::Write(x)])],
        )]);
        b.worker(vec![Stmt::Sync(
            m2,
            vec![Stmt::Compute(5), Stmt::Sync(m1, vec![Stmt::Write(x)])],
        )]);
        let p = b.finish();
        let result = run_program(&p, RoundRobin::new());
        assert!(result.deadlocked);
    }

    #[test]
    fn max_steps_guard_stops_runaway() {
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        b.worker(vec![Stmt::Loop(1_000_000, vec![Stmt::Write(x)])]);
        let p = b.finish();
        let result = Executor::new(&p, RoundRobin::new())
            .with_max_steps(100)
            .run();
        assert!(result.steps <= 100);
    }

    #[test]
    fn loops_repeat_bodies() {
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        b.worker(vec![Stmt::Loop(4, vec![Stmt::Write(x), Stmt::Read(x)])]);
        let p = b.finish();
        let trace = run_program(&p, RoundRobin::new()).trace;
        let accesses = trace.ops().iter().filter(|o| o.is_access()).count();
        assert_eq!(accesses, 8);
    }

    #[test]
    fn setup_runs_before_fork_teardown_after_join() {
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        b.setup(vec![Stmt::Write(x)]);
        b.teardown(vec![Stmt::Read(x)]);
        b.worker(vec![Stmt::Read(x)]);
        let p = b.finish();
        let trace = run_program(&p, RoundRobin::new()).trace;
        let kinds: Vec<String> = trace.ops().iter().map(|o| o.to_string()).collect();
        assert_eq!(
            kinds,
            vec![
                "wr(T0, x0)",
                "fork(T0, T1)",
                "rd(T1, x0)",
                "join(T0, T1)",
                "rd(T0, x0)"
            ]
        );
    }

    #[test]
    fn nested_atomic_and_empty_loops_are_handled() {
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        let p1 = b.label("outer");
        let p2 = b.label("inner");
        b.worker(vec![
            Stmt::Loop(0, vec![Stmt::Write(x)]), // never runs
            Stmt::Atomic(
                p1,
                vec![Stmt::Atomic(p2, vec![Stmt::Read(x)]), Stmt::Write(x)],
            ),
        ]);
        let p = b.finish();
        let trace = run_program(&p, RoundRobin::new()).trace;
        let kinds: Vec<String> = trace.ops().iter().map(|o| o.to_string()).collect();
        assert_eq!(
            kinds,
            vec![
                "fork(T0, T1)",
                "begin_L0(T1)",
                "begin_L1(T1)",
                "rd(T1, x0)",
                "end(T1)",
                "wr(T1, x0)",
                "end(T1)",
                "join(T0, T1)"
            ]
        );
    }
}
