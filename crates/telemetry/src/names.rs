//! The stable metric name catalogue.
//!
//! Every stat surface in the workspace publishes under one of these names,
//! so exporters, dashboards, and the CI metrics smoke can rely on them.
//! Names are `<source>.<metric>`; sources are `arena` (the node arena),
//! `engine` (the Velodrome analysis), `watchdog` (the adversarial
//! scheduler's pause watchdog), `runtime` (the live-monitoring shim),
//! `batch` (the parallel `check-batch` runner), and `phase` (hot-path
//! phase records, see [`crate::PhaseStat`]: an exact call count, a total
//! estimated from the timed calls, and the max over the timed calls).
//! Renaming an entry here is a breaking change to the exported JSONL
//! schema — add, don't rename.

/// Total transaction nodes ever allocated (Table 1 "Allocated").
pub const ARENA_ALLOCATED: &str = "arena.allocated";
/// Peak simultaneously-alive nodes (Table 1 "Max. Alive").
pub const ARENA_MAX_ALIVE: &str = "arena.max_alive";
/// Currently alive nodes.
pub const ARENA_CUR_ALIVE: &str = "arena.cur_alive";
/// Nodes reclaimed by garbage collection.
pub const ARENA_COLLECTED: &str = "arena.collected";
/// Happens-before edges inserted.
pub const ARENA_EDGES_ADDED: &str = "arena.edges_added";
/// Edge insertions that only refreshed timestamps of an existing edge.
pub const ARENA_EDGES_REPLACED: &str = "arena.edges_replaced";
/// Edge insertions skipped by the redundant-edge elision gate.
pub const ARENA_EDGES_ELIDED: &str = "arena.edges_elided";
/// Slot-exhaustion events (arena full; analysis degraded, host kept alive).
pub const ARENA_EXHAUSTED: &str = "arena.exhausted";
/// 40-bit timestamp overflows (analysis degraded, host kept alive).
pub const ARENA_TS_OVERFLOW: &str = "arena.ts_overflow";

/// Operations processed by the engine.
pub const ENGINE_OPS: &str = "engine.ops";
/// Edge insertions short-circuited by the per-thread epoch cache.
pub const ENGINE_EPOCH_HITS: &str = "engine.epoch_hits";
/// Non-transactional operations merged into an existing node.
pub const ENGINE_MERGES_REUSED: &str = "engine.merges_reused";
/// Non-transactional operations that vanished (all predecessors `⊥`).
pub const ENGINE_MERGES_BOTTOM: &str = "engine.merges_bottom";
/// Cycles detected (before per-label deduplication).
pub const ENGINE_CYCLES_DETECTED: &str = "engine.cycles_detected";
/// Warnings dropped because the warning budget was exhausted.
pub const ENGINE_WARNINGS_SUPPRESSED: &str = "engine.warnings_suppressed";
/// Degradation-ladder transitions taken by the engine.
pub const ENGINE_DEGRADATIONS: &str = "engine.degradations";
/// Variables quarantined from happens-before edge creation.
pub const ENGINE_VARS_QUARANTINED: &str = "engine.vars_quarantined";
/// Current rung of the engine's degradation ladder (0 = full fidelity,
/// rising as fidelity is shed; monotone non-decreasing over a run).
pub const ENGINE_LADDER: &str = "engine.ladder";

/// Pauses issued by the adversarial scheduler on the advisor's suspicion.
pub const WATCHDOG_PAUSES_ISSUED: &str = "watchdog.pauses_issued";
/// Pause waivers because the paused thread was the only runnable one.
pub const WATCHDOG_FORCED_SOLE_RUNNABLE: &str = "watchdog.forced_sole_runnable";
/// Pause waivers because every runnable thread was paused at once.
pub const WATCHDOG_FORCED_ALL_PAUSED: &str = "watchdog.forced_all_paused";
/// Pause waivers because the global pause-step deadline expired.
pub const WATCHDOG_FORCED_DEADLINE: &str = "watchdog.forced_deadline";

/// Events observed by the monitoring runtime (shims + synthesized).
pub const RUNTIME_EVENTS_SEEN: &str = "runtime.events_seen";
/// Tool callbacks that panicked (the tool is quarantined on the first).
pub const RUNTIME_TOOL_PANICS: &str = "runtime.tool_panics";
/// Events not retained in the replay trace (trace budget tripped).
pub const RUNTIME_TRACE_EVENTS_DROPPED: &str = "runtime.trace_events_dropped";
/// Degradation-ladder transitions taken by the runtime.
pub const RUNTIME_DEGRADATIONS: &str = "runtime.degradations";
/// `End`/`Release` events synthesized by `Runtime::finish`.
pub const RUNTIME_SYNTHESIZED_EVENTS: &str = "runtime.synthesized_events";
/// Current rung of the runtime's degradation ladder.
pub const RUNTIME_LADDER: &str = "runtime.ladder";

/// Traces whose analysis completed (whatever the verdict).
pub const BATCH_TRACES_CHECKED: &str = "batch.traces_checked";
/// Traces that failed to load or analyze (I/O or malformed input).
pub const BATCH_TRACES_FAILED: &str = "batch.traces_failed";
/// Traces quarantined because their analysis panicked.
pub const BATCH_TRACES_QUARANTINED: &str = "batch.traces_quarantined";
/// Total operations across all successfully checked traces.
pub const BATCH_EVENTS_TOTAL: &str = "batch.events_total";
/// Aggregate throughput of the batch, in events per second of wall time.
pub const BATCH_EVENTS_PER_SEC: &str = "batch.events_per_sec";
/// Atomicity warnings reported across all checked traces.
pub const BATCH_WARNINGS_TOTAL: &str = "batch.warnings_total";
/// Size of the worker pool the batch ran with.
pub const BATCH_JOBS: &str = "batch.jobs";

/// Engine operations that reach the happens-before machinery (every op
/// except those dropped in recorder-only mode or by a budget check).
/// Counted exactly; timed on 1 call in 64.
pub const PHASE_ADVANCE: &str = "phase.advance";
/// `Arena::add_edge` calls. Counted exactly; timed on 1 call in 64.
pub const PHASE_ADD_EDGE: &str = "phase.add_edge";
/// Cycle reconstruction and blame assignment, once per detected cycle.
/// Timed on every call.
pub const PHASE_CYCLE_CHECK: &str = "phase.cycle_check";
/// GC cascades (`Arena::finish` calls). Counted exactly; timed on 1 call
/// in 64, so the max is the longest sampled GC stall.
pub const PHASE_GC: &str = "phase.gc";
/// Trace-file decoding, one call per block of at most 256 operations
/// handed to the backend; the time is spent outside the backend, reading
/// and decoding, and sums to the batch report's `decode_ms`. Published as
/// zeros for an in-memory trace.
pub const PHASE_DECODE: &str = "phase.decode";
/// Scheduler picks in the simulator. Timed on every call.
pub const PHASE_SCHEDULER_STEP: &str = "phase.scheduler_step";
