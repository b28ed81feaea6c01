//! The Velodrome online analysis (Figures 2 and 4 of the paper).
//!
//! The engine maintains the instrumentation store
//! `(C, L, U, R, W, H)` over packed [`Step`]s:
//!
//! * `C` — per-thread stack of open atomic blocks plus the current
//!   transaction node;
//! * `L` — per-thread step of the thread's last operation;
//! * `U` — per-lock step of the last release;
//! * `R` — per-variable, per-thread step of the last read (since the last
//!   write — older reads are transitively ordered through the write chain);
//! * `W` — per-variable step of the last write;
//! * `H` — the happens-before graph, held in the [`Arena`] with chain
//!   clocks, timestamped edges, and reference-counting GC.
//!
//! With [`VelodromeConfig::merge`] enabled the engine uses the optimized
//! Figure 4 rules: operations outside any transaction allocate a node only
//! when they have two or more incomparable predecessors, and otherwise
//! merge with a dominating predecessor (or vanish entirely when every
//! predecessor is `⊥`). With `merge` disabled it reproduces the naive
//! `[INS OUTSIDE]` rule of Figure 2 — one fresh node per non-transactional
//! operation — which Table 1 reports as "Without Merge".
//!
//! The analysis is *sound and complete*: it reports a violation iff the
//! observed trace is not conflict-serializable (Theorem 1).

use crate::arena::{Arena, ArenaError, CycleFound, NodeDesc};
use crate::report::{CycleReport, ReportEdge, ReportNode};
use crate::step::{SlotIdx, Step, Ts};
use std::collections::{BTreeMap, HashMap, HashSet};
use velodrome_events::{Label, LockId, Op, SymbolTable, ThreadId, Trace, VarId};
use velodrome_monitor::budget::{DegradationLevel, ResourceBudget};
use velodrome_monitor::tool::{PerLabelDedup, Tool, Warning, WarningCategory};
use velodrome_telemetry::{names, Counter, Gauge, PhaseStat, Telemetry};

/// Configuration of the [`Velodrome`] engine.
#[derive(Debug, Clone)]
pub struct VelodromeConfig {
    /// Use the Figure 4 merge optimization for non-transactional operations
    /// (`true`, the default) or the naive Figure 2 `[INS OUTSIDE]` rule.
    pub merge: bool,
    /// Garbage collect transaction nodes (default `true`). Disabling this
    /// reproduces the "no GC" ablation; large traces will exhaust the
    /// 16-bit node arena.
    pub gc: bool,
    /// Skip happens-before edges whose ordering is already implied
    /// (default `true`): transitively-redundant edges are elided in the
    /// arena, and a per-thread epoch cache short-circuits repeated no-op
    /// predecessors within a transaction. Disabling this reproduces the
    /// unoptimized insertion behavior — same warnings, reports, and cycle
    /// counts, but every redundant edge pays full insertion cost (the
    /// differential-testing baseline).
    pub elide_redundant_edges: bool,
    /// Report at most one warning per atomic-block label (default `true`),
    /// matching how the paper counts non-atomic *methods*.
    ///
    /// Interaction with [`max_warnings`](Self::max_warnings): a duplicate
    /// label never consumes warning budget, and a report suppressed because
    /// the budget is full does **not** mark its label as seen — the budget
    /// check runs first, so once warnings are drained the label can still
    /// produce its one warning.
    pub dedup_per_label: bool,
    /// Hard cap on *stored* (undrained) warnings; `0` means unlimited.
    /// Suppressed reports are still recorded in [`Velodrome::reports`],
    /// and every suppression is counted in
    /// [`VelodromeStats::warnings_suppressed`] so a capped run is
    /// distinguishable from a clean one.
    pub max_warnings: usize,
    /// Resource budget (default: unlimited — zero behavior change). When a
    /// cap trips, the engine steps down the [`DegradationLevel`] ladder
    /// instead of growing without bound:
    ///
    /// * `max_tracked_vars` exceeded → [`DegradationLevel::VarQuarantine`]:
    ///   the hottest variables are excluded from happens-before edge
    ///   creation until at most the budgeted number remain tracked;
    /// * `max_alive_nodes` exceeded → `VarQuarantine` first; if the graph
    ///   is still over budget after a grace window, →
    ///   [`DegradationLevel::RecorderOnly`] (analysis stops, events are
    ///   only counted);
    /// * `max_trace_events` is enforced by the monitoring runtime, not the
    ///   engine (the engine retains no trace).
    ///
    /// Every transition is counted in [`VelodromeStats`] and surfaced as a
    /// [`WarningCategory::Degraded`] warning carrying the event index, so
    /// the soundness downgrade is explicit, never silent. Warnings emitted
    /// *before* the first transition are byte-identical to an unbudgeted
    /// run.
    pub budget: ResourceBudget,
    /// Symbol table used to render warnings and error graphs, when they
    /// are drained (see [`Velodrome::set_names`]).
    pub names: SymbolTable,
    /// Telemetry registry the engine reports into (default: the disabled
    /// no-op handle — zero overhead, see the `velodrome-telemetry` crate).
    /// When enabled, the engine keeps phase records of its hot spots and
    /// counters for arena capacity failures and ladder transitions, and
    /// [`Velodrome::publish_telemetry`] mirrors the phases and the full
    /// [`VelodromeStats`]/[`crate::arena::ArenaStats`] surface.
    pub telemetry: Telemetry,
}

impl Default for VelodromeConfig {
    fn default() -> Self {
        Self {
            merge: true,
            gc: true,
            elide_redundant_edges: true,
            dedup_per_label: true,
            max_warnings: 10_000,
            budget: ResourceBudget::UNLIMITED,
            names: SymbolTable::new(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Calls of the per-op phases (`advance`, `add_edge`) per clock read. Two
/// clock reads cost about as much as a whole engine op, so these phases
/// are counted on every call but timed on one in this many.
const PHASE_SAMPLE_PERIOD: u64 = 64;

/// The engine's telemetry state. Phases are plain integers owned by the
/// engine and published at snapshot time; the counters are live registry
/// handles (no-ops when the configured [`Telemetry`] is disabled).
#[derive(Debug)]
struct EngineTele {
    /// A registry is attached. Gates all phase bookkeeping, so a disabled
    /// engine pays one never-taken branch per op.
    on: bool,
    /// Operations reaching the happens-before machinery (sampled timing).
    advance: PhaseStat,
    /// `Arena::add_edge` calls (sampled timing).
    add_edge: PhaseStat,
    /// Cycle reconstruction and blame assignment (every call timed).
    cycle_check: PhaseStat,
    /// GC cascades, `Arena::finish` (every call timed: the max is the
    /// longest GC stall).
    gc: PhaseStat,
    /// Arena slot-exhaustion events.
    exhausted: Counter,
    /// Arena 48-bit timestamp overflows.
    ts_overflow: Counter,
    /// Degradation-ladder transitions.
    degradations: Counter,
    /// Current ladder rung (monotone non-decreasing over a run).
    ladder: Gauge,
}

impl EngineTele {
    fn new(t: &Telemetry) -> Self {
        Self {
            on: t.is_enabled(),
            advance: PhaseStat::default(),
            add_edge: PhaseStat::default(),
            cycle_check: PhaseStat::default(),
            gc: PhaseStat::default(),
            exhausted: t.counter(names::ARENA_EXHAUSTED),
            ts_overflow: t.counter(names::ARENA_TS_OVERFLOW),
            degradations: t.counter(names::ENGINE_DEGRADATIONS),
            ladder: t.gauge(names::ENGINE_LADDER),
        }
    }
}

/// Aggregate statistics of an analysis run.
#[derive(Debug, Clone, Copy, Default)]
pub struct VelodromeStats {
    /// Operations processed.
    pub ops: u64,
    /// Total transaction nodes allocated (Table 1 "Allocated").
    pub nodes_allocated: u64,
    /// Peak simultaneously-alive nodes (Table 1 "Max. Alive").
    pub max_alive: u64,
    /// Nodes reclaimed by GC.
    pub collected: u64,
    /// Happens-before edges inserted.
    pub edges_added: u64,
    /// Edges skipped by the arena's redundant-edge elision gate.
    pub edges_elided: u64,
    /// Edge insertions short-circuited by the per-thread epoch cache
    /// (repeated no-op predecessor within one transaction).
    pub epoch_hits: u64,
    /// Non-transactional operations that merged into an existing node.
    pub merges_reused: u64,
    /// Non-transactional operations that vanished (all predecessors `⊥`).
    pub merges_bottom: u64,
    /// Cycles detected (before per-label deduplication).
    pub cycles_detected: u64,
    /// Warnings dropped because [`VelodromeConfig::max_warnings`] was
    /// exhausted (the full [`CycleReport`]s are still retained).
    pub warnings_suppressed: u64,
    /// Degradation-ladder transitions taken (see
    /// [`VelodromeConfig::budget`]).
    pub degradations: u64,
    /// Variables quarantined from happens-before edge creation.
    pub vars_quarantined: u64,
    /// Current rung of the degradation ladder.
    pub ladder: DegradationLevel,
}

impl std::fmt::Display for VelodromeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ops, {} nodes allocated ({} max alive, {} collected), \
             {} edges ({} elided, {} epoch hits), {} merges reused, \
             {} vanished, {} cycles",
            self.ops,
            self.nodes_allocated,
            self.max_alive,
            self.collected,
            self.edges_added,
            self.edges_elided,
            self.epoch_hits,
            self.merges_reused,
            self.merges_bottom,
            self.cycles_detected
        )?;
        if self.warnings_suppressed > 0 {
            write!(
                f,
                ", {} warnings suppressed (budget)",
                self.warnings_suppressed
            )?;
        }
        if self.ladder != DegradationLevel::Full {
            write!(
                f,
                ", degraded to {} ({} transitions, {} vars quarantined)",
                self.ladder, self.degradations, self.vars_quarantined
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct Block {
    label: Label,
    start_ts: Ts,
}

#[derive(Debug, Default)]
struct ThreadState {
    /// `L(t)`: step of the thread's last operation (weak).
    l: Step,
    /// Current transaction node; meaningful only when `stack` is non-empty.
    node: SlotIdx,
    /// Open atomic blocks, outermost first.
    stack: Vec<Block>,
    /// Epoch cache: the last predecessor step whose edge into the current
    /// transaction was a no-op (`⊥`/stale source, self-edge, or elided as
    /// transitively implied). Repeats of the same predecessor within the
    /// same transaction — e.g. a read loop whose `W(x)` never changes — are
    /// skipped without touching the arena: all four no-op conditions are
    /// stable while the transaction node is fixed (timestamps are never
    /// reissued per slot, and reachability between two alive nodes never
    /// goes away: it is lost only when the predecessor dies, which turns
    /// its step stale). Cleared on transaction entry, when the node
    /// changes.
    skip: Option<Step>,
}

/// The sound and complete dynamic serializability analysis.
///
/// Feed it operations through the [`Tool`] interface (usually via
/// [`velodrome_monitor::run_tool`] or [`check_trace`]); it reports one
/// [`Warning`] per detected violation and keeps the full [`CycleReport`]s
/// for inspection.
#[derive(Debug)]
pub struct Velodrome {
    cfg: VelodromeConfig,
    arena: Arena,
    threads: Vec<ThreadState>,
    /// `U`: last release step per lock.
    u: HashMap<LockId, Step>,
    /// `W`: last write step per variable.
    w: HashMap<VarId, Step>,
    /// `R`: last read step per variable and thread (since the last write).
    /// Ordered by thread so edge-insertion order (and thus reports and
    /// statistics) is deterministic.
    r: HashMap<VarId, BTreeMap<ThreadId, Step>>,
    warnings: Vec<Warning>,
    /// `(warning, report)` indices of the atomicity warnings whose
    /// `message` and `details` are still to be rendered. Rendering waits
    /// for [`Tool::take_warnings`], so names supplied by
    /// [`Velodrome::set_names`] after the last operation still appear.
    unrendered: Vec<(usize, usize)>,
    reports: Vec<CycleReport>,
    dedup: PerLabelDedup,
    stats: VelodromeStats,
    /// Variables excluded from happens-before edge creation after the
    /// tracked-variable (or alive-node) budget tripped. Reads and writes of
    /// a quarantined variable are ignored entirely — dropping edges can only
    /// lose real cycles (completeness), never invent false ones (soundness).
    quarantined: HashSet<VarId>,
    /// Access counts per still-tracked variable; maintained only when a
    /// budget is configured, and used to pick the *hottest* variables for
    /// quarantine (ties broken by lower raw id, so runs are deterministic).
    var_heat: HashMap<VarId, u64>,
    /// After an alive-node-triggered quarantine, escalation to
    /// recorder-only waits until this many ops have been processed, giving
    /// GC a window to reclaim nodes the quarantine unpinned.
    grace_until: u64,
    /// Pre-resolved telemetry handles (no-ops when telemetry is disabled).
    tele: EngineTele,
}

impl Default for Velodrome {
    fn default() -> Self {
        Self::new()
    }
}

impl Velodrome {
    /// Creates an engine with the default (fully optimized) configuration.
    pub fn new() -> Self {
        Self::with_config(VelodromeConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(cfg: VelodromeConfig) -> Self {
        let arena = Arena::with_options(cfg.gc, cfg.elide_redundant_edges);
        let tele = EngineTele::new(&cfg.telemetry);
        Self {
            cfg,
            arena,
            threads: Vec::new(),
            u: HashMap::new(),
            w: HashMap::new(),
            r: HashMap::new(),
            warnings: Vec::new(),
            unrendered: Vec::new(),
            reports: Vec::new(),
            dedup: PerLabelDedup::new(),
            stats: VelodromeStats::default(),
            quarantined: HashSet::new(),
            var_heat: HashMap::new(),
            grace_until: 0,
            tele,
        }
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> VelodromeStats {
        let a = self.arena.stats();
        VelodromeStats {
            nodes_allocated: a.allocated,
            max_alive: a.max_alive,
            collected: a.collected,
            edges_added: a.edges_added,
            edges_elided: a.edges_elided,
            ..self.stats
        }
    }

    /// Mirrors the engine's statistics surface into the configured
    /// telemetry registry under the stable names in
    /// [`velodrome_telemetry::names`]: the stats as gauges and the four
    /// `phase.*` records as phases. The counters the engine updates live
    /// (`arena.exhausted`, `arena.ts_overflow`, `engine.degradations`) are
    /// not touched. A no-op when telemetry is disabled; callers invoke this
    /// before each snapshot (pull-model publishing keeps the hot path free
    /// of per-op registry writes).
    pub fn publish_telemetry(&self) {
        self.publish_telemetry_to(&self.cfg.telemetry);
    }

    /// [`publish_telemetry`](Self::publish_telemetry) into an explicit
    /// registry. Lets a benchmark run the engine with telemetry fully
    /// disabled (no phase bookkeeping) and still read the run's final
    /// numbers back through registry gauges; the phases then publish as
    /// zeros.
    pub fn publish_telemetry_to(&self, t: &Telemetry) {
        if !t.is_enabled() {
            return;
        }
        let a = self.arena.stats();
        t.set_gauge(names::ARENA_ALLOCATED, a.allocated);
        t.set_gauge(names::ARENA_MAX_ALIVE, a.max_alive);
        t.set_gauge(names::ARENA_CUR_ALIVE, a.cur_alive);
        t.set_gauge(names::ARENA_COLLECTED, a.collected);
        t.set_gauge(names::ARENA_EDGES_ADDED, a.edges_added);
        t.set_gauge(names::ARENA_EDGES_REPLACED, a.edges_replaced);
        t.set_gauge(names::ARENA_EDGES_ELIDED, a.edges_elided);
        let s = &self.stats;
        t.set_gauge(names::ENGINE_OPS, s.ops);
        t.set_gauge(names::ENGINE_EPOCH_HITS, s.epoch_hits);
        t.set_gauge(names::ENGINE_MERGES_REUSED, s.merges_reused);
        t.set_gauge(names::ENGINE_MERGES_BOTTOM, s.merges_bottom);
        t.set_gauge(names::ENGINE_CYCLES_DETECTED, s.cycles_detected);
        t.set_gauge(names::ENGINE_WARNINGS_SUPPRESSED, s.warnings_suppressed);
        t.set_gauge(names::ENGINE_VARS_QUARANTINED, s.vars_quarantined);
        t.set_gauge(names::ENGINE_LADDER, s.ladder.rung());
        let p = &self.tele;
        p.advance.publish(t, names::PHASE_ADVANCE);
        p.add_edge.publish(t, names::PHASE_ADD_EDGE);
        p.cycle_check.publish(t, names::PHASE_CYCLE_CHECK);
        p.gc.publish(t, names::PHASE_GC);
    }

    /// Replaces the symbol table warnings are rendered with. A streamed
    /// JSON trace may carry its names after its last operation; the
    /// warnings pending at that point, and all later ones, use `names`.
    pub fn set_names(&mut self, names: SymbolTable) {
        self.cfg.names = names;
    }

    /// Full cycle reports collected so far (not drained by
    /// [`Tool::take_warnings`]).
    pub fn reports(&self) -> &[CycleReport] {
        &self.reports
    }

    /// Number of currently alive transaction nodes.
    pub fn alive_nodes(&self) -> usize {
        self.arena.alive_count()
    }

    /// Current rung of the degradation ladder (see
    /// [`VelodromeConfig::budget`]).
    pub fn ladder(&self) -> DegradationLevel {
        self.stats.ladder
    }

    /// Variables currently quarantined from happens-before edge creation.
    pub fn quarantined_vars(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> = self.quarantined.iter().copied().collect();
        vars.sort_by_key(|x| x.raw());
        vars
    }

    /// Exposes the arena's internal invariant checker (tests only).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.arena.check_invariants();
    }

    /// Test hook: pins an arena slot's timestamp counter so overflow paths
    /// can be exercised without issuing 2^48 bumps (see
    /// [`Arena::force_counter_for_test`]).
    #[doc(hidden)]
    pub fn force_arena_counter_for_test(&mut self, slot: SlotIdx, counter: Ts) {
        self.arena.force_counter_for_test(slot, counter);
    }

    fn thread_mut(&mut self, t: ThreadId) -> &mut ThreadState {
        let idx = t.index();
        if idx >= self.threads.len() {
            self.threads.resize_with(idx + 1, ThreadState::default);
        }
        &mut self.threads[idx]
    }

    fn in_txn(&mut self, t: ThreadId) -> bool {
        !self.thread_mut(t).stack.is_empty()
    }

    /// [`Arena::add_edge`], recorded as `phase.add_edge`.
    fn add_edge(&mut self, from: Step, to: Step, op: Op, idx: usize) -> Result<bool, CycleFound> {
        if !self.tele.on {
            return self.arena.add_edge(from, to, op, idx);
        }
        let start = self.tele.add_edge.begin(PHASE_SAMPLE_PERIOD);
        let added = self.arena.add_edge(from, to, op, idx);
        self.tele.add_edge.end(start);
        added
    }

    /// [`Arena::finish`] (the GC cascade entry point), recorded as
    /// `phase.gc`.
    fn finish_node(&mut self, slot: SlotIdx) {
        if !self.tele.on {
            return self.arena.finish(slot);
        }
        let start = self.tele.gc.begin(1);
        self.arena.finish(slot);
        self.tele.gc.end(start);
    }

    /// Maps a recoverable arena capacity failure onto the degradation
    /// ladder: count it in telemetry, step straight to recorder-only with a
    /// `Degraded` warning, and release the instrumentation store (its steps
    /// are never consulted again; events are only counted from here on).
    /// The host keeps running — this is the crash class the ladder exists
    /// to absorb.
    fn degrade_fatal(&mut self, err: ArenaError, t: ThreadId, idx: usize) {
        match err {
            ArenaError::Exhausted => self.tele.exhausted.incr(),
            ArenaError::TsOverflow => self.tele.ts_overflow.incr(),
        }
        self.degrade(DegradationLevel::RecorderOnly, t, idx, &err.to_string());
        self.u.clear();
        self.w.clear();
        self.r.clear();
        self.var_heat.clear();
    }

    /// Advances thread `t` by one operation with happens-before
    /// predecessors `preds`, returning the operation's step (possibly `⊥`
    /// for vanishing non-transactional operations).
    fn advance(&mut self, t: ThreadId, preds: &[Step], op: Op, idx: usize) -> Step {
        if self.in_txn(t) {
            let node = self.thread_mut(t).node;
            let s = match self.arena.bump(node) {
                Ok(s) => s,
                Err(e) => {
                    self.degrade_fatal(e, t, idx);
                    return Step::NONE;
                }
            };
            let elide = self.cfg.elide_redundant_edges;
            for &p in preds {
                // Epoch fast path: a predecessor that was a no-op for this
                // transaction stays one (see `ThreadState::skip`).
                if elide && self.threads[t.index()].skip == Some(p) {
                    self.stats.epoch_hits += 1;
                    continue;
                }
                match self.add_edge(p, s, op, idx) {
                    Ok(true) => {}
                    Ok(false) => {
                        if elide {
                            self.threads[t.index()].skip = Some(p);
                        }
                    }
                    Err(c) => self.report_cycle(c, t, op, idx),
                }
            }
            self.thread_mut(t).l = s;
            return s;
        }
        // Non-transactional operation: gather the resolved predecessors,
        // including the thread-order predecessor L(t), deduplicated per node
        // (keeping the latest timestamp).
        let l = self.thread_mut(t).l;
        let mut args: Vec<Step> = Vec::with_capacity(preds.len() + 1);
        for &p in preds.iter().chain(std::iter::once(&l)) {
            let p = self.arena.resolve(p);
            if let Some((n, ts)) = p.is_some().then(|| p.unpack()) {
                match args.iter_mut().find(|a| a.slot() == Some(n)) {
                    Some(a) => {
                        if ts > a.ts().expect("resolved step") {
                            *a = p;
                        }
                    }
                    None => args.push(p),
                }
            }
        }
        let s = if !self.cfg.merge {
            // Figure 2 [INS OUTSIDE]: wrap the operation in a fresh unary
            // transaction.
            let desc = NodeDesc {
                thread: t,
                label: None,
                first_op: idx,
            };
            let s = match self.arena.alloc(desc, true) {
                Ok(s) => s,
                Err(e) => {
                    self.degrade_fatal(e, t, idx);
                    return Step::NONE;
                }
            };
            for &a in &args {
                // The target node is fresh, so no cycle is possible.
                let _ = self.add_edge(a, s, op, idx);
            }
            let (slot, _) = s.unpack();
            self.finish_node(slot);
            s
        } else if args.is_empty() {
            // All predecessors are ⊥: the unary transaction would be
            // collected immediately, so it is never allocated (merge case 1).
            self.stats.merges_bottom += 1;
            Step::NONE
        } else if let Some(&sj) = args.iter().find(|&&sj| {
            // Reuse is safe only for nodes that can never gain another
            // incoming edge: merging into another thread's *current*
            // transaction would turn a later conflicting edge back into it
            // into a filtered self-edge, hiding a real cycle.
            !self.arena.is_current(sj.unpack().0)
                && args.iter().all(|&si| self.arena.happens_before(si, sj))
        }) {
            // A dominating, non-current predecessor exists: reuse its node
            // (merge case 2).
            self.stats.merges_reused += 1;
            let (slot, _) = sj.unpack();
            match self.arena.bump(slot) {
                Ok(s) => s,
                Err(e) => {
                    self.degrade_fatal(e, t, idx);
                    return Step::NONE;
                }
            }
        } else {
            // Two or more incomparable predecessors: allocate a merge node
            // with edges from each (merge case 3). The node is fresh, so no
            // cycle is possible.
            let desc = NodeDesc {
                thread: t,
                label: None,
                first_op: idx,
            };
            let s = match self.arena.alloc(desc, false) {
                Ok(s) => s,
                Err(e) => {
                    self.degrade_fatal(e, t, idx);
                    return Step::NONE;
                }
            };
            for &a in &args {
                let _ = self.add_edge(a, s, op, idx);
            }
            s
        };
        self.thread_mut(t).l = s;
        s
    }

    fn on_begin(&mut self, t: ThreadId, l: Label, idx: usize) {
        if self.in_txn(t) {
            // [INS2 RE-ENTER]: nested block within the current transaction.
            let node = self.thread_mut(t).node;
            let s = match self.arena.bump(node) {
                Ok(s) => s,
                Err(e) => {
                    self.degrade_fatal(e, t, idx);
                    return;
                }
            };
            let ts = s.ts().expect("bumped step");
            let st = self.thread_mut(t);
            st.l = s;
            st.stack.push(Block {
                label: l,
                start_ts: ts,
            });
        } else {
            // [INS2 ENTER]: allocate a fresh transaction node, ordered after
            // the thread's previous transaction.
            let prev = self.thread_mut(t).l;
            let desc = NodeDesc {
                thread: t,
                label: Some(l),
                first_op: idx,
            };
            let s = match self.arena.alloc(desc, true) {
                Ok(s) => s,
                Err(e) => {
                    self.degrade_fatal(e, t, idx);
                    return;
                }
            };
            let op = Op::Begin { t, l };
            let _ = self.add_edge(prev, s, op, idx);
            let (slot, ts) = s.unpack();
            let st = self.thread_mut(t);
            st.l = s;
            st.node = slot;
            // The cache is only valid for one fixed transaction node: the
            // previous node's slot may since have been recycled.
            st.skip = None;
            st.stack = vec![Block {
                label: l,
                start_ts: ts,
            }];
        }
    }

    fn on_end(&mut self, t: ThreadId, idx: usize) {
        if !self.in_txn(t) {
            return; // Stray end: tolerated, as in the trace semantics.
        }
        let node = self.thread_mut(t).node;
        // On timestamp overflow the end step is `⊥` (L(t) keeps its last
        // valid step) but the block is still popped and the node finished,
        // so the graph stays consistent while the engine degrades.
        let s = match self.arena.bump(node) {
            Ok(s) => s,
            Err(e) => {
                self.degrade_fatal(e, t, idx);
                Step::NONE
            }
        };
        let st = self.thread_mut(t);
        if s.is_some() {
            st.l = s;
        }
        st.stack.pop();
        if st.stack.is_empty() {
            // [INS2 EXIT] of the outermost block: the transaction is
            // finished and becomes collectible once unreferenced.
            self.finish_node(node);
        }
    }

    fn on_read(&mut self, t: ThreadId, x: VarId, op: Op, idx: usize) {
        let w = self.w.get(&x).copied().unwrap_or(Step::NONE);
        let s = self.advance(t, &[w], op, idx);
        // A `⊥` step must not materialize an empty per-variable map:
        // `advance` may just have degraded and released the whole store.
        if s.is_some() {
            self.r.entry(x).or_default().insert(t, s);
        } else if let Some(per_var) = self.r.get_mut(&x) {
            per_var.remove(&t);
        }
    }

    fn on_write(&mut self, t: ThreadId, x: VarId, op: Op, idx: usize) {
        let mut preds: Vec<Step> = Vec::new();
        if let Some(per_var) = self.r.get(&x) {
            preds.extend(per_var.values().copied());
        }
        preds.push(self.w.get(&x).copied().unwrap_or(Step::NONE));
        let s = self.advance(t, &preds, op, idx);
        if s.is_some() {
            self.w.insert(x, s);
        } else {
            self.w.remove(&x);
        }
        // Older reads are now transitively ordered through this write.
        if let Some(per_var) = self.r.get_mut(&x) {
            per_var.clear();
        }
    }

    fn on_acquire(&mut self, t: ThreadId, m: LockId, op: Op, idx: usize) {
        let u = self.u.get(&m).copied().unwrap_or(Step::NONE);
        let _ = self.advance(t, &[u], op, idx);
    }

    fn on_release(&mut self, t: ThreadId, m: LockId, op: Op, idx: usize) {
        let s = self.advance(t, &[], op, idx);
        if s.is_some() {
            self.u.insert(m, s);
        } else {
            self.u.remove(&m);
        }
    }

    fn on_fork(&mut self, t: ThreadId, child: ThreadId, op: Op, idx: usize) {
        let s = self.advance(t, &[], op, idx);
        // The child's first operation is ordered after the fork: seed its
        // thread-order predecessor.
        self.thread_mut(child).l = s;
    }

    fn on_join(&mut self, t: ThreadId, child: ThreadId, op: Op, idx: usize) {
        let lc = self.thread_mut(child).l;
        let _ = self.advance(t, &[lc], op, idx);
    }

    /// Steps the ladder down to `to` (monotonic; a repeat at the same rung
    /// is a no-op). The transition warning bypasses both `max_warnings` and
    /// per-label dedup: a soundness downgrade must never be silently
    /// dropped.
    fn degrade(&mut self, to: DegradationLevel, t: ThreadId, idx: usize, reason: &str) {
        if to <= self.stats.ladder {
            return;
        }
        self.stats.ladder = to;
        self.stats.degradations += 1;
        self.tele.degradations.incr();
        self.tele.ladder.set(to.rung());
        self.warnings.push(Warning {
            tool: "velodrome",
            category: WarningCategory::Degraded,
            label: None,
            thread: t,
            op_index: idx,
            message: format!("degraded to {to}: {reason}"),
            details: None,
        });
    }

    /// Quarantines the hottest variables until at most `target` remain
    /// tracked. Hotter first; ties broken by lower raw id so runs are
    /// deterministic. Quarantined variables drop their `R`/`W` entries,
    /// unpinning any transaction nodes those steps kept alive.
    fn quarantine_hottest(&mut self, target: usize) {
        if self.var_heat.len() <= target {
            return;
        }
        let mut by_heat: Vec<(VarId, u64)> = self.var_heat.iter().map(|(&x, &h)| (x, h)).collect();
        by_heat.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));
        for (x, _) in by_heat.drain(..self.var_heat.len() - target) {
            self.var_heat.remove(&x);
            self.quarantined.insert(x);
            self.w.remove(&x);
            self.r.remove(&x);
            self.stats.vars_quarantined += 1;
        }
    }

    /// Budget enforcement, run before each operation when a budget is
    /// configured. Returns `true` if `op` should be dropped (quarantined
    /// variable or recorder-only mode).
    fn enforce_budgets(&mut self, op: Op, idx: usize) -> bool {
        let b = self.cfg.budget;
        let var = match op {
            Op::Read { x, .. } | Op::Write { x, .. } => Some(x),
            _ => None,
        };
        if let Some(x) = var {
            if self.quarantined.contains(&x) {
                return true;
            }
            *self.var_heat.entry(x).or_insert(0) += 1;
        }
        if b.max_tracked_vars > 0 && self.var_heat.len() > b.max_tracked_vars {
            self.quarantine_hottest(b.max_tracked_vars);
            self.degrade(
                DegradationLevel::VarQuarantine,
                op.tid(),
                idx,
                "tracked-variable budget exhausted",
            );
            // The current op's variable may itself have been quarantined.
            if let Some(x) = var {
                if self.quarantined.contains(&x) {
                    return true;
                }
            }
        }
        if b.max_alive_nodes > 0 && self.arena.alive_count() > b.max_alive_nodes {
            if self.grace_until == 0 {
                // First trip: quarantine the hotter half of the tracked
                // variables and give GC a grace window to reclaim the nodes
                // their R/W steps were pinning.
                self.quarantine_hottest((self.var_heat.len() / 2).max(1));
                self.degrade(
                    DegradationLevel::VarQuarantine,
                    op.tid(),
                    idx,
                    "alive-node budget exhausted",
                );
                self.grace_until = self.stats.ops + 2 * b.max_alive_nodes as u64 + 16;
            } else if self.stats.ops >= self.grace_until {
                self.degrade(
                    DegradationLevel::RecorderOnly,
                    op.tid(),
                    idx,
                    "alive-node budget still exhausted after quarantine",
                );
                // Analysis is over: release the store so memory stops
                // growing. Events are still counted in `stats.ops`.
                self.u.clear();
                self.w.clear();
                self.r.clear();
                self.var_heat.clear();
                return true;
            }
        }
        false
    }

    /// Applies one operation to the instrumentation store and the graph.
    #[inline]
    fn dispatch(&mut self, index: usize, op: Op) {
        match op {
            Op::Read { t, x } => self.on_read(t, x, op, index),
            Op::Write { t, x } => self.on_write(t, x, op, index),
            Op::Acquire { t, m } => self.on_acquire(t, m, op, index),
            Op::Release { t, m } => self.on_release(t, m, op, index),
            Op::Begin { t, l } => self.on_begin(t, l, index),
            Op::End { t } => self.on_end(t, index),
            Op::Fork { t, child } => self.on_fork(t, child, op, index),
            Op::Join { t, child } => self.on_join(t, child, op, index),
        }
    }

    /// Reports a detected cycle (path reconstruction, blame, warning),
    /// timed as `phase.cycle_check`.
    fn report_cycle(&mut self, c: CycleFound, t: ThreadId, op: Op, idx: usize) {
        if !self.tele.on {
            return self.record_cycle(c, t, op, idx);
        }
        let start = self.tele.cycle_check.begin(1);
        self.record_cycle(c, t, op, idx);
        self.tele.cycle_check.end(start);
    }

    fn record_cycle(&mut self, c: CycleFound, t: ThreadId, op: Op, idx: usize) {
        self.stats.cycles_detected += 1;
        // Reconstruct the existing path current-txn →* edge-source; the
        // rejected edge closes the cycle.
        let path = self
            .arena
            .find_path(c.to, c.from)
            .expect("cycle detection implies a path back to the edge source");
        let mut nodes: Vec<ReportNode> = vec![self.arena.desc(c.to).into()];
        let mut edges: Vec<ReportEdge> = Vec::with_capacity(path.len() + 1);
        for (slot, e) in &path {
            edges.push(ReportEdge {
                op: e.op,
                op_index: e.op_index,
                from_ts: e.from_ts,
                to_ts: e.to_ts,
            });
            nodes.push(self.arena.desc(*slot).into());
        }
        edges.push(ReportEdge {
            op,
            op_index: idx,
            from_ts: c.from_ts,
            to_ts: c.to_ts,
        });

        // Increasing-cycle check (Section 4.3): for every node other than
        // the current transaction, the incoming timestamp must not exceed
        // the outgoing timestamp.
        let increasing = (1..nodes.len()).all(|i| edges[i - 1].to_ts <= edges[i].from_ts);

        // Blame: the cycle leaves the current transaction at the root
        // timestamp; every enclosing atomic block whose begin precedes the
        // root contains both root and target operations and is refuted.
        let root_ts = edges[0].from_ts;
        let stack = &self.threads[t.index()].stack;
        let refuted: Vec<Label> = if increasing {
            stack
                .iter()
                .filter(|b| b.start_ts <= root_ts)
                .map(|b| b.label)
                .collect()
        } else {
            Vec::new()
        };
        let blamed = increasing.then_some(0);
        let outermost = stack.first().map(|b| b.label);
        let report = CycleReport {
            nodes,
            edges,
            increasing,
            blamed,
            refuted,
            op_index: idx,
        };

        let attribution = report.blamed_label().or(outermost);
        // Budget first, dedup second: the budget check consumes nothing, so
        // a label whose first report arrives while the budget is exhausted
        // is not marked as seen and can still warn once warnings drain.
        // Conversely a duplicate label returns here without ever counting
        // against the budget.
        if self.cfg.max_warnings > 0 && self.warnings.len() >= self.cfg.max_warnings {
            self.stats.warnings_suppressed += 1;
            self.reports.push(report);
            return;
        }
        if self.cfg.dedup_per_label && !self.dedup.first_report(attribution) {
            self.reports.push(report);
            return;
        }
        self.unrendered
            .push((self.warnings.len(), self.reports.len()));
        self.warnings.push(Warning {
            tool: "velodrome",
            category: WarningCategory::Atomicity,
            label: attribution,
            thread: t,
            op_index: idx,
            message: String::new(),
            details: None,
        });
        self.reports.push(report);
    }
}

impl Tool for Velodrome {
    fn name(&self) -> &'static str {
        "velodrome"
    }

    fn op(&mut self, index: usize, op: Op) {
        self.stats.ops += 1;
        // Recorder-only is reachable without a budget (arena capacity
        // failures degrade directly), so the check is unconditional.
        if self.stats.ladder == DegradationLevel::RecorderOnly {
            return;
        }
        // Budget enforcement is gated on a configured budget so the default
        // (unlimited) path has zero extra state and identical behavior.
        if !self.cfg.budget.is_unlimited() && self.enforce_budgets(op, index) {
            return;
        }
        if self.tele.on {
            let start = self.tele.advance.begin(PHASE_SAMPLE_PERIOD);
            self.dispatch(index, op);
            self.tele.advance.end(start);
        } else {
            self.dispatch(index, op);
        }
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        for (w, r) in self.unrendered.drain(..) {
            let report = &self.reports[r];
            let warning = &mut self.warnings[w];
            warning.message = report.summary(&self.cfg.names);
            warning.details = Some(report.to_dot(&self.cfg.names));
        }
        std::mem::take(&mut self.warnings)
    }
}

/// Runs Velodrome over a recorded trace with default configuration (names
/// taken from the trace) and returns the warnings.
pub fn check_trace(trace: &Trace) -> Vec<Warning> {
    let cfg = VelodromeConfig {
        names: trace.names().clone(),
        ..VelodromeConfig::default()
    };
    let mut v = Velodrome::with_config(cfg);
    velodrome_monitor::run_tool(&mut v, trace)
}

/// Like [`check_trace`], but also returns the engine for inspecting
/// statistics and full cycle reports.
pub fn check_trace_with(trace: &Trace, cfg: VelodromeConfig) -> (Vec<Warning>, Velodrome) {
    let mut v = Velodrome::with_config(cfg);
    let warnings = velodrome_monitor::run_tool(&mut v, trace);
    (warnings, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::TraceBuilder;

    #[test]
    fn names_set_after_the_last_op_render_the_warnings() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "Counter.inc").read("T1", "count");
        b.write("T2", "count");
        b.write("T1", "count").end("T1");
        let trace = b.finish();
        // Names arrive after the stream, as in a JSON trace that puts
        // `names` after `ops`.
        let mut engine = Velodrome::new();
        for (i, op) in trace.iter() {
            engine.op(i, op);
        }
        engine.end_of_trace();
        engine.set_names(trace.names().clone());
        let late = engine.take_warnings();
        assert_eq!(late.len(), 1);
        assert!(late[0].message.contains("Counter.inc"), "{}", late[0]);
        let details = late[0].details.as_deref().unwrap();
        assert!(details.contains("count"), "{details}");
        // Byte-identical to names known from the start.
        assert_eq!(
            serde_json::to_string(&late).unwrap(),
            serde_json::to_string(&check_trace(&trace)).unwrap()
        );
    }
}
