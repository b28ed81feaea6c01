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
//!   write — older reads are transitively ordered through the write chain),
//!   held as a vec sorted by raw thread id, with the reads that do not
//!   extend it appended and sorted in when the vec fills or a write comes;
//! * `W` — per-variable step of the last write;
//! * `H` — the happens-before graph, held in the [`Arena`] with chain
//!   clocks, timestamped edges, and reference-counting GC.
//!
//! `C` and `L` live in one record per thread, `R` and `W` in one record
//! per variable, together with the variable's budget bookkeeping, and `U`
//! in one per lock. Ids in a trace are arbitrary `u32`s, so each kind of
//! record sits in a first-seen table that maps each distinct id to a dense
//! row: memory follows the number of distinct ids, not the largest one.
//! The tables hash ids with one folded multiply under a key drawn once per
//! engine, so a trace crafted to collide ids cannot know the key.
//!
//! In a steady state (every id seen, no new peak in read-set size or alive
//! nodes, no cycle reported) an operation allocates nothing: read sets are
//! sorted and cleared in place, each thread's block stack is reused, and the
//! predecessor lists of an operation are built in scratch buffers the
//! engine keeps.
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

use crate::arena::{Arena, ArenaError, CycleFound, EdgeInfo, NodeDesc};
use crate::report::CycleReport;
use crate::step::{SlotIdx, Step, Ts};
use std::cmp::Reverse;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::{Index, IndexMut};
use velodrome_events::{Label, LockId, Op, SymbolTable, ThreadId, Trace, VarId};
use velodrome_monitor::budget::{DegradationLevel, ResourceBudget};
use velodrome_monitor::tool::{PerLabelDedup, Tool, Warning, WarningCategory};
use velodrome_telemetry::{names, PhaseStat, Telemetry};

/// Configuration of the [`Velodrome`] engine.
#[derive(Debug, Clone)]
pub struct VelodromeConfig {
    /// Use the Figure 4 merge optimization for non-transactional operations
    /// (`true`, the default) or the naive Figure 2 `[INS OUTSIDE]` rule.
    pub merge: bool,
    /// Garbage collect transaction nodes (default `true`). Disabling this
    /// reproduces the "no GC" ablation. Every node then stays alive, so a
    /// trace of more than 2^24 − 1 transactions exhausts the node arena
    /// (see [`crate::arena::CAPACITY`]).
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
    /// A duplicate cycle is counted in
    /// [`VelodromeStats::cycles_detected`] but keeps no [`CycleReport`].
    ///
    /// Interaction with [`max_warnings`](Self::max_warnings): a duplicate
    /// label never consumes warning budget, and a cycle suppressed because
    /// the budget is full does **not** mark its label as seen — the budget
    /// check runs first, so once warnings are drained the label can still
    /// produce its one warning.
    pub dedup_per_label: bool,
    /// Hard cap on *stored* (undrained) warnings; `0` means unlimited.
    /// A suppressed cycle keeps no [`CycleReport`], but every suppression
    /// is counted in [`VelodromeStats::warnings_suppressed`] so a capped
    /// run is distinguishable from a clean one.
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
    /// are drained (see [`Tool::set_names`]).
    pub names: SymbolTable,
    /// Telemetry registry the engine reports into (default: the disabled
    /// no-op handle — zero overhead, see the `velodrome-telemetry` crate).
    /// When enabled, the engine also keeps phase records of its hot spots;
    /// the registry is written only by [`Velodrome::publish_telemetry`],
    /// which mirrors the phases and the full
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

/// Calls of the frequent phases (`advance`, `add_edge`, `gc`) per clock
/// read. Two clock reads cost about as much as a whole engine op, so these
/// phases are counted on every call but timed on one in this many.
const PHASE_SAMPLE_PERIOD: u64 = 64;

/// The fewest joins between two retries of the joined threads whose rows
/// were busy at their join ([`Velodrome::release_joined`]).
const JOINED_RETRY_MIN: usize = 64;

/// The engine's phase records: plain integers owned by the engine and
/// published at snapshot time.
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
    /// GC cascades, `Arena::finish` (sampled timing: the max is the
    /// longest *timed* GC stall, not necessarily the longest one).
    gc: PhaseStat,
}

impl EngineTele {
    fn new(t: &Telemetry) -> Self {
        Self {
            on: t.is_enabled(),
            advance: PhaseStat::default(),
            add_edge: PhaseStat::default(),
            cycle_check: PhaseStat::default(),
            gc: PhaseStat::default(),
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
    /// exhausted (their cycles keep no [`CycleReport`]).
    pub warnings_suppressed: u64,
    /// Degradation-ladder transitions taken (see
    /// [`VelodromeConfig::budget`]).
    pub degradations: u64,
    /// Arena slot-exhaustion events (each degrades to recorder-only).
    pub arena_exhausted: u64,
    /// Arena 40-bit timestamp overflows (each degrades to recorder-only).
    pub ts_overflows: u64,
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

impl ThreadState {
    /// Does the row hold nothing a fresh row lacks? True once no block is
    /// open and `L` names no alive node: a stale step orders nothing, just
    /// as `⊥` does, and the other fields are reset on the next `begin`.
    fn idle(&self, arena: &Arena) -> bool {
        self.stack.is_empty() && arena.resolve(self.l).is_none()
    }

    /// Back to a fresh thread's state, keeping the stack's capacity.
    fn reset(&mut self) {
        self.l = Step::NONE;
        self.node = 0;
        self.stack.clear();
        self.skip = None;
    }
}

/// One variable's part of the instrumentation store.
#[derive(Debug, Default)]
struct VarState {
    /// `W(x)`: step of the last write.
    w: Step,
    /// `R(x)`: the last read step per thread since the last write, `⊥`
    /// for none. The first `settled` entries are sorted by raw thread id
    /// (not by thread row, so predecessors reach the arena in the same
    /// order whatever order the threads were first seen in; edge order
    /// decides which cycle path a report shows), one per thread. A read
    /// by one of those threads updates its entry; a read by any other
    /// thread extends the sorted entries if it sorts after them all, and
    /// is appended otherwise. [`settle`](Self::settle) folds the appended
    /// reads in when the vec fills and before a write, which then clears
    /// it and keeps its capacity.
    r: Vec<Read>,
    settled: u32,
    /// Accesses while tracked, counted only when a budget is configured;
    /// non-zero exactly for the tracked variables. Picks the hottest ones
    /// for quarantine.
    heat: u64,
    /// Excluded from happens-before edge creation after the tracked-variable
    /// (or alive-node) budget tripped. Reads and writes of a quarantined
    /// variable are ignored entirely — dropping edges can only lose real
    /// cycles (completeness), never invent false ones (soundness). Never
    /// cleared, so [`Velodrome::quarantined_vars`] survives recorder-only.
    quarantined: bool,
}

/// One entry of a read set ([`VarState::r`]).
#[derive(Debug, Clone, Copy)]
struct Read {
    t: ThreadId,
    /// The entry's place in the vec, kept through
    /// [`settle`](VarState::settle)'s sort: of one thread's reads, the
    /// latest has the largest `seq`.
    seq: u32,
    /// The read's step, `⊥` where the read resolved to none.
    s: Step,
}

impl VarState {
    /// Folds the appended reads in: leaves `r` sorted by raw thread id,
    /// each thread's latest read only. Sorts in place: no allocation.
    fn settle(&mut self) {
        let r = &mut self.r;
        r.sort_unstable_by_key(|e| (e.t, Reverse(e.seq)));
        r.dedup_by_key(|e| e.t);
        for (i, e) in r.iter_mut().enumerate() {
            e.seq = i as u32;
        }
        self.settled = r.len() as u32;
    }
}

/// The hash of a [`Table`]'s ids: one folded multiply of the id under a
/// random key. Cheaper than std's SipHash, and still keyed: ids come from
/// the trace, and under an unkeyed multiply a file using ids `i << 16`
/// collides them into one run of buckets (the trace in
/// `tests/crafted_ids.rs` then took 90× as long). The key is drawn from
/// std's [`RandomState`] once per engine.
#[derive(Debug, Clone, Copy)]
struct IdHash {
    key: u64,
    mul: u64,
}

impl IdHash {
    fn random() -> Self {
        let s = RandomState::new();
        Self {
            key: s.hash_one(0u64),
            mul: s.hash_one(1u64) | 1,
        }
    }

    /// A key drawn from `seed` by SplitMix64, the same on every run.
    #[cfg(test)]
    fn seeded(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Self {
            key: next(),
            mul: next() | 1,
        }
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            keys: *self,
            hash: 0,
        }
    }
}

/// The [`Hasher`] of [`IdHash`]. Ids hash as one `u32`; other input is
/// folded in a byte at a time.
struct IdHasher {
    keys: IdHash,
    hash: u64,
}

impl Hasher for IdHasher {
    fn write_u32(&mut self, n: u32) {
        let x = (self.hash ^ u64::from(n) ^ self.keys.key) as u128 * self.keys.mul as u128;
        self.hash = (x as u64) ^ ((x >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A first-seen table: maps each distinct raw id to a dense row, rows in
/// the order their ids were first seen. Ids in a trace are arbitrary
/// `u32`s, so memory follows the number of distinct ids, not the largest;
/// a table whose ids are [`release`](Self::release)d follows the ids held
/// at once.
#[derive(Debug)]
struct Table<K, V> {
    /// Raw id → row.
    index: HashMap<K, u32, IdHash>,
    rows: Vec<V>,
    /// Released rows, handed to the next new ids before `rows` grows.
    free: Vec<u32>,
    /// The id [`row`](Self::row) resolved last, and its row: consecutive
    /// ops of one thread, or on one variable, skip the hash.
    last: Option<(K, u32)>,
}

impl<K: Copy + Eq + Hash, V: Default> Table<K, V> {
    fn new(hash: IdHash) -> Self {
        Self {
            index: HashMap::with_hasher(hash),
            rows: Vec::new(),
            free: Vec::new(),
            last: None,
        }
    }

    /// The row of `k`, created on first sight: a released row if there is
    /// one, else a new one.
    fn row(&mut self, k: K) -> usize {
        if let Some((last, row)) = self.last {
            if last == k {
                return row as usize;
            }
        }
        let Table {
            index, rows, free, ..
        } = self;
        let row = *index.entry(k).or_insert_with(|| {
            free.pop().unwrap_or_else(|| {
                let next = u32::try_from(rows.len()).expect("at most 2^32 distinct u32 ids");
                rows.push(V::default());
                next
            })
        });
        self.last = Some((k, row));
        row as usize
    }

    /// Forgets `k` and frees its row for the next new id; returns the row,
    /// whose state the caller resets. Does nothing for an id with no row.
    fn release(&mut self, k: K) -> Option<usize> {
        let row = self.index.remove(&k)?;
        if self.last.is_some_and(|(last, _)| last == k) {
            self.last = None;
        }
        self.free.push(row);
        Some(row as usize)
    }

    /// The state of `k`, if it has a row. Never creates one.
    fn get(&self, k: K) -> Option<&V> {
        self.index.get(&k).map(|&row| &self.rows[row as usize])
    }

    /// Every id with its row, in no particular order.
    fn ids(&self) -> impl Iterator<Item = (K, usize)> + '_ {
        self.index.iter().map(|(&k, &row)| (k, row as usize))
    }
}

impl<K, V> Index<usize> for Table<K, V> {
    type Output = V;

    fn index(&self, row: usize) -> &V {
        &self.rows[row]
    }
}

impl<K, V> IndexMut<usize> for Table<K, V> {
    fn index_mut(&mut self, row: usize) -> &mut V {
        &mut self.rows[row]
    }
}

/// The sound and complete dynamic serializability analysis.
///
/// Feed it operations through the [`Tool`] interface (usually via
/// [`velodrome_monitor::run_tool`] or [`check_trace`]); it reports one
/// [`Warning`] per detected violation, after per-label dedup and the
/// warning budget, and keeps the [`CycleReport`] behind each atomicity
/// warning for inspection. Cycles that do not warn are only counted, so
/// memory follows the warnings, not the cycles.
#[derive(Debug)]
pub struct Velodrome {
    cfg: VelodromeConfig,
    arena: Arena,
    /// `C` and `L`, one row per thread that may still act or be joined
    /// (see [`release_joined`](Self::release_joined)).
    threads: Table<ThreadId, ThreadState>,
    /// Joined threads whose rows were not yet idle at the join, retried
    /// every so many joins.
    joined: Vec<ThreadId>,
    /// Joins left until `joined` is retried.
    retry_in: usize,
    /// `U`: last release step, one row per lock.
    u: Table<LockId, Step>,
    /// `R`, `W` and the budget bookkeeping, one row per variable.
    vars: Table<VarId, VarState>,
    /// Scratch for [`on_write`](Self::on_write)'s predecessors, kept
    /// across ops for its capacity.
    preds: Vec<Step>,
    /// Scratch for the non-transactional path of
    /// [`advance`](Self::advance): the op's resolved predecessors, one per
    /// node.
    args: Vec<Step>,
    /// `args_at[slot]`: where slot's entry sits in `args`, valid only if
    /// that entry is on `slot` (a sparse set, so it needs no clearing).
    /// Kept across ops; grows to the largest slot seen.
    args_at: Vec<u32>,
    /// Variables with non-zero heat: accessed under a budget and neither
    /// quarantined nor released since.
    tracked: usize,
    warnings: Vec<Warning>,
    /// One report per atomicity warning emitted, in emission order.
    reports: Vec<CycleReport>,
    /// How many of `reports` have had their warning's `message` and
    /// `details` rendered. Rendering waits for [`Tool::take_warnings`], so
    /// names supplied by [`Tool::set_names`] after the last operation
    /// still appear.
    rendered: usize,
    dedup: PerLabelDedup,
    stats: VelodromeStats,
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
        let hash = IdHash::random();
        Self {
            cfg,
            arena,
            threads: Table::new(hash),
            joined: Vec::new(),
            retry_in: JOINED_RETRY_MIN,
            u: Table::new(hash),
            vars: Table::new(hash),
            preds: Vec::new(),
            args: Vec::new(),
            args_at: Vec::new(),
            tracked: 0,
            warnings: Vec::new(),
            reports: Vec::new(),
            rendered: 0,
            dedup: PerLabelDedup::new(),
            stats: VelodromeStats::default(),
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
    /// [`velodrome_telemetry::names`]: the failure counts
    /// (`arena.exhausted`, `arena.ts_overflow`, `engine.degradations`) as
    /// counters, the other stats as gauges, and the four `phase.*` records
    /// as phases. This is the engine's only write into the registry. A
    /// no-op when telemetry is disabled; callers invoke this before each
    /// snapshot (pull-model publishing keeps the hot path free of per-op
    /// registry writes).
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
        t.set_counter(names::ARENA_EXHAUSTED, s.arena_exhausted);
        t.set_counter(names::ARENA_TS_OVERFLOW, s.ts_overflows);
        t.set_counter(names::ENGINE_DEGRADATIONS, s.degradations);
        let p = &self.tele;
        p.advance.publish(t, names::PHASE_ADVANCE);
        p.add_edge.publish(t, names::PHASE_ADD_EDGE);
        p.cycle_check.publish(t, names::PHASE_CYCLE_CHECK);
        p.gc.publish(t, names::PHASE_GC);
    }

    /// One cycle report per atomicity warning emitted so far, in emission
    /// order (not drained by [`Tool::take_warnings`]). Cycles dropped by
    /// per-label dedup or held back by the warning budget have none.
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
        let mut vars: Vec<VarId> = self
            .vars
            .ids()
            .filter(|&(_, row)| self.vars[row].quarantined)
            .map(|(x, _)| x)
            .collect();
        vars.sort_by_key(|x| x.raw());
        vars
    }

    /// Exposes the arena's internal invariant checker (tests only).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.arena.check_invariants();
    }

    /// Test hook: pins an arena slot's timestamp counter so overflow paths
    /// can be exercised without issuing 2^40 bumps (see
    /// [`Arena::force_counter_for_test`]).
    #[doc(hidden)]
    pub fn force_arena_counter_for_test(&mut self, slot: SlotIdx, counter: Ts) {
        self.arena.force_counter_for_test(slot, counter);
    }

    /// Test hook: makes `next` the arena's next fresh slot index, so its
    /// capacity can be reached without allocating 2^24 nodes (see
    /// [`Arena::skip_slots_for_test`]).
    #[doc(hidden)]
    pub fn skip_arena_slots_for_test(&mut self, next: usize) {
        self.arena.skip_slots_for_test(next);
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
        let start = self.tele.gc.begin(PHASE_SAMPLE_PERIOD);
        self.arena.finish(slot);
        self.tele.gc.end(start);
    }

    /// Releases the instrumentation store once the ladder reaches
    /// recorder-only: its steps are never consulted again, and events are
    /// only counted from here on. Each variable keeps its quarantine bit
    /// (reported by [`quarantined_vars`](Self::quarantined_vars)); thread
    /// rows stay, because an `end` still pops its block and finishes its
    /// node. Row indices stay valid.
    fn release_store(&mut self) {
        self.u.rows.fill(Step::NONE);
        for v in &mut self.vars.rows {
            *v = VarState {
                quarantined: v.quarantined,
                ..VarState::default()
            };
        }
        self.tracked = 0;
    }

    /// Maps a recoverable arena capacity failure onto the degradation
    /// ladder: count it in the stats, step straight to recorder-only with a
    /// `Degraded` warning, and release the instrumentation store.
    /// The host keeps running — this is the crash class the ladder exists
    /// to absorb.
    fn degrade_fatal(&mut self, err: ArenaError, t: ThreadId, idx: usize) {
        match err {
            ArenaError::Exhausted => self.stats.arena_exhausted += 1,
            ArenaError::TsOverflow => self.stats.ts_overflows += 1,
        }
        self.degrade(DegradationLevel::RecorderOnly, t, idx, &err.to_string());
        self.release_store();
    }

    /// The ladder is at recorder-only, so the store is released: a handler
    /// whose `advance` has just degraded must not write its step back.
    fn released(&self) -> bool {
        self.stats.ladder == DegradationLevel::RecorderOnly
    }

    /// Advances thread `t` (row `tr`) by one operation with
    /// happens-before predecessors `preds`, returning the operation's step
    /// (possibly `⊥` for vanishing non-transactional operations).
    fn advance(&mut self, t: ThreadId, tr: usize, preds: &[Step], op: Op, idx: usize) -> Step {
        if !self.threads[tr].stack.is_empty() {
            let node = self.threads[tr].node;
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
                if elide && self.threads[tr].skip == Some(p) {
                    self.stats.epoch_hits += 1;
                    continue;
                }
                match self.add_edge(p, s, op, idx) {
                    Ok(true) => {}
                    Ok(false) => {
                        if elide {
                            self.threads[tr].skip = Some(p);
                        }
                    }
                    Err(c) => self.report_cycle(c, t, tr, op, idx),
                }
            }
            self.threads[tr].l = s;
            return s;
        }
        // Non-transactional operation: gather the resolved predecessors,
        // including the thread-order predecessor L(t), deduplicated per node
        // (first occurrence order, keeping the latest timestamp).
        let l = self.threads[tr].l;
        let mut args = std::mem::take(&mut self.args);
        args.clear();
        for &p in preds.iter().chain(std::iter::once(&l)) {
            let p = self.arena.resolve(p);
            if let Some((n, ts)) = p.is_some().then(|| p.unpack()) {
                let n = n as usize;
                if n >= self.args_at.len() {
                    self.args_at.resize(n + 1, 0);
                }
                let at = self.args_at[n] as usize;
                match args.get_mut(at).filter(|a| a.slot() == p.slot()) {
                    Some(a) => {
                        if ts > a.ts().expect("resolved step") {
                            *a = p;
                        }
                    }
                    None => {
                        self.args_at[n] = args.len() as u32;
                        args.push(p);
                    }
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
        self.args = args;
        self.threads[tr].l = s;
        s
    }

    fn on_begin(&mut self, t: ThreadId, tr: usize, l: Label, idx: usize) {
        if !self.threads[tr].stack.is_empty() {
            // [INS2 RE-ENTER]: nested block within the current transaction.
            let node = self.threads[tr].node;
            let s = match self.arena.bump(node) {
                Ok(s) => s,
                Err(e) => {
                    self.degrade_fatal(e, t, idx);
                    return;
                }
            };
            let ts = s.ts().expect("bumped step");
            let st = &mut self.threads[tr];
            st.l = s;
            st.stack.push(Block {
                label: l,
                start_ts: ts,
            });
        } else {
            // [INS2 ENTER]: allocate a fresh transaction node, ordered after
            // the thread's previous transaction.
            let prev = self.threads[tr].l;
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
            let st = &mut self.threads[tr];
            st.l = s;
            st.node = slot;
            // The cache is only valid for one fixed transaction node: the
            // previous node's slot may since have been recycled.
            st.skip = None;
            st.stack.clear();
            st.stack.push(Block {
                label: l,
                start_ts: ts,
            });
        }
    }

    fn on_end(&mut self, t: ThreadId, tr: usize, idx: usize) {
        if self.threads[tr].stack.is_empty() {
            return; // Stray end: tolerated, as in the trace semantics.
        }
        let node = self.threads[tr].node;
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
        let st = &mut self.threads[tr];
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

    fn on_read(&mut self, t: ThreadId, tr: usize, x: VarId, op: Op, idx: usize) {
        let v = self.vars.row(x);
        let w = self.vars[v].w;
        let s = self.advance(t, tr, &[w], op, idx);
        if self.released() {
            return;
        }
        let var = &mut self.vars[v];
        let settled = var.settled as usize;
        match var.r[..settled].binary_search_by_key(&t, |e| e.t) {
            Ok(i) => {
                var.r[i].s = s;
                return;
            }
            // Past every sorted entry, with nothing appended yet: the
            // entries stay sorted.
            Err(i) if i == var.r.len() => {
                let seq = i as u32;
                var.r.push(Read { t, seq, s });
                var.settled += 1;
                return;
            }
            Err(_) => {}
        }
        if var.r.len() == var.r.capacity() {
            // Leave as much room as there are entries, so the next settle
            // is as many reads away: amortized O(log |R(x)|) per read in
            // any thread order.
            var.settle();
            var.r.reserve(var.r.len());
        }
        let seq = var.r.len() as u32;
        var.r.push(Read { t, seq, s });
    }

    fn on_write(&mut self, t: ThreadId, tr: usize, x: VarId, op: Op, idx: usize) {
        let v = self.vars.row(x);
        let mut preds = std::mem::take(&mut self.preds);
        preds.clear();
        let var = &mut self.vars[v];
        if var.settled as usize != var.r.len() {
            var.settle();
        }
        preds.extend(var.r.iter().filter(|e| e.s.is_some()).map(|e| e.s));
        preds.push(var.w);
        let s = self.advance(t, tr, &preds, op, idx);
        self.preds = preds;
        if self.released() {
            return;
        }
        let var = &mut self.vars[v];
        var.w = s;
        // Older reads are now transitively ordered through this write.
        var.r.clear();
        var.settled = 0;
    }

    fn on_acquire(&mut self, t: ThreadId, tr: usize, m: LockId, op: Op, idx: usize) {
        let row = self.u.row(m);
        let u = self.u[row];
        let _ = self.advance(t, tr, &[u], op, idx);
    }

    fn on_release(&mut self, t: ThreadId, tr: usize, m: LockId, op: Op, idx: usize) {
        let s = self.advance(t, tr, &[], op, idx);
        let row = self.u.row(m);
        self.u[row] = s;
    }

    fn on_fork(&mut self, t: ThreadId, tr: usize, child: ThreadId, op: Op, idx: usize) {
        let s = self.advance(t, tr, &[], op, idx);
        // The child's first operation is ordered after the fork: seed its
        // thread-order predecessor.
        let c = self.threads.row(child);
        self.threads[c].l = s;
    }

    fn on_join(&mut self, t: ThreadId, tr: usize, child: ThreadId, op: Op, idx: usize) {
        let lc = self.threads.get(child).map_or(Step::NONE, |c| c.l);
        let _ = self.advance(t, tr, &[lc], op, idx);
        if !self.release_joined(child) {
            self.joined.push(child);
        }
        // A retry costs the list's length and comes at least twice that
        // many joins after the last one: O(1) per join.
        self.retry_in -= 1;
        if self.retry_in == 0 {
            let mut joined = std::mem::take(&mut self.joined);
            joined.retain(|&c| !self.release_joined(c));
            self.retry_in = JOINED_RETRY_MIN.max(2 * joined.len());
            self.joined = joined;
        }
    }

    /// Frees the row of `child`, a joined thread, if the row is idle
    /// ([`ThreadState::idle`]), so a program that starts a thread per task
    /// keeps rows for the threads it has running, not for every thread it
    /// ever joined. Returns whether `child` now has no row.
    ///
    /// An idle row acts as a fresh one, so freeing it changes no result: a
    /// later join of `child` finds `L = ⊥`, which orders what the stale
    /// step would have, nothing. Figure 1 forbids a joined thread to act
    /// again; in a trace where it does, it gets a fresh row. Read sets are
    /// unaffected by the row's reuse: [`VarState::r`] is keyed by raw
    /// thread id, not by row.
    fn release_joined(&mut self, child: ThreadId) -> bool {
        let Some(&row) = self.threads.index.get(&child) else {
            return true;
        };
        if !self.threads[row as usize].idle(&self.arena) {
            return false;
        }
        if let Some(row) = self.threads.release(child) {
            self.threads[row].reset();
        }
        true
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
    /// deterministic. Quarantined variables drop their `R`/`W` steps,
    /// unpinning any transaction nodes those steps kept alive.
    fn quarantine_hottest(&mut self, target: usize) {
        if self.tracked <= target {
            return;
        }
        let mut by_heat: Vec<(VarId, u64, usize)> = self
            .vars
            .ids()
            .map(|(x, row)| (x, self.vars[row].heat, row))
            .filter(|&(_, heat, _)| heat > 0)
            .collect();
        by_heat.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));
        for &(_, _, row) in &by_heat[..self.tracked - target] {
            self.vars[row] = VarState {
                quarantined: true,
                ..VarState::default()
            };
            self.stats.vars_quarantined += 1;
        }
        self.tracked = target;
    }

    /// Budget enforcement, run before each operation when a budget is
    /// configured. Returns `true` if `op` should be dropped (quarantined
    /// variable or recorder-only mode).
    fn enforce_budgets(&mut self, op: Op, idx: usize) -> bool {
        let b = self.cfg.budget;
        let var = match op {
            Op::Read { x, .. } | Op::Write { x, .. } => Some(self.vars.row(x)),
            _ => None,
        };
        if let Some(v) = var {
            let var = &mut self.vars[v];
            if var.quarantined {
                return true;
            }
            if var.heat == 0 {
                self.tracked += 1;
            }
            var.heat += 1;
        }
        if b.max_tracked_vars > 0 && self.tracked > b.max_tracked_vars {
            self.quarantine_hottest(b.max_tracked_vars);
            self.degrade(
                DegradationLevel::VarQuarantine,
                op.tid(),
                idx,
                "tracked-variable budget exhausted",
            );
            // The current op's variable may itself have been quarantined.
            if var.is_some_and(|v| self.vars[v].quarantined) {
                return true;
            }
        }
        if b.max_alive_nodes > 0 && self.arena.alive_count() > b.max_alive_nodes {
            if self.grace_until == 0 {
                // First trip: quarantine the hotter half of the tracked
                // variables and give GC a grace window to reclaim the nodes
                // their R/W steps were pinning.
                self.quarantine_hottest((self.tracked / 2).max(1));
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
                self.release_store();
                return true;
            }
        }
        false
    }

    /// Applies one operation to the instrumentation store and the graph.
    #[inline]
    fn dispatch(&mut self, index: usize, op: Op) {
        let t = op.tid();
        let tr = self.threads.row(t);
        match op {
            Op::Read { x, .. } => self.on_read(t, tr, x, op, index),
            Op::Write { x, .. } => self.on_write(t, tr, x, op, index),
            Op::Acquire { m, .. } => self.on_acquire(t, tr, m, op, index),
            Op::Release { m, .. } => self.on_release(t, tr, m, op, index),
            Op::Begin { l, .. } => self.on_begin(t, tr, l, index),
            Op::End { .. } => self.on_end(t, tr, index),
            Op::Fork { child, .. } => self.on_fork(t, tr, child, op, index),
            Op::Join { child, .. } => self.on_join(t, tr, child, op, index),
        }
    }

    /// Reports a detected cycle (path reconstruction, blame, warning),
    /// timed as `phase.cycle_check`.
    fn report_cycle(&mut self, c: CycleFound, t: ThreadId, tr: usize, op: Op, idx: usize) {
        if !self.tele.on {
            return self.record_cycle(c, t, tr, op, idx);
        }
        let start = self.tele.cycle_check.begin(1);
        self.record_cycle(c, t, tr, op, idx);
        self.tele.cycle_check.end(start);
    }

    fn record_cycle(&mut self, c: CycleFound, t: ThreadId, tr: usize, op: Op, idx: usize) {
        self.stats.cycles_detected += 1;
        // Attribution: the outermost open block, which the path need not be
        // searched for. It is the first refuted block when any is refuted
        // (below): blocks are pushed with rising start timestamps, so if
        // the outermost does not begin by the root no inner one does.
        let attribution = self.threads[tr].stack.first().map(|b| b.label);

        // Budget first, dedup second: the budget check consumes nothing, so
        // a label whose first report arrives while the budget is exhausted
        // is not marked as seen and can still warn once warnings drain.
        // Conversely a duplicate label returns here without ever counting
        // against the budget. Either way no path is searched and no report
        // is built.
        if self.cfg.max_warnings > 0 && self.warnings.len() >= self.cfg.max_warnings {
            self.stats.warnings_suppressed += 1;
            return;
        }
        if self.cfg.dedup_per_label && !self.dedup.first_report(attribution) {
            return;
        }

        // Reconstruct the existing path current-txn →* edge-source; the
        // rejected edge closes the cycle.
        let path = self
            .arena
            .find_path(c.to, c.from)
            .expect("cycle detection implies a path back to the edge source");
        let closing = EdgeInfo {
            from_ts: c.from_ts,
            to_ts: c.to_ts,
            op,
            op_index: idx,
        };
        let hops = || path.iter().map(|(_, e)| e).chain([&closing]);

        // Increasing-cycle check (Section 4.3): for every node other than
        // the current transaction, the incoming timestamp must not exceed
        // the outgoing timestamp.
        let increasing = hops()
            .zip(hops().skip(1))
            .all(|(a, b)| a.to_ts <= b.from_ts);

        // Blame: the cycle leaves the current transaction at the root
        // timestamp; every enclosing atomic block whose begin precedes the
        // root contains both root and target operations and is refuted.
        let root_ts = path.first().map_or(c.from_ts, |(_, e)| e.from_ts);
        let stack = &self.threads[tr].stack;
        let refutes = |b: &&Block| increasing && b.start_ts <= root_ts;
        let report = CycleReport {
            nodes: [c.to]
                .into_iter()
                .chain(path.iter().map(|&(slot, _)| slot))
                .map(|slot| self.arena.desc(slot))
                .collect(),
            edges: hops().copied().collect(),
            increasing,
            blamed: increasing.then_some(0),
            refuted: stack.iter().filter(refutes).map(|b| b.label).collect(),
            op_index: idx,
        };
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
        // Only `record_cycle` pushes atomicity warnings, each with its
        // report, so the pending ones pair off in order with the reports
        // not yet rendered.
        let mut pending = self.reports[self.rendered..].iter();
        for warning in &mut self.warnings {
            if warning.category == WarningCategory::Atomicity {
                let report = pending.next().expect("one report per atomicity warning");
                warning.message = report.summary(&self.cfg.names);
                warning.details = Some(report.to_dot(&self.cfg.names));
            }
        }
        self.rendered = self.reports.len();
        std::mem::take(&mut self.warnings)
    }

    /// Replaces the symbol table warnings are rendered with. A streamed
    /// JSON trace may carry its names after its last operation; the
    /// warnings pending at that point, and all later ones, use `names`.
    fn set_names(&mut self, names: SymbolTable) {
        self.cfg.names = names;
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
/// statistics and the warnings' cycle reports.
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
    fn table_rows_follow_first_sight_not_raw_ids() {
        let mut table: Table<ThreadId, u64> = Table::new(IdHash::random());
        let (big, small) = (ThreadId::new(u32::MAX), ThreadId::new(3));
        assert!(table.get(big).is_none());
        assert_eq!(table.rows.len(), 0, "get never creates a row");
        assert_eq!(table.row(big), 0);
        assert_eq!(table.row(small), 1);
        table[0] = 7;
        // The memo holds `small`; `big` goes through the map.
        assert_eq!(table.row(big), 0);
        assert_eq!(table.row(big), 0);
        assert_eq!(table.get(big), Some(&7));
        assert_eq!(table.rows.len(), 2);
        let mut ids: Vec<(ThreadId, usize)> = table.ids().collect();
        ids.sort();
        assert_eq!(ids, [(small, 1), (big, 0)]);
    }

    #[test]
    fn released_rows_go_to_the_next_new_id() {
        let mut table: Table<ThreadId, u64> = Table::new(IdHash::random());
        let (a, b, c) = (ThreadId::new(10), ThreadId::new(20), ThreadId::new(30));
        assert_eq!((table.row(a), table.row(b)), (0, 1));
        assert_eq!(
            table.release(ThreadId::new(99)),
            None,
            "no row, nothing freed"
        );
        // `b` is the memo; releasing it must clear the memo too.
        assert_eq!(table.release(b), Some(1));
        assert!(table.get(b).is_none() && table.last.is_none());
        assert_eq!(table.row(c), 1, "c takes b's row");
        assert_eq!(table.row(b), 2, "b, seen again, is a new id");
        assert_eq!(table.rows.len(), 3);
    }

    /// `n` children, each forked by T0, running one block that reads and
    /// writes `x`, and joined before the next fork.
    fn churn(b: &mut TraceBuilder, n: usize) {
        for i in 0..n {
            let c = format!("C{i}");
            b.fork("T0", &c);
            b.begin(&c, "work").read(&c, "x").write(&c, "x").end(&c);
            b.join("T0", &c);
        }
    }

    #[test]
    fn joined_threads_free_their_rows() {
        let mut b = TraceBuilder::new();
        churn(&mut b, 1_000);
        let (warnings, engine) = check_trace_with(&b.finish(), VelodromeConfig::default());
        assert!(warnings.is_empty(), "{warnings:?}");
        // T0 and the one running child.
        assert_eq!(engine.threads.rows.len(), 2);
        assert_eq!(engine.threads.index.len(), 1, "only T0 keeps a row");
    }

    /// A child whose last node is still alive at its join keeps its row:
    /// a second joiner must still be ordered after the child. Here T2's
    /// open block is ordered before the child's write and joins the child,
    /// closing a cycle. Once the node dies, a later retry frees the row.
    #[test]
    fn a_busy_child_keeps_its_row_until_its_node_dies() {
        let mut b = TraceBuilder::new();
        b.begin("T2", "t2").read("T2", "x");
        b.fork("T0", "C");
        b.begin("C", "work").write("C", "x").end("C");
        b.join("T0", "C");
        b.join("T2", "C").end("T2");
        churn(&mut b, 3 * JOINED_RETRY_MIN);
        let c = b.thread("C");
        let trace = b.finish();
        let cfg = VelodromeConfig {
            names: trace.names().clone(),
            ..VelodromeConfig::default()
        };
        let (warnings, engine) = check_trace_with(&trace, cfg);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(
            warnings[0].message.contains("t2 is not atomic"),
            "{}",
            warnings[0]
        );
        assert!(engine.threads.get(c).is_none(), "a retry freed C's row");
        assert!(engine.joined.is_empty());
        assert!(
            engine.threads.rows.len() <= 4,
            "{} rows",
            engine.threads.rows.len()
        );
    }

    /// Figure 1 forbids a joined thread to act again, and `trace` does not
    /// validate: such a thread gets a fresh row, with `L = ⊥`, and is
    /// checked like any new thread.
    #[test]
    fn a_joined_thread_that_acts_again_gets_a_fresh_row() {
        let mut b = TraceBuilder::new();
        b.fork("T0", "C");
        b.begin("C", "first").write("C", "x").end("C");
        b.join("T0", "C");
        b.begin("T0", "inc").read("T0", "x");
        b.write("C", "x");
        b.write("T0", "x").end("T0");
        let c = b.thread("C");
        let trace = b.finish();
        assert!(velodrome_events::semantics::validate(&trace).is_err());
        let mut engine = Velodrome::with_config(VelodromeConfig {
            names: trace.names().clone(),
            ..VelodromeConfig::default()
        });
        let ops: Vec<(usize, Op)> = trace.iter().collect();
        let join = ops
            .iter()
            .position(|&(_, op)| matches!(op, Op::Join { .. }))
            .unwrap();
        for &(i, op) in &ops[..=join] {
            engine.op(i, op);
        }
        assert!(engine.threads.get(c).is_none(), "the join freed C's row");
        for &(i, op) in &ops[join + 1..] {
            engine.op(i, op);
        }
        assert!(engine.threads.get(c).is_some(), "C acted again");
        engine.end_of_trace();
        let warnings = engine.take_warnings();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(
            warnings[0].message.contains("inc is not atomic"),
            "{}",
            warnings[0]
        );
    }

    /// The most ids that hash into any one of 64 equal runs of a table
    /// of `2^bits` buckets. The table picks a bucket from the hash's low
    /// `bits` bits.
    fn fullest_run(hashes: impl Iterator<Item = u64>, bits: u32) -> usize {
        let mut runs = [0; 64];
        for h in hashes {
            runs[((h & ((1 << bits) - 1)) >> (bits - 6)) as usize] += 1;
        }
        runs.into_iter().max().unwrap()
    }

    #[test]
    fn id_hash_spreads_crafted_ids_over_buckets() {
        // The ids of `tests/crafted_ids.rs`: 2^16 variables `i << 16` fill
        // a table of 2^17 buckets, 2^12 threads `r << 20` one of 2^13.
        // Each of 64 runs of buckets should hold near its share of the
        // ids. The keys come from fixed seeds: roughly 1 random key in 250
        // puts more than twice its share into one run, which is no cliff
        // but failed about 1 run in 60 of this test when it drew 4 keys.
        for seed in 0..4 {
            let hash = IdHash::seeded(seed);
            let vars = (0..1u32 << 16).map(|i| hash.hash_one(VarId::new(i << 16)));
            assert!(fullest_run(vars, 17) <= 2 * (1 << 16) / 64);
            let threads = (0..1u32 << 12).map(|r| hash.hash_one(ThreadId::new(r << 20)));
            assert!(fullest_run(threads, 13) <= 2 * (1 << 12) / 64);
        }
    }

    #[test]
    fn settle_keeps_each_threads_latest_read_in_id_order() {
        let (t1, t5, t9) = (ThreadId::new(1), ThreadId::new(5), ThreadId::new(9));
        let step = |ts| Step::new(0, ts);
        let mut var = VarState::default();
        for (t, s) in [
            (t9, step(1)),
            (t1, step(2)),
            (t5, step(3)),
            (t9, step(4)),
            (t1, Step::NONE),
            (t5, step(5)),
        ] {
            let seq = var.r.len() as u32;
            var.r.push(Read { t, seq, s });
        }
        var.settle();
        let got: Vec<(ThreadId, Step, u32)> = var.r.iter().map(|e| (e.t, e.s, e.seq)).collect();
        assert_eq!(
            got,
            [(t1, Step::NONE, 0), (t5, step(5), 1), (t9, step(4), 2)]
        );
        assert_eq!(var.settled, 3);
    }

    /// The warning names the outermost open block whether or not the
    /// cycle refutes it: a non-increasing cycle refutes no block, and an
    /// increasing one refutes only the blocks already open at its root.
    #[test]
    fn attribution_is_the_outermost_open_block() {
        let check = |b: TraceBuilder| {
            let trace = b.finish();
            let (warnings, engine) = check_trace_with(&trace, VelodromeConfig::default());
            assert_eq!(warnings.len(), 1);
            let names = trace.names();
            let label = names.label(warnings[0].label.expect("a block is open"));
            let report = &engine.reports()[0];
            let refuted: Vec<String> = report.refuted.iter().map(|&l| names.label(l)).collect();
            (label, report.increasing, refuted)
        };

        // A → B → C → A, closed in A's inner block. A's root (its write of
        // x) precedes the inner block; B writes y before it reads x, so
        // the cycle is not increasing.
        let mut b = TraceBuilder::new();
        b.begin("T1", "B").write("T1", "y");
        b.begin("T2", "C").read("T2", "y");
        b.begin("T0", "A.outer")
            .write("T0", "x")
            .begin("T0", "A.inner");
        b.read("T1", "x").end("T1");
        b.write("T2", "z").end("T2");
        b.read("T0", "z").end("T0").end("T0");
        assert_eq!(check(b), ("A.outer".to_owned(), false, vec![]));

        // An increasing cycle whose root, the read of x, precedes the
        // inner block: only the outer block is refuted.
        let mut b = TraceBuilder::new();
        b.begin("T1", "outer").read("T1", "x").begin("T1", "inner");
        b.write("T2", "x");
        b.write("T1", "x").end("T1").end("T1");
        assert_eq!(
            check(b),
            ("outer".to_owned(), true, vec!["outer".to_owned()])
        );
    }

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
