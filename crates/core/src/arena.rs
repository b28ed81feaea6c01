//! The transaction-node arena: allocation, recycling, happens-before edges,
//! ancestor sets, and reference-counting garbage collection.
//!
//! This is the data-representation core of Section 4.1 and Section 5:
//!
//! * Nodes live in recyclable *slots*; a step `(slot, ts)` is stale once the
//!   slot's incarnation that issued `ts` has been collected (tracked by a
//!   per-slot timestamp floor) and is then interpreted as `⊥`.
//! * At most one happens-before edge is stored per ordered node pair; adding
//!   another replaces its timestamps (the paper's `H ⊎ G` operator), which
//!   bounds `|H|` by `|Node|²`.
//! * Each node keeps its set of (alive) ancestors, so a cycle-creating edge
//!   is detected *before* insertion; the graph therefore stays acyclic and
//!   plain reference counting collects garbage immediately.
//! * A node is collected once it is finished (not any thread's current
//!   transaction) and has no incoming edges: such a node can never again
//!   appear on a cycle. Collection cascades: removing the node's outgoing
//!   edges may render its successors collectible.

use crate::smallgraph::{SlotMap, SlotSet};
use crate::step::{SlotIdx, Step, Ts, MAX_TS};
use std::fmt;
use velodrome_events::{Label, Op, ThreadId};

/// A happens-before edge between two nodes, annotated with the timestamps of
/// the operations at its tail and head and the operation that generated it
/// (for blame assignment and error graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeInfo {
    /// Timestamp of the tail operation inside the source node.
    pub from_ts: Ts,
    /// Timestamp of the head operation inside the target node.
    pub to_ts: Ts,
    /// The operation whose processing created the edge.
    pub op: Op,
    /// Trace index of that operation.
    pub op_index: usize,
}

/// Metadata describing one node (transaction) for error reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDesc {
    /// The thread executing the transaction.
    pub thread: ThreadId,
    /// Label of the transaction's outermost atomic block, if any.
    pub label: Option<Label>,
    /// Trace index of the transaction's first operation.
    pub first_op: usize,
}

/// A stored edge: its report metadata plus whether it was transitively
/// implied at insertion time. Implied edges exist only when redundant-edge
/// elision is disabled (the differential baseline); they change no
/// reachability and are skipped during path reconstruction, so the baseline
/// produces byte-identical reports to the eliding configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeRec {
    info: EdgeInfo,
    implied: bool,
}

#[derive(Debug)]
struct Slot {
    alive: bool,
    /// Steps with `ts <= floor` belong to collected incarnations.
    floor: Ts,
    /// Last timestamp issued; monotonic across incarnations.
    counter: Ts,
    /// Whether the node is some thread's current transaction.
    c_ref: bool,
    desc: NodeDesc,
    /// Outgoing edges, keyed by target slot (sorted vec: the per-slot degree
    /// is tiny, and sorted order makes path reconstruction deterministic).
    out: SlotMap<EdgeRec>,
    /// Incoming edges, keyed by source slot.
    inc: SlotMap<EdgeRec>,
    /// Alive nodes with a path to this node (over non-implied edges).
    anc: SlotSet,
}

impl Slot {
    fn collectible(&self) -> bool {
        self.alive && !self.c_ref && self.inc.is_empty()
    }
}

/// Statistics reported in Table 1 of the paper (node counts) plus internal
/// counters used by the ablation benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total nodes ever allocated ("Allocated" in Table 1).
    pub allocated: u64,
    /// Peak simultaneously-alive nodes ("Max. Alive" in Table 1).
    pub max_alive: u64,
    /// Currently alive nodes.
    pub cur_alive: u64,
    /// Nodes reclaimed by garbage collection.
    pub collected: u64,
    /// Edges inserted (not counting timestamp replacements).
    pub edges_added: u64,
    /// Edge insertions that only refreshed timestamps of an existing edge.
    pub edges_replaced: u64,
    /// Edge insertions skipped because the ordering was already implied
    /// transitively (only counted when elision is enabled).
    pub edges_elided: u64,
}

/// Result of attempting to add a happens-before edge that would close a
/// cycle. The edge is *not* added; the graph stays acyclic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleFound {
    /// Source node of the rejected edge.
    pub from: SlotIdx,
    /// Tail timestamp of the rejected edge.
    pub from_ts: Ts,
    /// Target node of the rejected edge (the current transaction).
    pub to: SlotIdx,
    /// Head timestamp of the rejected edge.
    pub to_ts: Ts,
}

/// A recoverable arena capacity failure. Neither variant corrupts the
/// arena: the failed allocation or bump simply did not happen, and the
/// graph, stats, and free list are exactly as before the call. Callers
/// (the engine) map these onto the degradation ladder instead of
/// panicking the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaError {
    /// All 65535 allocatable slots hold simultaneously-live transactions.
    /// Slot index `u16::MAX` is reserved so no allocatable slot can pack a
    /// step colliding with [`Step::NONE`].
    Exhausted,
    /// A slot's timestamp counter reached the 48-bit limit; issuing another
    /// step in that node would not be representable.
    TsOverflow,
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::Exhausted => write!(
                f,
                "node arena exhausted: 65535 simultaneously-live transactions \
                 (is garbage collection disabled on a large trace?)"
            ),
            ArenaError::TsOverflow => {
                write!(f, "node timestamp counter overflowed 48 bits")
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// The node arena.
#[derive(Debug)]
pub struct Arena {
    slots: Vec<Slot>,
    free: Vec<SlotIdx>,
    stats: ArenaStats,
    gc_enabled: bool,
    /// Skip insertion of transitively-implied edges (the redundant-edge
    /// elision gate). When disabled, implied edges are stored but tagged,
    /// preserving the exact warnings and reports of the eliding mode while
    /// paying the unoptimized insertion cost — the differential baseline.
    elide: bool,
    /// Collection work list, reused across cascades.
    work: Vec<SlotIdx>,
    /// Alive successors of collected nodes: the sweep's start set, then its
    /// stack. Reused across cascades.
    frontier: Vec<SlotIdx>,
    /// Per-slot sweep visit stamps: a slot was visited by the current sweep
    /// iff its entry equals `epoch`.
    seen: Vec<u32>,
    epoch: u32,
}

impl Default for Arena {
    fn default() -> Self {
        Self::new()
    }
}

impl Arena {
    /// Creates an arena with garbage collection and edge elision enabled.
    pub fn new() -> Self {
        Self::with_options(true, true)
    }

    /// Creates an arena, optionally disabling garbage collection (used by
    /// the GC ablation benchmark; without GC the arena holds every node
    /// ever allocated, up to the 16-bit slot limit).
    pub fn with_gc(gc_enabled: bool) -> Self {
        Self::with_options(gc_enabled, true)
    }

    /// Creates an arena with explicit GC and redundant-edge elision flags.
    pub fn with_options(gc_enabled: bool, elide: bool) -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            stats: ArenaStats::default(),
            gc_enabled,
            elide,
            work: Vec::new(),
            frontier: Vec::new(),
            seen: Vec::new(),
            epoch: 0,
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Allocates a fresh node and returns the step of its first operation.
    ///
    /// `current` marks the node as a thread's current transaction (a strong
    /// reference); merge-created nodes pass `false`.
    ///
    /// Fails with [`ArenaError::Exhausted`] when all 65535 allocatable
    /// slots are live (index `u16::MAX` is reserved: it would let a step
    /// collide with [`Step::NONE`] at timestamp [`MAX_TS`]), and with
    /// [`ArenaError::TsOverflow`] when the only recycled slot available has
    /// spent its 48-bit timestamp space. On failure the arena is unchanged.
    pub fn alloc(&mut self, desc: NodeDesc, current: bool) -> Result<Step, ArenaError> {
        let idx = match self.free.pop() {
            Some(idx) => {
                if self.slots[idx as usize].counter >= MAX_TS {
                    // Recycled slot has no timestamps left; put it back so
                    // the failed call leaves the free list intact.
                    self.free.push(idx);
                    return Err(ArenaError::TsOverflow);
                }
                idx
            }
            None => {
                // `>=` reserves slot index u16::MAX (65535): with at most
                // 65535 slots, indices stop at 65534 and no allocatable
                // slot can ever pack a step that collides with `⊥`.
                if self.slots.len() >= SlotIdx::MAX as usize {
                    return Err(ArenaError::Exhausted);
                }
                let idx = self.slots.len() as SlotIdx;
                self.slots.push(Slot {
                    alive: false,
                    floor: 0,
                    counter: 0,
                    c_ref: false,
                    desc: desc.clone(),
                    out: SlotMap::new(),
                    inc: SlotMap::new(),
                    anc: SlotSet::new(),
                });
                idx
            }
        };
        let slot = &mut self.slots[idx as usize];
        debug_assert!(!slot.alive, "allocating an alive slot");
        slot.alive = true;
        slot.c_ref = current;
        slot.desc = desc;
        slot.out.clear();
        slot.inc.clear();
        slot.anc.clear();
        slot.counter += 1;
        self.stats.allocated += 1;
        self.stats.cur_alive += 1;
        self.stats.max_alive = self.stats.max_alive.max(self.stats.cur_alive);
        Ok(Step::new(idx, slot.counter))
    }

    /// Issues the next timestamp within an alive node.
    ///
    /// Fails with [`ArenaError::TsOverflow`] once the node's counter
    /// reaches the 48-bit limit; the counter is not advanced, so the slot's
    /// existing steps stay valid.
    pub fn bump(&mut self, idx: SlotIdx) -> Result<Step, ArenaError> {
        let slot = &mut self.slots[idx as usize];
        debug_assert!(slot.alive, "bump of dead slot");
        if slot.counter >= MAX_TS {
            return Err(ArenaError::TsOverflow);
        }
        slot.counter += 1;
        Ok(Step::new(idx, slot.counter))
    }

    /// Test hook: pins a slot's timestamp counter so overflow paths can be
    /// exercised without issuing 2^48 bumps. Not part of the public API.
    #[doc(hidden)]
    pub fn force_counter_for_test(&mut self, idx: SlotIdx, counter: Ts) {
        self.slots[idx as usize].counter = counter;
    }

    /// Resolves a (weak) step reference: returns `Step::NONE` if the step is
    /// `⊥`, or refers to a collected incarnation of its slot.
    pub fn resolve(&self, step: Step) -> Step {
        match step.slot() {
            None => Step::NONE,
            Some(idx) => {
                let slot = &self.slots[idx as usize];
                let ts = step.ts().expect("non-none step has ts");
                if slot.alive && ts > slot.floor {
                    step
                } else {
                    Step::NONE
                }
            }
        }
    }

    /// Returns `true` when the node is alive.
    pub fn is_alive(&self, idx: SlotIdx) -> bool {
        self.slots[idx as usize].alive
    }

    /// Returns `true` when the node is some thread's current transaction.
    ///
    /// Only current (and freshly allocated) nodes can ever gain incoming
    /// edges, so merging a unary operation into a *current* node of another
    /// thread is unsafe: a later conflicting edge back into that node would
    /// be a filtered self-edge and a real two-transaction cycle would go
    /// undetected.
    pub fn is_current(&self, idx: SlotIdx) -> bool {
        self.slots[idx as usize].c_ref
    }

    /// Descriptor of an alive node.
    pub fn desc(&self, idx: SlotIdx) -> &NodeDesc {
        &self.slots[idx as usize].desc
    }

    /// Does `a` happen (non-strictly) before `b`?
    ///
    /// Steps within one node are ordered by timestamp; across nodes the
    /// question is ancestry in the happens-before graph. Both steps must be
    /// resolved (alive) or `⊥`; `⊥` never happens-before anything.
    pub fn happens_before(&self, a: Step, b: Step) -> bool {
        let (Some(na), Some(nb)) = (a.slot(), b.slot()) else {
            return false;
        };
        if na == nb {
            return a.ts() <= b.ts();
        }
        self.slots[nb as usize].anc.contains(na)
    }

    /// Adds (or refreshes) the happens-before edge `from → to`.
    ///
    /// Returns `Ok(true)` when an edge was inserted or refreshed,
    /// `Ok(false)` when the call was a no-op (a `⊥`/stale endpoint, a
    /// self-edge, or an ordering already implied transitively with elision
    /// enabled), and `Err(CycleFound)` when insertion would create a
    /// cycle — in which case the graph is left unchanged.
    pub fn add_edge(
        &mut self,
        from: Step,
        to: Step,
        op: Op,
        op_index: usize,
    ) -> Result<bool, CycleFound> {
        let from = self.resolve(from);
        let (Some((nf, tf)), Some((nt, tt))) = (
            from.is_some().then(|| from.unpack()),
            to.is_some().then(|| to.unpack()),
        ) else {
            return Ok(false);
        };
        if nf == nt {
            return Ok(false);
        }
        // Edge nf → nt closes a cycle iff a path nt →* nf already exists.
        if self.slots[nf as usize].anc.contains(nt) {
            return Err(CycleFound {
                from: nf,
                from_ts: tf,
                to: nt,
                to_ts: tt,
            });
        }
        let info = EdgeInfo {
            from_ts: tf,
            to_ts: tt,
            op,
            op_index,
        };
        // A stored direct edge is refreshed in place (the paper's `H ⊎ G`
        // keeps the latest timestamps per ordered node pair).
        if let Some(rec) = self.slots[nf as usize].out.get_mut(nt) {
            rec.info = info;
            self.slots[nt as usize]
                .inc
                .get_mut(nf)
                .expect("edge symmetry")
                .info = info;
            self.stats.edges_replaced += 1;
            return Ok(true);
        }
        // Redundant-edge gate: a path nf →* nt already orders the pair, so
        // the edge adds no reachability — eliding it preserves ancestor-set
        // exactness, cycle detection, and GC timing (an implied edge's
        // witness path outlives it: each path node is kept alive by its
        // predecessor's stored edge while `nf` is alive).
        if self.slots[nt as usize].anc.contains(nf) {
            if self.elide {
                self.stats.edges_elided += 1;
                return Ok(false);
            }
            // Baseline mode: store the edge, tagged so path reconstruction
            // skips it. Ancestor propagation would be a no-op (anc(nf) ∪
            // {nf} ⊆ anc(nt) already holds) and is not performed.
            let rec = EdgeRec {
                info,
                implied: true,
            };
            self.slots[nf as usize].out.insert(nt, rec);
            self.slots[nt as usize].inc.insert(nf, rec);
            self.stats.edges_added += 1;
            return Ok(true);
        }
        let rec = EdgeRec {
            info,
            implied: false,
        };
        self.slots[nf as usize].out.insert(nt, rec);
        self.slots[nt as usize].inc.insert(nf, rec);
        self.stats.edges_added += 1;
        // Propagate ancestors: nt (and its descendants) gain anc(nf) ∪ {nf}.
        // Implied edges are skipped: their targets are reached through the
        // non-implied witness path anyway.
        let mut gained = self.slots[nf as usize].anc.clone();
        gained.insert(nf);
        let mut work = vec![nt];
        while let Some(v) = work.pop() {
            let slot = &mut self.slots[v as usize];
            if slot.anc.merge(&gained) {
                work.extend(slot.out.iter().filter(|(_, r)| !r.implied).map(|(s, _)| s));
            }
        }
        Ok(true)
    }

    /// Marks a node as no longer any thread's current transaction and
    /// collects it (and any cascade) if possible.
    pub fn finish(&mut self, idx: SlotIdx) {
        self.slots[idx as usize].c_ref = false;
        self.maybe_collect(idx);
    }

    /// Collects `idx` if it is finished with no incoming edges, cascading to
    /// successors whose last incoming edge disappears.
    ///
    /// The cascade runs in two phases. *Collect* drains the work list,
    /// marking nodes dead, unlinking their out-edges and pushing their slots
    /// to the free list, and records every alive successor it unlinks.
    /// *Sweep* then removes the dead nodes from ancestor sets (edges into a
    /// dead node can never be added again, so it cannot join a cycle). A
    /// collected node had no in-edges, so only its descendants can list it
    /// as an ancestor: the sweep visits only the alive descendants of the
    /// recorded successors, each once, so a cascade costs O(those nodes and
    /// their ancestor entries) and allocates nothing.
    pub fn maybe_collect(&mut self, idx: SlotIdx) {
        if !self.gc_enabled || !self.slots[idx as usize].collectible() {
            return;
        }
        let first_free = self.free.len();
        self.work.push(idx);
        while let Some(v) = self.work.pop() {
            if !self.slots[v as usize].collectible() {
                continue;
            }
            let slot = &mut self.slots[v as usize];
            slot.alive = false;
            slot.floor = slot.counter;
            slot.anc.clear();
            let mut out = std::mem::replace(&mut slot.out, SlotMap::new());
            self.stats.cur_alive -= 1;
            self.stats.collected += 1;
            for succ in out.keys() {
                let s = &mut self.slots[succ as usize];
                if s.alive {
                    s.inc.remove(v);
                    if s.collectible() {
                        self.work.push(succ);
                    }
                    self.frontier.push(succ);
                }
            }
            // Hand the emptied map back so the slot keeps its capacity.
            out.clear();
            self.slots[v as usize].out = out;
            self.free.push(v);
        }
        self.sweep_ancestors(first_free);
    }

    /// Sweep phase of [`Arena::maybe_collect`]: drops the nodes collected
    /// since `free[first_free]` from the ancestor sets of the alive nodes
    /// reachable from `frontier`, visiting each node once.
    ///
    /// Every alive descendant of a dead node is reached, either through an
    /// alive successor or through a successor that died in the same cascade
    /// and recorded its own successors. Implied edges are followed too,
    /// which only revisits descendants that are reached anyway.
    fn sweep_ancestors(&mut self, first_free: usize) {
        if self.frontier.is_empty() {
            return;
        }
        let single = match &self.free[first_free..] {
            [d] => Some(*d),
            _ => None,
        };
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.seen.resize(self.slots.len(), 0);
        while let Some(v) = self.frontier.pop() {
            let vi = v as usize;
            if !self.slots[vi].alive || self.seen[vi] == self.epoch {
                continue;
            }
            self.seen[vi] = self.epoch;
            let mut anc = std::mem::take(&mut self.slots[vi].anc);
            // Ancestor sets hold only alive nodes, so after the collect
            // phase an entry is stale exactly when its slot is dead.
            match single {
                Some(d) => {
                    anc.remove(d);
                }
                None => anc.retain(|a| self.slots[a as usize].alive),
            }
            self.slots[vi].anc = anc;
            self.frontier.extend(self.slots[vi].out.keys());
        }
    }

    /// Finds a path `start →* goal` over alive nodes and non-implied edges,
    /// returning the edges traversed. Used to reconstruct the cycle once
    /// [`CycleFound`] fires (the path exists by the ancestor-set invariant).
    ///
    /// Implied (redundant) edges are skipped so reconstruction is identical
    /// whether the arena elides them or stores them tagged.
    pub fn find_path(&self, start: SlotIdx, goal: SlotIdx) -> Option<Vec<(SlotIdx, EdgeInfo)>> {
        // Iterative DFS that only descends into the goal's ancestors. It is
        // not bounded by a small graph: a long transaction can keep
        // thousands of nodes alive.
        // Successor order is ascending by slot (intrinsic to the sorted-vec
        // adjacency), so reports are reproducible run to run.
        let mut visited = SlotSet::new();
        let mut stack: Vec<(SlotIdx, Vec<(SlotIdx, EdgeInfo)>)> = vec![(start, Vec::new())];
        visited.insert(start);
        while let Some((node, path)) = stack.pop() {
            if node == goal {
                return Some(path);
            }
            for (succ, rec) in self.slots[node as usize].out.iter() {
                if rec.implied {
                    continue;
                }
                // Prune: only descend toward nodes that can reach the goal.
                if visited.contains(succ) {
                    continue;
                }
                if succ != goal && !self.slots[goal as usize].anc.contains(succ) {
                    continue;
                }
                visited.insert(succ);
                let mut p = path.clone();
                p.push((succ, rec.info));
                stack.push((succ, p));
            }
        }
        None
    }

    /// The edge `from → to`, if present (stored tagged edges included).
    pub fn edge(&self, from: SlotIdx, to: SlotIdx) -> Option<EdgeInfo> {
        self.slots[from as usize].out.get(to).map(|r| r.info)
    }

    /// Number of alive nodes (for tests and diagnostics).
    pub fn alive_count(&self) -> usize {
        self.stats.cur_alive as usize
    }

    /// Memory footprint of the alive graph: `(edge records, ancestor
    /// entries)` summed over alive slots. Diagnostics for sizing the
    /// sorted-vec adjacency; implied tagged edges are included.
    pub fn footprint(&self) -> (usize, usize) {
        let mut edges = 0;
        let mut ancestors = 0;
        for slot in self.slots.iter().filter(|s| s.alive) {
            edges += slot.out.len();
            ancestors += slot.anc.len();
        }
        (edges, ancestors)
    }

    /// Checks internal invariants; used by tests and debug assertions.
    ///
    /// Verifies edge symmetry, ancestor-set *exactness* in both directions
    /// (against a transitive closure recomputed over non-implied edges),
    /// acyclicity, and that every stored implied edge really is redundant
    /// (its target is reachable from its source without it).
    pub fn check_invariants(&self) {
        // Edge symmetry.
        for (i, slot) in self.slots.iter().enumerate() {
            if !slot.alive {
                continue;
            }
            for (t, e) in slot.out.iter() {
                let target = &self.slots[t as usize];
                assert!(target.alive, "edge to dead slot");
                assert_eq!(target.inc.get(i as SlotIdx), Some(e), "edge asymmetry");
            }
            for f in slot.inc.keys() {
                assert!(
                    self.slots[f as usize].out.contains_key(i as SlotIdx),
                    "in-edge without out-edge"
                );
            }
            // No in-edges (tagged ones included) means no ancestors: the
            // ancestor set is exactly the reachable-from set.
            if slot.inc.is_empty() {
                assert!(slot.anc.is_empty(), "root n{i} has recorded ancestors");
            }
        }
        let alive: Vec<SlotIdx> = (0..self.slots.len() as u32)
            .map(|i| i as SlotIdx)
            .filter(|&i| self.slots[i as usize].alive)
            .collect();
        // Recompute reachability over non-implied edges, check acyclicity,
        // and verify implied edges are genuinely redundant. (Implied edges
        // cannot extend cycles: each parallels a non-implied witness path,
        // so acyclicity of the non-implied subgraph implies acyclicity of
        // the whole graph.)
        for &v in &alive {
            let mut reach = SlotSet::new();
            let mut work = vec![v];
            while let Some(u) = work.pop() {
                for (s, rec) in self.slots[u as usize].out.iter() {
                    if !rec.implied && reach.insert(s) {
                        work.push(s);
                    }
                }
            }
            assert!(!reach.contains(v), "cycle through n{v}");
            for d in reach.iter() {
                assert!(
                    self.slots[d as usize].anc.contains(v),
                    "missing ancestor n{v} of n{d}"
                );
            }
            // Exactness: every recorded ancestor of v is really reachable.
            // (Checked via the forward sweep below using `reach` of each
            // ancestor candidate would be quadratic anyway; reuse this
            // sweep: v must appear in anc(d) exactly for d in reach.)
            for &d in &alive {
                if !reach.contains(d) {
                    assert!(
                        !self.slots[d as usize].anc.contains(v),
                        "stale ancestor n{v} recorded on n{d}"
                    );
                }
            }
            for (s, rec) in self.slots[v as usize].out.iter() {
                if rec.implied {
                    assert!(
                        reach.contains(s),
                        "implied edge n{v} → n{s} lacks a witness path"
                    );
                }
            }
        }
        for &v in &alive {
            for a in self.slots[v as usize].anc.iter() {
                assert!(self.slots[a as usize].alive, "dead ancestor n{a} of n{v}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::VarId;

    fn desc(t: u32) -> NodeDesc {
        NodeDesc {
            thread: ThreadId::new(t),
            label: None,
            first_op: 0,
        }
    }

    fn op() -> Op {
        Op::Read {
            t: ThreadId::new(0),
            x: VarId::new(0),
        }
    }

    #[test]
    fn alloc_issues_valid_steps() {
        let mut a = Arena::new();
        let s = a.alloc(desc(0), true).unwrap();
        assert!(s.is_some());
        assert_eq!(a.resolve(s), s);
        assert_eq!(a.stats().allocated, 1);
        assert_eq!(a.alive_count(), 1);
    }

    #[test]
    fn bump_is_monotonic() {
        let mut a = Arena::new();
        let s = a.alloc(desc(0), true).unwrap();
        let (n, t0) = s.unpack();
        let s1 = a.bump(n).unwrap();
        let s2 = a.bump(n).unwrap();
        assert!(s1.ts().unwrap() > t0);
        assert!(s2.ts() > s1.ts());
    }

    #[test]
    fn finished_node_without_edges_is_collected() {
        let mut a = Arena::new();
        let s = a.alloc(desc(0), true).unwrap();
        let (n, _) = s.unpack();
        a.finish(n);
        assert_eq!(a.alive_count(), 0);
        assert_eq!(a.resolve(s), Step::NONE);
        assert_eq!(a.stats().collected, 1);
    }

    #[test]
    fn incoming_edge_keeps_node_alive() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        let (n0, _) = s0.unpack();
        let (n1, _) = s1.unpack();
        a.add_edge(s0, s1, op(), 0).unwrap();
        a.finish(n1);
        // n1 has an incoming edge from live n0: stays alive.
        assert_eq!(a.alive_count(), 2);
        a.finish(n0);
        // n0 collected; cascade removes the edge, collecting n1 too.
        assert_eq!(a.alive_count(), 0);
        assert_eq!(a.resolve(s1), Step::NONE);
    }

    #[test]
    fn recycled_slot_invalidates_old_steps() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let (n0, _) = s0.unpack();
        a.finish(n0);
        let s1 = a.alloc(desc(1), true).unwrap();
        let (n1, _) = s1.unpack();
        assert_eq!(n0, n1, "slot is recycled");
        assert_eq!(a.resolve(s0), Step::NONE, "old incarnation is stale");
        assert_eq!(a.resolve(s1), s1, "new incarnation is valid");
        assert_eq!(a.stats().allocated, 2);
    }

    #[test]
    fn cycle_is_detected_and_edge_not_added() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        a.add_edge(s0, s1, op(), 0).unwrap();
        let err = a.add_edge(s1, s0, op(), 1).unwrap_err();
        let (n0, _) = s0.unpack();
        let (n1, _) = s1.unpack();
        assert_eq!(err.from, n1);
        assert_eq!(err.to, n0);
        assert_eq!(a.edge(n1, n0), None, "cycle edge must not be inserted");
        a.check_invariants();
    }

    #[test]
    fn transitive_cycle_detected() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        let s2 = a.alloc(desc(2), true).unwrap();
        a.add_edge(s0, s1, op(), 0).unwrap();
        a.add_edge(s1, s2, op(), 1).unwrap();
        assert!(a.add_edge(s2, s0, op(), 2).is_err());
        a.check_invariants();
    }

    #[test]
    fn self_edges_are_filtered() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let (n0, _) = s0.unpack();
        let s0b = a.bump(n0).unwrap();
        assert_eq!(a.add_edge(s0, s0b, op(), 0), Ok(false));
    }

    #[test]
    fn bottom_and_stale_sources_are_skipped() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let (n0, _) = s0.unpack();
        a.finish(n0);
        let s1 = a.alloc(desc(1), true).unwrap();
        assert_eq!(a.add_edge(Step::NONE, s1, op(), 0), Ok(false));
        assert_eq!(
            a.add_edge(s0, s1, op(), 0),
            Ok(false),
            "stale source skipped"
        );
    }

    #[test]
    fn edge_replacement_updates_timestamps() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        let (n0, _) = s0.unpack();
        let (n1, _) = s1.unpack();
        a.add_edge(s0, s1, op(), 0).unwrap();
        let s0b = a.bump(n0).unwrap();
        let s1b = a.bump(n1).unwrap();
        a.add_edge(s0b, s1b, op(), 1).unwrap();
        let e = a.edge(n0, n1).unwrap();
        assert_eq!(e.from_ts, s0b.ts().unwrap());
        assert_eq!(e.to_ts, s1b.ts().unwrap());
        assert_eq!(a.stats().edges_added, 1);
        assert_eq!(a.stats().edges_replaced, 1);
    }

    #[test]
    fn happens_before_within_and_across_nodes() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        let (n0, _) = s0.unpack();
        let s0b = a.bump(n0).unwrap();
        assert!(a.happens_before(s0, s0b));
        assert!(a.happens_before(s0, s0));
        assert!(!a.happens_before(s0b, s0));
        assert!(!a.happens_before(s0, s1));
        a.add_edge(s0, s1, op(), 0).unwrap();
        assert!(a.happens_before(s0, s1));
        assert!(!a.happens_before(s1, s0));
        assert!(!a.happens_before(Step::NONE, s0));
    }

    #[test]
    fn find_path_reconstructs_chain() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        let s2 = a.alloc(desc(2), true).unwrap();
        a.add_edge(s0, s1, op(), 0).unwrap();
        a.add_edge(s1, s2, op(), 1).unwrap();
        let (n0, _) = s0.unpack();
        let (n2, _) = s2.unpack();
        let path = a.find_path(n0, n2).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(path[1].0, n2);
        assert!(a.find_path(n2, n0).is_none());
    }

    #[test]
    fn gc_disabled_keeps_nodes() {
        let mut a = Arena::with_gc(false);
        let s0 = a.alloc(desc(0), true).unwrap();
        let (n0, _) = s0.unpack();
        a.finish(n0);
        assert_eq!(a.alive_count(), 1);
        assert_eq!(a.resolve(s0), s0);
    }

    #[test]
    fn ancestor_sets_pruned_on_collection() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        a.add_edge(s0, s1, op(), 0).unwrap();
        let (n0, _) = s0.unpack();
        a.finish(n0); // collects n0, cascades nothing (n1 still current)
        a.check_invariants();
        let (n1, _) = s1.unpack();
        a.finish(n1);
        assert_eq!(a.alive_count(), 0);
    }

    #[test]
    fn max_alive_tracks_peak() {
        let mut a = Arena::new();
        let steps: Vec<Step> = (0..5).map(|i| a.alloc(desc(i), true).unwrap()).collect();
        assert_eq!(a.stats().max_alive, 5);
        for s in &steps {
            a.finish(s.unpack().0);
        }
        assert_eq!(a.alive_count(), 0);
        assert_eq!(a.stats().max_alive, 5);
    }

    #[test]
    fn implied_edges_are_elided() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        let s2 = a.alloc(desc(2), true).unwrap();
        a.add_edge(s0, s1, op(), 0).unwrap();
        a.add_edge(s1, s2, op(), 1).unwrap();
        // s0 → s2 is already implied through s1: elided, not stored.
        assert_eq!(a.add_edge(s0, s2, op(), 2), Ok(false));
        let (n0, _) = s0.unpack();
        let (n2, _) = s2.unpack();
        assert_eq!(a.edge(n0, n2), None);
        assert_eq!(a.stats().edges_added, 2);
        assert_eq!(a.stats().edges_elided, 1);
        assert!(a.happens_before(s0, s2), "ordering survives elision");
        assert!(a.add_edge(s2, s0, op(), 3).is_err(), "cycle still detected");
        a.check_invariants();
    }

    #[test]
    fn baseline_stores_tagged_implied_edges() {
        let mut a = Arena::with_options(true, false);
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        let s2 = a.alloc(desc(2), true).unwrap();
        a.add_edge(s0, s1, op(), 0).unwrap();
        a.add_edge(s1, s2, op(), 1).unwrap();
        assert_eq!(a.add_edge(s0, s2, op(), 2), Ok(true));
        let (n0, _) = s0.unpack();
        let (n2, _) = s2.unpack();
        assert!(a.edge(n0, n2).is_some(), "baseline stores the implied edge");
        assert_eq!(a.stats().edges_added, 3);
        assert_eq!(a.stats().edges_elided, 0);
        // Path reconstruction skips the tagged edge, so reports match the
        // eliding configuration exactly.
        let path = a.find_path(n0, n2).unwrap();
        assert_eq!(path.len(), 2, "witness chain, not the implied shortcut");
        a.check_invariants();
    }

    #[test]
    fn direct_edge_refresh_is_not_elided() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        let s2 = a.alloc(desc(2), true).unwrap();
        // Direct edge first, then a transitive path alongside it.
        a.add_edge(s0, s2, op(), 0).unwrap();
        a.add_edge(s0, s1, op(), 1).unwrap();
        a.add_edge(s1, s2, op(), 2).unwrap();
        // Re-adding the (now also implied) direct edge refreshes timestamps.
        let (n0, _) = s0.unpack();
        let (n2, _) = s2.unpack();
        let s0b = a.bump(n0).unwrap();
        let s2b = a.bump(n2).unwrap();
        assert_eq!(a.add_edge(s0b, s2b, op(), 3), Ok(true));
        let e = a.edge(n0, n2).unwrap();
        assert_eq!(e.to_ts, s2b.ts().unwrap());
        assert_eq!(a.stats().edges_replaced, 1);
        assert_eq!(a.stats().edges_elided, 0);
        a.check_invariants();
    }

    #[test]
    fn elision_does_not_change_collection() {
        for elide in [true, false] {
            let mut a = Arena::with_options(true, elide);
            let s0 = a.alloc(desc(0), true).unwrap();
            let s1 = a.alloc(desc(1), true).unwrap();
            let s2 = a.alloc(desc(2), true).unwrap();
            a.add_edge(s0, s1, op(), 0).unwrap();
            a.add_edge(s1, s2, op(), 1).unwrap();
            let _ = a.add_edge(s0, s2, op(), 2);
            let (n0, _) = s0.unpack();
            let (n1, _) = s1.unpack();
            let (n2, _) = s2.unpack();
            a.finish(n2);
            a.finish(n1);
            assert_eq!(
                a.alive_count(),
                3,
                "n0 keeps the chain alive (elide={elide})"
            );
            a.finish(n0);
            assert_eq!(a.alive_count(), 0, "cascade collects all (elide={elide})");
            a.check_invariants();
        }
    }

    #[test]
    fn diamond_ancestors_exact() {
        let mut a = Arena::new();
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        let s2 = a.alloc(desc(2), true).unwrap();
        let s3 = a.alloc(desc(3), true).unwrap();
        a.add_edge(s0, s1, op(), 0).unwrap();
        a.add_edge(s0, s2, op(), 1).unwrap();
        a.add_edge(s1, s3, op(), 2).unwrap();
        a.add_edge(s2, s3, op(), 3).unwrap();
        a.check_invariants();
        // Closing any back edge must fail.
        assert!(a.add_edge(s3, s0, op(), 4).is_err());
        assert!(a.add_edge(s3, s1, op(), 5).is_err());
    }

    #[test]
    fn partial_cascade_keeps_survivor_ancestors_exact() {
        // n0 → n1 → n2 → n4 → n5, and a second root n3 → n4: when n0 ends,
        // n0, n1 and n2 die in one cascade, while n4 (and n5 below it) stay
        // alive through n3 and keep only the surviving ancestors.
        let mut a = Arena::new();
        let s: Vec<Step> = (0..6).map(|i| a.alloc(desc(i), true).unwrap()).collect();
        let n: Vec<SlotIdx> = s.iter().map(|s| s.unpack().0).collect();
        for (i, (f, t)) in [(0, 1), (1, 2), (2, 4), (3, 4), (4, 5)]
            .into_iter()
            .enumerate()
        {
            a.add_edge(s[f], s[t], op(), i).unwrap();
        }
        a.check_invariants();
        for i in [1, 2, 4, 5] {
            a.finish(n[i]);
            a.check_invariants();
        }
        assert_eq!(a.alive_count(), 6, "every finished node has an in-edge");
        a.finish(n[0]);
        a.check_invariants();
        assert_eq!(a.alive_count(), 3, "n0, n1 and n2 collected together");
        for i in [0, 1, 2] {
            assert_eq!(a.resolve(s[i]), Step::NONE);
        }
        assert!(a.happens_before(s[3], s[4]));
        assert!(a.happens_before(s[4], s[5]));
        assert!(a.happens_before(s[3], s[5]));
        assert_eq!(
            a.footprint(),
            (2, 3),
            "anc(n4) = {{n3}}, anc(n5) = {{n3, n4}}"
        );
        a.finish(n[3]);
        a.check_invariants();
        assert_eq!(a.alive_count(), 0);
        assert_eq!(a.stats().collected, 6);
    }

    #[test]
    fn baseline_diamond_cascade_follows_tagged_edges() {
        // Diamond n0 → {n1, n2} → n3, with n0 → n3 implied (stored tagged in
        // the baseline) and a second root n4 → n3 keeping n3 alive.
        let mut recycled = Vec::new();
        for elide in [true, false] {
            let mut a = Arena::with_options(true, elide);
            let s: Vec<Step> = (0..5).map(|i| a.alloc(desc(i), true).unwrap()).collect();
            let n: Vec<SlotIdx> = s.iter().map(|s| s.unpack().0).collect();
            for (i, (f, t)) in [(0, 1), (0, 2), (1, 3), (2, 3), (4, 3)]
                .into_iter()
                .enumerate()
            {
                a.add_edge(s[f], s[t], op(), i).unwrap();
            }
            assert_eq!(a.add_edge(s[0], s[3], op(), 5), Ok(!elide));
            assert_eq!(a.edge(n[0], n[3]).is_some(), !elide);
            for i in [1, 2, 3] {
                a.finish(n[i]);
                a.check_invariants();
            }
            a.finish(n[0]);
            a.check_invariants();
            assert_eq!(a.alive_count(), 2, "n3 survives through n4 (elide={elide})");
            assert!(a.happens_before(s[4], s[3]));
            assert_eq!(a.footprint().1, 1, "anc(n3) = {{n4}} (elide={elide})");
            a.finish(n[4]);
            a.check_invariants();
            assert_eq!(a.alive_count(), 0);
            // Slots are reused in the same order whether or not the implied
            // edge was stored.
            let order: Vec<SlotIdx> = (0..5)
                .map(|i| a.alloc(desc(i), true).unwrap().unpack().0)
                .collect();
            recycled.push(order);
        }
        assert_eq!(recycled[0], recycled[1]);
    }

    /// One long transaction `long` orders `readers` short transactions of
    /// another thread, which form a chain in thread order (the `longtxn`
    /// benchmark's shape). Every reader stays alive until `long` ends.
    fn long_transaction_round(readers: usize, check: bool) {
        let mut a = Arena::new();
        let long = a.alloc(desc(0), true).unwrap();
        let write = a.bump(long.unpack().0).unwrap();
        let mut prev = Step::NONE;
        let mut first = Step::NONE;
        for i in 0..readers {
            let begin = a.alloc(desc(1), true).unwrap();
            let node = begin.unpack().0;
            a.add_edge(prev, begin, op(), 2 * i).unwrap();
            let read = a.bump(node).unwrap();
            a.add_edge(write, read, op(), 2 * i + 1).unwrap();
            a.finish(node);
            if check {
                a.check_invariants();
            }
            prev = read;
            if i == 0 {
                first = begin;
            }
        }
        assert_eq!(a.alive_count(), readers + 1);
        a.finish(long.unpack().0);
        if check {
            a.check_invariants();
        }
        assert_eq!(a.alive_count(), 0, "the long end collects every reader");
        assert_eq!(a.stats().collected, readers as u64 + 1);
        assert_eq!(a.footprint(), (0, 0));
        // A recycled slot's old incarnations resolve to ⊥.
        let fresh = a.alloc(desc(2), true).unwrap();
        let slot = fresh.unpack().0;
        let old = [long, write, first, prev]
            .into_iter()
            .find(|s| s.slot() == Some(slot))
            .expect("the last collected slot is reused first");
        assert_eq!(a.resolve(old), Step::NONE);
        assert_eq!(a.resolve(fresh), fresh);
    }

    #[test]
    fn long_transaction_end_collects_all_readers() {
        long_transaction_round(20, true);
        long_transaction_round(3_000, false);
    }
}
