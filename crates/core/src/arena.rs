//! The transaction-node arena: allocation, recycling, happens-before edges,
//! chain clocks, and reference-counting garbage collection.
//!
//! This is the data-representation core of Section 4.1 and Section 5:
//!
//! * Nodes live in recyclable *slots*; a step `(slot, ts)` is stale once the
//!   slot's incarnation that issued `ts` has been collected (tracked by a
//!   per-slot timestamp floor) and is then interpreted as `⊥`.
//! * At most one happens-before edge is stored per ordered node pair; adding
//!   another replaces its timestamps (the paper's `H ⊎ G` operator), which
//!   bounds `|H|` by `|Node|²`.
//! * Reachability between alive nodes is kept exact by *chain clocks*, so a
//!   cycle-creating edge is detected *before* insertion; the graph therefore
//!   stays acyclic and plain reference counting collects garbage
//!   immediately. Alive nodes are grouped into chains, consecutive nodes of
//!   a chain joined by a stored edge (the *link*); each node records, for
//!   every other chain, the highest position on it that reaches the node.
//!   Memory is linear in the alive nodes when they form few chains, as a
//!   long transaction's readers do.
//! * A node is collected once it is finished (not any thread's current
//!   transaction) and has no incoming edges: such a node can never again
//!   appear on a cycle. Collection cascades: removing the node's outgoing
//!   edges may render its successors collectible.

use crate::smallgraph::{EdgeRec, OutEdges};
use crate::step::{SlotIdx, Step, Ts, MAX_SLOT, MAX_TS};
use std::fmt;
use std::ops::{Index, IndexMut};
use velodrome_events::{Label, Op, ThreadId};

/// Nodes the arena holds at once: one per slot index below [`MAX_SLOT`].
/// That index is reserved, because its step at [`MAX_TS`] would be the bit
/// pattern of [`Step::NONE`].
pub const CAPACITY: usize = MAX_SLOT as usize;

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

/// A chain clock entry `(chain, position)`.
type Entry = (u32, u32);

/// Does `e` still name an alive node, i.e. is its position at or above its
/// chain's floor? A stale entry orders nothing.
fn live(chains: &[Chain], e: &Entry) -> bool {
    e.1 >= chains[e.0 as usize].floor
}

/// A chain of alive nodes at positions `floor..next`, each one linked to the
/// next by a stored, non-implied edge, so an earlier node reaches every
/// later one.
///
/// Positions keep counting when an empty chain's id is reused, so a clock
/// entry below `floor` is stale — its node was collected or moved — and
/// orders nothing. A chain whose `next` reaches `u32::MAX` is retired: it is
/// never extended or reused again.
#[derive(Debug, Clone, Copy)]
struct Chain {
    /// Position of the next node to join.
    next: u32,
    /// Position of the first alive node (`next` when the chain is empty).
    floor: u32,
}

/// [`Slot::flags`]: the slot holds an alive node.
const ALIVE: u8 = 1;
/// [`Slot::flags`]: the node is some thread's current transaction.
const CURRENT: u8 = 2;
/// [`Slot::flags`]: the node's descriptor has a label.
const LABELED: u8 = 4;

/// One node slot, 96 bytes (DESIGN.md §7, *Node layout*): two timestamps,
/// the out-edge list (32 bytes, holding a first edge in place), the chain
/// clock (a 16-byte boxed slice, empty and unallocated for most nodes), the
/// descriptor's fields, and a flags byte where the booleans live.
#[derive(Debug)]
struct Slot {
    /// Steps with `ts <= floor` belong to collected incarnations.
    floor: Ts,
    /// Last timestamp issued; monotonic across incarnations.
    counter: Ts,
    /// Outgoing edges, sorted by target slot (the per-slot degree is tiny,
    /// and sorted order makes path reconstruction deterministic).
    out: OutEdges,
    /// Chain clock, sorted by chain: for every other chain, the highest
    /// position whose node reaches this one (over non-implied edges).
    anc: Box<[Entry]>,
    /// The descriptor: first operation, thread, and label (meaningful only
    /// under [`LABELED`]).
    first_op: u64,
    thread: ThreadId,
    label: Label,
    /// Number of incoming edges, tagged ones included: the reference count
    /// collection waits on (the records themselves live in `out`).
    in_degree: u32,
    /// The chain the node sits on, and its position there.
    chain: u32,
    pos: u32,
    /// [`ALIVE`], [`CURRENT`] and [`LABELED`].
    flags: u8,
}

impl Slot {
    /// A slot that has never held a node.
    fn vacant() -> Self {
        Slot {
            floor: 0,
            counter: 0,
            out: OutEdges::default(),
            anc: Box::default(),
            first_op: 0,
            thread: ThreadId::new(0),
            label: Label::new(0),
            in_degree: 0,
            chain: 0,
            pos: 0,
            flags: 0,
        }
    }

    fn alive(&self) -> bool {
        self.flags & ALIVE != 0
    }

    fn current(&self) -> bool {
        self.flags & CURRENT != 0
    }

    fn collectible(&self) -> bool {
        self.flags & (ALIVE | CURRENT) == ALIVE && self.in_degree == 0
    }

    fn desc(&self) -> NodeDesc {
        NodeDesc {
            thread: self.thread,
            label: (self.flags & LABELED != 0).then_some(self.label),
            first_op: self.first_op as usize,
        }
    }
}

/// The slot table grows by an eighth of its length, and by at least this
/// many slots.
const GROW_MIN: usize = 16;

/// The slot table: one vector, grown by an eighth (at least [`GROW_MIN`]
/// slots) whenever it is full instead of doubled, so its slack is at most
/// an eighth of it, not a half. A lookup is one bounds-checked index.
///
/// `tail` stays empty unless a test skipped ahead
/// ([`Arena::skip_slots_for_test`]): the slots from `tail_start` on then
/// live there, and the skipped indices hold nothing.
#[derive(Debug, Default)]
struct Slots {
    head: Vec<Slot>,
    tail: Vec<Slot>,
    /// Index of `tail`'s first slot; 0 while `tail` is unused.
    tail_start: usize,
}

impl Slots {
    /// Slots handed out so far; the next fresh index.
    fn len(&self) -> usize {
        if self.tail_start == 0 {
            self.head.len()
        } else {
            self.tail_start + self.tail.len()
        }
    }

    /// Appends `slot` at index `len`.
    fn push(&mut self, slot: Slot) -> SlotIdx {
        let idx = self.len();
        let v = if self.tail_start == 0 {
            &mut self.head
        } else {
            &mut self.tail
        };
        if v.len() == v.capacity() {
            v.reserve_exact(GROW_MIN.max(v.len() / 8));
        }
        v.push(slot);
        idx as SlotIdx
    }

    /// Slot `idx` past `head`, kept out of line: only an arena that
    /// skipped ahead has one, and inlined into every lookup this path
    /// slowed the engine's hot path (DESIGN.md §7, *Node layout*).
    #[cold]
    #[inline(never)]
    fn tail_slot(&self, idx: usize) -> &Slot {
        &self.tail[idx - self.tail_start]
    }

    #[cold]
    #[inline(never)]
    fn tail_slot_mut(&mut self, idx: usize) -> &mut Slot {
        &mut self.tail[idx - self.tail_start]
    }

    /// Every slot with its index, in index order.
    fn iter(&self) -> impl Iterator<Item = (SlotIdx, &Slot)> + '_ {
        let tail = self.tail.iter().enumerate();
        (self.head.iter().enumerate())
            .chain(tail.map(|(i, s)| (self.tail_start + i, s)))
            .map(|(i, s)| (i as SlotIdx, s))
    }

    /// Does alive node `a` reach alive node `b ≠ a` over non-implied edges?
    fn reaches(&self, a: SlotIdx, b: SlotIdx) -> bool {
        let (a, b) = (&self[a], &self[b]);
        if a.chain == b.chain {
            return a.pos < b.pos;
        }
        // `a` is alive, so `a.pos` is at or above its chain's floor and a
        // stale entry can never satisfy the comparison.
        match b.anc.binary_search_by_key(&a.chain, |e| e.0) {
            Ok(i) => b.anc[i].1 >= a.pos,
            Err(_) => false,
        }
    }
}

impl Index<SlotIdx> for Slots {
    type Output = Slot;

    fn index(&self, idx: SlotIdx) -> &Slot {
        let idx = idx as usize;
        if idx < self.head.len() {
            &self.head[idx]
        } else {
            self.tail_slot(idx)
        }
    }
}

impl IndexMut<SlotIdx> for Slots {
    fn index_mut(&mut self, idx: SlotIdx) -> &mut Slot {
        let idx = idx as usize;
        if idx < self.head.len() {
            &mut self.head[idx]
        } else {
            self.tail_slot_mut(idx)
        }
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
    /// All [`CAPACITY`] allocatable slots (2^24 − 1) hold
    /// simultaneously-live transactions. Slot index [`MAX_SLOT`] is
    /// reserved so no allocatable slot can pack a step colliding with
    /// [`Step::NONE`].
    Exhausted,
    /// A slot's timestamp counter reached the 40-bit limit; issuing another
    /// step in that node would not be representable.
    TsOverflow,
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::Exhausted => write!(
                f,
                "node arena exhausted: {CAPACITY} simultaneously-live transactions \
                 (is garbage collection disabled on a large trace?)"
            ),
            ArenaError::TsOverflow => {
                write!(f, "node timestamp counter overflowed 40 bits")
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// The node arena.
#[derive(Debug)]
pub struct Arena {
    slots: Slots,
    free: Vec<SlotIdx>,
    chains: Vec<Chain>,
    /// Ids of empty, unretired chains, reused before new ids are opened.
    free_chains: Vec<u32>,
    stats: ArenaStats,
    gc_enabled: bool,
    /// Skip insertion of transitively-implied edges (the redundant-edge
    /// elision gate). When disabled, implied edges are stored but tagged,
    /// preserving the exact warnings and reports of the eliding mode while
    /// paying the unoptimized insertion cost — the differential baseline.
    elide: bool,
    /// Work list of collection cascades, clock propagation and path search.
    work: Vec<SlotIdx>,
    /// Clock propagation scratch: the entries an edge passes on, and the
    /// joined clock being built.
    gained: Vec<Entry>,
    joined: Vec<Entry>,
    /// Path search scratch, indexed by slot: `(search, parent)`. A slot was
    /// reached by the current search iff its entry carries that search's
    /// number, `search`; its parent is then the node it was first pushed
    /// from. Stamping means no search clears what an earlier one marked.
    marks: Vec<(u32, SlotIdx)>,
    search: u32,
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
    /// ever allocated, up to [`CAPACITY`] = 2^24 − 1 of them).
    pub fn with_gc(gc_enabled: bool) -> Self {
        Self::with_options(gc_enabled, true)
    }

    /// Creates an arena with explicit GC and redundant-edge elision flags.
    pub fn with_options(gc_enabled: bool, elide: bool) -> Self {
        Self {
            slots: Slots::default(),
            free: Vec::new(),
            chains: Vec::new(),
            free_chains: Vec::new(),
            stats: ArenaStats::default(),
            gc_enabled,
            elide,
            work: Vec::new(),
            gained: Vec::new(),
            joined: Vec::new(),
            marks: Vec::new(),
            search: 0,
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
    /// Fails with [`ArenaError::Exhausted`] when all [`CAPACITY`]
    /// allocatable slots are live (index [`MAX_SLOT`] is reserved: it would
    /// let a step collide with [`Step::NONE`] at timestamp [`MAX_TS`]), and
    /// with [`ArenaError::TsOverflow`] when the only recycled slot available
    /// has spent its 40-bit timestamp space. On failure the arena is
    /// unchanged.
    pub fn alloc(&mut self, desc: NodeDesc, current: bool) -> Result<Step, ArenaError> {
        let idx = match self.free.pop() {
            Some(idx) => {
                if self.slots[idx].counter >= MAX_TS {
                    // Recycled slot has no timestamps left; put it back so
                    // the failed call leaves the free list intact.
                    self.free.push(idx);
                    return Err(ArenaError::TsOverflow);
                }
                idx
            }
            None => {
                // `>=` reserves slot index MAX_SLOT: with at most CAPACITY
                // slots, indices stop one short of it and no allocatable
                // slot can ever pack a step that collides with `⊥`.
                if self.slots.len() >= CAPACITY {
                    return Err(ArenaError::Exhausted);
                }
                self.slots.push(Slot::vacant())
            }
        };
        // A fresh node starts alone on a chain: a freed id (whose positions
        // continue past its stale entries) or a new one.
        let chain = self.free_chains.pop().unwrap_or_else(|| {
            self.chains.push(Chain { next: 0, floor: 0 });
            (self.chains.len() - 1) as u32
        });
        let pos = self.push_position(chain);
        let slot = &mut self.slots[idx];
        debug_assert!(!slot.alive(), "allocating an alive slot");
        slot.flags = ALIVE
            | if current { CURRENT } else { 0 }
            | if desc.label.is_some() { LABELED } else { 0 };
        slot.first_op = desc.first_op as u64;
        slot.thread = desc.thread;
        slot.label = desc.label.unwrap_or(Label::new(0));
        slot.out.clear();
        slot.in_degree = 0;
        slot.chain = chain;
        slot.pos = pos;
        slot.anc = Box::default();
        slot.counter += 1;
        self.stats.allocated += 1;
        self.stats.cur_alive += 1;
        self.stats.max_alive = self.stats.max_alive.max(self.stats.cur_alive);
        Ok(Step::new(idx, slot.counter))
    }

    /// Takes the next position on `chain`.
    fn push_position(&mut self, chain: u32) -> u32 {
        let c = &mut self.chains[chain as usize];
        debug_assert!(c.next < u32::MAX, "extending a retired chain");
        c.next += 1;
        c.next - 1
    }

    /// Removes node `v` from the front of its chain, freeing the chain id
    /// once it is empty (unless the chain is retired).
    fn leave_chain(&mut self, v: SlotIdx) {
        let (chain, pos) = (self.slots[v].chain, self.slots[v].pos);
        let c = &mut self.chains[chain as usize];
        debug_assert_eq!(c.floor, pos, "chains empty front to back");
        c.floor = pos + 1;
        if c.floor == c.next && c.next < u32::MAX {
            self.free_chains.push(chain);
        }
    }

    /// Issues the next timestamp within an alive node.
    ///
    /// Fails with [`ArenaError::TsOverflow`] once the node's counter
    /// reaches the 40-bit limit; the counter is not advanced, so the slot's
    /// existing steps stay valid.
    pub fn bump(&mut self, idx: SlotIdx) -> Result<Step, ArenaError> {
        let slot = &mut self.slots[idx];
        debug_assert!(slot.alive(), "bump of dead slot");
        if slot.counter >= MAX_TS {
            return Err(ArenaError::TsOverflow);
        }
        slot.counter += 1;
        Ok(Step::new(idx, slot.counter))
    }

    /// Test hook: pins a slot's timestamp counter so overflow paths can be
    /// exercised without issuing 2^40 bumps. Not part of the public API.
    #[doc(hidden)]
    pub fn force_counter_for_test(&mut self, idx: SlotIdx, counter: Ts) {
        self.slots[idx].counter = counter;
    }

    /// Test hook: makes `next` the next fresh slot index, so the capacity
    /// limit can be reached without allocating 2^24 nodes. The skipped
    /// indices never hold a node and take no memory. Not part of the
    /// public API.
    ///
    /// # Panics
    ///
    /// Panics if the arena has skipped ahead before, or if `next` is below
    /// the slots handed out so far or above [`CAPACITY`].
    #[doc(hidden)]
    pub fn skip_slots_for_test(&mut self, next: usize) {
        assert_eq!(self.slots.tail_start, 0, "the arena skipped ahead before");
        assert!(
            (self.slots.len()..=CAPACITY).contains(&next),
            "cannot skip to slot {next}"
        );
        if next > self.slots.len() {
            self.slots.tail_start = next;
        }
    }

    /// Resolves a (weak) step reference: returns `Step::NONE` if the step is
    /// `⊥`, or refers to a collected incarnation of its slot.
    pub fn resolve(&self, step: Step) -> Step {
        match step.slot() {
            None => Step::NONE,
            Some(idx) => {
                let slot = &self.slots[idx];
                let ts = step.ts().expect("non-none step has ts");
                if slot.alive() && ts > slot.floor {
                    step
                } else {
                    Step::NONE
                }
            }
        }
    }

    /// Returns `true` when the node is alive.
    pub fn is_alive(&self, idx: SlotIdx) -> bool {
        self.slots[idx].alive()
    }

    /// Returns `true` when the node is some thread's current transaction.
    ///
    /// Only current (and freshly allocated) nodes can ever gain incoming
    /// edges, so merging a unary operation into a *current* node of another
    /// thread is unsafe: a later conflicting edge back into that node would
    /// be a filtered self-edge and a real two-transaction cycle would go
    /// undetected.
    pub fn is_current(&self, idx: SlotIdx) -> bool {
        self.slots[idx].current()
    }

    /// Descriptor of an alive node.
    pub fn desc(&self, idx: SlotIdx) -> NodeDesc {
        self.slots[idx].desc()
    }

    /// Does `a` happen (non-strictly) before `b`?
    ///
    /// Steps within one node are ordered by timestamp; across nodes the
    /// question is reachability in the happens-before graph. Both steps must
    /// be resolved (alive) or `⊥`; `⊥` never happens-before anything.
    pub fn happens_before(&self, a: Step, b: Step) -> bool {
        let (Some(na), Some(nb)) = (a.slot(), b.slot()) else {
            return false;
        };
        if na == nb {
            return a.ts() <= b.ts();
        }
        self.slots.reaches(na, nb)
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
        let (from, to) = (self.resolve(from), self.resolve(to));
        let (Some((nf, tf)), Some((nt, tt))) = (
            from.is_some().then(|| from.unpack()),
            to.is_some().then(|| to.unpack()),
        ) else {
            return Ok(false);
        };
        if nf == nt {
            return Ok(false);
        }
        let info = EdgeInfo {
            from_ts: tf,
            to_ts: tt,
            op,
            op_index,
        };
        // The graph is acyclic, so the direct-edge refresh and the elision
        // gate below, which both see nf reach nt, also rule out a cycle;
        // the cycle check only runs when neither applies.
        //
        // A stored direct edge is refreshed in place (the paper's `H ⊎ G`
        // keeps the latest timestamps per ordered node pair).
        if let Some(rec) = self.slots[nf].out.get_mut(nt) {
            rec.refresh(info);
            self.stats.edges_replaced += 1;
            return Ok(true);
        }
        // Redundant-edge gate: a path nf →* nt already orders the pair, so
        // the edge adds no reachability — eliding it preserves clock
        // exactness, cycle detection, and GC timing (an implied edge's
        // witness path outlives it: each path node is kept alive by its
        // predecessor's stored edge while `nf` is alive).
        if self.slots.reaches(nf, nt) {
            if self.elide {
                self.stats.edges_elided += 1;
                return Ok(false);
            }
            // Baseline mode: store the edge, tagged so path reconstruction
            // and clock propagation skip it.
            self.insert_edge(nf, nt, info, true);
            return Ok(true);
        }
        // Edge nf → nt closes a cycle iff a path nt →* nf already exists.
        if self.slots.reaches(nt, nf) {
            return Err(CycleFound {
                from: nf,
                from_ts: tf,
                to: nt,
                to_ts: tt,
            });
        }
        // A node with no edges (hence alone on its chain: a chain neighbour
        // would be linked to it) joins the source's chain when the source
        // is that chain's tail: the new edge becomes the link, and the
        // clock is the source's.
        let (sf, st) = (&self.slots[nf], &self.slots[nt]);
        let extends = st.in_degree == 0
            && st.out.is_empty()
            && sf.pos + 1 == self.chains[sf.chain as usize].next
            && self.chains[sf.chain as usize].next < u32::MAX;
        self.insert_edge(nf, nt, info, false);
        if extends {
            self.extend_chain(nf, nt);
        } else {
            self.propagate(nf, nt);
        }
        Ok(true)
    }

    fn insert_edge(&mut self, nf: SlotIdx, nt: SlotIdx, info: EdgeInfo, implied: bool) {
        self.slots[nf].out.insert(EdgeRec::new(nt, info, implied));
        self.slots[nt].in_degree += 1;
        self.stats.edges_added += 1;
    }

    /// Moves `nt`, an edgeless node alone on its chain, behind `nf`, the
    /// tail of its chain, and gives it `nf`'s clock (minus stale entries).
    fn extend_chain(&mut self, nf: SlotIdx, nt: SlotIdx) {
        debug_assert_eq!(
            self.chains[self.slots[nt].chain as usize].next,
            self.slots[nt].pos + 1,
            "only a node alone on its chain moves"
        );
        self.leave_chain(nt);
        let chain = self.slots[nf].chain;
        let pos = self.push_position(chain);
        let Arena {
            slots,
            chains,
            joined,
            ..
        } = self;
        joined.clear();
        joined.extend(slots[nf].anc.iter().filter(|e| live(chains, e)));
        let slot = &mut slots[nt];
        slot.chain = chain;
        slot.pos = pos;
        store(&mut slot.anc, joined);
    }

    /// Joins `anc(nf) ∪ {nf}` into the clocks of `nt` and its descendants
    /// after a non-implied edge `nf → nt` that did not extend a chain.
    fn propagate(&mut self, nf: SlotIdx, nt: SlotIdx) {
        let Arena {
            slots,
            chains,
            work,
            gained,
            joined,
            ..
        } = self;
        let src = &slots[nf];
        let split = src.anc.partition_point(|e| e.0 < src.chain);
        gained.clear();
        gained.extend(src.anc[..split].iter().filter(|e| live(chains, e)));
        gained.push((src.chain, src.pos));
        gained.extend(src.anc[split..].iter().filter(|e| live(chains, e)));
        // Implied edges are skipped: their targets are reached through the
        // non-implied witness path anyway.
        work.push(nt);
        while let Some(v) = work.pop() {
            let slot = &mut slots[v];
            if join(&mut slot.anc, slot.chain, gained, chains, joined) {
                work.extend(slot.out.iter().filter(|r| !r.implied()).map(EdgeRec::to));
            }
        }
    }

    /// Marks a node as no longer any thread's current transaction and
    /// collects it (and any cascade) if possible.
    pub fn finish(&mut self, idx: SlotIdx) {
        self.slots[idx].flags &= !CURRENT;
        self.maybe_collect(idx);
    }

    /// Collects `idx` if it is finished with no incoming edges, cascading to
    /// successors whose last incoming edge disappears.
    ///
    /// A collected node has no in-edges, so it is the first alive node of
    /// its chain (any later one has its link as an in-edge) and lies on no
    /// path between alive nodes: raising the chain's floor past it turns
    /// every clock entry naming it stale, and no clock needs a sweep.
    pub fn maybe_collect(&mut self, idx: SlotIdx) {
        if !self.gc_enabled || !self.slots[idx].collectible() {
            return;
        }
        self.work.push(idx);
        while let Some(v) = self.work.pop() {
            if !self.slots[v].collectible() {
                continue;
            }
            self.leave_chain(v);
            let slot = &mut self.slots[v];
            slot.flags &= !ALIVE;
            slot.floor = slot.counter;
            slot.anc = Box::default();
            let mut out = std::mem::take(&mut slot.out);
            self.stats.cur_alive -= 1;
            self.stats.collected += 1;
            for succ in out.iter().map(EdgeRec::to) {
                let s = &mut self.slots[succ];
                if s.alive() {
                    s.in_degree -= 1;
                    if s.collectible() {
                        self.work.push(succ);
                    }
                }
            }
            // Hand the emptied list back so the slot keeps its capacity.
            out.clear();
            self.slots[v].out = out;
            self.free.push(v);
        }
    }

    /// Finds a path `start →* goal` over alive nodes and non-implied edges,
    /// returning the edges traversed. Used to reconstruct the cycle once
    /// [`CycleFound`] fires (the path exists because the clocks are exact).
    ///
    /// Implied (redundant) edges are skipped so reconstruction is identical
    /// whether the arena elides them or stores them tagged.
    ///
    /// The search is a DFS that stacks slots, not paths: each slot records
    /// the node it was first pushed from, and the path is read back along
    /// those parents. A call costs the nodes and edges it visits, linear in
    /// a path of any length.
    pub fn find_path(&mut self, start: SlotIdx, goal: SlotIdx) -> Option<Vec<(SlotIdx, EdgeInfo)>> {
        let Arena {
            slots,
            work: stack,
            marks,
            search,
            ..
        } = self;
        if marks.len() < slots.len() {
            marks.resize(slots.len(), (0, 0));
        }
        *search = search.wrapping_add(1);
        if *search == 0 {
            // The stamps wrapped: clear every mark once.
            marks.fill((0, 0));
            *search = 1;
        }
        let search = *search;
        // Only descend into nodes that reach the goal. Successors are
        // pushed in ascending slot order (intrinsic to the sorted out-edge
        // lists), and a slot's parent is fixed by its first push, so the
        // path found, and every report, is reproducible run to run.
        marks[start as usize] = (search, start);
        stack.clear();
        stack.push(start);
        let mut found = false;
        while let Some(node) = stack.pop() {
            if node == goal {
                found = true;
                break;
            }
            for rec in slots[node].out.iter() {
                let succ = rec.to();
                if rec.implied() || marks[succ as usize].0 == search {
                    continue;
                }
                if succ != goal && !slots.reaches(succ, goal) {
                    continue;
                }
                marks[succ as usize] = (search, node);
                stack.push(succ);
            }
        }
        stack.clear();
        if !found {
            return None;
        }
        let mut path = Vec::new();
        let mut v = goal;
        while v != start {
            let parent = marks[v as usize].1;
            let rec = slots[parent].out.get(v).expect("a path edge is stored");
            path.push((v, rec.info()));
            v = parent;
        }
        path.reverse();
        Some(path)
    }

    /// The edge `from → to`, if present (stored tagged edges included).
    pub fn edge(&self, from: SlotIdx, to: SlotIdx) -> Option<EdgeInfo> {
        self.slots[from].out.get(to).map(EdgeRec::info)
    }

    /// Number of alive nodes (for tests and diagnostics).
    pub fn alive_count(&self) -> usize {
        self.stats.cur_alive as usize
    }

    /// Memory footprint of the alive graph: `(edge records, live clock
    /// entries)` summed over alive slots. Diagnostics for sizing the
    /// sorted-vec adjacency; implied tagged edges are included, stale
    /// clock entries are not.
    pub fn footprint(&self) -> (usize, usize) {
        let mut edges = 0;
        let mut entries = 0;
        for (_, slot) in self.slots.iter().filter(|(_, s)| s.alive()) {
            edges += slot.out.len();
            entries += slot.anc.iter().filter(|e| live(&self.chains, e)).count();
        }
        (edges, entries)
    }

    /// Checks internal invariants; used by tests and debug assertions.
    ///
    /// Verifies in-degrees; the chains (each chain's alive nodes sit at
    /// exactly its positions `floor..next`, consecutive ones joined by a
    /// non-implied link, and exactly the empty unretired chains are free);
    /// clock *exactness* (every ordering query agrees with reachability
    /// recomputed over non-implied edges); acyclicity; and that every
    /// stored implied edge really is redundant (its target is reachable
    /// from its source without it).
    pub fn check_invariants(&self) {
        // Edges join alive nodes, and in-degrees count them.
        let mut in_degree = vec![0u32; self.slots.len()];
        let alive: Vec<SlotIdx> = self
            .slots
            .iter()
            .filter(|(_, s)| s.alive())
            .map(|(i, _)| i)
            .collect();
        for &v in &alive {
            for t in self.slots[v].out.iter().map(EdgeRec::to) {
                assert!(self.slots[t].alive(), "edge to dead slot");
                in_degree[t as usize] += 1;
            }
        }
        for &v in &alive {
            assert_eq!(
                self.slots[v].in_degree, in_degree[v as usize],
                "in-degree of n{v}"
            );
        }
        // Chains and the link invariant.
        let mut members: Vec<Vec<(u32, SlotIdx)>> = vec![Vec::new(); self.chains.len()];
        for &v in &alive {
            let slot = &self.slots[v];
            members[slot.chain as usize].push((slot.pos, v));
        }
        for (c, nodes) in members.iter_mut().enumerate() {
            let chain = self.chains[c];
            nodes.sort_unstable();
            assert!(chain.floor <= chain.next, "chain c{c} floor past next");
            assert_eq!(
                nodes.len() as u64,
                u64::from(chain.next - chain.floor),
                "chain c{c} holds a gap"
            );
            for (k, &(pos, v)) in nodes.iter().enumerate() {
                assert_eq!(pos, chain.floor + k as u32, "n{v} off chain c{c}'s run");
            }
            for w in nodes.windows(2) {
                let link = self.slots[w[0].1].out.get(w[1].1);
                assert!(
                    matches!(link, Some(r) if !r.implied()),
                    "no link n{} → n{} on chain c{c}",
                    w[0].1,
                    w[1].1
                );
            }
            let free = self
                .free_chains
                .iter()
                .filter(|&&f| f as usize == c)
                .count();
            let expect = usize::from(nodes.is_empty() && chain.next < u32::MAX);
            assert_eq!(free, expect, "chain c{c} free-list membership");
        }
        // Clock shape: sorted by chain, nothing on the node's own chain, no
        // entry past its chain's last position.
        for &v in &alive {
            let slot = &self.slots[v];
            assert!(
                slot.anc.windows(2).all(|w| w[0].0 < w[1].0),
                "clock of n{v} unsorted"
            );
            for &(c, p) in slot.anc.iter() {
                assert_ne!(c, slot.chain, "clock of n{v} names its own chain");
                assert!(p < self.chains[c as usize].next, "clock of n{v} ahead");
            }
        }
        // Recompute reachability over non-implied edges, check acyclicity,
        // exactness, and that implied edges are genuinely redundant.
        // (Implied edges cannot extend cycles: each parallels a non-implied
        // witness path, so acyclicity of the non-implied subgraph implies
        // acyclicity of the whole graph.)
        let mut reach = vec![false; self.slots.len()];
        for &v in &alive {
            reach.fill(false);
            let mut work = vec![v];
            while let Some(u) = work.pop() {
                for rec in self.slots[u].out.iter().filter(|r| !r.implied()) {
                    let s = rec.to();
                    if !reach[s as usize] {
                        reach[s as usize] = true;
                        work.push(s);
                    }
                }
            }
            assert!(!reach[v as usize], "cycle through n{v}");
            for &d in alive.iter().filter(|&&d| d != v) {
                assert_eq!(
                    self.slots.reaches(v, d),
                    reach[d as usize],
                    "clocks misorder n{v} and n{d}"
                );
            }
            for rec in self.slots[v].out.iter().filter(|r| r.implied()) {
                assert!(
                    reach[rec.to() as usize],
                    "implied edge n{v} → n{} lacks a witness path",
                    rec.to()
                );
            }
        }
    }
}

/// Joins `gained` (live entries, sorted by chain) into the clock `anc` of a
/// node on chain `own`, skipping `own` and dropping stale entries; returns
/// whether the clock now orders more nodes. `joined` is scratch space.
fn join(
    anc: &mut Box<[Entry]>,
    own: u32,
    gained: &[Entry],
    chains: &[Chain],
    joined: &mut Vec<Entry>,
) -> bool {
    let covered = |&(c, p): &Entry| {
        c == own || matches!(anc.binary_search_by_key(&c, |e| e.0), Ok(i) if anc[i].1 >= p)
    };
    if gained.iter().all(covered) {
        return false;
    }
    joined.clear();
    let (mut i, mut j) = (0, 0);
    loop {
        let e = match (anc.get(i), gained.get(j)) {
            (Some(&a), Some(&g)) if a.0 < g.0 => {
                i += 1;
                a
            }
            (Some(&a), Some(&g)) if a.0 > g.0 => {
                j += 1;
                g
            }
            (Some(&a), Some(&g)) => {
                i += 1;
                j += 1;
                (a.0, a.1.max(g.1))
            }
            (Some(&a), None) => {
                i += 1;
                a
            }
            (None, Some(&g)) => {
                j += 1;
                g
            }
            (None, None) => break,
        };
        if e.0 != own && live(chains, &e) {
            joined.push(e);
        }
    }
    store(anc, joined);
    true
}

/// Makes `entries` the clock `anc`: in place when the length is unchanged,
/// else in a fresh slice of exactly that length.
fn store(anc: &mut Box<[Entry]>, entries: &[Entry]) {
    if anc.len() == entries.len() {
        anc.copy_from_slice(entries);
    } else {
        *anc = entries.into();
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
    fn node_layout_fits_its_budget() {
        assert_eq!(std::mem::size_of::<Slot>(), 96);
        assert_eq!(std::mem::size_of::<OutEdges>(), 32);
        assert_eq!(std::mem::size_of::<EdgeRec>(), 32);
        assert_eq!(std::mem::size_of::<Box<[Entry]>>(), 16);
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
    fn find_path_marks_do_not_leak_across_searches() {
        // n0 → n1 → n3 and n0 → n2 → n3: the search through n2 (pushed
        // last, so popped first) reaches n3, and a repeat finds it again
        // even after the search stamps wrap.
        let mut a = Arena::new();
        let s: Vec<Step> = (0..4).map(|i| a.alloc(desc(i), true).unwrap()).collect();
        let n: Vec<SlotIdx> = s.iter().map(|s| s.unpack().0).collect();
        for (i, (f, t)) in [(0, 1), (0, 2), (1, 3), (2, 3)].into_iter().enumerate() {
            a.add_edge(s[f], s[t], op(), i).unwrap();
        }
        let hops =
            |p: Vec<(SlotIdx, EdgeInfo)>| -> Vec<SlotIdx> { p.into_iter().map(|h| h.0).collect() };
        let first = hops(a.find_path(n[0], n[3]).unwrap());
        assert_eq!(first, vec![n[2], n[3]]);
        assert_eq!(hops(a.find_path(n[1], n[3]).unwrap()), vec![n[3]]);
        a.search = u32::MAX;
        assert_eq!(hops(a.find_path(n[0], n[3]).unwrap()), first);
        assert_eq!(a.search, 1, "the stamps restart after a wrap");
        assert_eq!(hops(a.find_path(n[0], n[3]).unwrap()), first);
        assert!(a.find_path(n[3], n[0]).is_none());
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
        // n5 sits behind n4 on one chain and needs no entry for it.
        assert_eq!(a.footprint(), (2, 2), "anc(n4) = anc(n5) = {{n3's chain}}");
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
        assert_eq!(
            a.footprint().1,
            0,
            "the long transaction and its readers form one chain"
        );
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

    #[test]
    fn chain_at_position_limit_is_retired() {
        let mut a = Arena::new();
        // An emptied chain whose positions have nearly run out.
        let s = a.alloc(desc(0), true).unwrap();
        let c = a.slots[s.unpack().0].chain;
        a.finish(s.unpack().0);
        a.chains[c as usize].next = u32::MAX - 2;
        a.chains[c as usize].floor = u32::MAX - 2;
        let s0 = a.alloc(desc(0), true).unwrap();
        let s1 = a.alloc(desc(1), true).unwrap();
        let s2 = a.alloc(desc(2), true).unwrap();
        let n: Vec<SlotIdx> = [s0, s1, s2].iter().map(|s| s.unpack().0).collect();
        assert_eq!(a.slots[n[0]].chain, c, "the freed id is reused");
        a.add_edge(s0, s1, op(), 0).unwrap();
        assert_eq!(a.slots[n[1]].chain, c, "n1 takes the last position");
        assert_eq!(a.chains[c as usize].next, u32::MAX);
        a.add_edge(s1, s2, op(), 1).unwrap();
        assert_ne!(a.slots[n[2]].chain, c, "a retired chain is not extended");
        assert!(a.happens_before(s0, s2));
        assert!(a.add_edge(s2, s0, op(), 2).is_err());
        a.check_invariants();
        a.finish(n[2]);
        a.finish(n[1]);
        a.finish(n[0]);
        assert_eq!(a.alive_count(), 0);
        a.check_invariants();
        assert!(!a.free_chains.contains(&c), "a retired chain is not reused");
        for i in 0..3 {
            let s = a.alloc(desc(i), true).unwrap();
            assert_ne!(a.slots[s.unpack().0].chain, c);
        }
        a.check_invariants();
    }
}
