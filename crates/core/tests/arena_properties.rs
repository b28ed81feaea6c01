//! Property tests for the node arena's public API, independent of the
//! engine's call patterns.
//!
//! Random sequences of `alloc`, `bump`, `add_edge` (between any two issued
//! steps: stale ones, sources in the middle of their chain, pairs already
//! ordered and reversed pairs) and `finish` run in all four
//! `{gc, elide}` modes. After every call the arena's own invariant check
//! runs, every ordering answer is compared with a breadth-first search over
//! the stored edges, and `add_edge` must fail exactly when the edge would
//! close a cycle.

use proptest::prelude::*;
use velodrome::step::SlotIdx;
use velodrome::{Arena, NodeDesc, Step};
use velodrome_events::{Op, ThreadId, VarId};

#[derive(Debug, Clone)]
enum Call {
    Alloc {
        current: bool,
    },
    Bump {
        step: usize,
    },
    Edge {
        from: usize,
        to: usize,
    },
    /// An edge into the newest allocated node, the shape of a transaction's
    /// `Begin` after its thread's previous step.
    EdgeToNewest {
        from: usize,
    },
    /// The reverse of an earlier edge attempt.
    Reverse {
        edge: usize,
    },
    /// An earlier edge attempt, repeated from the endpoints' latest steps.
    Repeat {
        edge: usize,
    },
    Finish {
        step: usize,
    },
}

fn arb_call() -> impl Strategy<Value = Call> {
    // Weighted by the first component: edges are the most common call.
    (0u8..15, 0usize..1000, 0usize..1000, any::<bool>()).prop_map(|(k, a, b, current)| match k {
        0..=1 => Call::Alloc { current },
        2..=3 => Call::Bump { step: a },
        4..=7 => Call::Edge { from: a, to: b },
        8..=10 => Call::EdgeToNewest { from: a },
        11 => Call::Reverse { edge: a },
        12 => Call::Repeat { edge: a },
        _ => Call::Finish { step: a },
    })
}

fn desc(i: usize) -> NodeDesc {
    NodeDesc {
        thread: ThreadId::new(i as u32),
        label: None,
        first_op: i,
    }
}

fn op() -> Op {
    Op::Read {
        t: ThreadId::new(0),
        x: VarId::new(0),
    }
}

/// The arena under test plus everything it has handed out.
struct Harness {
    arena: Arena,
    elide: bool,
    /// Every step ever issued, stale ones included.
    steps: Vec<Step>,
    /// Every edge attempted, as `(from, to)` steps.
    edges: Vec<(Step, Step)>,
    /// Latest step per slot.
    latest: Vec<Step>,
    newest: Option<SlotIdx>,
}

impl Harness {
    fn new(gc: bool, elide: bool) -> Self {
        Harness {
            arena: Arena::with_options(gc, elide),
            elide,
            steps: Vec::new(),
            edges: Vec::new(),
            latest: Vec::new(),
            newest: None,
        }
    }

    fn issued(&mut self, s: Step) {
        let slot = usize::from(s.slot().expect("issued step"));
        if slot >= self.latest.len() {
            self.latest.resize(slot + 1, Step::NONE);
        }
        self.latest[slot] = s;
        self.steps.push(s);
    }

    fn pick(&self, i: usize) -> Option<Step> {
        (!self.steps.is_empty()).then(|| self.steps[i % self.steps.len()])
    }

    fn alive(&self) -> Vec<SlotIdx> {
        (0..self.latest.len() as SlotIdx)
            .filter(|&n| self.arena.is_alive(n))
            .collect()
    }

    /// Does a path `a →* b` exist over stored edges, by breadth-first search?
    fn bfs(&self, a: SlotIdx, b: SlotIdx) -> bool {
        let alive = self.alive();
        let mut seen = vec![a];
        let mut queue = std::collections::VecDeque::from([a]);
        while let Some(u) = queue.pop_front() {
            for &v in &alive {
                if !seen.contains(&v) && self.arena.edge(u, v).is_some() {
                    if v == b {
                        return true;
                    }
                    seen.push(v);
                    queue.push_back(v);
                }
            }
        }
        false
    }

    fn add_edge(&mut self, from: Step, to: Step) {
        let (f, t) = (self.arena.resolve(from), self.arena.resolve(to));
        let live = match (f.slot(), t.slot()) {
            (Some(nf), Some(nt)) if nf != nt => Some((nf, nt)),
            _ => None,
        };
        let expect_cycle = live.is_some_and(|(nf, nt)| self.bfs(nt, nf));
        let expect_elided = live.is_some_and(|(nf, nt)| {
            self.elide && self.arena.edge(nf, nt).is_none() && self.bfs(nf, nt)
        });
        let index = self.edges.len();
        let got = self.arena.add_edge(from, to, op(), index);
        self.edges.push((from, to));
        assert_eq!(got.is_err(), expect_cycle, "{from:?} → {to:?}: {got:?}");
        match live {
            None => assert_eq!(got, Ok(false), "no-op endpoints"),
            Some((nf, nt)) if !expect_cycle => {
                assert_eq!(got, Ok(!expect_elided), "{from:?} → {to:?}");
                assert!(self.arena.edge(nf, nt).is_some() || expect_elided);
            }
            Some((nf, nt)) => {
                let path = self.arena.find_path(nt, nf).expect("cycle has a path");
                assert_eq!(path.last().map(|e| e.0), Some(nf));
            }
        }
    }

    fn apply(&mut self, call: &Call, max_nodes: usize) {
        match *call {
            Call::Alloc { current } => {
                if self.arena.stats().allocated < max_nodes as u64 {
                    let n = self.steps.len();
                    let s = self.arena.alloc(desc(n), current).expect("alloc");
                    self.newest = s.slot();
                    self.issued(s);
                }
            }
            Call::Bump { step } => {
                if let Some(slot) = self.pick(step).and_then(|s| s.slot()) {
                    if self.arena.is_alive(slot) {
                        let s = self.arena.bump(slot).expect("bump");
                        self.issued(s);
                    }
                }
            }
            Call::Edge { from, to } => {
                if let (Some(f), Some(t)) = (self.pick(from), self.pick(to)) {
                    self.add_edge(f, t);
                }
            }
            Call::EdgeToNewest { from } => {
                if let (Some(f), Some(n)) = (self.pick(from), self.newest) {
                    let t = self.latest[usize::from(n)];
                    self.add_edge(f, t);
                }
            }
            Call::Reverse { edge } | Call::Repeat { edge } if !self.edges.is_empty() => {
                let (f, t) = self.edges[edge % self.edges.len()];
                let at = |s: Step| self.latest[usize::from(s.slot().expect("step"))];
                let (f, t) = (at(f), at(t));
                match call {
                    Call::Reverse { .. } => self.add_edge(t, f),
                    _ => self.add_edge(f, t),
                }
            }
            Call::Reverse { .. } | Call::Repeat { .. } => {}
            Call::Finish { step } => {
                if let Some(slot) = self.pick(step).and_then(|s| s.slot()) {
                    if self.arena.is_alive(slot) {
                        self.arena.finish(slot);
                    }
                }
            }
        }
    }

    /// Every ordering answer for alive pairs agrees with the search.
    fn check(&self) {
        self.arena.check_invariants();
        let alive = self.alive();
        for &a in &alive {
            for &b in &alive {
                let (sa, sb) = (self.latest[usize::from(a)], self.latest[usize::from(b)]);
                let expect = if a == b { true } else { self.bfs(a, b) };
                assert_eq!(
                    self.arena.happens_before(sa, sb),
                    expect,
                    "happens_before(n{a}, n{b})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn orderings_match_search_in_every_mode(
        max_nodes in 2usize..=40,
        calls in prop::collection::vec(arb_call(), 1..160),
    ) {
        for gc in [true, false] {
            for elide in [true, false] {
                let mut h = Harness::new(gc, elide);
                for call in &calls {
                    h.apply(call, max_nodes);
                    h.check();
                }
            }
        }
    }
}
