//! # Velodrome: sound and complete dynamic atomicity checking
//!
//! A reproduction of *"Velodrome: A Sound and Complete Dynamic Atomicity
//! Checker for Multithreaded Programs"* (Flanagan, Freund & Yi, PLDI 2008).
//!
//! Velodrome observes the event stream of a multithreaded execution
//! (reads, writes, lock acquires/releases, atomic-block entry/exit) and
//! decides whether every transaction in the observed trace is
//! **conflict-serializable**. The analysis is:
//!
//! * **sound** — it reports an error whenever the observed trace is not
//!   serializable, and
//! * **complete** — it reports an error *only* for non-serializable traces
//!   (zero false alarms),
//!
//! because it tracks the exact transactional happens-before relation and a
//! trace is serializable iff that relation is acyclic.
//!
//! ## Architecture
//!
//! * [`step`] — packed 64-bit `(node, timestamp)` steps with slot
//!   recycling and staleness detection (Section 5);
//! * [`arena`] — the transaction-node arena: timestamped edges, chain
//!   clocks for exact O(1) (or binary-search) cycle detection *before* edge
//!   insertion, and reference-counting garbage collection (Section 4.1);
//! * [`engine`] — the online analysis rules (Figures 2 and 4), including
//!   the merge optimization for non-transactional operations (Section
//!   4.2), nested atomic blocks, and blame assignment (Section 4.3);
//! * [`report`] — structured [`CycleReport`]s with increasing-cycle blame
//!   and Graphviz rendering in the paper's error-graph format.
//!
//! ## Quick start
//!
//! ```
//! use velodrome::check_trace;
//! use velodrome_events::TraceBuilder;
//!
//! // Thread 2's write interleaves with thread 1's read-modify-write.
//! let mut b = TraceBuilder::new();
//! b.begin("T1", "increment").read("T1", "counter");
//! b.write("T2", "counter");
//! b.write("T1", "counter").end("T1");
//!
//! let warnings = check_trace(&b.finish());
//! assert_eq!(warnings.len(), 1);
//! assert!(warnings[0].message.contains("increment is not atomic"));
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod engine;
pub mod hybrid;
pub mod report;
mod smallgraph;
pub mod step;

pub use arena::{Arena, ArenaError, ArenaStats, CycleFound, EdgeInfo, NodeDesc};
pub use engine::{check_trace, check_trace_with, Velodrome, VelodromeConfig, VelodromeStats};
pub use hybrid::{HybridConfig, HybridStats, HybridVelodrome};
pub use report::CycleReport;
pub use step::Step;
