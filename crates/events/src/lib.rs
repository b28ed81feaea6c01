//! Event model and trace semantics for the Velodrome atomicity checker.
//!
//! This crate defines the shared vocabulary of the whole workspace:
//!
//! * [`ids`] — identifier newtypes for threads, variables, locks, and
//!   atomic-block labels, plus a [`SymbolTable`] for report rendering;
//! * [`op`] — the [`Op`] operation type (Figure 1 of the paper), its
//!   [`OpKind`], thread and operand as both trace formats store them, and
//!   the conflict/commutativity predicate (Section 2);
//! * [`trace`] — [`Trace`] sequences and the name-interning
//!   [`TraceBuilder`];
//! * [`semantics`] — well-formedness of traces under the multithreaded
//!   semantics (lock discipline, block nesting, fork/join ordering);
//! * [`txn`] — segmentation of a trace into transactions
//!   ([`Transactions`]);
//! * [`oracle`] — an offline, from-first-principles serializability
//!   decision procedure used as differential-testing ground truth;
//! * [`stream`] — incremental trace ingestion in either format, handing
//!   operations to a sink in bounded blocks, with byte-offset error
//!   reporting, and the JSON trace writer, which takes the same blocks;
//! * [`vbt`] — the compact VBT binary trace format (varint ops, string
//!   tables, length-prefixed frames) with a streaming reader and writer.
//!
//! # Example
//!
//! ```
//! use velodrome_events::{oracle, TraceBuilder};
//!
//! // An interleaved read-modify-write is not serializable.
//! let mut b = TraceBuilder::new();
//! b.begin("T1", "inc").read("T1", "x");
//! b.write("T2", "x");
//! b.write("T1", "x").end("T1");
//! assert!(!oracle::is_serializable(&b.finish()));
//! ```

#![warn(missing_docs)]

pub mod ids;
pub mod op;
pub mod oracle;
pub mod semantics;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod txn;
pub mod vbt;

pub use ids::{Label, LockId, SymbolTable, ThreadId, VarId};
pub use op::{Op, OpKind};
pub use stats::TraceStats;
pub use stream::{
    json_string_len, push_json_string, read_json_trace, read_trace, stream_trace, write_json,
    JsonTraceWriter, TraceReadError, TraceSummary,
};
pub use trace::{Trace, TraceBuilder};
pub use txn::{Transactions, TxnId, TxnInfo};
pub use vbt::{read_vbt, trace_to_vbt, write_vbt, VbtReader, FRAME_OPS};
