//! Structured telemetry for the Velodrome runtime.
//!
//! The paper's evaluation (§6, Tables 1–2) rests on internal counters —
//! nodes allocated vs. alive, edges added vs. elided, GC cascades,
//! scheduler pauses — and the production north star needs the same numbers
//! exported live. This crate is the common substrate every stat surface
//! publishes into:
//!
//! * [`Telemetry`] — a cheap-to-clone handle to a metric registry. The
//!   registry stores plain values: the owner of each number publishes it
//!   with [`Telemetry::set_counter`] or [`Telemetry::set_gauge`] just
//!   before a snapshot, so the hot path never touches the registry.
//! * [`PhaseStat`] — a single-owner record of one hot spot
//!   (`Velodrome::advance`, `Arena::add_edge`, cycle check, GC cascade,
//!   scheduler step): an exact call count plus sampled timing, kept in
//!   plain integers by the component it measures and published with
//!   [`Telemetry::set_phase`] just before a snapshot.
//! * [`Snapshot`]s — a point-in-time copy of every published metric,
//!   taken periodically and written out as JSON Lines by [`JsonlExporter`]
//!   (the CLI's `--metrics-out`).
//!
//! # Zero overhead when disabled
//!
//! [`Telemetry::disabled`] returns a no-op handle that drops whatever is
//! published into it; owners of a [`PhaseStat`] skip it entirely (no
//! count, no `Instant::now`) unless a registry is attached.

pub mod export;
pub mod names;
pub mod phase;
pub mod registry;
pub mod snapshot;

pub use export::JsonlExporter;
pub use phase::PhaseStat;
pub use registry::Telemetry;
pub use snapshot::{MetricValue, Snapshot};
