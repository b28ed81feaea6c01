//! Structured telemetry for the Velodrome runtime.
//!
//! The paper's evaluation (§6, Tables 1–2) rests on internal counters —
//! nodes allocated vs. alive, edges added vs. elided, GC cascades,
//! scheduler pauses — and the production north star needs the same numbers
//! exported live. This crate is the common substrate every stat surface
//! registers onto:
//!
//! * [`Telemetry`] — a cheap-to-clone handle to a metric registry. The
//!   registry lock is touched only at *registration*; every update on a
//!   [`Counter`], [`Gauge`], [`Histogram`], or [`PhaseTimer`] handle is a
//!   relaxed atomic on pre-resolved storage, so the hot path never
//!   contends.
//! * Phase timers — span-style start/stop around the analysis hot spots
//!   (`Velodrome::advance`, `Arena::add_edge`, cycle check, GC cascade,
//!   scheduler step) recording call count, total and max nanoseconds.
//! * [`Snapshot`]s — a point-in-time copy of every registered metric,
//!   taken periodically and written out as JSON Lines by [`JsonlExporter`]
//!   (the CLI's `--metrics-out`).
//!
//! # Zero overhead when disabled
//!
//! [`Telemetry::disabled`] returns a no-op handle: all its handles carry
//! `None` storage, so updates are a single never-taken branch and phase
//! timers never call `Instant::now`. Additionally the whole implementation
//! sits behind the default-on `enabled` cargo feature; with the feature
//! off, [`Telemetry::registry`] *also* returns the disabled handle, so a
//! build can compile telemetry out entirely without touching call sites.

pub mod export;
pub mod names;
pub mod registry;
pub mod snapshot;

pub use export::JsonlExporter;
pub use registry::{Counter, Gauge, Histogram, PhaseGuard, PhaseTimer, Telemetry};
pub use snapshot::{MetricValue, Snapshot};
