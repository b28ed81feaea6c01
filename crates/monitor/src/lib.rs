//! RoadRunner-style event-stream monitoring framework.
//!
//! The paper's Velodrome prototype is a back-end of RoadRunner, which
//! instruments Java bytecode at load time and forwards an event stream
//! (lock acquires/releases, memory reads/writes, atomic-block entry/exit)
//! to pluggable analyses. This crate reproduces that architecture for Rust:
//!
//! * [`tool`] — the [`Tool`] back-end trait, [`Warning`] diagnostics,
//!   [`ToolChain`] for running several analyses over one stream, the
//!   paper's `Empty` baseline back-end, and the baselines' shared warning
//!   logs ([`tool::RaceLog`], [`tool::BlockLog`]);
//! * [`spec`] — [`AtomicitySpec`], selecting which atomic blocks to check;
//! * [`filter`] — RoadRunner's front-end filters (re-entrant lock
//!   filtering, thread-local filtering) as tool combinators;
//! * [`shim`] — instrumentation shims ([`shim::Shared`], [`shim::TLock`],
//!   [`shim::Runtime::atomic`]) so real multithreaded Rust code can be
//!   monitored live, the substitution this reproduction uses in place of
//!   bytecode rewriting.

//!
//! Fault tolerance — the runtime is designed to be attached to a live
//! service, so it must never crash, deadlock, or OOM the host:
//!
//! * [`budget`] — [`ResourceBudget`] caps and the [`DegradationLevel`]
//!   ladder the runtime steps down when a cap trips;
//! * [`chaos`] — declarative [`chaos::FaultPlan`] fault injection that
//!   replays a recorded trace through the live [`shim::Runtime`], used by
//!   the chaos test suite;
//! * [`isolate`] — the shared panic-isolation primitives
//!   ([`isolate::run_isolated`], [`isolate::panic_message`]) behind the
//!   runtime and the CLI's batch runner.

pub mod budget;
pub mod chaos;
pub mod filter;
pub mod isolate;
pub mod shim;
pub mod spec;
pub mod tool;

pub use budget::{DegradationLevel, ResourceBudget};
pub use chaos::{Fault, FaultPlan};
pub use filter::{ReentrantLockFilter, SpecFilter, ThreadLocalFilter};
pub use shim::RuntimeTelemetry;
pub use spec::AtomicitySpec;
pub use tool::{replay_ops, run_tool, EmptyTool, Tool, ToolChain, Warning, WarningCategory};
