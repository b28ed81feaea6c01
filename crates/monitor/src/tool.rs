//! The back-end analysis interface.
//!
//! RoadRunner instruments a target program and feeds the resulting event
//! stream to one or more *back-end tools*. [`Tool`] is that interface: a
//! tool observes each operation in order and accumulates [`Warning`]s.
//! Tools can be chained ([`ToolChain`]) so several analyses observe the same
//! stream in one pass, exactly as the paper runs Velodrome alongside the
//! Atomizer or a race detector.

use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::fmt;
use velodrome_events::{Label, Op, SymbolTable, ThreadId, Trace, VarId};

/// The kind of defect a warning reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum WarningCategory {
    /// A data race on a shared variable.
    Race,
    /// An atomicity (serializability) violation.
    Atomicity,
    /// The analysis lost fidelity: a tool panicked and was quarantined, or
    /// a [`ResourceBudget`](crate::budget::ResourceBudget) tripped and the
    /// runtime stepped down the
    /// [`DegradationLevel`](crate::budget::DegradationLevel) ladder. The
    /// warning's `op_index` is the event at which fidelity was lost.
    Degraded,
    /// Any other analysis-specific diagnostic.
    Other,
}

impl WarningCategory {
    /// The category's name, as reports print and serialize it.
    pub fn as_str(self) -> &'static str {
        match self {
            WarningCategory::Race => "race",
            WarningCategory::Atomicity => "atomicity",
            WarningCategory::Degraded => "degraded",
            WarningCategory::Other => "other",
        }
    }
}

impl fmt::Display for WarningCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A diagnostic produced by a back-end tool.
#[derive(Debug, Clone, Serialize)]
pub struct Warning {
    /// Name of the tool that produced the warning.
    pub tool: &'static str,
    /// What kind of defect is reported.
    pub category: WarningCategory,
    /// The atomic block (method) being blamed, when known.
    pub label: Option<Label>,
    /// The thread performing the offending operation.
    pub thread: ThreadId,
    /// Index in the trace of the operation that triggered the warning.
    pub op_index: usize,
    /// Human-readable description.
    pub message: String,
    /// Optional long-form details (e.g. a rendered error graph).
    pub details: Option<String>,
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} warning at op {}: {}",
            self.tool, self.category, self.op_index, self.message
        )
    }
}

/// A back-end dynamic analysis consuming the instrumentation event stream.
pub trait Tool {
    /// A short, stable name for reports (e.g. `"velodrome"`).
    fn name(&self) -> &'static str;

    /// Observes the operation at position `index` of the trace.
    fn op(&mut self, index: usize, op: Op);

    /// Signals that the observed execution has ended.
    ///
    /// Tools that need to flush state (e.g. close open transactions) do so
    /// here. The default does nothing.
    fn end_of_trace(&mut self) {}

    /// Removes and returns the warnings accumulated so far.
    fn take_warnings(&mut self) -> Vec<Warning> {
        Vec::new()
    }

    /// Hands over the trace's names, which a JSON trace may carry after its
    /// last operation, so warning text is rendered when it is taken. With
    /// none given, ids print (`T0`, `x3`). The default ignores them.
    fn set_names(&mut self, _names: SymbolTable) {}
}

impl<T: Tool + ?Sized> Tool for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn op(&mut self, index: usize, op: Op) {
        (**self).op(index, op)
    }
    fn end_of_trace(&mut self) {
        (**self).end_of_trace()
    }
    fn take_warnings(&mut self) -> Vec<Warning> {
        (**self).take_warnings()
    }
    fn set_names(&mut self, names: SymbolTable) {
        (**self).set_names(names)
    }
}

/// Feeds an entire recorded trace through `tool` and returns its warnings.
pub fn run_tool<T: Tool + ?Sized>(tool: &mut T, trace: &Trace) -> Vec<Warning> {
    for (i, op) in trace.iter() {
        tool.op(i, op);
    }
    tool.end_of_trace();
    tool.take_warnings()
}

/// Replays buffered `(index, op)` pairs into a tool, preserving the
/// original trace indices.
///
/// This is the dispatch primitive for *deferred* analysis: a recorder (or
/// a two-tier checker like `velodrome::HybridVelodrome`) buffers the
/// stream and only engages an expensive tool later — warnings produced
/// from the replay then carry the same `op_index` values an online run
/// would have reported, so downstream consumers cannot tell the
/// difference. Does **not** call [`Tool::end_of_trace`]; the caller
/// decides when the stream actually ends.
pub fn replay_ops<T: Tool + ?Sized>(tool: &mut T, ops: &[(usize, Op)]) {
    for &(i, op) in ops {
        tool.op(i, op);
    }
}

/// Runs several tools over the same event stream in a single pass.
#[derive(Default)]
pub struct ToolChain {
    tools: Vec<Box<dyn Tool>>,
}

impl ToolChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a tool to the chain; tools observe events in insertion order.
    pub fn push(&mut self, tool: impl Tool + 'static) -> &mut Self {
        self.tools.push(Box::new(tool));
        self
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, tool: impl Tool + 'static) -> Self {
        self.tools.push(Box::new(tool));
        self
    }

    /// Number of tools in the chain.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// Returns `true` if the chain has no tools.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }
}

impl fmt::Debug for ToolChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ToolChain")
            .field(
                "tools",
                &self.tools.iter().map(|t| t.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Tool for ToolChain {
    fn name(&self) -> &'static str {
        "chain"
    }

    fn op(&mut self, index: usize, op: Op) {
        for tool in &mut self.tools {
            tool.op(index, op);
        }
    }

    fn end_of_trace(&mut self) {
        for tool in &mut self.tools {
            tool.end_of_trace();
        }
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        let mut all = Vec::new();
        for tool in &mut self.tools {
            all.extend(tool.take_warnings());
        }
        all.sort_by_key(|w| w.op_index);
        all
    }
}

/// The paper's "Empty" back-end: observes every event, does no analysis.
///
/// Used by the benchmark harness to isolate instrumentation overhead from
/// analysis overhead (Table 1's `Empty` column).
#[derive(Debug, Default, Clone)]
pub struct EmptyTool {
    ops_seen: u64,
    finished: bool,
}

impl EmptyTool {
    /// Creates an empty tool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of operations observed.
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Whether `end_of_trace` has been called.
    pub fn finished(&self) -> bool {
        self.finished
    }
}

impl Tool for EmptyTool {
    fn name(&self) -> &'static str {
        "empty"
    }

    fn op(&mut self, _index: usize, op: Op) {
        // Touch the operation so the call cannot be optimized away entirely.
        self.ops_seen = self.ops_seen.wrapping_add(1 + op.tid().raw() as u64 % 2);
    }

    fn end_of_trace(&mut self) {
        self.finished = true;
    }
}

/// Helper for tools that blame atomic blocks: deduplicates warnings per
/// label so each non-atomic method is reported once, mirroring how the
/// paper counts "non-atomic methods" rather than raw dynamic occurrences.
#[derive(Debug, Default)]
pub struct PerLabelDedup {
    reported: HashSet<Option<Label>>,
}

impl PerLabelDedup {
    /// Creates an empty deduplicator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` the first time each label is seen.
    pub fn first_report(&mut self, label: Option<Label>) -> bool {
        self.reported.insert(label)
    }
}

/// The warning bookkeeping of a race detector: every racy access is
/// counted, and the first on each variable becomes a warning whose text is
/// rendered from the trace's names when it is taken.
#[derive(Debug, Default)]
pub struct RaceLog {
    racy: HashSet<VarId>,
    /// Thread, variable, op index and kind of each pending warning.
    pending: Vec<(ThreadId, VarId, usize, &'static str)>,
    races_detected: u64,
    names: SymbolTable,
}

impl RaceLog {
    /// Counts a racy access of `thread` to `var`; `kind` is the tool's
    /// word for the race (`"write-read"`).
    pub fn report(&mut self, thread: ThreadId, var: VarId, op_index: usize, kind: &'static str) {
        self.races_detected += 1;
        if self.racy.insert(var) {
            self.pending.push((thread, var, op_index, kind));
        }
    }

    /// Racy accesses observed (before per-variable deduplication).
    pub fn races_detected(&self) -> u64 {
        self.races_detected
    }

    /// The variables reported racy so far.
    pub fn racy_vars(&self) -> &HashSet<VarId> {
        &self.racy
    }

    /// The names the pending warnings are rendered with ([`Tool::set_names`]).
    pub fn set_names(&mut self, names: SymbolTable) {
        self.names = names;
    }

    /// Removes the pending warnings as `tool`'s, each message
    /// `message(kind, var, thread)` with the variable and thread named.
    pub fn take_warnings(
        &mut self,
        tool: &'static str,
        message: fn(&str, &str, &str) -> String,
    ) -> Vec<Warning> {
        let names = &self.names;
        let warning = |(thread, var, op_index, kind)| Warning {
            tool,
            category: WarningCategory::Race,
            label: None,
            thread,
            op_index,
            message: message(kind, &names.var(var), &names.thread(thread)),
            details: None,
        };
        self.pending.drain(..).map(warning).collect()
    }
}

/// The warning bookkeeping of a tool that blames atomic blocks: each
/// thread's open blocks, one warning per transaction (blamed on its
/// outermost block) and, unless [`without_dedup`](Self::without_dedup),
/// per label, and a count of every violation.
#[derive(Debug, Default)]
pub struct BlockLog {
    /// Per thread: the open blocks' labels, outermost first, and whether
    /// the transaction they form was reported.
    threads: HashMap<ThreadId, (Vec<Label>, bool)>,
    /// Warn on every transaction, not only on each label's first.
    without_dedup: bool,
    dedup: PerLabelDedup,
    /// Thread, blamed label, op index and reason of each pending warning.
    pending: Vec<(ThreadId, Option<Label>, usize, &'static str)>,
    violations_detected: u64,
    names: SymbolTable,
}

impl BlockLog {
    /// A log reporting the first violation of every transaction.
    pub fn without_dedup() -> Self {
        Self {
            without_dedup: true,
            ..Self::default()
        }
    }

    /// `t` opens block `l`.
    pub fn begin(&mut self, t: ThreadId, l: Label) {
        let (stack, reported) = self.threads.entry(t).or_default();
        if stack.is_empty() {
            *reported = false;
        }
        stack.push(l);
    }

    /// `t` closes its innermost block. Returns whether its transaction ended.
    pub fn end(&mut self, t: ThreadId) -> bool {
        let (stack, _) = self.threads.entry(t).or_default();
        stack.pop();
        stack.is_empty()
    }

    /// Whether `t` is inside an atomic block.
    pub fn in_block(&self, t: ThreadId) -> bool {
        self.threads
            .get(&t)
            .is_some_and(|(stack, _)| !stack.is_empty())
    }

    /// Counts a violation by `t` inside its open transaction.
    pub fn violation(&mut self, t: ThreadId, op_index: usize, reason: &'static str) {
        self.violations_detected += 1;
        let (stack, reported) = self.threads.entry(t).or_default();
        if !std::mem::replace(reported, true) {
            let label = stack.first().copied();
            if self.without_dedup || self.dedup.first_report(label) {
                self.pending.push((t, label, op_index, reason));
            }
        }
    }

    /// Dynamic violations observed (before deduplication).
    pub fn violations_detected(&self) -> u64 {
        self.violations_detected
    }

    /// The names the pending warnings are rendered with ([`Tool::set_names`]).
    pub fn set_names(&mut self, names: SymbolTable) {
        self.names = names;
    }

    /// Removes the pending warnings as `tool`'s, each message
    /// `atomic block L {verdict}: {reason}`.
    pub fn take_warnings(&mut self, tool: &'static str, verdict: &str) -> Vec<Warning> {
        let names = &self.names;
        let warning = |(thread, label, op_index, reason): (_, Option<Label>, _, _)| {
            let block = label.map_or_else(|| "<?>".to_owned(), |l| names.label(l));
            Warning {
                tool,
                category: WarningCategory::Atomicity,
                label,
                thread,
                op_index,
                message: format!("atomic block {block} {verdict}: {reason}"),
                details: None,
            }
        };
        self.pending.drain(..).map(warning).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::TraceBuilder;

    struct Recorder {
        seen: Vec<usize>,
        warn_on: usize,
    }

    impl Tool for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn op(&mut self, index: usize, _op: Op) {
            self.seen.push(index);
        }
        fn take_warnings(&mut self) -> Vec<Warning> {
            vec![Warning {
                tool: "recorder",
                category: WarningCategory::Other,
                label: None,
                thread: ThreadId::new(0),
                op_index: self.warn_on,
                message: "test".into(),
                details: None,
            }]
        }
    }

    fn small_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.read("T1", "x").write("T2", "x").read("T1", "y");
        b.finish()
    }

    #[test]
    fn run_tool_feeds_all_ops_in_order() {
        let mut rec = Recorder {
            seen: vec![],
            warn_on: 0,
        };
        run_tool(&mut rec, &small_trace());
        assert_eq!(rec.seen, vec![0, 1, 2]);
    }

    #[test]
    fn empty_tool_counts_and_finishes() {
        let mut empty = EmptyTool::new();
        run_tool(&mut empty, &small_trace());
        assert!(empty.ops_seen() >= 3);
        assert!(empty.finished());
    }

    #[test]
    fn chain_broadcasts_and_merges_warnings() {
        let chain = ToolChain::new()
            .with(Recorder {
                seen: vec![],
                warn_on: 5,
            })
            .with(Recorder {
                seen: vec![],
                warn_on: 1,
            });
        let mut chain = chain;
        assert_eq!(chain.len(), 2);
        let warnings = run_tool(&mut chain, &small_trace());
        assert_eq!(warnings.len(), 2);
        // Sorted by op index.
        assert_eq!(warnings[0].op_index, 1);
        assert_eq!(warnings[1].op_index, 5);
    }

    #[test]
    fn dedup_reports_each_label_once() {
        let mut dedup = PerLabelDedup::new();
        let l = Some(Label::new(0));
        assert!(dedup.first_report(l));
        assert!(!dedup.first_report(l));
        assert!(dedup.first_report(Some(Label::new(1))));
        assert!(dedup.first_report(None));
        assert!(!dedup.first_report(None));
    }

    fn race_message(kind: &str, x: &str, t: &str) -> String {
        format!("{kind} race on {x} by {t}")
    }

    #[test]
    fn race_log_reports_each_variable_once_and_names_it_when_taken() {
        let mut log = RaceLog::default();
        let (t, x, y) = (ThreadId::new(1), VarId::new(0), VarId::new(1));
        log.report(t, x, 4, "write-write");
        log.report(t, x, 7, "read-write");
        let w = log.take_warnings("tool", race_message);
        assert_eq!(w.len(), 1);
        assert_eq!((w[0].op_index, w[0].thread), (4, t));
        assert_eq!(
            w[0].message, "write-write race on x0 by T1",
            "ids without names"
        );
        log.report(t, y, 9, "write-read");
        let mut names = SymbolTable::new();
        names.name_var(y, "count");
        names.name_thread(t, "worker");
        log.set_names(names);
        let w = log.take_warnings("tool", race_message);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].message, "write-read race on count by worker");
        assert_eq!(log.races_detected(), 3);
        assert_eq!(log.racy_vars().len(), 2);
    }

    #[test]
    fn block_log_reports_a_transaction_once_on_its_outermost_block() {
        let (t, outer, inner) = (ThreadId::new(0), Label::new(0), Label::new(1));
        let run = |log: &mut BlockLog| {
            for _ in 0..2 {
                log.begin(t, outer);
                log.begin(t, inner);
                log.violation(t, 2, "first");
                log.violation(t, 3, "second");
                assert!(!log.end(t) && log.in_block(t));
                assert!(log.end(t) && !log.in_block(t));
            }
            assert_eq!(log.violations_detected(), 4);
        };
        let mut deduped = BlockLog::default();
        run(&mut deduped);
        let w = deduped.take_warnings("tool", "is odd");
        assert_eq!(w.len(), 1, "one warning per label");
        assert_eq!(w[0].label, Some(outer));
        assert_eq!(w[0].message, "atomic block L0 is odd: first");
        let mut every = BlockLog::without_dedup();
        run(&mut every);
        let mut names = SymbolTable::new();
        names.name_label(outer, "Set.add");
        every.set_names(names);
        let w = every.take_warnings("tool", "is odd");
        assert_eq!(w.len(), 2, "one warning per transaction");
        assert_eq!(w[1].message, "atomic block Set.add is odd: first");
    }

    #[test]
    fn warning_display_mentions_tool_and_category() {
        let w = Warning {
            tool: "velodrome",
            category: WarningCategory::Atomicity,
            label: None,
            thread: ThreadId::new(1),
            op_index: 42,
            message: "cycle".into(),
            details: None,
        };
        let shown = w.to_string();
        assert!(shown.contains("velodrome"));
        assert!(shown.contains("atomicity"));
        assert!(shown.contains("42"));
    }

    #[test]
    fn boxed_tool_delegates() {
        let mut boxed: Box<dyn Tool> = Box::new(EmptyTool::new());
        boxed.op(
            0,
            Op::Read {
                t: ThreadId::new(0),
                x: velodrome_events::VarId::new(0),
            },
        );
        assert_eq!(boxed.name(), "empty");
        assert!(boxed.take_warnings().is_empty());
    }
}
