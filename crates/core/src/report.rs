//! Structured error reports for serializability violations.
//!
//! When Velodrome rejects a cycle-creating edge, it reconstructs the cycle
//! of transactions, decides via the edge timestamps whether the cycle is
//! *increasing* (Section 4.3) — in which case the current transaction is
//! provably not self-serializable and is blamed — and renders the result in
//! the paper's error-graph format: one box per transaction, each
//! happens-before edge labeled with the operation that generated it, the
//! cycle-closing edge dashed, and the blamed transaction outlined.

use crate::arena::{EdgeInfo, NodeDesc};
use serde::Serialize;
use velodrome_events::{Label, Op, SymbolTable};

/// A detected serializability violation: a cycle in the transactional
/// happens-before graph, with blame assignment.
///
/// `nodes[0]` is the current transaction (the one whose operation completed
/// the cycle); `edges[i]` runs from `nodes[i]` to `nodes[(i + 1) % n]`, so
/// the final edge is the rejected, cycle-closing edge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CycleReport {
    /// Transactions on the cycle, starting with the current transaction.
    pub nodes: Vec<NodeDesc>,
    /// Edges of the cycle; the last one is the rejected closing edge.
    pub edges: Vec<EdgeInfo>,
    /// Whether the cycle is increasing through every node other than the
    /// current transaction — the condition under which the current
    /// transaction is provably not self-serializable.
    pub increasing: bool,
    /// Index into `nodes` of the blamed transaction (always 0 when present).
    pub blamed: Option<usize>,
    /// Labels of the atomic blocks refuted by this cycle, outermost first.
    /// Only blocks containing both the cycle's root and target operations
    /// are refuted.
    pub refuted: Vec<Label>,
    /// Trace index of the operation that completed the cycle.
    pub op_index: usize,
}

impl CycleReport {
    /// The blamed transaction's outermost refuted label, if blame was
    /// assigned.
    pub fn blamed_label(&self) -> Option<Label> {
        self.blamed.and_then(|_| self.refuted.first().copied())
    }

    /// One-line human-readable summary.
    pub fn summary(&self, names: &SymbolTable) -> String {
        let method = label_text(self.blamed_label().or(self.nodes[0].label), names);
        let cycle: Vec<String> = self.nodes.iter().map(|n| node_text(n, names)).collect();
        let blame = if self.blamed.is_some() {
            "blamed"
        } else {
            "no single transaction blamed"
        };
        format!(
            "{method} is not atomic: cycle [{}] at op {} ({blame})",
            cycle.join(" -> "),
            self.op_index
        )
    }

    /// Renders the cycle as indented plain text: one line per
    /// happens-before edge, the closing edge marked, blame and refuted
    /// blocks listed.
    pub fn to_text(&self, names: &SymbolTable) -> String {
        let mut out = String::new();
        let count = self.nodes.len();
        for (i, e) in self.edges.iter().enumerate() {
            let closing = if i + 1 == self.edges.len() {
                "  (closes cycle)"
            } else {
                ""
            };
            out.push_str(&format!(
                "  {} --{}--> {}{closing}\n",
                node_text(&self.nodes[i], names),
                render_op(e.op, names),
                node_text(&self.nodes[(i + 1) % count], names),
            ));
        }
        match self.blamed {
            Some(i) => {
                let refuted: Vec<String> = self.refuted.iter().map(|&l| names.label(l)).collect();
                out.push_str(&format!(
                    "  blame: {} (refuted blocks: {})\n",
                    node_text(&self.nodes[i], names),
                    refuted.join(", ")
                ));
            }
            None => out.push_str("  no single transaction can be blamed\n"),
        }
        out
    }

    /// Renders the cycle as a Graphviz `dot` graph in the paper's format:
    /// boxed transactions, operation-labeled edges, a dashed closing edge,
    /// and a double-outlined blamed transaction.
    pub fn to_dot(&self, names: &SymbolTable) -> String {
        let mut out = String::from("digraph atomicity_violation {\n");
        out.push_str("  rankdir=TB;\n  node [shape=box, fontname=\"Helvetica\"];\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let peripheries = if self.blamed == Some(i) { 2 } else { 1 };
            out.push_str(&format!(
                "  t{i} [label=\"{}: {}\", peripheries={peripheries}];\n",
                names.thread(n.thread),
                label_text(n.label, names)
            ));
        }
        let n = self.nodes.len();
        for (i, e) in self.edges.iter().enumerate() {
            let style = if i + 1 == self.edges.len() {
                ", style=dashed"
            } else {
                ""
            };
            out.push_str(&format!(
                "  t{} -> t{} [label=\"{}\"{style}];\n",
                i,
                (i + 1) % n,
                render_op(e.op, names)
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// A block label's name, or `<unary>` for a transaction outside any block.
fn label_text(label: Option<Label>, names: &SymbolTable) -> String {
    label.map_or_else(|| "<unary>".to_owned(), |l| names.label(l))
}

/// A node as `thread:label`.
fn node_text(n: &NodeDesc, names: &SymbolTable) -> String {
    format!("{}:{}", names.thread(n.thread), label_text(n.label, names))
}

fn render_op(op: Op, names: &SymbolTable) -> String {
    match op {
        Op::Read { x, .. } => format!("rd({})", names.var(x)),
        Op::Write { x, .. } => format!("wr({})", names.var(x)),
        Op::Acquire { m, .. } => format!("acq({})", names.lock(m)),
        Op::Release { m, .. } => format!("rel({})", names.lock(m)),
        Op::Begin { l, .. } => format!("begin({})", names.label(l)),
        Op::End { .. } => "end".to_owned(),
        Op::Fork { child, .. } => format!("fork({})", names.thread(child)),
        Op::Join { child, .. } => format!("join({})", names.thread(child)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::{ThreadId, VarId};

    fn sample() -> CycleReport {
        CycleReport {
            nodes: vec![
                NodeDesc {
                    thread: ThreadId::new(0),
                    label: Some(Label::new(0)),
                    first_op: 0,
                },
                NodeDesc {
                    thread: ThreadId::new(1),
                    label: None,
                    first_op: 2,
                },
            ],
            edges: vec![
                EdgeInfo {
                    op: Op::Write {
                        t: ThreadId::new(1),
                        x: VarId::new(0),
                    },
                    op_index: 2,
                    from_ts: 1,
                    to_ts: 1,
                },
                EdgeInfo {
                    op: Op::Write {
                        t: ThreadId::new(0),
                        x: VarId::new(0),
                    },
                    op_index: 3,
                    from_ts: 1,
                    to_ts: 2,
                },
            ],
            increasing: true,
            blamed: Some(0),
            refuted: vec![Label::new(0)],
            op_index: 3,
        }
    }

    #[test]
    fn summary_names_blamed_method() {
        let mut names = SymbolTable::new();
        names.name_label(Label::new(0), "Set.add");
        let s = sample().summary(&names);
        assert!(s.contains("Set.add is not atomic"), "{s}");
        assert!(s.contains("blamed"), "{s}");
    }

    #[test]
    fn dot_marks_blame_and_dashed_closing_edge() {
        let mut names = SymbolTable::new();
        names.name_label(Label::new(0), "Set.add");
        names.name_var(VarId::new(0), "elems");
        let dot = sample().to_dot(&names);
        assert!(dot.contains("peripheries=2"), "{dot}");
        assert!(dot.contains("style=dashed"), "{dot}");
        assert!(dot.contains("wr(elems)"), "{dot}");
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn to_text_lists_edges_and_blame() {
        let mut names = SymbolTable::new();
        names.name_label(Label::new(0), "Set.add");
        names.name_var(VarId::new(0), "elems");
        let text = sample().to_text(&names);
        assert!(text.contains("closes cycle"), "{text}");
        assert!(text.contains("blame:"), "{text}");
        assert!(text.contains("Set.add"), "{text}");
        assert!(text.contains("wr(elems)"), "{text}");
    }

    #[test]
    fn unblamed_report_summary() {
        let mut report = sample();
        report.blamed = None;
        report.refuted.clear();
        let names = SymbolTable::new();
        let s = report.summary(&names);
        assert!(s.contains("no single transaction blamed"), "{s}");
    }

    #[test]
    fn reports_serialize_to_json() {
        let json = serde_json::to_string(&sample()).unwrap();
        assert!(json.contains("\"increasing\":true"), "{json}");
        assert!(json.contains("\"blamed\":0"), "{json}");
    }

    #[test]
    fn blamed_label_requires_blame() {
        let report = sample();
        assert_eq!(report.blamed_label(), Some(Label::new(0)));
        let mut unblamed = report;
        unblamed.blamed = None;
        assert_eq!(unblamed.blamed_label(), None);
    }
}
