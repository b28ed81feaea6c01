//! Property-based tests over arbitrary operation sequences: the event
//! model's invariants must hold even for traces no well-behaved program
//! would produce (segmentation and the oracle are total functions). The
//! JSON reader decodes a trace the same whichever of its two paths takes
//! each op and however the document is laid out, and the JSON writer
//! emits the serde encoding of a trace's parts however its ops are split
//! into blocks. The VBT reader's frame loop decodes, and rejects, exactly
//! what `VbtReader::next_op` alone does.

use proptest::prelude::*;
use std::collections::HashMap;
use std::io::Read;
use velodrome_events::vbt::{MAGIC, VERSION};
use velodrome_events::{
    oracle, read_json_trace, read_vbt, stream_trace, trace_to_vbt, JsonTraceWriter, Label, LockId,
    Op, SymbolTable, ThreadId, Trace, TraceStats, Transactions, VarId, VbtReader, FRAME_OPS,
};

fn arb_op() -> impl Strategy<Value = Op> {
    let t = (0u32..4).prop_map(ThreadId::new);
    let x = (0u32..3).prop_map(VarId::new);
    let m = (0u32..2).prop_map(LockId::new);
    let l = (0u32..3).prop_map(Label::new);
    prop_oneof![
        (t.clone(), x.clone()).prop_map(|(t, x)| Op::Read { t, x }),
        (t.clone(), x).prop_map(|(t, x)| Op::Write { t, x }),
        (t.clone(), m.clone()).prop_map(|(t, m)| Op::Acquire { t, m }),
        (t.clone(), m).prop_map(|(t, m)| Op::Release { t, m }),
        (t.clone(), l).prop_map(|(t, l)| Op::Begin { t, l }),
        t.prop_map(|t| Op::End { t }),
    ]
}

fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_op(), 0..max_len).prop_map(Trace::from_ops)
}

/// Ids at the edges of the JSON reader's digit handling (one digit, two
/// digits, and ten digits up to `u32::MAX`) and of VBT's varint lengths
/// (1 to 5 bytes).
fn arb_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(9),
        Just(10),
        Just(127),
        Just(128),
        Just(u32::MAX),
        0u32..20,
        128u32..1 << 21,
        1u32 << 21..1 << 28,
        1_000_000_000u32..=u32::MAX,
    ]
}

/// Any operation, `Fork` and `Join` included, over [`arb_id`] ids.
fn arb_wide_op() -> impl Strategy<Value = Op> {
    (0u8..8, arb_id(), arb_id()).prop_map(|(tag, t, v)| {
        let t = ThreadId::new(t);
        match tag {
            0 => Op::Read {
                t,
                x: VarId::new(v),
            },
            1 => Op::Write {
                t,
                x: VarId::new(v),
            },
            2 => Op::Acquire {
                t,
                m: LockId::new(v),
            },
            3 => Op::Release {
                t,
                m: LockId::new(v),
            },
            4 => Op::Begin {
                t,
                l: Label::new(v),
            },
            5 => Op::End { t },
            6 => Op::Fork {
                t,
                child: ThreadId::new(v),
            },
            _ => Op::Join {
                t,
                child: ThreadId::new(v),
            },
        }
    })
}

/// A trace of [`arb_wide_op`]s long enough to span many read chunks, with
/// names for some of its ids and some ops marked synthesized.
fn arb_wide_trace() -> impl Strategy<Value = Trace> {
    (
        prop::collection::vec(arb_wide_op(), 0..400),
        prop::collection::vec(any::<usize>(), 0..4),
    )
        .prop_map(|(ops, marks)| {
            let mut trace = Trace::from_ops(ops);
            for (i, op) in trace.ops().to_vec().into_iter().enumerate().take(8) {
                let names = trace.names_mut();
                names.name_thread(op.tid(), format!("worker {i}: \"a\", b"));
                if let Op::Read { x, .. } | Op::Write { x, .. } = op {
                    names.name_var(x, format!("v{i}"));
                }
            }
            if !trace.is_empty() {
                for mark in marks {
                    trace.mark_synthesized(mark % trace.len());
                }
            }
            trace
        })
}

/// Hands out `data` in chunks of the given sizes, in turn.
struct Chunked<'a> {
    data: &'a [u8],
    sizes: Vec<usize>,
    next: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = size.min(out.len()).min(self.data.len());
        out[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn chunked(data: &[u8], sizes: Vec<usize>) -> Chunked<'_> {
    Chunked {
        data,
        sizes,
        next: 0,
    }
}

/// The decoded trace in a form that compares ops, names and synthesized
/// indices at once.
fn decoded(trace: &Trace) -> (Vec<Op>, String, Vec<usize>) {
    (
        trace.ops().to_vec(),
        trace.to_json(),
        trace.synthesized().to_vec(),
    )
}

/// One op's JSON with the operand before `t` and, if `extra`, an unknown
/// field appended to its body.
fn reordered_op(op: Op, extra: bool) -> String {
    let (tag, operand) = match op {
        Op::Read { x, .. } => ("Read", Some(("x", x.raw()))),
        Op::Write { x, .. } => ("Write", Some(("x", x.raw()))),
        Op::Acquire { m, .. } => ("Acquire", Some(("m", m.raw()))),
        Op::Release { m, .. } => ("Release", Some(("m", m.raw()))),
        Op::Begin { l, .. } => ("Begin", Some(("l", l.raw()))),
        Op::End { .. } => ("End", None),
        Op::Fork { child, .. } => ("Fork", Some(("child", child.raw()))),
        Op::Join { child, .. } => ("Join", Some(("child", child.raw()))),
    };
    let mut fields: Vec<String> = operand
        .map(|(field, v)| format!("\"{field}\":{v}"))
        .into_iter()
        .collect();
    fields.push(format!("\"t\":{}", op.tid().raw()));
    if extra {
        fields.push(r#""note":[1.5,{"x":null},"t"]"#.to_owned());
    }
    format!("{{\"{tag}\":{{{}}}}}", fields.join(","))
}

/// What [`spaced`] inserts between tokens.
const WHITESPACE: [&str; 5] = ["", " ", "\n", "\t", "\r\n  "];

/// Inserts `ws` after every `{`, `[`, `,` and `:` outside strings, cycling
/// through it; an empty entry inserts nothing.
fn spaced(json: &str, ws: &[&str]) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let (mut in_string, mut escaped, mut k) = (false, false, 0);
    for c in json.chars() {
        out.push(c);
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else if c == '"' {
            in_string = true;
        } else if matches!(c, '{' | '[' | ',' | ':') && !ws.is_empty() {
            out.push_str(ws[k % ws.len()]);
            k += 1;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The JSON reader decodes a canonical document identically from a
    /// slice, from a 1-byte reader (the buffer never holds a fast-path
    /// margin, so only the general parser runs), and from a reader whose
    /// chunk edges fall inside ops.
    #[test]
    fn json_fast_path_matches_general_parser(
        trace in arb_wide_trace(),
        sizes in prop::collection::vec(65usize..5000, 1..8),
    ) {
        let json = trace.to_json();
        let bytes = json.as_bytes();
        let whole = decoded(&read_json_trace(bytes).unwrap());
        prop_assert_eq!(&whole, &decoded(&trace));
        let one_byte = read_json_trace(chunked(bytes, vec![1])).unwrap();
        prop_assert_eq!(&decoded(&one_byte), &whole);
        let chunks = read_json_trace(chunked(bytes, sizes)).unwrap();
        prop_assert_eq!(&decoded(&chunks), &whole);
    }

    /// Whitespace between tokens, the operand before `t`, and unknown
    /// fields in an op body all decode to the same trace. Canonical ops
    /// stay among the perturbed ones, so the fast path meets whitespace
    /// right after an op it matched.
    #[test]
    fn perturbed_json_decodes_to_the_same_trace(
        trace in arb_wide_trace(),
        shapes in prop::collection::vec(0u8..4, 1..16),
        ws in prop::collection::vec(0usize..WHITESPACE.len(), 1..8),
    ) {
        let ws: Vec<&str> = ws.into_iter().map(|i| WHITESPACE[i]).collect();
        let mut ops = String::new();
        for (i, (&op, shape)) in trace.ops().iter().zip(shapes.iter().cycle()).enumerate() {
            if i > 0 {
                ops += ws[i % ws.len()];
                ops.push(',');
                ops += ws[(i + 1) % ws.len()];
            }
            let canonical = serde_json::to_string(&op).unwrap();
            ops += &match shape {
                0 => canonical,
                1 => reordered_op(op, false),
                2 => reordered_op(op, true),
                _ => spaced(&canonical, &ws),
            };
        }
        let mut rest = format!("],\"names\":{}", serde_json::to_string(trace.names()).unwrap());
        if !trace.synthesized().is_empty() {
            rest += &format!(
                ",\"synthesized\":{}",
                serde_json::to_string(trace.synthesized()).unwrap()
            );
        }
        rest.push('}');
        let doc = spaced(r#"{"ops":["#, &ws) + &ops + &spaced(&rest, &ws);
        let back = read_json_trace(doc.as_bytes()).unwrap();
        prop_assert_eq!(decoded(&back), decoded(&trace));
    }
}

/// Writes `v` as a varint of at least `min_len` bytes: a shorter encoding
/// is padded with zero groups (`0x80 0x00` for 0 at `min_len` 2).
fn push_varint(out: &mut Vec<u8>, mut v: u64, min_len: usize) {
    let start = out.len();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 && out.len() + 1 - start >= min_len {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encodes `trace` as VBT the way `write_vbt` lays it out, except that
/// frame `k` holds `frame_ops[k % len]` ops and the `i`th id of the ops
/// takes at least `id_lens[i % len]` bytes.
fn vbt_with(trace: &Trace, frame_ops: &[usize], id_lens: &[usize]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.push(VERSION);
    let names = trace.names();
    for entries in [
        names.thread_entries(),
        names.var_entries(),
        names.lock_entries(),
        names.label_entries(),
    ] {
        push_varint(&mut out, entries.len() as u64, 0);
        for (id, name) in entries {
            push_varint(&mut out, id as u64, 0);
            push_varint(&mut out, name.len() as u64, 0);
            out.extend_from_slice(name.as_bytes());
        }
    }
    push_varint(&mut out, trace.synthesized().len() as u64, 0);
    let mut prev = 0;
    for &idx in trace.synthesized() {
        push_varint(&mut out, (idx - prev) as u64, 0);
        prev = idx + 1;
    }
    let (mut ops, mut ids) = (trace.ops(), 0);
    for &n in frame_ops.iter().cycle() {
        if ops.is_empty() {
            break;
        }
        let (frame, rest) = ops.split_at(n.min(ops.len()));
        ops = rest;
        let mut body = Vec::new();
        push_varint(&mut body, frame.len() as u64, 0);
        for &op in frame {
            let (tag, t, operand) = match op {
                Op::Read { t, x } => (0u8, t, Some(x.raw())),
                Op::Write { t, x } => (1, t, Some(x.raw())),
                Op::Acquire { t, m } => (2, t, Some(m.raw())),
                Op::Release { t, m } => (3, t, Some(m.raw())),
                Op::Begin { t, l } => (4, t, Some(l.raw())),
                Op::End { t } => (5, t, None),
                Op::Fork { t, child } => (6, t, Some(child.raw())),
                Op::Join { t, child } => (7, t, Some(child.raw())),
            };
            body.push(tag);
            for id in [Some(t.raw()), operand].into_iter().flatten() {
                push_varint(&mut body, id as u64, id_lens[ids % id_lens.len()]);
                ids += 1;
            }
        }
        push_varint(&mut out, body.len() as u64, 0);
        out.extend_from_slice(&body);
    }
    out.push(0);
    out
}

/// A trace from decoded parts, in the form [`decoded`] compares.
fn assembled(
    ops: Vec<Op>,
    names: &SymbolTable,
    synthesized: &[usize],
) -> (Vec<Op>, String, Vec<usize>) {
    let mut trace = Trace::from_ops(ops);
    *trace.names_mut() = names.clone();
    for &i in synthesized {
        trace.mark_synthesized(i);
    }
    decoded(&trace)
}

/// The reference decode: `VbtReader::next_op` alone, one op at a time,
/// then the end-of-stream bounds check on the synthesized indices that
/// `read_vbt` makes.
fn next_op_drain(bytes: &[u8]) -> Result<(Vec<Op>, String, Vec<usize>), String> {
    let mut r = VbtReader::new(bytes).map_err(|e| e.to_string())?;
    let mut ops = Vec::new();
    while let Some(op) = r.next_op().map_err(|e| e.to_string())? {
        ops.push(op);
    }
    if let Some(&last) = r.synthesized().iter().max() {
        if last >= ops.len() {
            return Err(format!(
                "byte {}: synthesized index {last} out of bounds for {} ops",
                bytes.len(),
                ops.len()
            ));
        }
    }
    Ok(assembled(ops, r.names(), r.synthesized()))
}

/// `read_vbt` and, if `bytes` opens with the VBT magic (otherwise it is
/// sniffed as JSON), `stream_trace`, both through `sizes`-byte reads, must
/// give what [`next_op_drain`] gives: the same trace or the same error.
fn assert_vbt_paths_agree(bytes: &[u8], sizes: &[usize]) {
    let want = next_op_drain(bytes);
    let read = read_vbt(chunked(bytes, sizes.to_vec()))
        .map(|t| decoded(&t))
        .map_err(|e| e.to_string());
    prop_assert_eq!(&read, &want);
    if bytes.starts_with(&MAGIC) {
        let mut ops = Vec::new();
        let streamed = stream_trace(chunked(bytes, sizes.to_vec()), |first, block| {
            assert_eq!(first, ops.len());
            ops.extend_from_slice(block);
        })
        .map(|summary| assembled(ops, &summary.names, &summary.synthesized))
        .map_err(|e| e.to_string());
        prop_assert_eq!(&streamed, &want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The VBT frame loop decodes what `next_op` decodes, over ids of 1 to
    /// 5 bytes, padded (non-canonical) ids up to 6 bytes, frames of random
    /// op counts and random read sizes. After one byte is overwritten, or
    /// the input is cut, both give the same trace or the same error at the
    /// same offset. The new byte values include the edges the frame loop
    /// tests for: the tag 8, a 5th varint byte of `0x10` and a byte that
    /// ends a varint early.
    #[test]
    fn vbt_frame_loop_matches_next_op(
        trace in arb_wide_trace(),
        frame_ops in prop::collection::vec(prop_oneof![1usize..4, 1usize..300], 1..6),
        id_lens in prop::collection::vec(
            prop_oneof![Just(0usize), Just(0), Just(0), Just(2), Just(5), Just(6)],
            1..16,
        ),
        sizes in prop::collection::vec(1usize..200, 1..8),
        damage in prop::collection::vec(
            (
                any::<usize>(),
                prop_oneof![Just(0u8), Just(7), Just(8), Just(0x0f), Just(0x10), Just(0x80), any::<u8>()],
                any::<bool>(),
            ),
            1..16,
        ),
    ) {
        prop_assert_eq!(vbt_with(&trace, &[FRAME_OPS], &[0]), trace_to_vbt(&trace));
        let bytes = vbt_with(&trace, &frame_ops, &id_lens);
        prop_assert_eq!(next_op_drain(&bytes), Ok(decoded(&trace)));
        assert_vbt_paths_agree(&bytes, &sizes);
        for (at, byte, cut) in damage {
            let mut bad = bytes.clone();
            let at = at % bad.len();
            if cut {
                bad.truncate(at);
            } else {
                bad[at] = byte;
            }
            assert_vbt_paths_agree(&bad, &sizes);
        }
    }
}

/// The document a trace must encode to, built from the serde encodings of
/// its parts: each op through `Op`'s derive, the names through
/// `SymbolTable`'s, and `synthesized` when it is non-empty.
fn pieced_json(trace: &Trace) -> String {
    let ops: Vec<String> = trace
        .ops()
        .iter()
        .map(|op| serde_json::to_string(op).unwrap())
        .collect();
    let mut doc = format!(
        "{{\"ops\":[{}],\"names\":{}",
        ops.join(","),
        serde_json::to_string(trace.names()).unwrap()
    );
    if !trace.synthesized().is_empty() {
        doc += &format!(
            ",\"synthesized\":{}",
            serde_json::to_string(trace.synthesized()).unwrap()
        );
    }
    doc + "}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Trace::to_json` writes the serde pieces byte for byte, and the
    /// writer fed the same ops in random blocks, empty ones included,
    /// writes the same bytes.
    #[test]
    fn json_writer_matches_serde_pieces_in_any_block_split(
        trace in arb_wide_trace(),
        cuts in prop::collection::vec(any::<usize>(), 0..8),
    ) {
        let want = pieced_json(&trace);
        prop_assert_eq!(&trace.to_json(), &want);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (trace.len() + 1)).collect();
        cuts.sort_unstable();
        let mut writer = JsonTraceWriter::new(Vec::new());
        let mut from = 0;
        for cut in cuts.into_iter().chain([trace.len()]) {
            writer.ops(&trace.ops()[from..cut]).unwrap();
            from = cut;
        }
        let out = writer.finish(trace.names(), trace.synthesized()).unwrap();
        prop_assert_eq!(String::from_utf8(out).unwrap(), want);
    }
}

/// A trace many times the writer's 64 KiB buffer comes out the same
/// whether its ops arrive at once or in uneven blocks.
#[test]
fn json_writer_output_does_not_depend_on_buffer_edges() {
    let mut trace: Trace = (0..20_000u32)
        .map(|i| {
            let t = ThreadId::new(i % 5 * 999_999_999);
            match i % 4 {
                0 => Op::Fork {
                    t,
                    child: ThreadId::new(u32::MAX - i),
                },
                1 => Op::Read {
                    t,
                    x: VarId::new(i),
                },
                2 => Op::End { t },
                _ => Op::Begin {
                    t,
                    l: Label::new(i % 3),
                },
            }
        })
        .collect();
    trace.names_mut().name_thread(ThreadId::new(0), "main");
    trace.mark_synthesized(0);
    trace.mark_synthesized(19_999);
    let want = pieced_json(&trace);
    assert!(want.len() > 8 * 64 * 1024);
    assert_eq!(trace.to_json(), want);
    let mut writer = JsonTraceWriter::new(Vec::new());
    for block in trace.ops().chunks(777) {
        writer.ops(&[]).unwrap();
        writer.ops(block).unwrap();
    }
    let out = writer.finish(trace.names(), trace.synthesized()).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The conflict relation is symmetric and reflexive.
    #[test]
    fn conflicts_symmetric_and_reflexive(a in arb_op(), b in arb_op()) {
        prop_assert_eq!(a.conflicts_with(b), b.conflicts_with(a));
        prop_assert!(a.conflicts_with(a), "same thread ⇒ self-conflict");
    }

    /// Segmentation covers every operation exactly once and transactions
    /// are per-thread, ordered, and non-empty.
    #[test]
    fn segmentation_is_a_partition(trace in arb_trace(40)) {
        let txns = Transactions::segment(&trace);
        prop_assert_eq!(txns.op_txns().len(), trace.len());
        let mut counted = 0;
        for info in txns.txns() {
            prop_assert!(info.op_count > 0, "transactions are non-empty");
            prop_assert!(info.first_op <= info.last_op);
            counted += info.op_count;
            let ops = txns.ops_of(info.id);
            prop_assert_eq!(ops.len(), info.op_count);
            prop_assert_eq!(ops.first().copied(), Some(info.first_op));
            prop_assert_eq!(ops.last().copied(), Some(info.last_op));
            for &i in &ops {
                // Every op of the transaction belongs to its thread.
                prop_assert_eq!(trace.get(i).unwrap().tid(), info.thread);
            }
        }
        prop_assert_eq!(counted, trace.len());
    }

    /// A serial trace is always serializable, and a trace whose threads
    /// touch disjoint variables (no locks) is always serializable.
    #[test]
    fn disjoint_threads_are_serializable(ops in prop::collection::vec(
        ((0u32..3), (0u32..2), any::<bool>()), 0..30))
    {
        let mut trace = Trace::new();
        for (t, xi, w) in ops {
            // Each thread gets its own variable namespace.
            let x = VarId::new(t * 10 + xi);
            let t = ThreadId::new(t);
            trace.push(if w { Op::Write { t, x } } else { Op::Read { t, x } });
        }
        prop_assert!(oracle::is_serializable(&trace));
    }

    /// The oracle's witness cycle is genuine: consecutive transactions on
    /// the cycle are connected by a conflicting operation pair in order.
    #[test]
    fn oracle_cycles_are_witnessed(trace in arb_trace(40)) {
        let result = oracle::check(&trace);
        if let Some(cycle) = result.cycle {
            prop_assert!(!result.serializable);
            prop_assert!(cycle.len() >= 2, "non-trivial cycle");
            let txns = Transactions::segment(&trace);
            for k in 0..cycle.len() {
                let a = cycle[k];
                let b = cycle[(k + 1) % cycle.len()];
                prop_assert_ne!(a, b);
                // There is a conflicting pair (i < j) with i ∈ a, j ∈ b.
                let mut found = false;
                'outer: for &i in &txns.ops_of(a) {
                    for &j in &txns.ops_of(b) {
                        if i < j
                            && trace.get(i).unwrap().conflicts_with(trace.get(j).unwrap())
                        {
                            found = true;
                            break 'outer;
                        }
                    }
                }
                prop_assert!(found, "edge {a} -> {b} has no witnessing conflict");
            }
        }
    }

    /// Statistics are internally consistent.
    #[test]
    fn stats_are_consistent(trace in arb_trace(50)) {
        let s = TraceStats::compute(&trace);
        prop_assert_eq!(
            s.ops,
            s.reads + s.writes + s.acquires + s.releases + s.begins + s.ends
                + s.forks + s.joins
        );
        prop_assert!(s.unary_transactions <= s.transactions);
        prop_assert!(s.max_transaction_ops <= s.ops);
        let txns = Transactions::segment(&trace);
        prop_assert_eq!(s.transactions, txns.len());
    }

    /// Conflict serializability implies view serializability (the classic
    /// strict inclusion; the converse fails on blind writes).
    #[test]
    fn conflict_implies_view_serializable(trace in arb_trace(12)) {
        prop_assume!(oracle::is_serializable(&trace));
        if let Ok(view) = oracle::view_serializable(&trace, 50_000) {
            prop_assert!(view, "conflict-serializable but not view-serializable:\n{trace}");
        }
    }

    /// JSON serialization round-trips arbitrary traces.
    #[test]
    fn json_roundtrip(trace in arb_trace(30)) {
        let back = Trace::from_json(&trace.to_json()).unwrap();
        prop_assert_eq!(back.ops(), trace.ops());
    }

    /// Swapping one adjacent commuting pair never changes the verdict.
    #[test]
    fn single_swap_preserves_verdict(trace in arb_trace(25), pos in 0usize..24) {
        let ops = trace.ops();
        prop_assume!(ops.len() >= 2);
        let i = pos % (ops.len() - 1);
        prop_assume!(ops[i].commutes_with(ops[i + 1]));
        let mut swapped: Vec<Op> = ops.to_vec();
        swapped.swap(i, i + 1);
        let swapped = Trace::from_ops(swapped);
        prop_assert_eq!(
            oracle::is_serializable(&trace),
            oracle::is_serializable(&swapped)
        );
    }
}

/// Name pieces: ASCII, JSON escapes and multi-byte UTF-8.
const NAME_PIECES: [&str; 7] = ["a", "7", "\"q\"", "\\", "é", "😀", "\t"];

/// One name registration: kind (threads, vars, locks, labels), id, name.
/// Ids come from a small range so that they repeat, or from [`arb_id`].
fn arb_insert() -> impl Strategy<Value = (usize, u32, String)> {
    let name = prop::collection::vec(0..NAME_PIECES.len(), 0..4)
        .prop_map(|pieces| pieces.into_iter().map(|i| NAME_PIECES[i]).collect());
    (0usize..4, prop_oneof![0u32..6, arb_id()], name)
}

/// The reference a `SymbolTable` must match: four `HashMap`s in which the
/// last insert of an id wins. Its serde encoding is the table's.
#[derive(Default, serde::Serialize)]
struct NamesModel {
    threads: HashMap<u32, String>,
    vars: HashMap<u32, String>,
    locks: HashMap<u32, String>,
    labels: HashMap<u32, String>,
}

impl NamesModel {
    fn kind(&mut self, kind: usize) -> &mut HashMap<u32, String> {
        [
            &mut self.threads,
            &mut self.vars,
            &mut self.locks,
            &mut self.labels,
        ]
        .into_iter()
        .nth(kind)
        .unwrap()
    }
}

/// Checks every lookup, fallback and entry list of `names` against `model`.
fn assert_names_match(names: &SymbolTable, model: &mut NamesModel) {
    assert_eq!(
        serde_json::to_string(names).unwrap(),
        serde_json::to_string(&*model).unwrap()
    );
    for kind in 0..4 {
        let map = model.kind(kind);
        let mut want: Vec<(u32, &str)> = map.iter().map(|(&id, n)| (id, n.as_str())).collect();
        want.sort_unstable();
        let got: Vec<(u32, &str)> = match kind {
            0 => names.thread_entries().collect(),
            1 => names.var_entries().collect(),
            2 => names.lock_entries().collect(),
            _ => names.label_entries().collect(),
        };
        assert_eq!(got, want, "kind {kind}");
        let probes = want.iter().flat_map(|&(id, _)| [id, id.wrapping_add(1)]);
        for id in probes.chain([0, 5, u32::MAX]) {
            let (got, fallback) = match kind {
                0 => (
                    names.thread(ThreadId::new(id)),
                    ThreadId::new(id).to_string(),
                ),
                1 => (names.var(VarId::new(id)), VarId::new(id).to_string()),
                2 => (names.lock(LockId::new(id)), LockId::new(id).to_string()),
                _ => (names.label(Label::new(id)), Label::new(id).to_string()),
            };
            assert_eq!(
                got,
                map.get(&id).cloned().unwrap_or(fallback),
                "kind {kind} id {id}"
            );
        }
    }
}

/// A JSON document and a VBT stream listing `inserts` in their order,
/// duplicate ids included, with no ops.
fn names_documents(inserts: &[(usize, u32, String)]) -> (String, Vec<u8>) {
    let mut json = String::from(r#"{"ops":[],"names":{"#);
    let mut vbt = MAGIC.to_vec();
    vbt.push(VERSION);
    for (kind, field) in ["threads", "vars", "locks", "labels"].iter().enumerate() {
        let of_kind: Vec<&(usize, u32, String)> =
            inserts.iter().filter(|(k, _, _)| *k == kind).collect();
        let pairs: Vec<String> = of_kind
            .iter()
            .map(|(_, id, name)| format!("\"{id}\":{}", serde_json::to_string(name).unwrap()))
            .collect();
        let sep = if kind == 0 { "" } else { "," };
        json += &format!("{sep}\"{field}\":{{{}}}", pairs.join(","));
        push_varint(&mut vbt, of_kind.len() as u64, 0);
        for (_, id, name) in of_kind {
            push_varint(&mut vbt, u64::from(*id), 0);
            push_varint(&mut vbt, name.len() as u64, 0);
            vbt.extend_from_slice(name.as_bytes());
        }
    }
    json += "}}";
    vbt.extend_from_slice(&[0, 0]); // no synthesized ops, end of trace
    (json, vbt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Names registered in ascending, descending, string or random id
    /// order, with repeated ids, read back as a `HashMap` model holds them
    /// (the last insert wins): through `name_*`, through the JSON and VBT
    /// writers and readers, and from documents that list the inserts in
    /// that order.
    #[test]
    fn symbol_table_matches_a_hashmap_model(
        inserts in prop::collection::vec(arb_insert(), 0..40),
        order in 0u8..4,
    ) {
        let mut inserts = inserts;
        match order {
            0 => inserts.sort_by_key(|&(_, id, _)| id),
            1 => inserts.sort_by_key(|&(_, id, _)| std::cmp::Reverse(id)),
            2 => inserts.sort_by_key(|&(_, id, _)| id.to_string()),
            _ => {}
        }
        let mut model = NamesModel::default();
        let mut names = SymbolTable::new();
        for (kind, id, name) in &inserts {
            model.kind(*kind).insert(*id, name.clone());
            match kind {
                0 => names.name_thread(ThreadId::new(*id), name),
                1 => names.name_var(VarId::new(*id), name),
                2 => names.name_lock(LockId::new(*id), name),
                _ => names.name_label(Label::new(*id), name.as_str()),
            }
        }
        assert_names_match(&names, &mut model);

        let mut trace = Trace::new();
        *trace.names_mut() = names;
        assert_names_match(Trace::from_json(&trace.to_json()).unwrap().names(), &mut model);
        assert_names_match(read_vbt(&trace_to_vbt(&trace)[..]).unwrap().names(), &mut model);

        let (json, vbt) = names_documents(&inserts);
        assert_names_match(read_json_trace(json.as_bytes()).unwrap().names(), &mut model);
        assert_names_match(read_vbt(&vbt[..]).unwrap().names(), &mut model);
    }
}
