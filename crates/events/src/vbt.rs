//! VBT — the Velodrome binary trace format.
//!
//! JSON traces are convenient to inspect but expensive to ingest: every
//! operation costs dozens of text bytes and a trip through a generic
//! parser. VBT is the compact wire format for fleet-scale checking:
//! varint-encoded operations, string tables for names, and length-prefixed
//! frames that a reader can stream without ever materializing the whole
//! file.
//!
//! # Wire layout
//!
//! All integers are unsigned LEB128 varints unless stated otherwise.
//!
//! ```text
//! magic      4 bytes  b"VBTF"
//! version    1 byte   0x01
//! tables     4 string tables, in order: threads, vars, locks, labels
//!              each: count, then count × (id, len, len bytes of UTF-8)
//! synth      count, then count × delta         (see below)
//! frames     repeated: body_len, body          (body_len = 0 terminates)
//!              body: op_count, then op_count × op
//!              op: tag byte, then operands as varints
//! ```
//!
//! Synthesized indices are strictly increasing, so they are delta-coded:
//! `index = prev + delta` and `prev = index + 1` after each. Operation
//! tags and operands:
//!
//! | tag | op      | operands     |
//! |-----|---------|--------------|
//! | 0   | Read    | `t`, `x`     |
//! | 1   | Write   | `t`, `x`     |
//! | 2   | Acquire | `t`, `m`     |
//! | 3   | Release | `t`, `m`     |
//! | 4   | Begin   | `t`, `l`     |
//! | 5   | End     | `t`          |
//! | 6   | Fork    | `t`, `child` |
//! | 7   | Join    | `t`, `child` |
//!
//! A zero-length frame is the end-of-trace sentinel; trailing bytes after
//! it are an error, so truncation anywhere is detected. Hostile inputs are
//! bounded everywhere: names over [`MAX_NAME_LEN`], tables over
//! [`MAX_TABLE_ENTRIES`], and frames over [`MAX_FRAME_LEN`] are rejected
//! as string-table / frame overflows rather than allocated.
//!
//! Every error carries the absolute byte offset of the first
//! uninterpretable byte, matching the streaming JSON reader
//! ([`crate::stream`]).

use crate::ids::{NameError, SymbolTable, SymbolTableBuilder, KINDS};
use crate::op::Op;
use crate::stream::{validate_synthesized, Blocks, ByteStream, TraceReadError, TraceSummary};
use crate::trace::Trace;
use crate::{Label, LockId, ThreadId, VarId};
use std::io::{Read, Write};

/// The four magic bytes opening every VBT stream.
pub const MAGIC: [u8; 4] = *b"VBTF";
/// The format version this module reads and writes.
pub const VERSION: u8 = 1;
/// Longest accepted name in a string table, in bytes.
pub const MAX_NAME_LEN: u64 = 1 << 20;
/// Most entries accepted in one string table.
pub const MAX_TABLE_ENTRIES: u64 = 1 << 24;
/// Largest accepted frame body, in bytes.
pub const MAX_FRAME_LEN: u64 = 1 << 22;

/// Operations encoded per frame by the writer (readers accept any split).
pub const FRAME_OPS: usize = 4096;

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn push_op(out: &mut Vec<u8>, op: Op) {
    let (tag, a, b) = match op {
        Op::Read { t, x } => (0u8, t.raw(), Some(x.raw())),
        Op::Write { t, x } => (1, t.raw(), Some(x.raw())),
        Op::Acquire { t, m } => (2, t.raw(), Some(m.raw())),
        Op::Release { t, m } => (3, t.raw(), Some(m.raw())),
        Op::Begin { t, l } => (4, t.raw(), Some(l.raw())),
        Op::End { t } => (5, t.raw(), None),
        Op::Fork { t, child } => (6, t.raw(), Some(child.raw())),
        Op::Join { t, child } => (7, t.raw(), Some(child.raw())),
    };
    out.push(tag);
    push_varint(out, a as u64);
    if let Some(b) = b {
        push_varint(out, b as u64);
    }
}

/// Encodes `trace` as VBT into `w`. Writes the header and string tables,
/// then the operations in bounded frames, so memory use is independent of
/// trace length.
pub fn write_vbt<W: Write>(mut w: W, trace: &Trace) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(64 * 1024);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    for entries in trace.names().kinds() {
        push_varint(&mut buf, entries.len() as u64);
        for (id, name) in entries {
            push_varint(&mut buf, id as u64);
            push_varint(&mut buf, name.len() as u64);
            buf.extend_from_slice(name.as_bytes());
        }
    }
    push_varint(&mut buf, trace.synthesized().len() as u64);
    let mut prev = 0u64;
    for &idx in trace.synthesized() {
        push_varint(&mut buf, idx as u64 - prev);
        prev = idx as u64 + 1;
    }
    w.write_all(&buf)?;
    let mut body = Vec::with_capacity(FRAME_OPS * 6);
    for chunk in trace.ops().chunks(FRAME_OPS) {
        body.clear();
        push_varint(&mut body, chunk.len() as u64);
        for &op in chunk {
            push_op(&mut body, op);
        }
        buf.clear();
        push_varint(&mut buf, body.len() as u64);
        w.write_all(&buf)?;
        w.write_all(&body)?;
    }
    // End-of-trace sentinel.
    w.write_all(&[0])?;
    Ok(())
}

/// Encodes `trace` as a VBT byte vector.
pub fn trace_to_vbt(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    write_vbt(&mut out, trace).expect("writing to a Vec cannot fail");
    out
}

/// Reads a complete VBT trace from `src`.
pub fn read_vbt<R: Read>(src: R) -> Result<Trace, TraceReadError> {
    crate::stream::read_vbt_trace(src)
}

/// A streaming VBT reader.
///
/// [`VbtReader::new`] consumes the header, string tables, and synthesized
/// indices; [`VbtReader::next_op`] then decodes operations one at a time
/// from length-prefixed frames. Each frame body (≤ [`MAX_FRAME_LEN`]) is
/// copied out of the read buffer into one frame buffer, reused for every
/// frame, so arbitrarily long traces stream through a fixed footprint.
/// The buffer grows with the body's bytes as they arrive, never with a
/// length the input only claims.
/// [`read_vbt`] and [`crate::stream_trace`] decode each loaded frame in a
/// tight loop over that buffer and hand any op the loop does not accept
/// to `next_op`, which stays the reference decoder: both give the same
/// operations, errors and byte offsets.
pub struct VbtReader<R> {
    s: ByteStream<R>,
    names: SymbolTable,
    synthesized: Vec<usize>,
    /// Current frame body.
    frame: Vec<u8>,
    /// Next undecoded byte within `frame`.
    frame_pos: usize,
    /// Absolute stream offset of `frame[0]`.
    frame_base: u64,
    /// Operations still to decode from the current frame.
    frame_ops_left: u64,
    /// Set once the end-of-trace sentinel has been consumed.
    finished: bool,
    ops_read: usize,
}

impl<R: Read> VbtReader<R> {
    /// Opens a VBT stream: checks the magic and version, then reads the
    /// string tables and synthesized indices.
    pub fn new(src: R) -> Result<Self, TraceReadError> {
        Self::from_stream(ByteStream::new(src))
    }

    pub(crate) fn from_stream(mut s: ByteStream<R>) -> Result<Self, TraceReadError> {
        let mut magic = [0u8; 4];
        s.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(TraceReadError::malformed(
                0,
                format!("bad magic {magic:02x?}: not a VBT trace"),
            ));
        }
        let mut version = [0u8; 1];
        s.read_exact(&mut version)?;
        if version[0] != VERSION {
            return Err(TraceReadError::malformed(
                4,
                format!(
                    "unsupported VBT version {} (expected {VERSION})",
                    version[0]
                ),
            ));
        }
        let mut names = SymbolTableBuilder::default();
        for kind in 0..KINDS.len() {
            Self::read_table(&mut s, kind, &mut names)?;
        }
        let names = names.finish();
        let count = read_varint(&mut s)?;
        if count > MAX_TABLE_ENTRIES {
            return Err(TraceReadError::malformed(
                s.offset(),
                format!("synthesized-index overflow: {count} entries exceed {MAX_TABLE_ENTRIES}"),
            ));
        }
        // `count` is bounded but still input-controlled: grow as deltas
        // actually arrive instead of preallocating for it.
        let mut synthesized = Vec::new();
        let mut prev = 0u64;
        for _ in 0..count {
            let delta = read_varint(&mut s)?;
            let idx = prev.checked_add(delta).ok_or_else(|| {
                TraceReadError::malformed(s.offset(), "synthesized index overflows")
            })?;
            synthesized.push(usize::try_from(idx).map_err(|_| {
                TraceReadError::malformed(s.offset(), "synthesized index overflows")
            })?);
            prev = idx + 1;
        }
        Ok(Self {
            s,
            names,
            synthesized,
            frame: Vec::new(),
            frame_pos: 0,
            frame_base: 0,
            frame_ops_left: 0,
            finished: false,
            ops_read: 0,
        })
    }

    /// Reads one string table into `names`, copying each name's bytes
    /// from the stream into the table's text as they arrive.
    fn read_table(
        s: &mut ByteStream<R>,
        kind: usize,
        names: &mut SymbolTableBuilder,
    ) -> Result<(), TraceReadError> {
        let count = read_varint(s)?;
        if count > MAX_TABLE_ENTRIES {
            return Err(TraceReadError::malformed(
                s.offset(),
                format!("string-table overflow: {count} entries exceed {MAX_TABLE_ENTRIES}"),
            ));
        }
        for _ in 0..count {
            let id = read_varint(s)?;
            let id = u32::try_from(id).map_err(|_| {
                TraceReadError::malformed(s.offset(), format!("identifier {id} out of range"))
            })?;
            let len = read_varint(s)?;
            if len > MAX_NAME_LEN {
                return Err(TraceReadError::malformed(
                    s.offset(),
                    format!("string-table overflow: name of {len} bytes exceeds {MAX_NAME_LEN}"),
                ));
            }
            let start = s.offset();
            s.read_append(names.text(), len as usize)?;
            names.push(kind, id).map_err(|e| match e {
                NameError::NotUtf8 => {
                    TraceReadError::malformed(start, "string-table entry is not valid UTF-8")
                }
                NameError::TooLong => TraceReadError::malformed(
                    start,
                    "string-table overflow: names exceed 4 GiB in all",
                ),
            })?;
        }
        Ok(())
    }

    /// The trace's symbol table (available before any operation is read).
    pub fn names(&self) -> &SymbolTable {
        &self.names
    }

    /// Sorted indices of synthesized operations. Bounds against the
    /// operation count are validated once the final frame has been read.
    pub fn synthesized(&self) -> &[usize] {
        &self.synthesized
    }

    /// Operations decoded so far.
    pub fn ops_read(&self) -> usize {
        self.ops_read
    }

    fn frame_offset(&self) -> u64 {
        self.frame_base + self.frame_pos as u64
    }

    fn frame_varint(&mut self) -> Result<u64, TraceReadError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = self.frame.get(self.frame_pos) else {
                return Err(TraceReadError::malformed(
                    self.frame_offset(),
                    "truncated frame: varint runs past the frame body",
                ));
            };
            self.frame_pos += 1;
            if shift >= 63 && byte > 1 {
                return Err(TraceReadError::malformed(
                    self.frame_offset(),
                    "varint overflows 64 bits",
                ));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn frame_id(&mut self, what: &str) -> Result<u32, TraceReadError> {
        let v = self.frame_varint()?;
        u32::try_from(v).map_err(|_| {
            TraceReadError::malformed(self.frame_offset(), format!("{what} {v} out of range"))
        })
    }

    /// The fast path of [`Self::stream`]: decodes the rest of the current
    /// frame into `blocks` in one loop over the frame body. It accepts an
    /// op whose tag is 0–7 and whose ids are 1- to 5-byte varints that fit
    /// a `u32`, and takes the frame's last op only if it ends the body.
    /// At the first op it does not accept it stops without consuming it,
    /// so [`Self::next_op`] decodes (or rejects) that op at the same
    /// offset, with the same message.
    fn fast_frame<F: FnMut(usize, &[Op])>(&mut self, blocks: &mut Blocks<F>) {
        let body = self.frame.as_slice();
        let mut pos = self.frame_pos;
        let mut left = self.frame_ops_left;
        while left > 0 {
            let Some((op, end)) = fast_op(body, pos) else {
                break;
            };
            if left == 1 && end != body.len() {
                break;
            }
            blocks.push(op);
            pos = end;
            left -= 1;
        }
        self.ops_read += (self.frame_ops_left - left) as usize;
        self.frame_pos = pos;
        self.frame_ops_left = left;
    }

    /// Decodes the next operation, or `None` after the end-of-trace
    /// sentinel.
    pub fn next_op(&mut self) -> Result<Option<Op>, TraceReadError> {
        loop {
            if self.frame_ops_left > 0 {
                let op = self.decode_op()?;
                self.frame_ops_left -= 1;
                if self.frame_ops_left == 0 && self.frame_pos != self.frame.len() {
                    return Err(TraceReadError::malformed(
                        self.frame_offset(),
                        format!(
                            "frame has {} trailing bytes after its last operation",
                            self.frame.len() - self.frame_pos
                        ),
                    ));
                }
                self.ops_read += 1;
                return Ok(Some(op));
            }
            if self.finished {
                return Ok(None);
            }
            let len = read_varint(&mut self.s)?;
            if len == 0 {
                self.finished = true;
                if self.s.peek()?.is_some() {
                    return Err(TraceReadError::malformed(
                        self.s.offset(),
                        "trailing data after end-of-trace frame",
                    ));
                }
                return Ok(None);
            }
            if len > MAX_FRAME_LEN {
                return Err(TraceReadError::malformed(
                    self.s.offset(),
                    format!("frame of {len} bytes exceeds {MAX_FRAME_LEN}"),
                ));
            }
            self.frame_base = self.s.offset();
            self.frame.clear();
            self.s.read_append(&mut self.frame, len as usize)?;
            self.frame_pos = 0;
            self.frame_ops_left = self.frame_varint()?;
            if self.frame_ops_left == 0 {
                return Err(TraceReadError::malformed(
                    self.frame_base,
                    "frame declares zero operations",
                ));
            }
        }
    }

    fn decode_op(&mut self) -> Result<Op, TraceReadError> {
        let Some(&tag) = self.frame.get(self.frame_pos) else {
            return Err(TraceReadError::malformed(
                self.frame_offset(),
                "truncated frame: operation tag missing",
            ));
        };
        self.frame_pos += 1;
        let t = ThreadId::new(self.frame_id("thread id")?);
        Ok(match tag {
            0 => Op::Read {
                t,
                x: VarId::new(self.frame_id("variable id")?),
            },
            1 => Op::Write {
                t,
                x: VarId::new(self.frame_id("variable id")?),
            },
            2 => Op::Acquire {
                t,
                m: LockId::new(self.frame_id("lock id")?),
            },
            3 => Op::Release {
                t,
                m: LockId::new(self.frame_id("lock id")?),
            },
            4 => Op::Begin {
                t,
                l: Label::new(self.frame_id("label id")?),
            },
            5 => Op::End { t },
            6 => Op::Fork {
                t,
                child: ThreadId::new(self.frame_id("thread id")?),
            },
            7 => Op::Join {
                t,
                child: ThreadId::new(self.frame_id("thread id")?),
            },
            other => {
                return Err(TraceReadError::malformed(
                    self.frame_base + self.frame_pos as u64 - 1,
                    format!("unknown operation tag {other}"),
                ))
            }
        })
    }

    /// Drains the remaining operations into `blocks`, then validates the
    /// synthesized indices against the final operation count.
    ///
    /// [`Self::fast_frame`] decodes each loaded frame; every op it does not
    /// accept, and every frame load, goes through [`Self::next_op`].
    pub(crate) fn stream<F: FnMut(usize, &[Op])>(
        mut self,
        blocks: &mut Blocks<F>,
    ) -> Result<TraceSummary, TraceReadError> {
        loop {
            self.fast_frame(blocks);
            match self.next_op()? {
                Some(op) => blocks.push(op),
                None => break,
            }
        }
        blocks.flush();
        let synthesized = validate_synthesized(self.synthesized, self.ops_read, self.s.offset())?;
        Ok(TraceSummary {
            names: self.names,
            synthesized,
            ops: self.ops_read,
        })
    }
}

/// Decodes the op at `body[pos..]` for [`VbtReader::fast_frame`] and
/// returns it with the offset just past it, or `None` for a tag above 7 or
/// an id [`fast_id`] does not accept.
#[inline(always)]
fn fast_op(body: &[u8], pos: usize) -> Option<(Op, usize)> {
    let tag = *body.get(pos)?;
    if tag > 7 {
        return None;
    }
    let (t, pos) = fast_id(body, pos + 1)?;
    // Every tag but `End` (5) has an operand. It is read for `End` too,
    // where it is the next op's first byte and is not consumed. No branch
    // depends on the tag: the end offset is picked with a mask, because an
    // `if` compiles to a branch here (its result feeds the next op).
    let (v, after) = match fast_id(body, pos) {
        Some(operand) => operand,
        None if tag == 5 => (0, pos),
        None => return None,
    };
    let end_mask = usize::from(tag == 5).wrapping_neg();
    let end = after ^ ((after ^ pos) & end_mask);
    Some((op_of(tag, ThreadId::new(t), v), end))
}

/// The op with tag `tag` (0–7), thread `t` and operand `v`, which `End`
/// ignores. It is built by selects on the tag's bits, which compile to
/// conditional moves, not by a `match`, which compiles to a jump on the
/// tag. Tags change from op to op in real traces, so that jump is often
/// mispredicted: over the workload models' traces the frame loop took
/// ≈8–10 ns/event with a `match` and ≈3.5–4.5 with the selects.
#[inline(always)]
fn op_of(tag: u8, t: ThreadId, v: u32) -> Op {
    let pick = |bit: u8, clear: Op, set: Op| if tag & bit == 0 { clear } else { set };
    let (x, m, l, child) = (
        VarId::new(v),
        LockId::new(v),
        Label::new(v),
        ThreadId::new(v),
    );
    pick(
        4,
        pick(
            2,
            pick(1, Op::Read { t, x }, Op::Write { t, x }),
            pick(1, Op::Acquire { t, m }, Op::Release { t, m }),
        ),
        pick(
            2,
            pick(1, Op::Begin { t, l }, Op::End { t }),
            pick(1, Op::Fork { t, child }, Op::Join { t, child }),
        ),
    )
}

/// Decodes the varint at `body[pos..]` if it is 1 to 5 bytes long and fits
/// a `u32` (a 5th byte of at most `0x0f`), returning it with the offset
/// just past it. `None` for a varint that runs off `body` or is longer,
/// which [`VbtReader::next_op`] then decodes or rejects.
#[inline(always)]
fn fast_id(body: &[u8], pos: usize) -> Option<(u32, usize)> {
    let b = *body.get(pos)?;
    if b < 0x80 {
        return Some((b as u32, pos + 1));
    }
    let mut v = (b & 0x7f) as u32;
    for i in 1..4 {
        let b = *body.get(pos + i)?;
        v |= ((b & 0x7f) as u32) << (7 * i);
        if b < 0x80 {
            return Some((v, pos + i + 1));
        }
    }
    let b = *body.get(pos + 4)?;
    (b <= 0x0f).then(|| (v | (b as u32) << 28, pos + 5))
}

fn read_varint<R: Read>(s: &mut ByteStream<R>) -> Result<u64, TraceReadError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(byte) = s.next_byte()? else {
            return Err(TraceReadError::malformed(
                s.offset(),
                "unexpected end of input in varint",
            ));
        };
        if shift >= 63 && byte > 1 {
            return Err(TraceReadError::malformed(
                s.offset(),
                "varint overflows 64 bits",
            ));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.begin("T1", "add").acquire("T1", "lock").read("T1", "v");
        b.write("T2", "v");
        b.release("T1", "lock").end("T1");
        b.fork("T1", "T3").join("T1", "T3");
        let mut t = b.finish();
        t.mark_synthesized(5);
        t.mark_synthesized(7);
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample_trace();
        let bytes = trace_to_vbt(&trace);
        assert!(bytes.starts_with(&MAGIC));
        let back = read_vbt(&bytes[..]).unwrap();
        assert_eq!(back.ops(), trace.ops());
        assert_eq!(back.synthesized(), trace.synthesized());
        assert_eq!(back.to_json(), trace.to_json());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = Trace::new();
        let back = read_vbt(&trace_to_vbt(&trace)[..]).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn multi_frame_traces_roundtrip() {
        let mut trace = Trace::new();
        for i in 0..3 * FRAME_OPS + 17 {
            trace.push(Op::Read {
                t: ThreadId::new((i % 7) as u32),
                x: VarId::new((i % 1000) as u32),
            });
        }
        let back = read_vbt(&trace_to_vbt(&trace)[..]).unwrap();
        assert_eq!(back.ops(), trace.ops());
    }

    #[test]
    fn streaming_reader_yields_ops_in_order() {
        let trace = sample_trace();
        let bytes = trace_to_vbt(&trace);
        let mut r = VbtReader::new(&bytes[..]).unwrap();
        assert_eq!(r.names().lock(LockId::new(0)), "lock");
        assert_eq!(r.synthesized(), trace.synthesized());
        let mut i = 0;
        while let Some(op) = r.next_op().unwrap() {
            assert_eq!(trace.get(i), Some(op));
            i += 1;
        }
        assert_eq!(i, trace.len());
        assert_eq!(r.ops_read(), trace.len());
    }

    #[test]
    fn bad_magic_is_rejected_at_byte_0() {
        let e = read_vbt(&b"JSON{\"ops\":[]}"[..]).unwrap_err();
        assert!(e.is_malformed());
        assert!(e.to_string().contains("byte 0"), "{e}");
        assert!(e.to_string().contains("magic"), "{e}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = trace_to_vbt(&sample_trace());
        bytes[4] = 9;
        let e = read_vbt(&bytes[..]).unwrap_err();
        assert!(e.to_string().contains("version 9"), "{e}");
        assert!(e.to_string().contains("byte 4"), "{e}");
    }

    #[test]
    fn truncation_anywhere_is_detected_with_an_offset() {
        let bytes = trace_to_vbt(&sample_trace());
        for cut in 0..bytes.len() - 1 {
            let e = read_vbt(&bytes[..cut]).unwrap_err();
            assert!(e.is_malformed(), "cut at {cut}: {e}");
            assert!(e.to_string().contains("byte"), "cut at {cut}: {e}");
        }

        // Two frames whose ids take 2-, 3- and 5-byte varints: cut at every
        // byte of the first frame and at each frame boundary.
        let wide = |i: u32| [200, 20_000, u32::MAX - i][i as usize % 3];
        let trace: Trace = (0..FRAME_OPS as u32 + 50)
            .map(|i| match i % 3 {
                0 => Op::Write {
                    t: ThreadId::new(wide(i)),
                    x: VarId::new(wide(i + 1)),
                },
                1 => Op::Begin {
                    t: ThreadId::new(wide(i)),
                    l: Label::new(wide(i + 2)),
                },
                _ => Op::End {
                    t: ThreadId::new(wide(i)),
                },
            })
            .collect();
        let bytes = trace_to_vbt(&trace);
        assert_eq!(read_vbt(&bytes[..]).unwrap().ops(), trace.ops());
        // Magic, version, four empty tables and no synthesized indices.
        let first = 10;
        let mut r = VbtReader::new(&bytes[..]).unwrap();
        r.next_op().unwrap();
        assert_eq!(r.frame_ops_left as usize, FRAME_OPS - 1);
        let second = r.frame_base as usize + r.frame.len();
        let sentinel = bytes.len() - 1;
        let cuts = (first..=second).chain([sentinel]);
        for cut in cuts {
            let e = read_vbt(&bytes[..cut]).unwrap_err();
            assert!(e.is_malformed(), "cut at {cut}: {e}");
            assert!(
                e.to_string().starts_with(&format!("byte {cut}: ")),
                "cut at {cut}: {e}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = trace_to_vbt(&sample_trace());
        bytes.push(0x42);
        let e = read_vbt(&bytes[..]).unwrap_err();
        assert!(e.to_string().contains("trailing data"), "{e}");
    }

    #[test]
    fn string_table_overflow_is_rejected_not_allocated() {
        // Header + a threads table claiming 2^30 entries.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        push_varint(&mut bytes, 1 << 30);
        let e = read_vbt(&bytes[..]).unwrap_err();
        assert!(e.to_string().contains("string-table overflow"), "{e}");

        // A single entry whose name claims to be 2 GiB long.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        push_varint(&mut bytes, 1); // one thread entry
        push_varint(&mut bytes, 0); // id 0
        push_varint(&mut bytes, 2 << 30); // 2 GiB name
        let e = read_vbt(&bytes[..]).unwrap_err();
        assert!(e.to_string().contains("string-table overflow"), "{e}");
    }

    #[test]
    fn oversized_frame_and_unknown_tag_are_rejected() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        for _ in 0..4 {
            push_varint(&mut bytes, 0);
        }
        push_varint(&mut bytes, 0); // no synthesized indices
        push_varint(&mut bytes, MAX_FRAME_LEN + 1);
        let e = read_vbt(&bytes[..]).unwrap_err();
        assert!(e.to_string().contains("exceeds"), "{e}");

        // Corrupt the first op's tag by locating its known encoding.
        let mut bytes = trace_to_vbt(&trace);
        let first = {
            let mut enc = Vec::new();
            push_op(&mut enc, trace.get(0).unwrap());
            enc
        };
        let pos = bytes
            .windows(first.len())
            .position(|w| w == first)
            .expect("first op encoding present");
        bytes[pos] = 0xEE;
        let e = read_vbt(&bytes[..]).unwrap_err();
        assert!(e.to_string().contains("unknown operation tag"), "{e}");
    }

    #[test]
    fn synthesized_out_of_bounds_is_rejected() {
        let mut trace = sample_trace();
        trace.mark_synthesized(trace.len() - 1);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        for _ in 0..4 {
            push_varint(&mut bytes, 0);
        }
        push_varint(&mut bytes, 1); // one synthesized index…
        push_varint(&mut bytes, 10); // …pointing past the single op below
        let mut body = Vec::new();
        push_varint(&mut body, 1);
        push_op(
            &mut body,
            Op::End {
                t: ThreadId::new(0),
            },
        );
        push_varint(&mut bytes, body.len() as u64);
        bytes.extend_from_slice(&body);
        bytes.push(0);
        let e = read_vbt(&bytes[..]).unwrap_err();
        assert!(e.to_string().contains("out of bounds"), "{e}");
    }

    #[test]
    fn vbt_is_much_smaller_than_json() {
        let trace = sample_trace();
        let json = trace.to_json();
        let vbt = trace_to_vbt(&trace);
        assert!(
            vbt.len() * 2 < json.len(),
            "vbt {} bytes vs json {} bytes",
            vbt.len(),
            json.len()
        );
    }
}
