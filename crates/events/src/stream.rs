//! Incremental trace ingestion, and the JSON trace writer.
//!
//! Both trace formats are decoded off an [`std::io::Read`] stream with one
//! bounded read buffer and no intermediate value tree. [`stream_trace`] is
//! the one entry point: it sniffs the format from the magic bytes (the VBT
//! magic selects the binary reader of [`crate::vbt`], anything else the
//! JSON reader) and hands the decoded operations to a sink in blocks of at
//! most 256, so a checker can consume a trace of any length through a
//! fixed footprint: the 16 KiB read buffer, one 3 KiB block and, for VBT,
//! one frame body. [`read_trace`], [`read_json_trace`] and
//! [`crate::read_vbt`] collect the same blocks into a [`Trace`].
//!
//! Every error carries the absolute byte offset of the first byte that
//! could not be interpreted, so CLI diagnostics can point into the file.
//!
//! [`JsonTraceWriter`] is the one JSON trace encoder. It emits each op in
//! the canonical shape that the reader's fast path matches, from the same
//! table of frames, and takes the ops a block at a time, so a trace can be
//! written as it is decoded.

use crate::ids::{decimal_string_order, SymbolTable, SymbolTableBuilder, KINDS};
use crate::op::{Op, OpKind};
use crate::trace::Trace;
use crate::vbt::{VbtReader, MAGIC};
use crate::ThreadId;
use std::fmt;
use std::io::{self, Read, Write};

/// Why a streaming trace read failed: the source itself, or its contents.
///
/// The distinction matters to callers that map errors onto exit codes —
/// a file that cannot be read is a different failure class from a file
/// that reads fine but does not encode a trace.
#[derive(Debug)]
pub enum TraceReadError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The bytes read so far do not encode a valid trace.
    Malformed {
        /// Absolute offset, in bytes from the start of the stream, of the
        /// first byte that could not be interpreted.
        offset: u64,
        /// What was expected or found there.
        reason: String,
    },
}

impl TraceReadError {
    pub(crate) fn malformed(offset: u64, reason: impl Into<String>) -> Self {
        Self::Malformed {
            offset,
            reason: reason.into(),
        }
    }

    /// Returns `true` when the error describes malformed input rather than
    /// an I/O failure.
    pub fn is_malformed(&self) -> bool {
        matches!(self, Self::Malformed { .. })
    }
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "{e}"),
            Self::Malformed { offset, reason } => write!(f, "byte {offset}: {reason}"),
        }
    }
}

impl std::error::Error for TraceReadError {}

impl From<std::io::Error> for TraceReadError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Bytes [`ByteStream`] reads from its source at a time: most of a
/// reader's fixed footprint.
const READ_BUF: usize = 16 * 1024;

/// The most operations [`Blocks`] hands its sink at once: 3 KiB of
/// [`Op`]s. Each block is a switch from the decoder to the checker and
/// back, so larger blocks cost memory and smaller ones time.
const BLOCK_OPS: usize = 256;

/// A buffered byte source that tracks the absolute offset of every byte it
/// hands out. The single read buffer shared by the JSON and VBT readers.
pub(crate) struct ByteStream<R> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    /// Absolute offset of `buf[0]` within the stream.
    base: u64,
    eof: bool,
}

impl<R: Read> ByteStream<R> {
    pub(crate) fn new(src: R) -> Self {
        Self {
            src,
            buf: vec![0; READ_BUF],
            pos: 0,
            len: 0,
            base: 0,
            eof: false,
        }
    }

    /// Absolute offset of the next unread byte.
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Ensures at least one byte is buffered; returns `false` at EOF.
    fn refill(&mut self) -> Result<bool, TraceReadError> {
        if self.pos == self.len && !self.eof {
            self.top_up()?;
        }
        Ok(self.pos < self.len)
    }

    /// Moves the unread bytes to the front of the buffer and reads once
    /// after them, or marks EOF. Consumes nothing, so every offset stays
    /// the same.
    fn top_up(&mut self) -> Result<(), TraceReadError> {
        debug_assert!(
            self.len - self.pos < self.buf.len(),
            "a full buffer reads 0 bytes"
        );
        self.buf.copy_within(self.pos..self.len, 0);
        self.base += self.pos as u64;
        self.len -= self.pos;
        self.pos = 0;
        let n = loop {
            match self.src.read(&mut self.buf[self.len..]) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                read => break read.map_err(TraceReadError::Io)?,
            }
        };
        self.len += n;
        self.eof = n == 0;
        Ok(())
    }

    /// The buffered bytes not yet consumed, possibly empty. Never reads
    /// from the source.
    #[inline]
    pub(crate) fn window(&self) -> &[u8] {
        &self.buf[self.pos..self.len]
    }

    /// Consumes the first `n` bytes of [`Self::window`].
    #[inline]
    pub(crate) fn advance(&mut self, n: usize) {
        debug_assert!(n <= self.len - self.pos);
        self.pos += n;
    }

    /// Whether the stream opens with `prefix`. Consumes nothing, so the
    /// chosen parser still sees the input from byte 0; call it before
    /// reading anything else.
    fn starts_with(&mut self, prefix: &[u8]) -> Result<bool, TraceReadError> {
        debug_assert_eq!(self.offset(), 0);
        while self.window().len() < prefix.len() && !self.eof {
            self.top_up()?;
        }
        Ok(self.window().starts_with(prefix))
    }

    /// The next byte without consuming it, or `None` at EOF.
    pub(crate) fn peek(&mut self) -> Result<Option<u8>, TraceReadError> {
        Ok(if self.refill()? {
            Some(self.buf[self.pos])
        } else {
            None
        })
    }

    /// Consumes the byte last returned by a successful [`Self::peek`].
    pub(crate) fn bump(&mut self) {
        debug_assert!(self.pos < self.len);
        self.pos += 1;
    }

    /// Reads and consumes the next byte, or `None` at EOF.
    pub(crate) fn next_byte(&mut self) -> Result<Option<u8>, TraceReadError> {
        let b = self.peek()?;
        if b.is_some() {
            self.bump();
        }
        Ok(b)
    }

    /// Fills `out` exactly, or fails with a malformed-input error naming
    /// the offset where the stream ran dry.
    pub(crate) fn read_exact(&mut self, out: &mut [u8]) -> Result<(), TraceReadError> {
        let mut filled = 0;
        self.read_chunks(out.len(), |chunk| {
            out[filled..filled + chunk.len()].copy_from_slice(chunk);
            filled += chunk.len();
        })
    }

    /// Appends the next `len` bytes to `out` as they arrive, so `out` grows
    /// with the bytes read, never with a length the input only claims.
    /// Fails as [`Self::read_exact`] does.
    pub(crate) fn read_append(
        &mut self,
        out: &mut Vec<u8>,
        len: usize,
    ) -> Result<(), TraceReadError> {
        self.read_chunks(len, |chunk| out.extend_from_slice(chunk))
    }

    /// Hands the next `len` bytes to `sink`, one buffered chunk at a time.
    fn read_chunks(
        &mut self,
        len: usize,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), TraceReadError> {
        let mut filled = 0;
        while filled < len {
            if !self.refill()? {
                return Err(TraceReadError::malformed(
                    self.offset(),
                    format!("unexpected end of input ({filled} of {len} bytes available)"),
                ));
            }
            let n = (self.len - self.pos).min(len - filled);
            sink(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            filled += n;
        }
        Ok(())
    }
}

/// What a streamed trace carries besides the operations themselves, in
/// either format. Returned by [`stream_trace`] once the last block has
/// been handed over: a JSON document may put `names` after `ops`, so the
/// symbol table is only known at the end.
#[derive(Debug)]
pub struct TraceSummary {
    /// The trace's symbol table.
    pub names: SymbolTable,
    /// Sorted, deduplicated indices of synthesized operations, validated
    /// to be in bounds.
    pub synthesized: Vec<usize>,
    /// Number of operations handed to the sink.
    pub ops: usize,
}

/// The two trace encodings.
#[derive(Clone, Copy)]
enum Format {
    Json,
    Vbt,
}

impl Format {
    /// The VBT magic selects the binary reader, anything else the JSON
    /// reader.
    fn sniff<R: Read>(s: &mut ByteStream<R>) -> Result<Self, TraceReadError> {
        Ok(if s.starts_with(&MAGIC)? {
            Self::Vbt
        } else {
            Self::Json
        })
    }
}

/// Decodes a trace in either format, sniffed from its magic bytes, and
/// calls `on_block(first_index, ops)` with each block of at most 256
/// operations as soon as it is decoded. Memory use is the 16 KiB read
/// buffer, one block, for VBT one frame body, and the symbol table,
/// independent of trace length.
///
/// On an error the blocks already handed over are a prefix of a trace
/// that does not exist; the caller must discard whatever it built from
/// them.
pub fn stream_trace<R: Read, F: FnMut(usize, &[Op])>(
    src: R,
    on_block: F,
) -> Result<TraceSummary, TraceReadError> {
    let mut s = ByteStream::new(src);
    let format = Format::sniff(&mut s)?;
    decode(s, format, on_block)
}

/// Reads a complete trace in either format (sniffed as by
/// [`stream_trace`]) into memory.
pub fn read_trace<R: Read>(src: R) -> Result<Trace, TraceReadError> {
    let mut s = ByteStream::new(src);
    let format = Format::sniff(&mut s)?;
    collect(s, format)
}

/// Reads a complete JSON trace into memory. Never holds the input text
/// (or a JSON value tree): peak allocation is one fixed 16 KiB read
/// buffer plus the decoded trace itself.
pub fn read_json_trace<R: Read>(src: R) -> Result<Trace, TraceReadError> {
    collect(ByteStream::new(src), Format::Json)
}

/// Reads a complete VBT trace into memory.
pub(crate) fn read_vbt_trace<R: Read>(src: R) -> Result<Trace, TraceReadError> {
    collect(ByteStream::new(src), Format::Vbt)
}

fn decode<R: Read, F: FnMut(usize, &[Op])>(
    s: ByteStream<R>,
    format: Format,
    on_block: F,
) -> Result<TraceSummary, TraceReadError> {
    let mut blocks = Blocks::new(on_block);
    match format {
        Format::Json => JsonParser::new(s).parse_trace(&mut blocks),
        Format::Vbt => VbtReader::from_stream(s)?.stream(&mut blocks),
    }
}

fn collect<R: Read>(s: ByteStream<R>, format: Format) -> Result<Trace, TraceReadError> {
    let mut ops = Vec::new();
    let summary = decode(s, format, |_, block| ops.extend_from_slice(block))?;
    Ok(Trace::from_parts(ops, summary.names, summary.synthesized))
}

/// Gathers decoded operations into blocks of at most [`BLOCK_OPS`] and
/// hands each full block to the sink.
pub(crate) struct Blocks<F> {
    sink: F,
    block: Vec<Op>,
    /// Operations handed to the sink so far.
    flushed: usize,
}

impl<F: FnMut(usize, &[Op])> Blocks<F> {
    fn new(sink: F) -> Self {
        Self {
            sink,
            block: Vec::with_capacity(BLOCK_OPS),
            flushed: 0,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, op: Op) {
        self.block.push(op);
        if self.block.len() == BLOCK_OPS {
            self.flush();
        }
    }

    /// Hands over the partial block, if any.
    pub(crate) fn flush(&mut self) {
        if !self.block.is_empty() {
            (self.sink)(self.flushed, &self.block);
            self.flushed += self.block.len();
            self.block.clear();
        }
    }

    /// Operations pushed so far.
    pub(crate) fn count(&self) -> usize {
        self.flushed + self.block.len()
    }
}

/// Sorts and deduplicates `synthesized` and checks it against the final
/// operation count; a failure is reported at `offset`.
pub(crate) fn validate_synthesized(
    mut synthesized: Vec<usize>,
    ops: usize,
    offset: u64,
) -> Result<Vec<usize>, TraceReadError> {
    synthesized.sort_unstable();
    synthesized.dedup();
    match synthesized.last() {
        Some(&last) if last >= ops => Err(TraceReadError::malformed(
            offset,
            format!("synthesized index {last} out of bounds for {ops} ops"),
        )),
        _ => Ok(synthesized),
    }
}

/// Top-level keys of a trace document.
#[derive(Clone, Copy, PartialEq)]
enum TopKey {
    Ops,
    Names,
    Synthesized,
    Unknown,
}

/// Each kind's canonical JSON text up to the thread id, and between the
/// thread id and the operand (`None` for `End`, which has none), indexed
/// by [`OpKind`]: `{"Read":{"t":` and `,"x":` frame `{"Read":{"t":N,"x":M}}`.
/// The reader's fast path matches these frames and the writer writes them.
pub(crate) const CANONICAL: [(&[u8], Option<&[u8]>); 8] = [
    (br#"{"Read":{"t":"#, Some(br#","x":"#)),
    (br#"{"Write":{"t":"#, Some(br#","x":"#)),
    (br#"{"Acquire":{"t":"#, Some(br#","m":"#)),
    (br#"{"Release":{"t":"#, Some(br#","m":"#)),
    (br#"{"Begin":{"t":"#, Some(br#","l":"#)),
    (br#"{"End":{"t":"#, None),
    (br#"{"Fork":{"t":"#, Some(br#","child":"#)),
    (br#"{"Join":{"t":"#, Some(br#","child":"#)),
];

/// Bytes the read buffer must hold past the next op before the slice fast
/// path looks at it. The longest canonical op, `Fork` or `Join` with two
/// 10-digit ids plus its `,`, is 45 bytes, so the fast path never indexes
/// past the window.
const FAST_MARGIN: usize = 64;

/// Matches one operation in its canonical encoding, `{"Tag":{"t":N,"x":M}}`
/// (`{"End":{"t":N}}`), at the start of `b`, with no whitespace and ids of
/// at most 10 digits that fit a `u32`. Returns the operation and its length
/// in bytes, or `None` for anything else, however valid.
///
/// Everything this accepts, the general parser accepts too, as the same
/// operation spanning the same bytes; so a document decodes identically
/// whichever path takes each op, and every error is raised by the general
/// parser.
#[inline]
fn canonical_op(b: &[u8; FAST_MARGIN]) -> Option<(Op, usize)> {
    let kind = match b[2] {
        b'R' if b[4] == b'a' => OpKind::Read,
        b'R' => OpKind::Release,
        b'W' => OpKind::Write,
        b'A' => OpKind::Acquire,
        b'B' => OpKind::Begin,
        b'E' => OpKind::End,
        b'F' => OpKind::Fork,
        b'J' => OpKind::Join,
        _ => return None,
    };
    let (head, mid) = CANONICAL[kind as usize];
    if !b.starts_with(head) {
        return None;
    }
    let (t, mut at) = canonical_u32(b, head.len())?;
    let mut operand = 0;
    if let Some(mid) = mid {
        if !b[at..].starts_with(mid) {
            return None;
        }
        (operand, at) = canonical_u32(b, at + mid.len())?;
    }
    if b[at..at + 2] != *b"}}" {
        return None;
    }
    Some((Op::from_parts(kind, ThreadId::new(t), operand), at + 2))
}

/// The 1–10 digit `u32` at `b[at..]` and the index just past its digits.
/// The caller's next literal (`,"x":` or `}}`) then rejects an 11th digit,
/// a fraction or an exponent.
#[inline]
fn canonical_u32(b: &[u8; FAST_MARGIN], at: usize) -> Option<(u32, usize)> {
    let mut v = 0u64;
    let mut i = at;
    while i < at + 10 && b[i].is_ascii_digit() {
        v = v * 10 + u64::from(b[i] - b'0');
        i += 1;
    }
    if i == at {
        return None;
    }
    Some((u32::try_from(v).ok()?, i))
}

/// Writes a trace as JSON, one block of operations at a time: create it,
/// call [`Self::ops`] with each block in order, then [`Self::finish`] with
/// the symbol table and the synthesized indices. The bytes are those of the
/// canonical document `{"ops":[…],"names":{…}}`, plus `"synthesized":[…]`
/// when there are any, that the reader's fast path decodes. Memory use is
/// one 64 KiB buffer, whatever the trace's length.
pub struct JsonTraceWriter<W> {
    out: W,
    /// Encoded bytes not yet written to `out`.
    buf: Vec<u8>,
    /// Whether an operation has been written, so the next needs a `,`.
    any_ops: bool,
}

/// Bytes [`JsonTraceWriter`] encodes before it writes them out. It is not
/// on a checker's path (`record`, `convert` and perfbench's inputs write
/// through it), so it is sized for few `write` calls, not for footprint.
const WRITE_BUF: usize = 64 * 1024;

/// The writer hands its buffer to `out` once it holds more than this. The
/// longest op, `,` included, is 45 bytes, so an op never grows the buffer.
const WRITE_AT: usize = WRITE_BUF - FAST_MARGIN;

impl<W: Write> JsonTraceWriter<W> {
    /// A writer that will emit a trace document to `out`.
    pub fn new(out: W) -> Self {
        let mut buf = Vec::with_capacity(WRITE_BUF);
        buf.extend_from_slice(br#"{"ops":["#);
        Self {
            out,
            buf,
            any_ops: false,
        }
    }

    /// Encodes the next operations of the trace.
    pub fn ops(&mut self, ops: &[Op]) -> io::Result<()> {
        for &op in ops {
            self.item(!self.any_ops)?;
            self.any_ops = true;
            let (kind, t, operand) = op.parts();
            let (head, mid) = CANONICAL[kind as usize];
            self.buf.extend_from_slice(head);
            push_decimal(&mut self.buf, u64::from(t.raw()));
            if let Some(mid) = mid {
                self.buf.extend_from_slice(mid);
                push_decimal(&mut self.buf, u64::from(operand));
            }
            self.buf.extend_from_slice(b"}}");
        }
        Ok(())
    }

    /// Closes `ops`, appends `names` and, when non-empty, `synthesized`
    /// (sorted indices, as [`Trace::synthesized`] holds them), flushes
    /// everything to the destination and returns it.
    ///
    /// Each name map's keys are ordered as strings (`"10"` before `"2"`),
    /// which is the order the serde encoding of a `HashMap` gives them.
    pub fn finish(mut self, names: &SymbolTable, synthesized: &[usize]) -> io::Result<W> {
        self.buf.extend_from_slice(br#"],"names":{"#);
        for (i, (key, entries)) in KINDS.iter().zip(names.kinds()).enumerate() {
            if i > 0 {
                self.buf.push(b',');
            }
            self.buf.push(b'"');
            self.buf.extend_from_slice(key.as_bytes());
            self.buf.extend_from_slice(b"\":{");
            let mut entries: Vec<(u32, &str)> = entries.collect();
            entries.sort_unstable_by_key(|&(id, _)| decimal_string_order(id));
            for (j, (id, name)) in entries.into_iter().enumerate() {
                self.item(j == 0)?;
                self.buf.push(b'"');
                push_decimal(&mut self.buf, u64::from(id));
                self.buf.extend_from_slice(b"\":");
                push_json_string(&mut self.buf, name);
            }
            self.buf.push(b'}');
        }
        self.buf.push(b'}');
        if !synthesized.is_empty() {
            self.buf.extend_from_slice(br#","synthesized":["#);
            for (i, &index) in synthesized.iter().enumerate() {
                self.item(i == 0)?;
                push_decimal(&mut self.buf, index as u64);
            }
            self.buf.push(b']');
        }
        self.buf.push(b'}');
        self.write_buf()?;
        self.out.flush()?;
        Ok(self.out)
    }

    /// Starts an array or object entry: hands a full buffer to `out`, then
    /// writes the `,` before the entry unless it is the `first`.
    #[inline]
    fn item(&mut self, first: bool) -> io::Result<()> {
        if self.buf.len() > WRITE_AT {
            self.write_buf()?;
        }
        if !first {
            self.buf.push(b',');
        }
        Ok(())
    }

    fn write_buf(&mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

/// Writes `trace` to `out` as JSON with [`JsonTraceWriter`].
pub fn write_json<W: Write>(out: W, trace: &Trace) -> io::Result<()> {
    let mut writer = JsonTraceWriter::new(out);
    writer.ops(trace.ops())?;
    writer.finish(trace.names(), trace.synthesized())?;
    Ok(())
}

/// Appends the decimal digits of `v`. One digit, the most common case for
/// thread ids, skips the digit loop.
#[inline]
fn push_decimal(buf: &mut Vec<u8>, mut v: u64) {
    if v < 10 {
        buf.push(b'0' + v as u8);
        return;
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while v > 0 {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Appends `s` as a JSON string: `"` and `\` and the control characters
/// escaped (`\n`, `\r`, `\t`, else `\u00xx`), everything else, non-ASCII
/// text included, as is. These are the bytes the vendored `serde_json`
/// writes for a string; [`json_string_len`] counts them.
pub fn push_json_string(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let mut unicode = *br"\u0000";
    buf.push(b'"');
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if let Some(escape) = escape(b, &mut unicode) {
            buf.extend_from_slice(&bytes[plain..i]);
            buf.extend_from_slice(escape);
            plain = i + 1;
        }
    }
    buf.extend_from_slice(&bytes[plain..]);
    buf.push(b'"');
}

/// The number of bytes [`push_json_string`] appends for `s`, quotes
/// included.
pub fn json_string_len(s: &str) -> usize {
    let mut unicode = *br"\u0000";
    2 + s
        .bytes()
        .map(|b| escape(b, &mut unicode).map_or(1, <[u8]>::len))
        .sum::<usize>()
}

/// The escape sequence for byte `b` of a JSON string, or `None` when it
/// stands for itself. A `\u00xx` escape is written into `unicode`, which
/// starts as `\u0000`.
#[inline]
fn escape(b: u8, unicode: &mut [u8; 6]) -> Option<&[u8]> {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    Some(match b {
        b'"' => br#"\""#,
        b'\\' => br"\\",
        b'\n' => br"\n",
        b'\r' => br"\r",
        b'\t' => br"\t",
        0..=0x1f => {
            unicode[4] = HEX[usize::from(b >> 4)];
            unicode[5] = HEX[usize::from(b & 0xf)];
            unicode
        }
        _ => return None,
    })
}

const MAX_DEPTH: u32 = 128;

struct JsonParser<R> {
    s: ByteStream<R>,
    /// Reusable decode buffer for string contents, so steady-state parsing
    /// performs no per-token allocation.
    scratch: Vec<u8>,
}

impl<R: Read> JsonParser<R> {
    fn new(s: ByteStream<R>) -> Self {
        Self {
            s,
            scratch: Vec::with_capacity(64),
        }
    }

    fn fail(&self, reason: impl Into<String>) -> TraceReadError {
        TraceReadError::malformed(self.s.offset(), reason)
    }

    fn skip_ws(&mut self) -> Result<(), TraceReadError> {
        while let Some(b) = self.s.peek()? {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.s.bump(),
                _ => break,
            }
        }
        Ok(())
    }

    fn expect(&mut self, want: u8, what: &str) -> Result<(), TraceReadError> {
        match self.s.peek()? {
            Some(b) if b == want => {
                self.s.bump();
                Ok(())
            }
            Some(b) => Err(self.fail(format!("expected {what}, found `{}`", b as char))),
            None => Err(self.fail(format!("unexpected end of input (expected {what})"))),
        }
    }

    /// Decodes a JSON string (including escapes) into `self.scratch`.
    fn parse_string(&mut self) -> Result<(), TraceReadError> {
        self.expect(b'"', "a string")?;
        self.scratch.clear();
        loop {
            let Some(b) = self.s.next_byte()? else {
                return Err(self.fail("unexpected end of input in string"));
            };
            match b {
                b'"' => return Ok(()),
                b'\\' => {
                    let Some(e) = self.s.next_byte()? else {
                        return Err(self.fail("unexpected end of input in escape"));
                    };
                    match e {
                        b'"' => self.scratch.push(b'"'),
                        b'\\' => self.scratch.push(b'\\'),
                        b'/' => self.scratch.push(b'/'),
                        b'b' => self.scratch.push(0x08),
                        b'f' => self.scratch.push(0x0c),
                        b'n' => self.scratch.push(b'\n'),
                        b'r' => self.scratch.push(b'\r'),
                        b't' => self.scratch.push(b'\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // A high surrogate must pair with `\uXXXX`.
                                if self.s.next_byte()? != Some(b'\\')
                                    || self.s.next_byte()? != Some(b'u')
                                {
                                    return Err(self.fail("unpaired surrogate in string"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.fail("invalid low surrogate in string"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.fail("unpaired surrogate in string"));
                            } else {
                                hi
                            };
                            let ch = char::from_u32(code)
                                .ok_or_else(|| self.fail("invalid unicode escape"))?;
                            let mut utf8 = [0u8; 4];
                            self.scratch.extend(ch.encode_utf8(&mut utf8).as_bytes());
                        }
                        other => {
                            return Err(self.fail(format!("invalid escape `\\{}`", other as char)));
                        }
                    }
                }
                _ => self.scratch.push(b),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, TraceReadError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.s.next_byte()? else {
                return Err(self.fail("unexpected end of input in unicode escape"));
            };
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.fail("invalid hex digit in unicode escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// The scratch buffer as UTF-8 text (for error messages and name values).
    fn scratch_str(&self) -> Result<&str, TraceReadError> {
        std::str::from_utf8(&self.scratch)
            .map_err(|_| TraceReadError::malformed(self.s.offset(), "invalid UTF-8 in string"))
    }

    /// Parses a non-negative integer. Fractional or signed numbers are
    /// rejected: every number in a trace document is an identifier or an
    /// index.
    fn parse_u64(&mut self) -> Result<u64, TraceReadError> {
        let mut v: u64 = 0;
        let mut digits = 0u32;
        while let Some(b) = self.s.peek()? {
            if !b.is_ascii_digit() {
                break;
            }
            self.s.bump();
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add((b - b'0') as u64))
                .ok_or_else(|| self.fail("integer too large"))?;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.fail("expected an unsigned integer"));
        }
        if let Some(b'.' | b'e' | b'E') = self.s.peek()? {
            return Err(self.fail("expected an unsigned integer, found a non-integer number"));
        }
        Ok(v)
    }

    fn parse_u32(&mut self, what: &str) -> Result<u32, TraceReadError> {
        let v = self.parse_u64()?;
        u32::try_from(v).map_err(|_| self.fail(format!("{what} {v} out of range")))
    }

    /// Skips one JSON value of any shape (used for unknown keys).
    fn skip_value(&mut self, depth: u32) -> Result<(), TraceReadError> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.skip_ws()?;
        match self.s.peek()? {
            Some(b'"') => self.parse_string(),
            Some(b'{') => {
                self.s.bump();
                self.skip_ws()?;
                if self.s.peek()? == Some(b'}') {
                    self.s.bump();
                    return Ok(());
                }
                loop {
                    self.skip_ws()?;
                    self.parse_string()?;
                    self.skip_ws()?;
                    self.expect(b':', "`:`")?;
                    self.skip_value(depth + 1)?;
                    self.skip_ws()?;
                    match self.s.next_byte()? {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(()),
                        _ => return Err(self.fail("expected `,` or `}` in object")),
                    }
                }
            }
            Some(b'[') => {
                self.s.bump();
                self.skip_ws()?;
                if self.s.peek()? == Some(b']') {
                    self.s.bump();
                    return Ok(());
                }
                loop {
                    self.skip_value(depth + 1)?;
                    self.skip_ws()?;
                    match self.s.next_byte()? {
                        Some(b',') => continue,
                        Some(b']') => return Ok(()),
                        _ => return Err(self.fail("expected `,` or `]` in array")),
                    }
                }
            }
            Some(b't') => self.expect_literal(b"true"),
            Some(b'f') => self.expect_literal(b"false"),
            Some(b'n') => self.expect_literal(b"null"),
            Some(b'-') | Some(b'0'..=b'9') => self.skip_number(),
            Some(b) => Err(self.fail(format!("unexpected character `{}`", b as char))),
            None => Err(self.fail("unexpected end of input")),
        }
    }

    fn expect_literal(&mut self, lit: &[u8]) -> Result<(), TraceReadError> {
        for &want in lit {
            if self.s.next_byte()? != Some(want) {
                return Err(self.fail(format!(
                    "invalid literal (expected `{}`)",
                    std::str::from_utf8(lit).unwrap()
                )));
            }
        }
        Ok(())
    }

    fn skip_number(&mut self) -> Result<(), TraceReadError> {
        if self.s.peek()? == Some(b'-') {
            self.s.bump();
        }
        let mut digits = 0;
        while let Some(b) = self.s.peek()? {
            match b {
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-' => {
                    self.s.bump();
                    digits += 1;
                }
                _ => break,
            }
        }
        if digits == 0 {
            return Err(self.fail("expected a number"));
        }
        Ok(())
    }

    fn parse_trace<F: FnMut(usize, &[Op])>(
        mut self,
        blocks: &mut Blocks<F>,
    ) -> Result<TraceSummary, TraceReadError> {
        self.skip_ws()?;
        self.expect(b'{', "a trace object")?;
        let mut names: Option<SymbolTable> = None;
        let mut synthesized: Option<Vec<usize>> = None;
        let mut ops: Option<usize> = None;
        self.skip_ws()?;
        if self.s.peek()? == Some(b'}') {
            self.s.bump();
        } else {
            loop {
                self.skip_ws()?;
                let key_at = self.s.offset();
                self.parse_string()?;
                let key = match self.scratch.as_slice() {
                    b"ops" => TopKey::Ops,
                    b"names" => TopKey::Names,
                    b"synthesized" => TopKey::Synthesized,
                    _ => TopKey::Unknown,
                };
                if match key {
                    TopKey::Ops => ops.is_some(),
                    TopKey::Names => names.is_some(),
                    TopKey::Synthesized => synthesized.is_some(),
                    TopKey::Unknown => false,
                } {
                    return Err(TraceReadError::malformed(
                        key_at,
                        "duplicate key in trace object",
                    ));
                }
                self.skip_ws()?;
                self.expect(b':', "`:`")?;
                self.skip_ws()?;
                match key {
                    TopKey::Ops => ops = Some(self.parse_ops(blocks)?),
                    TopKey::Names => names = Some(self.parse_names()?),
                    TopKey::Synthesized => synthesized = Some(self.parse_synthesized()?),
                    TopKey::Unknown => self.skip_value(0)?,
                }
                self.skip_ws()?;
                match self.s.next_byte()? {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(self.fail("expected `,` or `}` in trace object")),
                }
            }
        }
        self.skip_ws()?;
        if self.s.peek()?.is_some() {
            return Err(self.fail("trailing data after trace object"));
        }
        let ops = ops.ok_or_else(|| self.fail("trace object is missing `ops`"))?;
        let names = names.ok_or_else(|| self.fail("trace object is missing `names`"))?;
        let synthesized =
            validate_synthesized(synthesized.unwrap_or_default(), ops, self.s.offset())?;
        Ok(TraceSummary {
            names,
            synthesized,
            ops,
        })
    }

    /// Parses the `ops` array into `blocks`, flushing the last partial
    /// block at its end, and returns the operation count.
    fn parse_ops<F: FnMut(usize, &[Op])>(
        &mut self,
        blocks: &mut Blocks<F>,
    ) -> Result<usize, TraceReadError> {
        self.expect(b'[', "an array for `ops`")?;
        self.skip_ws()?;
        if self.s.peek()? == Some(b']') {
            self.s.bump();
            return Ok(0);
        }
        loop {
            let op = match self.fast_op() {
                Some((op, true)) => {
                    blocks.push(op);
                    continue;
                }
                Some((op, false)) => op,
                None => {
                    self.skip_ws()?;
                    self.parse_op()?
                }
            };
            blocks.push(op);
            self.skip_ws()?;
            match self.s.next_byte()? {
                Some(b',') => continue,
                Some(b']') => {
                    blocks.flush();
                    return Ok(blocks.count());
                }
                _ => return Err(self.fail("expected `,` or `]` in `ops`")),
            }
        }
    }

    /// The slice fast path of [`Self::parse_ops`]: decodes a canonical op
    /// straight off the read buffer when it holds at least [`FAST_MARGIN`]
    /// bytes, consuming the op and a `,` right after it; the flag says
    /// whether there was one. Consumes nothing when it returns `None`, so
    /// the general parser resumes at the same offset.
    #[inline]
    fn fast_op(&mut self) -> Option<(Op, bool)> {
        let b: &[u8; FAST_MARGIN] = self.s.window().get(..FAST_MARGIN)?.try_into().ok()?;
        let (op, len) = canonical_op(b)?;
        let comma = b[len] == b',';
        self.s.advance(len + usize::from(comma));
        Some((op, comma))
    }

    /// Parses one externally tagged operation: `{"Read":{"t":0,"x":1}}`.
    /// Unknown fields of the body are skipped; a second entry of the
    /// object, or a repeated `t` or operand field, is rejected at its key.
    fn parse_op(&mut self) -> Result<Op, TraceReadError> {
        self.expect(b'{', "an operation object")?;
        self.skip_ws()?;
        self.parse_string()?;
        let Some(kind) = OpKind::ALL
            .into_iter()
            .find(|kind| kind.name().as_bytes() == self.scratch)
        else {
            let name = self.scratch_str().unwrap_or("<non-UTF-8>").to_owned();
            return Err(self.fail(format!("unknown operation `{name}`")));
        };
        self.skip_ws()?;
        self.expect(b':', "`:`")?;
        self.skip_ws()?;
        self.expect(b'{', "an operation body")?;
        let mut t: Option<u32> = None;
        let mut operand: Option<u32> = None;
        self.skip_ws()?;
        if self.s.peek()? == Some(b'}') {
            self.s.bump();
        } else {
            loop {
                self.skip_ws()?;
                let key_at = self.s.offset();
                self.parse_string()?;
                // The field's name, where its value goes and what it is.
                let field = if self.scratch.as_slice() == b"t" {
                    Some(("t", &mut t, "thread id"))
                } else {
                    kind.operand()
                        .filter(|f| f.as_bytes() == self.scratch)
                        .map(|f| (f, &mut operand, "identifier"))
                };
                if let Some((name, Some(_), _)) = &field {
                    return Err(TraceReadError::malformed(
                        key_at,
                        format!("duplicate field `{name}` in {}", kind.name()),
                    ));
                }
                self.skip_ws()?;
                self.expect(b':', "`:`")?;
                self.skip_ws()?;
                match field {
                    Some((_, value, what)) => *value = Some(self.parse_u32(what)?),
                    None => self.skip_value(0)?,
                }
                self.skip_ws()?;
                match self.s.next_byte()? {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(self.fail("expected `,` or `}` in operation body")),
                }
            }
        }
        self.skip_ws()?;
        match self.s.next_byte()? {
            Some(b'}') => {}
            Some(b',') => {
                self.skip_ws()?;
                let key_at = self.s.offset();
                self.parse_string()?;
                return Err(TraceReadError::malformed(
                    key_at,
                    "operation object has more than one entry",
                ));
            }
            _ => return Err(self.fail("expected `,` or `}` in operation object")),
        }
        let t = ThreadId::new(
            t.ok_or_else(|| self.fail(format!("missing field `t` in {}", kind.name())))?,
        );
        let operand = match (kind.operand(), operand) {
            (Some(field), None) => {
                return Err(self.fail(format!("missing field `{field}` in {}", kind.name())))
            }
            (_, operand) => operand.unwrap_or(0),
        };
        Ok(Op::from_parts(kind, t, operand))
    }

    /// Parses the `names` object: four id→name maps keyed by decimal
    /// strings, in any order; unknown keys are skipped, and a repeated map
    /// is rejected at its key.
    fn parse_names(&mut self) -> Result<SymbolTable, TraceReadError> {
        let mut table = SymbolTableBuilder::default();
        let mut seen = [false; 4];
        self.expect(b'{', "an object for `names`")?;
        self.skip_ws()?;
        if self.s.peek()? == Some(b'}') {
            self.s.bump();
        } else {
            loop {
                self.skip_ws()?;
                let key_at = self.s.offset();
                self.parse_string()?;
                let slot = KINDS.iter().position(|k| k.as_bytes() == self.scratch);
                if let Some(kind) = slot.filter(|&kind| seen[kind]) {
                    return Err(TraceReadError::malformed(
                        key_at,
                        format!("duplicate key `{}` in `names`", KINDS[kind]),
                    ));
                }
                self.skip_ws()?;
                self.expect(b':', "`:`")?;
                self.skip_ws()?;
                match slot {
                    Some(kind) => {
                        seen[kind] = true;
                        self.parse_id_map(kind, &mut table)?;
                    }
                    None => self.skip_value(0)?,
                }
                self.skip_ws()?;
                match self.s.next_byte()? {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(self.fail("expected `,` or `}` in `names`")),
                }
            }
        }
        for (field, seen) in KINDS.iter().zip(seen) {
            if !seen {
                return Err(self.fail(format!("`names` is missing `{field}`")));
            }
        }
        Ok(table.finish())
    }

    /// Parses one id→name map into `table`'s `kind`, appending each name
    /// from the scratch buffer.
    fn parse_id_map(
        &mut self,
        kind: usize,
        table: &mut SymbolTableBuilder,
    ) -> Result<(), TraceReadError> {
        self.expect(b'{', "an object")?;
        self.skip_ws()?;
        if self.s.peek()? == Some(b'}') {
            self.s.bump();
            return Ok(());
        }
        loop {
            self.skip_ws()?;
            self.parse_string()?;
            let id: u32 = self
                .scratch_str()?
                .parse()
                .map_err(|_| self.fail("expected a decimal id key"))?;
            self.skip_ws()?;
            self.expect(b':', "`:`")?;
            self.skip_ws()?;
            self.parse_string()?;
            table
                .text()
                .extend_from_slice(self.scratch_str()?.as_bytes());
            table
                .push(kind, id)
                .map_err(|_| self.fail("`names` exceed 4 GiB in all"))?;
            self.skip_ws()?;
            match self.s.next_byte()? {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => return Err(self.fail("expected `,` or `}` in name map")),
            }
        }
    }

    fn parse_synthesized(&mut self) -> Result<Vec<usize>, TraceReadError> {
        self.expect(b'[', "an array for `synthesized`")?;
        let mut out = Vec::new();
        self.skip_ws()?;
        if self.s.peek()? == Some(b']') {
            self.s.bump();
            return Ok(out);
        }
        loop {
            self.skip_ws()?;
            let v = self.parse_u64()?;
            out.push(usize::try_from(v).map_err(|_| self.fail("index too large"))?);
            self.skip_ws()?;
            match self.s.next_byte()? {
                Some(b',') => continue,
                Some(b']') => return Ok(out),
                _ => return Err(self.fail("expected `,` or `]` in `synthesized`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use crate::{Label, LockId, VarId};

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.begin("T1", "add").acquire("T1", "m").read("T1", "v");
        b.write("T2", "v");
        b.release("T1", "m").end("T1");
        b.fork("T1", "T3").join("T1", "T3");
        b.finish()
    }

    /// `read_json_trace` decodes what `to_json` writes back into the same
    /// ops, and the decoded trace re-encodes to the same text.
    #[test]
    fn json_decode_roundtrips_to_json() {
        let trace = sample_trace();
        let json = trace.to_json();
        let streamed = read_json_trace(json.as_bytes()).unwrap();
        assert_eq!(streamed.ops(), trace.ops());
        assert_eq!(streamed.to_json(), json);
    }

    #[test]
    fn synthesized_indices_roundtrip_and_are_validated() {
        let mut trace = sample_trace();
        trace.mark_synthesized(5);
        let json = trace.to_json();
        let streamed = read_json_trace(json.as_bytes()).unwrap();
        assert_eq!(streamed.synthesized(), &[5]);
        assert_eq!(streamed.to_json(), json);
        let bad = r#"{"ops":[{"End":{"t":0}}],"names":{"threads":{},"vars":{},"locks":{},"labels":{}},"synthesized":[7]}"#;
        let e = read_json_trace(bad.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("out of bounds"), "{e}");
    }

    #[test]
    fn tolerates_whitespace_reordering_and_unknown_keys() {
        let json = "\n{ \"extra\" : [1, {\"a\": null}, true] ,\n \"names\" : {\"labels\":{}, \"threads\": {\"0\":\"T1\"}, \"vars\":{}, \"locks\":{}, \"more\": 1},\n \"ops\" : [ {\"Read\": {\"x\": 2, \"t\": 0}} ] }\n";
        let trace = read_json_trace(json.as_bytes()).unwrap();
        assert_eq!(trace.len(), 1);
        assert_eq!(
            trace.get(0),
            Some(Op::Read {
                t: ThreadId::new(0),
                x: VarId::new(2)
            })
        );
        assert_eq!(trace.names().thread(ThreadId::new(0)), "T1");
    }

    #[test]
    fn string_escapes_decode() {
        let json = r#"{"ops":[],"names":{"threads":{"0":"a\"b\\c\nA😀"},"vars":{},"locks":{},"labels":{}}}"#;
        let trace = read_json_trace(json.as_bytes()).unwrap();
        assert_eq!(trace.names().thread(ThreadId::new(0)), "a\"b\\c\nA😀");
    }

    #[test]
    fn errors_carry_byte_offsets() {
        for (doc, want) in [
            ("", "byte 0"),
            ("{\"ops\": 42}", "byte 8"),
            ("{\"ops\": [], \"names\"", "byte 19"),
            ("[1,2]", "byte 0"),
        ] {
            let e = read_json_trace(doc.as_bytes()).unwrap_err();
            assert!(e.is_malformed(), "{doc:?}: {e}");
            assert!(e.to_string().contains(want), "{doc:?}: {e}");
        }
        // Truncation mid-document points at the end of the input.
        let full = sample_trace().to_json();
        let cut = &full[..full.len() / 2];
        let e = read_json_trace(cut.as_bytes()).unwrap_err();
        assert!(e.to_string().contains("byte"), "{e}");
    }

    #[test]
    fn trailing_data_and_missing_fields_are_rejected() {
        let e = read_json_trace(&b"{\"ops\":[],\"names\":{\"threads\":{},\"vars\":{},\"locks\":{},\"labels\":{}}} extra"[..])
            .unwrap_err();
        assert!(e.to_string().contains("trailing data"), "{e}");
        let e = read_json_trace(&b"{}"[..]).unwrap_err();
        assert!(e.to_string().contains("missing `ops`"), "{e}");
        let e = read_json_trace(&b"{\"ops\":[]}"[..]).unwrap_err();
        assert!(e.to_string().contains("missing `names`"), "{e}");
        let e = read_json_trace(
            &b"{\"ops\":[],\"names\":{\"threads\":{},\"vars\":{},\"locks\":{}}}"[..],
        )
        .unwrap_err();
        assert!(e.to_string().contains("missing `labels`"), "{e}");
        let e = read_json_trace(&b"{\"ops\":[{\"Read\":{\"t\":0}}],\"names\":{\"threads\":{},\"vars\":{},\"locks\":{},\"labels\":{}}}"[..])
            .unwrap_err();
        assert!(e.to_string().contains("missing field `x`"), "{e}");
    }

    /// A repeated key of the trace object or of `names` is rejected at the
    /// key's first byte.
    #[test]
    fn duplicate_keys_are_rejected_at_the_key() {
        let names = r#""names":{"threads":{},"vars":{},"locks":{},"labels":{}}"#;
        for (doc, want) in [
            (
                format!(r#"{{"ops":[],"ops":[],{names}}}"#),
                "byte 10: duplicate key in trace object",
            ),
            (
                r#"{"ops":[],"names":{"threads":{"0":"A"},"threads":{"0":"B"},"vars":{},"locks":{},"labels":{}}}"#.to_owned(),
                "byte 39: duplicate key `threads` in `names`",
            ),
        ] {
            let e = read_json_trace(doc.as_bytes()).unwrap_err();
            assert_eq!(e.to_string(), want, "{doc}");
        }
    }

    #[test]
    fn rejects_non_integer_ids() {
        for doc in [
            r#"{"ops":[{"Read":{"t":-1,"x":0}}],"names":{"threads":{},"vars":{},"locks":{},"labels":{}}}"#,
            r#"{"ops":[{"Read":{"t":1.5,"x":0}}],"names":{"threads":{},"vars":{},"locks":{},"labels":{}}}"#,
            r#"{"ops":[{"Read":{"t":5000000000,"x":0}}],"names":{"threads":{},"vars":{},"locks":{},"labels":{}}}"#,
        ] {
            let e = read_json_trace(doc.as_bytes()).unwrap_err();
            assert!(e.is_malformed(), "{doc}: {e}");
        }
    }

    /// `stream_trace` hands over a trace of two VBT frames in order, in
    /// blocks of at most `BLOCK_OPS`, in both formats, and `read_trace`
    /// collects the same trace.
    #[test]
    fn stream_trace_hands_over_ordered_blocks() {
        let mut trace = sample_trace();
        for i in 0..crate::FRAME_OPS + 5 {
            trace.push(Op::Read {
                t: ThreadId::new((i % 3) as u32),
                x: VarId::new((i % 7) as u32),
            });
        }
        for bytes in [trace.to_json().into_bytes(), crate::trace_to_vbt(&trace)] {
            let mut count = 0usize;
            let summary = stream_trace(&bytes[..], |first, ops| {
                assert_eq!(first, count, "blocks arrive in order");
                assert!(!ops.is_empty() && ops.len() <= BLOCK_OPS);
                assert_eq!(&trace.ops()[first..first + ops.len()], ops);
                count += ops.len();
            })
            .unwrap();
            assert_eq!(count, trace.len());
            assert_eq!(summary.ops, trace.len());
            assert_eq!(summary.names.lock(LockId::new(0)), "m");
            assert_eq!(read_trace(&bytes[..]).unwrap().to_json(), trace.to_json());
        }
    }

    /// Name-map keys are ordered as strings, so ids 10–13 come between 1
    /// and 2; names are escaped exactly as the vendored `serde_json`
    /// escapes them.
    #[test]
    fn writer_sorts_keys_as_strings_and_escapes_like_serde_json() {
        let texts = [
            "plain",
            "quote \" inside",
            "back\\slash",
            "tab\tline\ncr\r",
            "nul\u{0} bell\u{7} esc\u{1b} unit\u{1f}",
            "del\u{7f} /slash",
            "é ü ß",
            "日本語",
            "😀",
            "",
            "\"\\\u{1}ü",
            "ends in \\",
        ];
        let mut names = SymbolTable::new();
        for id in 0..14u32 {
            let text = texts[id as usize % texts.len()];
            names.name_thread(ThreadId::new(id), format!("t{id} {text}"));
            names.name_var(VarId::new(id), format!("{text} v{id}"));
            names.name_lock(LockId::new(id), text);
            names.name_label(Label::new(id), format!("{text}{text}"));
        }
        let doc = JsonTraceWriter::new(Vec::new())
            .finish(&names, &[])
            .unwrap();
        let doc = String::from_utf8(doc).unwrap();
        assert_eq!(
            doc,
            format!(
                r#"{{"ops":[],"names":{}}}"#,
                serde_json::to_string(&names).unwrap()
            )
        );
        let mut keys: Vec<(usize, u32)> = (0..14u32)
            .map(|id| (doc.find(&format!(r#""{id}":"t{id} "#)).unwrap(), id))
            .collect();
        keys.sort_unstable();
        let order: Vec<u32> = keys.into_iter().map(|(_, id)| id).collect();
        assert_eq!(order, [0, 1, 10, 11, 12, 13, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert!(doc.contains(r#""2":"t2 back\\slash""#), "{doc}");
        assert!(doc.contains(r#""4":"t4 nul\u0000 bell\u0007 esc\u001b unit\u001f""#));
    }

    /// The fast path's matcher over a window padded to `FAST_MARGIN`.
    fn canonical(text: &str) -> Option<(Op, usize)> {
        let mut b = [b' '; FAST_MARGIN];
        b[..text.len()].copy_from_slice(text.as_bytes());
        canonical_op(&b)
    }

    #[test]
    fn fast_path_matches_exactly_the_canonical_shape() {
        let max = u32::MAX;
        let t = ThreadId::new(max);
        let operands = [0, 9, 10, max, max, 0, max, 0];
        for (kind, v) in OpKind::ALL.into_iter().zip(operands) {
            let op = Op::from_parts(kind, t, v);
            let text = serde_json::to_string(&op).unwrap();
            assert_eq!(canonical(&text), Some((op, text.len())), "{text}");
        }
        for text in [
            r#"{"Read":{"t":4294967296,"x":0}}"#,
            r#"{"Read":{"t":00000000001,"x":0}}"#,
            r#"{"Read":{"t":1.5,"x":0}}"#,
            r#"{"Read":{"t":-1,"x":0}}"#,
            r#"{"Read":{"t":,"x":0}}"#,
            r#"{"Read":{"t":0}}"#,
            r#"{"Read":{"x":0,"t":0}}"#,
            r#"{"Read":{"t":0,"m":0}}"#,
            r#"{"Read":{"t":0,"x":0,"y":1}}"#,
            r#"{"Reed":{"t":0,"x":0}}"#,
            r#"{"Rel":{"t":0,"m":0}}"#,
            r#"{"End":{"t":0,"x":1}}"#,
            r#"{"End":{"t":0} }"#,
            r#"{ "End":{"t":0}}"#,
            r#"{"End": {"t":0}}"#,
            r#"{"\u0045nd":{"t":0}}"#,
        ] {
            assert_eq!(canonical(text), None, "{text}");
        }
    }
}
