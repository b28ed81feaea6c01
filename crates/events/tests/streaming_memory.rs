//! Regression tests: streaming JSON ingestion must hold bounded memory even
//! for multi-hundred-megabyte traces, and a hostile VBT header must not
//! make the reader allocate for counts it has not read.
//!
//! The old CLI path slurped the whole file into a `String` and then built a
//! JSON value tree — roughly 3× the input size in peak heap. The streaming
//! reader must instead hold only its fixed 16 KiB read buffer and one
//! block of decoded ops (plus the symbol table). We assert this with an allocation counter rather than OS RSS,
//! which is noisy and platform-dependent.
//!
//! The counters are process-wide, so every test takes [`SERIAL`] first: a
//! test running in parallel would pollute them.

use std::io::Read;
use std::sync::Mutex;
use velodrome_testalloc::{largest_during, peak_during, CountingAlloc};

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Procedurally generates the JSON text of an enormous trace, so the input
/// itself never exists in memory either. The document is
/// `{"ops":[...],"names":{...}}` with the ops section repeated to reach the
/// requested size.
struct SyntheticTraceJson {
    /// Total ops to emit.
    ops: usize,
    /// Next op index to emit.
    next: usize,
    /// Leftover bytes of the current chunk.
    pending: Vec<u8>,
    pending_pos: usize,
    state: State,
}

#[derive(PartialEq)]
enum State {
    Header,
    Ops,
    Footer,
    Done,
}

impl SyntheticTraceJson {
    fn new(ops: usize) -> Self {
        Self {
            ops,
            next: 0,
            pending: Vec::new(),
            pending_pos: 0,
            state: State::Header,
        }
    }

    fn refill(&mut self) {
        self.pending.clear();
        self.pending_pos = 0;
        match self.state {
            State::Header => {
                self.pending.extend_from_slice(b"{\"ops\":[");
                self.state = State::Ops;
            }
            State::Ops => {
                if self.next >= self.ops {
                    self.state = State::Footer;
                    self.refill();
                    return;
                }
                // Emit up to 4096 ops per chunk.
                let end = (self.next + 4096).min(self.ops);
                for i in self.next..end {
                    if i > 0 {
                        self.pending.push(b',');
                    }
                    let t = i % 8;
                    let x = i % 1000;
                    if i % 2 == 0 {
                        self.pending.extend_from_slice(
                            format!("{{\"Read\":{{\"t\":{t},\"x\":{x}}}}}").as_bytes(),
                        );
                    } else {
                        self.pending.extend_from_slice(
                            format!("{{\"Write\":{{\"t\":{t},\"x\":{x}}}}}").as_bytes(),
                        );
                    }
                }
                self.next = end;
            }
            State::Footer => {
                self.pending.extend_from_slice(
                    b"],\"names\":{\"threads\":{\"0\":\"main\"},\"vars\":{},\"locks\":{},\"labels\":{}}}",
                );
                self.state = State::Done;
            }
            State::Done => {}
        }
    }
}

impl Read for SyntheticTraceJson {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending_pos >= self.pending.len() {
            if self.state == State::Done {
                return Ok(0);
            }
            self.refill();
            if self.pending.is_empty() && self.state == State::Done {
                return Ok(0);
            }
        }
        let n = (self.pending.len() - self.pending_pos).min(buf.len());
        buf[..n].copy_from_slice(&self.pending[self.pending_pos..self.pending_pos + n]);
        self.pending_pos += n;
        Ok(n)
    }
}

#[test]
fn scan_holds_bounded_memory_on_a_multi_hundred_mb_trace() {
    // ~8.4M ops at ~26 bytes each ≈ 220 MB of JSON text.
    const OPS: usize = 8_400_000;

    // Count the bytes the generator actually produces, to prove the input
    // really was multi-hundred-MB.
    struct Counted<R> {
        inner: R,
        bytes: u64,
    }
    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.bytes += n as u64;
            Ok(n)
        }
    }

    let _serial = SERIAL.lock().expect("a test panicked holding SERIAL");
    let mut src = Counted {
        inner: SyntheticTraceJson::new(OPS),
        bytes: 0,
    };

    let mut count = 0usize;
    let (summary, peak_delta) = peak_during(|| {
        velodrome_events::stream_trace(&mut src, |_, ops| count += ops.len())
            .expect("synthetic trace parses")
    });

    assert_eq!(count, OPS);
    assert_eq!(summary.ops, OPS);
    assert!(
        src.bytes >= 200 << 20,
        "input was only {} bytes — not a multi-hundred-MB trace",
        src.bytes
    );
    // 16 KiB read buffer + one 256-op block (3 KiB) + generator chunk
    // (~100 KiB) + symbol table.
    // Anything over 4 MiB means the parser is accumulating input.
    assert!(
        peak_delta < 4 << 20,
        "peak allocation grew by {peak_delta} bytes while streaming {} bytes",
        src.bytes
    );
}

/// A 13-byte VBT header claiming 2^24 synthesized indices, the most the
/// reader accepts, and then ending. The reader must fail at the missing
/// first delta without having allocated for all 2^24 of them (128 MiB).
#[test]
fn hostile_synthesized_count_is_not_preallocated() {
    let _serial = SERIAL.lock().expect("a test panicked holding SERIAL");
    let mut bytes = b"VBTF\x01".to_vec();
    bytes.extend_from_slice(&[0, 0, 0, 0]); // four empty string tables
    bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x08]); // count = 2^24
    assert_eq!(bytes.len(), 13);

    let (e, largest) = largest_during(|| velodrome_events::read_vbt(&bytes[..]).unwrap_err());

    assert_eq!(e.to_string(), "byte 13: unexpected end of input in varint");
    assert!(
        largest < 1 << 20,
        "largest single allocation was {largest} bytes for a 13-byte input"
    );
}

/// A VBT name's claimed length is not allocated before its bytes arrive:
/// one thread name claiming 2^20 bytes, then end of input.
#[test]
fn hostile_name_length_is_not_preallocated() {
    let _serial = SERIAL.lock().expect("a test panicked holding SERIAL");
    let mut bytes = b"VBTF\x01".to_vec();
    bytes.push(1); // one thread name
    bytes.push(0); // id 0
    bytes.extend_from_slice(&[0x80, 0x80, 0x40]); // length = 2^20
    assert_eq!(bytes.len(), 10);

    let (e, largest) = largest_during(|| velodrome_events::read_vbt(&bytes[..]).unwrap_err());

    assert_eq!(
        e.to_string(),
        "byte 10: unexpected end of input (0 of 1048576 bytes available)"
    );
    // The reader's own 16 KiB read buffer is the largest allocation.
    assert!(
        largest <= 16 << 10,
        "largest single allocation was {largest} bytes for a 10-byte input"
    );
}

/// A VBT frame's claimed length is not allocated before its bytes arrive:
/// an empty header, then one frame claiming 4,000,000 bytes (under the
/// 4 MiB frame limit), then end of input.
#[test]
fn hostile_frame_length_is_not_preallocated() {
    let _serial = SERIAL.lock().expect("a test panicked holding SERIAL");
    let mut bytes = b"VBTF\x01".to_vec();
    bytes.extend_from_slice(&[0, 0, 0, 0]); // four empty string tables
    bytes.push(0); // no synthesized indices
    bytes.extend_from_slice(&[0x80, 0x92, 0xf4, 0x01]); // body_len = 4,000,000
    assert_eq!(bytes.len(), 14);

    let mut count = 0usize;
    let (e, largest) = largest_during(|| {
        velodrome_events::stream_trace(&bytes[..], |_, ops| count += ops.len()).unwrap_err()
    });

    assert_eq!(
        e.to_string(),
        "byte 14: unexpected end of input (0 of 4000000 bytes available)"
    );
    assert_eq!(count, 0);
    // The reader's own 16 KiB read buffer is the largest allocation.
    assert!(
        largest <= 16 << 10,
        "largest single allocation was {largest} bytes for a 14-byte input"
    );
}
