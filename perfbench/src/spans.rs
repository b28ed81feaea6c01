//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start, end, the span
//! open around it (its parent) and the events it covered. Spans stay in
//! memory until the run ends, so recording one costs two clock reads and a
//! push.

use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
struct Span {
    /// The layer call timed, as `crate::path::call`.
    name: &'static str,
    /// Index of the span open around this one.
    parent: Option<usize>,
    /// Start time.
    start_ns: u64,
    /// End time.
    end_ns: u64,
    /// Trace events (or other work units) the call covered.
    events: u64,
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recorder with no spans; its clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` covering `events` events. Spans
    /// `f` opens on the recorder it is handed become this span's children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        events: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            events,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        result
    }

    /// Each span's self time: its duration minus the time its children
    /// cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// `(self time in ns, events)` of every span named `name`, in the order
    /// they were opened.
    pub fn named(&self, name: &str) -> Vec<(u64, u64)> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(s, own)| (own, s.events))
            .collect()
    }

    /// Writes every span to `path` as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"events\":{}}}",
                s.name, s.start_ns, s.end_ns, s.events
            )?;
        }
        out.flush()
    }
}
