//! Spans recorded around every call the benchmark makes into a layer.
//!
//! A [`Tracer`] owns a buffer allocated up front; recording a span is
//! two clock reads and a push, and never allocates. When the buffer is
//! full further spans are counted as dropped instead of growing it. The
//! spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: what was called, when, on behalf of which job, and
/// under which enclosing span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer entry point, e.g. `serve.post`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job this call served.
    pub job: u64,
}

impl Span {
    /// `end − start`.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; `None` when tracing is off or the buffer is
/// full, so callers never branch on the tracer's state.
pub type SpanId = Option<usize>;

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
    active: bool,
}

impl Tracer {
    /// A tracer that keeps at most `capacity` spans (0 = tracing off).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            active: capacity > 0,
        }
    }

    /// Whether spans are being kept.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Pauses (`false`) or resumes (`true`) recording; a tracer
    /// created with capacity 0 stays off.
    pub fn set_active(&mut self, on: bool) {
        self.active = on && self.enabled();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, job: u64) -> SpanId {
        if !self.active {
            return None;
        }
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(index) = id {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, job);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every span as a tab-separated line: index, parent, job,
    /// name, start, end and self time (ns).
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tjob\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                span.job, span.name, span.start_ns, span.end_ns, self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Overlapping children (work fanned out to
/// threads) are counted once, and children are clipped to the parent.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Per span name: how many spans, their total duration and their total
/// self time (ns).
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let self_ns = self_times(spans);
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns) {
        let entry = totals.entry(span.name).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += own;
    }
    totals
}
