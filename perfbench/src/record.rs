//! The benchmark's own span recorder.
//!
//! Every call the benchmark makes into a layer's public function goes
//! through [`Recorder::time`], which always measures the call and, in a
//! traced run, also keeps a span (name, start, end, parent) in memory.
//! The spans are written out once, when the run ends, together with the
//! spans the program itself emitted through `mis_obs`.

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use mis_obs::{EventKind, Trace};

/// One recorded benchmark-side span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `core.twok`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Times layer calls; keeps spans only when tracing is on.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Recorder {
    /// A recorder that keeps spans iff `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Whether this is a traced run.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` as the layer call `name`; returns its value and its wall
    /// time in seconds.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let slot = self.on.then(|| {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
                parent,
            });
            let idx = spans.len() - 1;
            self.stack.borrow_mut().push(idx);
            idx
        });
        let out = f();
        let end = Instant::now();
        if let Some(idx) = slot {
            self.stack.borrow_mut().pop();
            self.spans.borrow_mut()[idx].end_ns = self.ns_since_origin(end);
        }
        (out, (end - start).as_secs_f64())
    }

    /// Number of kept spans.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Writes the kept spans, then the program's own spans, as one JSON
    /// object per line.
    pub fn write(&self, path: &Path, program: &Trace) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"source\": \"bench\", \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for e in &program.events {
            if let EventKind::Span { dur_ns } = e.kind {
                writeln!(
                    out,
                    "{{\"source\": \"program\", \"cat\": \"{}\", \"name\": \"{}\", \"tid\": {}, \
                     \"start_ns\": {}, \"end_ns\": {}}}",
                    e.cat,
                    e.name,
                    e.tid,
                    e.ts_ns,
                    e.ts_ns + dur_ns
                )?;
            }
        }
        out.flush()
    }
}

/// The flush stages the program marks with spans of its own, in the
/// order the per-layer metrics report them.
pub const FLUSH_STAGES: [&str; 5] = [
    "wal.commit",
    "store.roll",
    "store.compact_segments",
    "serve.repair",
    "ckpt.write",
];

/// Per-flush self times, in nanoseconds, of [`FLUSH_STAGES`] and of the
/// part of `serve.flush` none of them covers.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlushParts {
    /// Self time of each stage, indexed like [`FLUSH_STAGES`].
    pub stages: [u64; 5],
    /// `serve.flush` time outside every stage span.
    pub other: u64,
}

/// A program span: name, thread, start and end nanoseconds.
type RawSpan<'a> = (&'a str, u64, u64, u64);

/// Splits every `serve.flush` span of `trace` into stage self times.
///
/// A stage span's self time excludes stage spans nested inside it (a
/// `wal.commit` under a roll counts as WAL time, not roll time); spans
/// the program emits below a stage without being a stage themselves stay
/// in that stage.
pub fn flush_breakdown(trace: &Trace) -> Vec<FlushParts> {
    let spans: Vec<RawSpan> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Span { dur_ns } => Some((e.name, e.tid, e.ts_ns, e.ts_ns + dur_ns)),
            _ => None,
        })
        .collect();
    let inside = |outer: &RawSpan, inner: &RawSpan| {
        inner.1 == outer.1 && inner.2 >= outer.2 && inner.3 <= outer.3 && inner != outer
    };
    spans
        .iter()
        .filter(|s| s.0 == "serve.flush")
        .map(|flush| {
            let stages: Vec<(usize, &RawSpan)> = spans
                .iter()
                .filter(|s| inside(flush, s))
                .filter_map(|s| FLUSH_STAGES.iter().position(|n| *n == s.0).map(|k| (k, s)))
                .collect();
            let mut parts = FlushParts::default();
            let mut top_level = 0u64;
            for (k, s) in &stages {
                let nested: Vec<&RawSpan> = stages
                    .iter()
                    .map(|(_, t)| *t)
                    .filter(|t| inside(s, t))
                    .collect();
                // Direct children only: nested stages not inside another
                // nested stage.
                let direct: u64 = nested
                    .iter()
                    .filter(|t| !nested.iter().any(|u| inside(u, t)))
                    .map(|t| t.3 - t.2)
                    .sum();
                parts.stages[*k] += (s.3 - s.2).saturating_sub(direct);
                if !stages.iter().any(|(_, u)| inside(u, s)) {
                    top_level += s.3 - s.2;
                }
            }
            parts.other = (flush.3 - flush.2).saturating_sub(top_level);
            parts
        })
        .collect()
}
