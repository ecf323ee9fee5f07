//! In-memory span recorder for the traced run. Spans are taken around
//! calls into each layer's public functions, kept in memory while the run
//! measures, and written out as JSON lines once it ends.

use sspc_common::json::Value;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
pub struct Span {
    /// Layer-qualified name, e.g. `core.run` or `client.submit`.
    pub name: &'static str,
    /// Shared by every span of one operation (a round or a job).
    pub trace: u64,
    /// This span's id.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// When the call started.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
    /// Counters and sub-timings measured at the same boundary.
    pub fields: Vec<(&'static str, f64)>,
}

/// Collects spans when tracing is on; every method is a no-op otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span id (also used as the trace id of an operation's root).
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Keeps a finished span.
    pub fn record(&self, span: Span) {
        if self.on {
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
    }

    /// Number of spans kept so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer poisoned").len()
    }

    /// Writes the header line and then one JSON line per span, times in
    /// microseconds since the recorder was created.
    pub fn write(&self, path: &Path, header: &Value) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        for s in self.spans.lock().expect("span buffer poisoned").iter() {
            let mut v = Value::object()
                .with("name", s.name)
                .with("trace", s.trace)
                .with("id", s.id)
                .with("start_us", us(s.start))
                .with("end_us", us(s.end));
            if let Some(p) = s.parent {
                v = v.with("parent", p);
            }
            for &(k, x) in &s.fields {
                v = v.with(k, x);
            }
            writeln!(out, "{v}")?;
        }
        out.flush()
    }
}
