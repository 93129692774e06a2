//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer: its name, start
//! and end (ns since the recorder was created), the span that caused it
//! and the benchmark operation it belongs to. Spans stay in memory until
//! the run ends, then go to a tab-separated file; a layer's self time is
//! its spans' durations minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    op: u64,
}

/// Records spans; see the module docs.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing from `origin`; recorders sharing an origin can
    /// be merged.
    pub fn with_origin(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Appends `other`'s spans (same origin), keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes `id` and returns its duration in ms.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e6
    }

    /// Records a top-level span that started at `start` and ends now.
    pub fn record(&mut self, name: &'static str, start: Instant, op: u64) {
        let start_ns =
            u64::try_from(start.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX);
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op,
        });
    }

    /// Runs `f` inside a span and returns its result with the duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, op);
        let out = f();
        (out, self.close(id))
    }

    /// Writes every span as `id name op parent start_ns end_ns`, one per
    /// line, with a header.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tname\top\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        std::fs::write(path, out)
    }

    /// Per span name: (count, total ms, self ms), by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let row = table.entry(s.name).or_default();
            row.0 += 1;
            row.1 += total as f64 / 1e6;
            row.2 += total.saturating_sub(child) as f64 / 1e6;
        }
        table
    }
}
