//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (offsets from one shared origin), the
//! span that caused it, and the instance or request id it belongs to. Spans
//! stay in memory while a run measures and are written out once it ends.
//! A span's self time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Instance index (compile workloads) or request index (serve).
    pub id: usize,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Span recorder of one thread; recorders of several threads merge with
/// [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its handle for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, id: usize, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            id,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes the span `handle` and returns its duration in seconds.
    pub fn exit(&mut self, handle: usize) -> f64 {
        let span = &mut self.spans[handle];
        span.end = self.origin.elapsed();
        (span.end - span.start).as_secs_f64()
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let handle = self.enter(name, id, parent);
        let out = f();
        self.exit(handle);
        out
    }

    /// Appends another recorder's spans (same origin), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, in seconds, aligned with the span list.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start).as_secs_f64();
            }
        }
        own
    }

    /// Total self time per span name, in seconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_us\":{},\"end_us\":{},\"self_us\":{:.3}}}",
                s.name,
                s.id,
                parent,
                s.start.as_micros(),
                s.end.as_micros(),
                own * 1e6
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.enter("root", 0, None);
        t.span("child", 0, Some(root), || {
            std::thread::sleep(Duration::from_millis(5))
        });
        t.exit(root);
        let by_name = t.self_time_by_name();
        assert!(by_name["child"] >= 0.005);
        assert!(by_name["root"] >= 0.0 && by_name["root"] < by_name["child"]);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.span("a", 0, None, || ());
        let mut b = Tracer::new(origin);
        let root = b.enter("b", 1, None);
        b.span("c", 1, Some(root), || ());
        b.exit(root);
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
