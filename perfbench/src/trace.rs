//! The benchmark's own span recorder: spans are opened around calls into
//! each layer's public functions, kept in memory, and written out when the
//! run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The pass or request this span belongs to (its root span's id).
    root: SpanId,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; `parent` of `None` makes it a root.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len();
        let root = parent.map_or(id, |p| self.spans[p].root);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            root,
            parent,
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Time `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Self time (duration minus the part child spans cover) in
    /// milliseconds of every span named `name` whose root span is named
    /// `root`.
    pub fn self_ms(&self, root: &str, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .filter(|(s, _)| s.name == name && self.spans[s.root].name == root)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Durations in milliseconds of every root span named `root`.
    pub fn root_ms(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"root\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.root, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut r = Recorder::new(t0);
        let pass = r.record("pass", None, at(0), at(10));
        r.record("plan", Some(pass), at(0), at(1));
        let exec = r.record("execute", Some(pass), at(1), at(9));
        assert_eq!(r.spans[exec].root, pass);
        assert_eq!(r.self_ms("pass", "pass"), vec![1.0]);
        assert_eq!(r.self_ms("pass", "execute"), vec![8.0]);
        assert!(r.self_ms("other", "execute").is_empty());
        assert_eq!(r.root_ms("pass"), vec![10.0]);
    }
}
