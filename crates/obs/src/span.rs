//! Hierarchical wall-clock span timing.
//!
//! A [`SpanRecorder`] collects flat `{id, parent, name, start, duration}`
//! records; [`SpanGuard`] is the RAII handle that stamps the duration when it
//! drops. The tree is only reassembled at report time ([`SpanRecorder::tree`]),
//! so recording a span is one `Instant::now()` plus a short mutex-protected
//! push — cheap enough for per-stage spans, and per-task spans are only taken
//! when a context is installed at all.
//!
//! Parentage is explicit: a guard opened via [`SpanRecorder::span`] nests
//! under the recorder's notion of "current span on this thread", while
//! [`SpanRecorder::span_under`] takes the parent id directly. The latter is
//! what the parallel driver uses — worker threads do not inherit the
//! installing thread's current span, so the driver captures the caller's
//! span id once and passes it to every task explicitly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span. Ids are unique per recorder and start at 1;
/// `SpanId(0)` is never issued (parent `None` marks roots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// One completed span, as stored flat inside the recorder.
#[derive(Debug, Clone)]
struct SpanRec {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    /// Nanoseconds from the recorder's epoch to span start.
    start_ns: u64,
    /// Span duration in nanoseconds.
    dur_ns: u64,
    /// Optional work-item count (e.g. edges in a task range); 0 when unused.
    items: u64,
}

/// A node of the reassembled span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Static span name (`"prepare"`, `"execute"`, `"task"`, ...).
    pub name: &'static str,
    /// Nanoseconds from the recorder's epoch to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Optional work-item count carried by the span (0 when unused).
    pub items: u64,
    /// Child spans, ordered by start time.
    pub children: Vec<SpanNode>,
}

/// Upper bound on retained spans per recorder. A run over the five tiny
/// analogues records a few hundred; the cap only exists so a pathological
/// caller (per-edge spans, say) degrades by dropping spans — counted in
/// [`dropped`](SpanRecorder::dropped) — instead of growing without bound.
const MAX_SPANS: usize = 65_536;

/// Collects spans for one run.
pub struct SpanRecorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    dropped: AtomicU64,
    /// The innermost open span on each thread, keyed by the guard stack.
    /// Kept thread-local via [`CURRENT_SPAN`] rather than in the recorder so
    /// that concurrent threads each see their own nesting chain.
    _private: (),
}

thread_local! {
    /// Innermost open span id on this thread (per-thread nesting chain).
    static CURRENT_SPAN: std::cell::Cell<Option<SpanId>> = const { std::cell::Cell::new(None) };
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = self.spans.lock().map(|s| s.len()).unwrap_or(0);
        f.debug_struct("SpanRecorder")
            .field("spans", &len)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// A fresh recorder whose epoch is "now".
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            _private: (),
        }
    }

    /// Open a span nested under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = CURRENT_SPAN.with(|c| c.get());
        self.open(name, parent, true)
    }

    /// Open a span under an explicit parent (for work handed to other
    /// threads, where the thread-local nesting chain does not apply).
    pub fn span_under(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard<'_> {
        self.open(name, parent, false)
    }

    /// This thread's innermost open span: the parent to hand to
    /// [`span_under`](Self::span_under) for work run on other threads.
    pub fn current(&self) -> Option<SpanId> {
        CURRENT_SPAN.with(|c| c.get())
    }

    fn open(&self, name: &'static str, parent: Option<SpanId>, track: bool) -> SpanGuard<'_> {
        let id = SpanId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let prev = if track {
            CURRENT_SPAN.with(|c| c.replace(Some(id)))
        } else {
            None
        };
        SpanGuard {
            recorder: self,
            id,
            parent,
            name,
            start: Instant::now(),
            items: 0,
            restore: if track { Some(prev) } else { None },
        }
    }

    /// Number of spans discarded because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn record(&self, rec: SpanRec) {
        let Ok(mut spans) = self.spans.lock() else {
            // A panic while holding the span buffer is an observability
            // failure only; drop the record rather than propagate.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        if spans.len() >= MAX_SPANS {
            drop(spans);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(rec);
    }

    /// Reassemble the recorded spans into root trees, children ordered by
    /// start time. Spans whose parent was dropped become roots.
    pub fn tree(&self) -> Vec<SpanNode> {
        let mut recs: Vec<SpanRec> = match self.spans.lock() {
            Ok(s) => s.clone(),
            Err(_) => return Vec::new(),
        };
        recs.sort_by_key(|r| (r.start_ns, r.id));
        // Map id → index into a flat node arena, then attach children.
        let mut nodes: Vec<SpanNode> = recs
            .iter()
            .map(|r| SpanNode {
                name: r.name,
                start_ns: r.start_ns,
                dur_ns: r.dur_ns,
                items: r.items,
                children: Vec::new(),
            })
            .collect();
        let index_of: std::collections::HashMap<SpanId, usize> =
            recs.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        // A parent always starts no later than its child, and at equal start
        // the parent's smaller id sorts it first — so iterating the sorted
        // records in reverse processes every child before its parent, letting
        // us move child nodes out of the arena into their parents.
        let mut roots = Vec::new();
        for i in (0..recs.len()).rev() {
            let node = std::mem::replace(
                &mut nodes[i],
                SpanNode {
                    name: "",
                    start_ns: 0,
                    dur_ns: 0,
                    items: 0,
                    children: Vec::new(),
                },
            );
            match recs[i].parent.and_then(|p| index_of.get(&p).copied()) {
                Some(pi) if pi != i => nodes[pi].children.insert(0, node),
                _ => roots.insert(0, node),
            }
        }
        roots
    }
}

/// RAII handle for an open span; records the span when dropped.
pub struct SpanGuard<'a> {
    recorder: &'a SpanRecorder,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start: Instant,
    items: u64,
    /// `Some(prev)` when this guard updated the thread-local nesting chain
    /// and must restore `prev` on drop; `None` for explicit-parent spans.
    restore: Option<Option<SpanId>>,
}

impl SpanGuard<'_> {
    /// The id of this span, for use as an explicit parent of spans opened on
    /// other threads.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Attach a work-item count (e.g. number of edges in a task range).
    pub fn set_items(&mut self, items: u64) {
        self.items = items;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(prev) = self.restore {
            CURRENT_SPAN.with(|c| c.set(prev));
        }
        let start_ns = self
            .start
            .duration_since(self.recorder.epoch)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let dur_ns = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.recorder.record(SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns,
            dur_ns,
            items: self.items,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_follows_guard_scopes() {
        let r = SpanRecorder::new();
        {
            let _outer = r.span("outer");
            {
                let _inner = r.span("inner");
            }
            {
                let mut second = r.span("second");
                second.set_items(42);
            }
        }
        let tree = r.tree();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "outer");
        let kids: Vec<_> = tree[0].children.iter().map(|c| c.name).collect();
        assert_eq!(kids, vec!["inner", "second"]);
        assert_eq!(tree[0].children[1].items, 42);
    }

    #[test]
    fn explicit_parent_attaches_across_threads() {
        let r = std::sync::Arc::new(SpanRecorder::new());
        let parent_id;
        {
            let exec = r.span("execute");
            parent_id = exec.id();
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let r = std::sync::Arc::clone(&r);
                    std::thread::spawn(move || {
                        let mut g = r.span_under("task", Some(parent_id));
                        g.set_items(i);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("task thread panicked");
            }
        }
        let tree = r.tree();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "execute");
        assert_eq!(tree[0].children.len(), 4);
        assert!(tree[0].children.iter().all(|c| c.name == "task"));
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let r = SpanRecorder::new();
        {
            let _a = r.span("a");
        }
        {
            let _b = r.span("b");
        }
        let tree = r.tree();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].name, "a");
        assert_eq!(tree[1].name, "b");
    }

    #[test]
    fn children_sorted_by_start_time() {
        let r = SpanRecorder::new();
        {
            let _root = r.span("root");
            for _ in 0..3 {
                let _c = r.span("child");
            }
        }
        let tree = r.tree();
        let starts: Vec<_> = tree[0].children.iter().map(|c| c.start_ns).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }
}
