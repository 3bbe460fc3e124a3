//! Ambient observability context.
//!
//! An [`ObsContext`] bundles a [`SpanRecorder`] and a [`MetricsSink`].
//! Installing it ([`ObsContext::install`]) pushes it onto a thread-local
//! stack; every instrumented layer below asks [`ObsContext::current`] and
//! gets `None` when nothing is installed, making all probes no-ops on
//! uninstrumented runs. The stack (rather than a single slot) lets nested
//! scopes — a metered verification run inside an observed benchmark, say —
//! each see their own context and restore the outer one on drop.
//!
//! The context is `Arc`-shared so it can be captured into worker threads:
//! they do not see the installing thread's stack, so the parallel driver
//! takes the context (plus the parent [`SpanId`]) before spawning its
//! workers and records through it explicitly.

use std::cell::RefCell;
use std::sync::Arc;

use crate::metrics::{Counter, CounterSnapshot, MetricsSink, ShardedRegistry};
use crate::span::{SpanGuard, SpanId, SpanRecorder};

/// A live observability scope: one span recorder plus one metrics sink.
pub struct ObsContext {
    recorder: SpanRecorder,
    sink: Box<dyn MetricsSink>,
}

impl std::fmt::Debug for ObsContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsContext")
            .field("recorder", &self.recorder)
            .finish()
    }
}

thread_local! {
    static STACK: RefCell<Vec<Arc<ObsContext>>> = const { RefCell::new(Vec::new()) };
}

impl Default for ObsContext {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsContext {
    /// A fresh context backed by the default [`ShardedRegistry`].
    pub fn new() -> Self {
        Self::with_sink(Box::new(ShardedRegistry::new()))
    }

    /// A fresh context recording into a caller-supplied sink.
    pub fn with_sink(sink: Box<dyn MetricsSink>) -> Self {
        Self {
            recorder: SpanRecorder::new(),
            sink,
        }
    }

    /// Install on the current thread; the returned guard uninstalls on drop.
    pub fn install(self: &Arc<Self>) -> ObsGuard {
        STACK.with(|s| s.borrow_mut().push(Arc::clone(self)));
        ObsGuard { _private: () }
    }

    /// The innermost installed context on this thread, if any.
    pub fn current() -> Option<Arc<ObsContext>> {
        STACK.with(|s| s.borrow().last().cloned())
    }

    /// Add `n` to `counter` in this context's sink.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.sink.add(counter, n);
    }

    /// Snapshot every counter in this context's sink.
    pub fn counters(&self) -> CounterSnapshot {
        self.sink.snapshot()
    }

    /// The span recorder (for [`SpanRecorder::tree`] at report time).
    pub fn recorder(&self) -> &SpanRecorder {
        &self.recorder
    }

    /// Open a span nested under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.recorder.span(name)
    }

    /// Open a span under an explicit parent (cross-thread work).
    pub fn span_under(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard<'_> {
        self.recorder.span_under(name, parent)
    }

    /// Convenience: add to the innermost installed context, if any.
    #[inline]
    pub fn add_current(counter: Counter, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(ctx) = Self::current() {
            ctx.add(counter, n);
        }
    }

    /// Run `f` inside a span named `name` on the innermost installed
    /// context; when none is installed, just run `f`. This is the one-line
    /// probe instrumented layers use so uninstrumented runs stay untouched.
    #[inline]
    pub fn scoped<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
        match Self::current() {
            Some(ctx) => {
                let _g = ctx.span(name);
                f()
            }
            None => f(),
        }
    }
}

/// A context is itself a sink: records forward to its inner sink, snapshots
/// read it. Lets `&dyn MetricsSink` consumers accept an [`ObsContext`]
/// directly.
impl MetricsSink for ObsContext {
    #[inline]
    fn add(&self, counter: Counter, n: u64) {
        ObsContext::add(self, counter, n);
    }

    fn snapshot(&self) -> CounterSnapshot {
        self.counters()
    }
}

/// Uninstalls the matching [`ObsContext`] from the thread stack on drop.
#[must_use = "dropping the guard immediately uninstalls the context"]
pub struct ObsGuard {
    _private: (),
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_is_none_without_install() {
        assert!(ObsContext::current().is_none());
        // add_current is a harmless no-op.
        ObsContext::add_current(Counter::KernelScalarOps, 5);
    }

    #[test]
    fn install_stack_nests_and_restores() {
        let outer = Arc::new(ObsContext::new());
        let inner = Arc::new(ObsContext::new());
        {
            let _g1 = outer.install();
            {
                let _g2 = inner.install();
                ObsContext::add_current(Counter::DriverTasks, 1);
            }
            ObsContext::add_current(Counter::DriverTasks, 2);
        }
        assert!(ObsContext::current().is_none());
        assert_eq!(inner.counters().get(Counter::DriverTasks), 1);
        assert_eq!(outer.counters().get(Counter::DriverTasks), 2);
    }

    #[test]
    fn context_is_not_visible_on_other_threads() {
        let ctx = Arc::new(ObsContext::new());
        let _g = ctx.install();
        std::thread::spawn(|| {
            assert!(ObsContext::current().is_none());
        })
        .join()
        .expect("probe thread panicked");
    }

    #[test]
    fn captured_context_records_from_worker_threads() {
        let ctx = Arc::new(ObsContext::new());
        let parent = {
            let exec = ctx.span("execute");
            let id = exec.id();
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let ctx = Arc::clone(&ctx);
                    std::thread::spawn(move || {
                        let _t = ctx.span_under("task", Some(id));
                        ctx.add(Counter::DriverTasks, 1);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker panicked");
            }
            id
        };
        let _ = parent;
        assert_eq!(ctx.counters().get(Counter::DriverTasks), 3);
        let tree = ctx.recorder().tree();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].children.len(), 3);
    }
}
