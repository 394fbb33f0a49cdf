//! The cheap instrumentation handles threaded through the pipeline:
//! [`Obs`] (a cloneable, possibly-disabled recorder reference),
//! [`Counter`] (a pre-resolved atomic cell) and [`Span`] (an RAII
//! wall-clock scope).

use crate::event::{Attr, AttrValue, EventKind};
use crate::recorder::{MetricsSnapshot, Recorder};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Open span ids on this thread, innermost last.  Parent links are
    /// per-thread: a span opened on a worker thread while another thread
    /// holds a span open simply has no parent.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A handle to a [`Recorder`], or to nothing.  Every instrumented layer
/// takes one of these; the disabled (`noop`) form costs a single branch
/// per call site and allocates nothing, so it is safe to thread through
/// hot paths unconditionally.
#[derive(Clone, Default)]
pub struct Obs {
    recorder: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// The disabled handle: every operation is a no-op.
    pub fn noop() -> Self {
        Obs::default()
    }

    /// Record into `recorder`.
    pub fn to(recorder: impl Recorder + 'static) -> Self {
        Obs {
            recorder: Some(Arc::new(recorder)),
        }
    }

    /// Whether a recorder is attached.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Intern a counter handle.  Resolve once outside a hot loop, then
    /// [`Counter::add`] is one relaxed atomic add (or nothing when
    /// disabled).
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.recorder.as_ref().map(|r| r.counter(name)))
    }

    /// Add to a counter by name (cold paths only — interns on every call).
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(recorder) = &self.recorder {
            recorder.counter(name).fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Record a point-in-time value.
    pub fn gauge(&self, name: &str, value: f64, attrs: Vec<Attr>) {
        if let Some(recorder) = &self.recorder {
            recorder.emit(EventKind::Gauge {
                name: name.into(),
                value,
                attrs,
            });
        }
    }

    /// Record a named table of numeric rows (e.g. the simulator's
    /// per-epoch samples).
    pub fn series(&self, name: &str, attrs: Vec<Attr>, columns: &[&str], rows: Vec<Vec<f64>>) {
        if let Some(recorder) = &self.recorder {
            recorder.emit(EventKind::Series {
                name: name.into(),
                attrs,
                columns: columns.iter().map(|&c| c.into()).collect(),
                rows,
            });
        }
    }

    /// Open a wall-clock span; it closes (and emits) when dropped.
    pub fn span(&self, name: &str) -> Span {
        let state = self.recorder.as_ref().map(|recorder| {
            let id = recorder.next_span_id();
            let parent = SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                let parent = stack.last().copied();
                stack.push(id);
                parent
            });
            recorder.emit(EventKind::SpanOpen {
                id,
                parent,
                name: name.into(),
            });
            SpanState {
                recorder: Arc::clone(recorder),
                id,
                name: name.into(),
                start: Instant::now(),
                attrs: Vec::new(),
            }
        });
        Span {
            state,
            _not_send: PhantomData,
        }
    }

    /// Aggregate the recorder's view, `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.recorder.as_ref().map(|r| r.snapshot())
    }

    /// Emit counter totals and flush any buffered sink.
    pub fn flush(&self) {
        if let Some(recorder) = &self.recorder {
            recorder.flush();
        }
    }
}

/// A pre-resolved monotonic counter.  Disabled handles skip the add with
/// one branch; enabled ones are a relaxed `fetch_add` on a shared cell.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    pub fn incr(&self) {
        self.add(1);
    }
}

struct SpanState {
    recorder: Arc<dyn Recorder>,
    id: u64,
    name: String,
    start: Instant,
    attrs: Vec<Attr>,
}

/// An open span.  Not `Send`: spans nest per thread (the parent link
/// comes from a thread-local stack), so a guard must close on the thread
/// that opened it.
pub struct Span {
    state: Option<SpanState>,
    _not_send: PhantomData<*const ()>,
}

impl Span {
    /// Attach an attribute delivered with the close event.
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        if let Some(state) = &mut self.state {
            state.attrs.push(Attr::new(key, value));
        }
    }

    /// Close now (otherwise `Drop` does it).
    pub fn close(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                if stack.last() == Some(&state.id) {
                    stack.pop();
                } else {
                    // Out-of-order drop (spans closed in non-LIFO order on
                    // one thread); remove the id wherever it sits.
                    stack.retain(|&id| id != state.id);
                }
            });
            let dur_us = state.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            state.recorder.emit(EventKind::SpanClose {
                id: state.id,
                name: state.name,
                dur_us,
                attrs: state.attrs,
            });
        }
    }
}
