//! The benchmark's own span recorder.
//!
//! A traced run wraps each call into a layer's public API in a span:
//! name, request id, start, end and parent (the innermost open span on
//! the same thread). Spans are kept in memory, summarised into
//! per-layer self times at the end, and written out as NDJSON. Nothing
//! is recorded when tracing is off, so the untraced run pays one branch
//! per call site.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_THREAD: Mutex<u64> = Mutex::new(0);

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static REQ: Cell<u64> = const { Cell::new(0) };
    static THREAD: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == u64::MAX {
            let mut next = NEXT_THREAD.lock().expect("thread counter lock poisoned");
            t.set(*next);
            *next += 1;
        }
        t.get()
    })
}

pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags the spans this thread opens from now on with a request id.
pub fn set_request(id: u64) {
    REQ.with(|r| r.set(id));
}

/// An open span; it ends when dropped.
pub struct Guard(Option<usize>);

pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(NO_PARENT));
    let span = Span {
        name,
        req: REQ.with(Cell::get),
        thread: thread_id(),
        start_ns: now_ns(),
        end_ns: 0,
        parent,
    };
    let idx = {
        let mut spans = SPANS.lock().expect("span store lock poisoned");
        spans.push(span);
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end = now_ns();
        if let Ok(mut spans) = SPANS.lock() {
            spans[idx].end_ns = end;
        }
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Runs `f` inside a span and returns its result with the span's
/// duration in nanoseconds (measured even when tracing is off).
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let _g = span(name);
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// Per-name totals of a recorded trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Takes every recorded span out of the store.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store lock poisoned"))
}

/// Sums duration and self time (duration minus the time covered by
/// child spans) per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(kids);
    }
    out
}

/// Writes the spans as NDJSON, one object per span.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.req, s.thread, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
