//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, recorded by the benchmark around the
//! public function it calls: name (`<layer>.<what>`), start, end and the
//! span that caused it. Spans stay in memory and are written out once, at
//! the end of the run. When tracing is off every method is a no-op, so
//! the untraced run pays nothing but a branch. The tracer times its own
//! bookkeeping, which is what a traced run adds to an untraced one.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

thread_local! {
    /// The open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Nanoseconds spent recording spans.
    overhead_ns: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            overhead_ns: AtomicU64::new(0),
        }
    }

    /// Seconds the tracer spent on its own bookkeeping.
    pub fn overhead_seconds(&self) -> f64 {
        self.overhead_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Runs `f` inside a span named `name`, child of the innermost span
    /// open on this thread.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let entered = Instant::now();
        let parent = self.current();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        let own = (start - entered) + end.elapsed();
        self.overhead_ns.fetch_add(own.as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Records a span whose bounds were measured elsewhere — a stage
    /// timing a library call returns, or a client-side event timestamp.
    /// Returns its id so further spans can hang under it.
    pub fn record(&self, name: &str, parent: Option<u64>, start: Instant, end: Instant) -> u64 {
        if !self.enabled {
            return 0;
        }
        let entered = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end.max(start)),
        });
        self.overhead_ns.fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned by a panicking thread").push(span);
    }

    /// Every span recorded so far, in start order.
    fn spans(&self) -> Vec<Span> {
        let mut spans =
            self.spans.lock().expect("span list poisoned by a panicking thread").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// part of its interval that its child spans cover, summed by layer.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for s in &spans {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            // union of the children's intervals, clipped to the parent
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer().to_string()).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let name = serde_json::to_string(&s.name).unwrap_or_default();
            let _ = write!(
                out,
                "{sep}{{\"id\":{},\"parent\":{parent},\"name\":{name},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]\n");
        out
    }
}
