//! Bench-side spans and the per-layer accounting built on them.
//!
//! A traced run replays each request as a sequence of public calls and
//! wraps each call in a span named after its layer (`service.ingest`,
//! `core.factor`, …). Spans form one tree per request, rooted at a
//! span named [`REQUEST`] (or [`SETUP`] for the set-up work).
//!
//! A span's **self time** is its interval minus the union of its
//! children's intervals. Children may run on other threads (the engine
//! fans a batch out), so the wall clock a span accounts for is its
//! self time shared equally with every other span whose self time runs
//! at the same instant: that makes the layer shares of a request add
//! up to its traced wall time. Self time left on a root is glue between
//! the calls and counts as unattributed.
//!
//! A span's self time can be split further after the fact:
//! [`Tracer::add_split`] carves named shares out of it, measured either
//! by re-running the pieces of the call on the same input (the sparse
//! factor phases, the ingest phases) or by the program's own
//! `mpvl_obs` spans recorded inside it. Each bench span opens an
//! `mpvl_obs::worker_scope` equal to [`scope_of`] its id, so the
//! program's timings land on the innermost bench span around them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Root layer of one traced request.
pub const REQUEST: &str = "request";
/// Root layer of the traced set-up work.
pub const SETUP: &str = "setup";

/// Worker-scope ids at and above this mark bench spans.
const SCOPE_BASE: u64 = 1 << 32;

/// The `mpvl_obs` worker scope a bench span opens.
pub fn scope_of(span: usize) -> u64 {
    SCOPE_BASE + span as u64
}

/// The bench span a program timing recorded under `worker` belongs to.
pub fn span_of_scope(worker: u64) -> Option<usize> {
    worker
        .checked_sub(SCOPE_BASE)
        .and_then(|id| usize::try_from(id).ok())
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer name.
    pub layer: &'static str,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer began.
    pub start_ns: u64,
    /// End, in ns since the tracer began.
    pub end_ns: u64,
    /// Shares of the self time that belong to other layers.
    pub splits: Vec<(&'static str, u64)>,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any thread. One tracer is active at a time: the
/// open-span stacks are thread-local.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans.lock().expect("a span recorder panicked")
    }

    /// Runs `f` inside a span of `layer`, child of the innermost span open
    /// on this thread.
    pub fn span<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_id(layer, f).0
    }

    /// [`Tracer::span`], also returning the span's id.
    pub fn span_id<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let parent = self.current();
        let start_ns = self.now();
        let id = {
            let mut spans = self.lock();
            spans.push(SpanRec {
                layer,
                parent,
                start_ns,
                end_ns: start_ns,
                splits: Vec::new(),
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let result = {
            let _scope = mpvl_obs::worker_scope(scope_of(id));
            f()
        };
        OPEN.with(|o| o.borrow_mut().pop());
        let end_ns = self.now();
        self.lock()[id].end_ns = end_ns;
        (result, id)
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Runs `f` with `parent` as the innermost open span on this thread —
    /// how work fanned out to another thread stays inside its caller.
    pub fn under<T>(&self, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let Some(parent) = parent else {
            return f();
        };
        OPEN.with(|o| o.borrow_mut().push(parent));
        let result = f();
        OPEN.with(|o| o.borrow_mut().pop());
        result
    }

    /// Carves `ns` of span `id`'s self time out for `layer`.
    pub fn add_split(&self, id: usize, layer: &'static str, ns: u64) {
        self.lock()[id].splits.push((layer, ns));
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().clone()
    }
}

/// Totals of one layer over the traced roots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Wall-clock share, s: self time split among concurrent spans.
    /// These add up, over layers, to the roots' wall time.
    pub wall_s: f64,
    /// Summed durations of the layer's own spans, children included, s.
    pub inclusive_s: f64,
    /// Spans of the layer.
    pub calls: u64,
}

/// Where the time of a set of traced roots went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Summed wall time of the roots, s.
    pub root_s: f64,
    /// Per root, its duration in s, in recording order.
    pub root_durations_s: Vec<f64>,
    /// Root self time: glue outside every layer span, s.
    pub unattributed_s: f64,
    /// Per layer, sorted by name.
    pub layers: BTreeMap<&'static str, LayerTime>,
}

impl Breakdown {
    /// Share of the roots' wall time that some layer accounts for.
    pub fn coverage(&self) -> f64 {
        if self.root_s > 0.0 {
            1.0 - self.unattributed_s / self.root_s
        } else {
            0.0
        }
    }

    /// Wall share of one layer, s (0 when it never ran).
    pub fn wall(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |l| l.wall_s)
    }
}

/// Accounts the trees whose root layer is `root_layer`.
pub fn breakdown(spans: &[SpanRec], root_layer: &str) -> Breakdown {
    // Which root each span hangs under; parents precede children.
    let mut root = vec![usize::MAX; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = match s.parent {
            None => i,
            Some(p) => root[p],
        };
    }
    let keep: Vec<bool> = (0..spans.len())
        .map(|i| root[i] != usize::MAX && spans[root[i]].layer == root_layer)
        .collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let (true, Some(p)) = (keep[i], s.parent) {
            children[p].push(i);
        }
    }

    // Self pieces of every kept span, and the equal-split sweep over them.
    let mut pieces: Vec<(u64, u64, usize)> = Vec::new();
    let mut busy = vec![0u64; spans.len()];
    for i in (0..spans.len()).filter(|&i| keep[i]) {
        let mut cover: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns))
            .collect();
        cover.sort_unstable();
        let mut at = spans[i].start_ns;
        for (a, b) in cover {
            if a > at {
                pieces.push((at, a, i));
                busy[i] += a - at;
            }
            at = at.max(b);
        }
        if spans[i].end_ns > at {
            pieces.push((at, spans[i].end_ns, i));
            busy[i] += spans[i].end_ns - at;
        }
    }
    let wall = equal_split(&pieces, spans.len());

    let mut out = Breakdown::default();
    for i in (0..spans.len()).filter(|&i| keep[i]) {
        let s = &spans[i];
        let dur_s = (s.end_ns - s.start_ns) as f64 * 1e-9;
        if s.parent.is_none() {
            out.root_s += dur_s;
            out.root_durations_s.push(dur_s);
            out.unattributed_s += wall[i];
            continue;
        }
        let own = out.layers.entry(s.layer).or_default();
        own.calls += 1;
        own.inclusive_s += dur_s;
        let carved: u64 = s.splits.iter().map(|(_, ns)| ns).sum();
        let b = busy[i];
        if b == 0 {
            continue;
        }
        // Splits are measured apart from the span, so they can exceed
        // its self time by noise; they then share it pro rata.
        let denom = carved.max(b) as f64;
        own.wall_s += wall[i] * (b.saturating_sub(carved)) as f64 / b as f64;
        for &(layer, ns) in &s.splits {
            out.layers.entry(layer).or_default().wall_s += wall[i] * ns as f64 / denom;
        }
    }
    out
}

/// Wall seconds per span: each instant is shared equally among the
/// pieces covering it.
fn equal_split(pieces: &[(u64, u64, usize)], n: usize) -> Vec<f64> {
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * pieces.len());
    for &(a, b, i) in pieces {
        events.push((a, true, i));
        events.push((b, false, i));
    }
    // Ends sort before starts at one instant.
    events.sort_unstable_by_key(|&(t, start, i)| (t, start, i));
    let mut wall = vec![0.0; n];
    let mut active: Vec<usize> = Vec::new();
    let mut last = 0u64;
    for (t, start, i) in events {
        if !active.is_empty() && t > last {
            let share = (t - last) as f64 * 1e-9 / active.len() as f64;
            for &a in &active {
                wall[a] += share;
            }
        }
        last = t;
        if start {
            active.push(i);
        } else if let Some(pos) = active.iter().position(|&a| a == i) {
            active.swap_remove(pos);
        }
    }
    wall
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(layer: &'static str, parent: Option<usize>, a: u64, b: u64) -> SpanRec {
        SpanRec {
            layer,
            parent,
            start_ns: a * 1_000_000_000,
            end_ns: b * 1_000_000_000,
            splits: Vec::new(),
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn self_time_excludes_children_and_glue_is_unattributed() {
        // request [0,10]: ingest [0,2], reduce [3,9] with factor [3,7].
        let spans = vec![
            rec(REQUEST, None, 0, 10),
            rec("service.ingest", Some(0), 0, 2),
            rec("engine.reduce", Some(0), 3, 9),
            rec("core.factor", Some(2), 3, 7),
        ];
        let b = breakdown(&spans, REQUEST);
        assert!(close(b.root_s, 10.0));
        assert!(close(b.unattributed_s, 2.0), "gaps [2,3] and [9,10]");
        assert!(close(b.coverage(), 0.8));
        assert!(close(b.wall("service.ingest"), 2.0));
        assert!(close(b.wall("engine.reduce"), 2.0));
        assert!(close(b.wall("core.factor"), 4.0));
        assert!(close(b.layers["engine.reduce"].inclusive_s, 6.0));
        let total: f64 = b.layers.values().map(|l| l.wall_s).sum();
        assert!(close(total + b.unattributed_s, b.root_s));
    }

    #[test]
    fn concurrent_children_share_the_wall_clock() {
        // A fan-out [0,6] waits on two workers: [0,4] and [0,6], each
        // on a thread of its own.
        let spans = vec![
            rec(REQUEST, None, 0, 6),
            rec("engine.reduce_batch", Some(0), 0, 6),
            rec("core.adaptive", Some(1), 0, 4),
            rec("core.balanced", Some(1), 0, 6),
        ];
        let b = breakdown(&spans, REQUEST);
        assert!(close(b.wall("core.adaptive"), 2.0));
        assert!(close(b.wall("core.balanced"), 4.0), "2 shared + 2 alone");
        assert!(close(b.wall("engine.reduce_batch"), 0.0));
        assert!(close(b.coverage(), 1.0));
        assert!(close(b.layers["core.balanced"].inclusive_s, 6.0));
    }

    #[test]
    fn splits_carve_self_time_and_are_capped_by_it() {
        let mut spans = vec![
            rec(REQUEST, None, 0, 10),
            rec("core.factor", Some(0), 0, 10),
            rec("core.multipoint", Some(0), 0, 0),
        ];
        spans[1].splits = vec![
            ("sparse.order", 6_000_000_000),
            ("sparse.numeric", 1_000_000_000),
        ];
        let b = breakdown(&spans, REQUEST);
        assert!(close(b.wall("sparse.order"), 6.0));
        assert!(close(b.wall("sparse.numeric"), 1.0));
        assert!(close(b.wall("core.factor"), 3.0));
        // Over-measured splits share the self time pro rata.
        spans[1].splits = vec![
            ("sparse.order", 15_000_000_000),
            ("sparse.numeric", 5_000_000_000),
        ];
        let b = breakdown(&spans, REQUEST);
        assert!(close(b.wall("sparse.order"), 7.5));
        assert!(close(b.wall("sparse.numeric"), 2.5));
        assert!(close(b.wall("core.factor"), 0.0));
        assert_eq!(b.layers["core.multipoint"].calls, 1);
    }

    #[test]
    fn only_the_requested_roots_are_accounted() {
        let spans = vec![
            rec(SETUP, None, 0, 5),
            rec("core.factor", Some(0), 0, 5),
            rec(REQUEST, None, 5, 6),
            rec("core.eval", Some(2), 5, 6),
        ];
        let b = breakdown(&spans, REQUEST);
        assert!(close(b.root_s, 1.0));
        assert_eq!(b.root_durations_s.len(), 1);
        assert!(!b.layers.contains_key("core.factor"));
        let s = breakdown(&spans, SETUP);
        assert!(close(s.wall("core.factor"), 5.0));
    }

    #[test]
    fn tracer_nests_spans_and_tags_program_timings() {
        let t = Tracer::new();
        let ((), capture) = mpvl_obs::capture(|| {
            t.span(REQUEST, || {
                t.span("core.lanczos", || {
                    let _inner = mpvl_obs::span("lanczos", "block_lanczos");
                });
                let parent = t.current();
                std::thread::scope(|s| {
                    s.spawn(|| t.under(parent, || t.span("core.eval", || ())));
                });
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0), "fanned-out span keeps its parent");
        // Other tests of this binary may record program spans into the
        // capture too, but never under a bench scope.
        let lanczos = capture
            .timings
            .iter()
            .find(|x| x.stage == "lanczos" && span_of_scope(x.worker).is_some())
            .unwrap();
        assert_eq!(span_of_scope(lanczos.worker), Some(1));
        assert_eq!(span_of_scope(0), None);
    }
}
