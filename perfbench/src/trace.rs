//! In-memory span recording for the traced run, and the analyses over it.
//!
//! A span is one call into a crate's public function, made from the
//! benchmark's own code: its name (`<layer>.<what>`, the layer being the
//! crate), start and end on a shared monotonic clock, the span that caused
//! it, the recording thread, and the trial or job it served. Spans are
//! kept in memory and written out once the run ends. With tracing off a
//! span is one branch around the call.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; [`SpanId::NONE`] marks a root's parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The parent of a root span (and every id while tracing is off).
    pub const NONE: SpanId = SpanId(0);
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
    /// The trial (campaign workloads) or job id (service workload).
    pub item: Option<u64>,
}

impl SpanRec {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self) -> String {
        let item = self.item.map_or_else(|| "null".to_string(), |i| i.to_string());
        format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"item\":{}}}",
            self.id, self.parent, self.name, self.start_ns, self.end_ns, self.thread, item
        )
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The span recorder. One per run; shared by reference across workers.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` under `parent`, handing `f` the
    /// new span's id so calls it makes (on this or another thread) can
    /// nest under it. With tracing off this is just `f(SpanId::NONE)`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        item: Option<u64>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled {
            return f(SpanId::NONE);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(SpanId(id));
        let end_ns = self.now_ns();
        let rec = SpanRec {
            id,
            parent: parent.0,
            name,
            start_ns,
            end_ns,
            thread: THREAD.with(|t| *t),
            item,
        };
        self.spans.lock().expect("span store poisoned").push(rec);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// The spans as a JSON array, one span per line.
pub fn spans_json(spans: &[SpanRec]) -> String {
    let rows: Vec<String> = spans.iter().map(SpanRec::to_json).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Checks that `spans` form a well-formed forest: unique ids, every
/// parent recorded, every child inside its parent's interval, and the
/// children a parent ran on its own thread strictly one after another.
pub fn check_tree(spans: &[SpanRec]) -> Result<(), String> {
    let mut by_id: HashMap<u64, &SpanRec> = HashMap::new();
    for s in spans {
        if s.id == 0 || by_id.insert(s.id, s).is_some() {
            return Err(format!("span id {} is zero or repeated", s.id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {} `{}` ends before it starts", s.id, s.name));
        }
    }
    let mut same_thread_children: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let Some(p) = by_id.get(&s.parent) else {
            return Err(format!("span {} `{}` has unrecorded parent {}", s.id, s.name, s.parent));
        };
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!("span {} `{}` escapes its parent `{}`", s.id, s.name, p.name));
        }
        if s.thread == p.thread {
            same_thread_children.entry(p.id).or_default().push(s);
        }
    }
    for (parent, mut kids) in same_thread_children {
        kids.sort_by_key(|k| k.start_ns);
        if kids.windows(2).any(|w| w[1].start_ns < w[0].end_ns) {
            return Err(format!("children of span {parent} overlap on one thread"));
        }
    }
    Ok(())
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children (on any thread) cover.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = kids.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered(&mut iv, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Splits the wall time of the tree under `root` among layers: every
/// instant goes to the innermost spans running at that instant, shared
/// equally when several run at once (parallel workers). The shares sum
/// to the root's duration, so they account for it exactly; on a single
/// thread each span's share is its self time.
pub fn wall_by_layer(spans: &[SpanRec], root: u64) -> BTreeMap<&'static str, f64> {
    let mut kids: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        kids.entry(s.parent).or_default().push(i);
    }
    let mut tree = Vec::new();
    let mut stack: Vec<usize> = spans.iter().position(|s| s.id == root).into_iter().collect();
    while let Some(i) = stack.pop() {
        tree.push(i);
        stack.extend(kids.get(&spans[i].id).into_iter().flatten());
    }
    let mut cuts: Vec<u64> =
        tree.iter().flat_map(|&i| [spans[i].start_ns, spans[i].end_ns]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let active: Vec<usize> = tree
            .iter()
            .copied()
            .filter(|&i| spans[i].start_ns <= a && spans[i].end_ns >= b)
            .collect();
        let leaves: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| !active.iter().any(|&j| spans[j].parent == spans[i].id))
            .collect();
        for &i in &leaves {
            *out.entry(spans[i].layer()).or_insert(0.0) += (b - a) as f64 / leaves.len() as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, s: u64, e: u64, thread: u64) -> SpanRec {
        SpanRec { id, parent, name, start_ns: s, end_ns: e, thread, item: None }
    }

    /// A campaign root on thread 1 with a sharded phase whose two shards
    /// run on threads 2 and 3, then a merge back on thread 1.
    fn campaign() -> Vec<SpanRec> {
        vec![
            rec(1, 0, "bench.campaign", 0, 100, 1),
            rec(2, 1, "par.run_sharded", 10, 70, 1),
            rec(3, 2, "par.shard", 10, 60, 2),
            rec(4, 3, "core.encrypt", 10, 50, 2),
            rec(5, 2, "par.shard", 20, 70, 3),
            rec(6, 1, "par.merge_shards", 70, 90, 1),
        ]
    }

    #[test]
    fn a_recorded_campaign_is_a_well_formed_tree() {
        let t = Tracer::new(true);
        let root = t.span("bench.campaign", SpanId::NONE, None, |root| {
            std::thread::scope(|s| {
                for w in 0..2u64 {
                    let t = &t;
                    s.spawn(move || {
                        t.span("par.shard", root, Some(w), |shard| {
                            t.span("core.encrypt", shard, Some(w), |_| ());
                            t.span("attack.dpa_push", shard, Some(w), |_| ());
                        })
                    });
                }
            });
            t.span("par.merge_shards", root, None, |_| ());
            root
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 8);
        check_tree(&spans).unwrap();
        let root_rec = spans.iter().find(|s| s.id == root.0).unwrap();
        assert_eq!(root_rec.parent, 0);
        assert_eq!(spans.iter().filter(|s| s.parent == root.0).count(), 3);
        let threads: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 3, "root thread plus two workers");
        assert!(spans_json(&spans).lines().count() == spans.len() + 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core.encrypt", SpanId::NONE, None, |id| id), SpanId::NONE);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let mut orphan = campaign();
        orphan[3].parent = 99;
        assert!(check_tree(&orphan).unwrap_err().contains("unrecorded parent"));
        let mut escape = campaign();
        escape[5].end_ns = 101;
        assert!(check_tree(&escape).unwrap_err().contains("escapes"));
        let mut overlap = campaign();
        overlap[5].start_ns = 65; // merge starts before run_sharded ends, same thread
        assert!(check_tree(&overlap).unwrap_err().contains("overlap"));
        let mut dup = campaign();
        dup[2].id = 1;
        assert!(check_tree(&dup).is_err());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let st = self_times(&campaign());
        // Root: 100 minus run_sharded [10,70) and merge [70,90).
        assert_eq!(st[&1], 20);
        // The shards overlap; their union [10,70) covers run_sharded.
        assert_eq!(st[&2], 0);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 40);
        assert_eq!(st[&5], 50);
        assert_eq!(st[&6], 20);
    }

    #[test]
    fn wall_shares_account_for_the_root_exactly() {
        let spans = campaign();
        let w = wall_by_layer(&spans, 1);
        let total: f64 = w.values().sum();
        assert!((total - 100.0).abs() < 1e-9, "{w:?}");
        // [0,10) root, [70,90) merge, [90,100) root.
        assert!((w["bench"] - 20.0).abs() < 1e-9);
        // [10,20) encrypt alone; [20,50) encrypt ∥ shard 5 -> 15 each;
        // [50,60) shard 3 ∥ shard 5 -> 5 each; [60,70) shard 5 alone.
        assert!((w["core"] - 25.0).abs() < 1e-9);
        assert!((w["par"] - (15.0 + 10.0 + 10.0 + 20.0)).abs() < 1e-9);
    }
}
