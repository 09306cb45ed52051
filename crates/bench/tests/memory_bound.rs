//! Admission control must upper-bound what a campaign really allocates.
//!
//! This test binary routes every heap allocation through a counting
//! global allocator and checks each experiment's peak heap against
//! `BenchRunner::admit`'s estimate, at one and two workers. All
//! cases run inside one `#[test]` so no other test's allocations share
//! the counters.

use emask_bench::service::BenchRunner;
use emask_par::CancelToken;
use emask_serve::{ExperimentRunner, JobCtx, JobSink, JobSpec, RunStatus};
use emask_telemetry::SpanId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated, and their high-water mark.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let now = LIVE.fetch_add(by, Ordering::SeqCst) + by;
        PEAK.fetch_max(now, Ordering::SeqCst);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            Self::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `spec` through the service runner and returns the job's peak
/// heap above what was allocated before it started.
fn peak_heap(spec: &JobSpec, tag: &str) -> usize {
    let dir = std::env::temp_dir();
    let events = dir.join(format!("emask-memory-bound-{}-{tag}.events", std::process::id()));
    let ckpt = events.with_extension("ckpt");
    let sink = JobSink::open(&events).expect("event sink");
    let token = CancelToken::new();
    let ctx = JobCtx {
        token: &token,
        sink: &sink,
        checkpoint: &ckpt,
        span: SpanId::ROOT,
        workers: spec.jobs,
    };
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let status = BenchRunner.run(spec, &ctx);
    let peak = PEAK.load(Ordering::SeqCst) - base;
    assert!(matches!(status, RunStatus::Done { .. }), "{tag}: {status:?}");
    drop(sink);
    let _ = std::fs::remove_file(&events);
    let _ = std::fs::remove_file(&ckpt);
    peak
}

#[test]
fn measured_peak_heap_stays_within_the_admission_estimate() {
    // (experiment, rounds, trials, cadence, recover)
    let cases = [
        // 12 one-trial shards: more shards than the fold window holds.
        ("dpa", 1, 12, 0, false),
        ("cpa", 1, 12, 0, false),
        ("tvla", 2, 12, 0, false),
        // 40 trials at cadence 3: snapshot boundaries inside shards.
        ("tvla", 1, 40, 3, false),
        // Fault campaigns keep every trial row; recovery adds the
        // rollback checkpoints of the trials in flight.
        ("fault", 1, 40, 0, false),
        ("fault", 1, 40, 0, true),
        ("fault", 2, 12, 0, false),
        ("fault", 2, 12, 0, true),
        // Leakage attribution profiles one policy's traces at a time.
        ("leakage", 1, 6, 0, false),
        ("leakage", 2, 6, 0, false),
    ];
    let mut over = Vec::new();
    for (experiment, rounds, trials, cadence, recover) in cases {
        for jobs in [1usize, 2] {
            let spec = JobSpec {
                experiment: experiment.into(),
                rounds,
                trials,
                cadence,
                recover,
                jobs,
                ..JobSpec::default()
            };
            let tag = format!("{experiment}-r{rounds}-t{trials}-c{cadence}-rec{recover}-j{jobs}");
            let estimate = BenchRunner.admit(&spec).expect("admissible") as usize;
            let peak = peak_heap(&spec, &tag);
            println!("{tag}: peak {peak} B, estimate {estimate} B");
            if peak > estimate {
                over.push(format!("{tag}: peak heap {peak} B exceeds the estimate {estimate} B"));
            }
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}
