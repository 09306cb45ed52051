//! # emask-par — deterministic parallel execution
//!
//! Attack campaigns, fault campaigns, and leakage assessments all reduce
//! to thousands of **independent trials**: run the simulator, fold the
//! result into an accumulator. This crate shards those trials across a
//! `std::thread::scope` worker pool such that the final result is
//! **bit-identical for any worker count** — `--jobs 1`, `--jobs 4`, and
//! `--jobs 7` must produce byte-for-byte the same report, or a parallel
//! speedup would silently change the science.
//!
//! Two properties make that hold:
//!
//! 1. **Thread-count-invariant sharding.** The trial range `0..n` is cut
//!    into a fixed number of contiguous shards that depends only on `n`
//!    (never on `jobs`). Workers *pull* whole shards from an atomic queue,
//!    so scheduling is dynamic, but every shard's internal fold order and
//!    the shard-merge order are fixed — floating-point accumulation
//!    brackets identically no matter which thread ran which shard.
//! 2. **Per-trial seeding.** Randomized trials derive their seed from
//!    `(base_seed, trial_index)` via [`trial_seed`] instead of pulling
//!    from one shared sequential RNG, so trial `i` sees the same random
//!    inputs regardless of which worker runs it or in what order.
//!
//! The pool is deliberately dependency-free (the vendor directory is
//! offline) and unsafe-free: workers return their `(shard_index, result)`
//! pairs through `std::thread::scope` joins, and the caller-visible
//! results are re-ordered by shard index.
//!
//! Accumulator campaigns use [`fold_sharded`] instead of collecting every
//! shard's result: finished shards fold into one running prefix in shard
//! order, and a reorder window the size of the pool keeps at most
//! `jobs + 1` accumulators alive (see [`peak_accumulators`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

mod lease;

pub use lease::{Lease, ThreadBudget};

use std::any::Any;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Why a cancellable run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// A client (or the supervisor on its behalf) asked the run to stop.
    Cancelled,
    /// The run's wall-clock deadline expired.
    DeadlineExceeded,
    /// The process is shutting down; stop at the next trial boundary so
    /// in-flight work can be checkpointed.
    Shutdown,
    /// A scheduler preempted the run to free its workers for
    /// higher-priority work; stop at the next trial boundary so the run
    /// can be checkpointed and re-queued.
    Preempted,
}

impl CancelReason {
    /// The stable report/event name (`cancelled`, `deadline_exceeded`,
    /// `shutdown`, `preempted`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CancelReason::Cancelled => "cancelled",
            CancelReason::DeadlineExceeded => "deadline_exceeded",
            CancelReason::Shutdown => "shutdown",
            CancelReason::Preempted => "preempted",
        }
    }
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Atomic encoding of "not cancelled" in [`CancelToken`].
const LIVE: u8 = 0;

/// A shared cooperative cancellation flag, checked at **trial
/// boundaries** by the cancellable runners.
///
/// Cancellation is deliberately cooperative and coarse: a trial is the
/// smallest unit of work the deterministic sharding layer accounts for,
/// so stopping *between* trials means an interrupted campaign is always a
/// clean prefix of shard work — resumable from a checkpoint, and
/// guaranteed to produce byte-identical final output once re-run to
/// completion (no trial is ever half-folded into an accumulator).
///
/// Clones share the flag; any clone can [`cancel`](CancelToken::cancel)
/// and every holder observes it. An optional wall-clock deadline makes
/// the token self-cancelling: [`check`](CancelToken::check) trips it with
/// [`CancelReason::DeadlineExceeded`] once the deadline passes.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    /// `LIVE`, or a `CancelReason` discriminant + 1.
    flag: AtomicU8,
    /// Wall-clock instant after which `check` self-cancels.
    deadline: Option<Instant>,
    /// The worker-count lease this run holds, if an arbiter granted one.
    lease: Option<Lease>,
}

impl CancelToken {
    /// A token that never cancels until [`cancel`](CancelToken::cancel)
    /// is called.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally self-cancels (with
    /// [`CancelReason::DeadlineExceeded`]) once `deadline` has elapsed
    /// from now.
    #[must_use]
    pub fn with_deadline(deadline: Duration) -> Self {
        Self::for_job(Some(deadline), None)
    }

    /// The fully-configured token a supervisor hands a run: an optional
    /// wall-clock deadline plus an optional worker-count [`Lease`].
    ///
    /// A `deadline` too large to represent as an `Instant` is treated as
    /// no deadline at all (it could never expire within the process
    /// lifetime) rather than panicking on `Instant` overflow.
    #[must_use]
    pub fn for_job(deadline: Option<Duration>, lease: Option<Lease>) -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicU8::new(LIVE),
                deadline: deadline.and_then(|d| Instant::now().checked_add(d)),
                lease,
            }),
        }
    }

    /// The worker-count lease this token carries, if any.
    #[must_use]
    pub fn lease(&self) -> Option<&Lease> {
        self.inner.lease.as_ref()
    }

    /// Whether worker `index` of a sharded runner may pull another shard.
    ///
    /// Worker 0 always may — a lease never stalls a run outright — and
    /// without a lease every worker may. Checked at shard boundaries, so
    /// a lease shrink drains the excess workers as they finish their
    /// current shard.
    #[must_use]
    pub fn worker_allowed(&self, index: usize) -> bool {
        index == 0 || self.inner.lease.as_ref().is_none_or(|l| index < l.allowed())
    }

    /// Requests cancellation. The first reason wins: cancelling an
    /// already-cancelled token does not overwrite the original reason.
    pub fn cancel(&self, reason: CancelReason) {
        let _ = self.inner.flag.compare_exchange(
            LIVE,
            reason as u8 + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Whether the token has been cancelled (deadline included).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }

    /// The cancellation reason, if any (deadline included).
    #[must_use]
    pub fn reason(&self) -> Option<CancelReason> {
        self.check().err()
    }

    /// The trial-boundary check: `Ok(())` to keep going, `Err(reason)` to
    /// stop. A passed deadline trips the token on first observation.
    pub fn check(&self) -> Result<(), CancelReason> {
        match self.inner.flag.load(Ordering::SeqCst) {
            LIVE => {}
            n => return Err(reason_from(n)),
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.cancel(CancelReason::DeadlineExceeded);
                // Re-read: a concurrent explicit cancel may have won.
                return Err(reason_from(self.inner.flag.load(Ordering::SeqCst)));
            }
        }
        Ok(())
    }
}

/// Decodes the non-`LIVE` flag values written by [`CancelToken::cancel`].
fn reason_from(flag: u8) -> CancelReason {
    match flag {
        f if f == CancelReason::Cancelled as u8 + 1 => CancelReason::Cancelled,
        f if f == CancelReason::DeadlineExceeded as u8 + 1 => CancelReason::DeadlineExceeded,
        f if f == CancelReason::Preempted as u8 + 1 => CancelReason::Preempted,
        _ => CancelReason::Shutdown,
    }
}

/// A cancellable run stopped at a trial boundary before completing.
///
/// `completed_trials` counts trials whose work is *known finished* at the
/// moment the interruption surfaced — it depends on scheduling and is
/// operational information (progress reporting, logs), not part of any
/// deterministic result. The deterministic artifact of an interrupted run
/// is whatever the caller checkpointed; re-running to completion from
/// that checkpoint yields byte-identical final output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted {
    /// Why the run stopped.
    pub reason: CancelReason,
    /// Trials known complete when the interruption surfaced.
    pub completed_trials: usize,
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "interrupted ({}) after {} completed trial(s)",
            self.reason, self.completed_trials
        )
    }
}

impl std::error::Error for Interrupted {}

/// Number of shards a trial range is cut into (when it has at least this
/// many trials). Fixed — independent of the worker count — so the fold
/// bracketing, and therefore every floating-point result, is identical for
/// any `jobs` value. 32 shards keep up to 32 workers busy while bounding
/// the merge fan-in.
pub const SHARDS: usize = 32;

/// Derives the seed of trial `index` from a campaign-level `base_seed`.
///
/// SplitMix64 finalizer over the (seed, index) pair: cheap, well mixed,
/// and — unlike handing one sequential RNG around a worker pool — a pure
/// function of the trial index, which is what makes randomized campaigns
/// thread-count-invariant.
#[must_use]
pub fn trial_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = base_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A validated worker count for `--jobs`-style flags.
///
/// `Jobs::serial()` is the single-threaded default; [`Jobs::parse`]
/// accepts `N >= 1` or `auto` (the machine's available parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(NonZeroUsize);

impl Jobs {
    /// One worker: the serial default.
    #[must_use]
    pub fn serial() -> Self {
        Jobs(NonZeroUsize::MIN)
    }

    /// A specific worker count (`None` when `n == 0`).
    #[must_use]
    pub fn new(n: usize) -> Option<Self> {
        NonZeroUsize::new(n).map(Jobs)
    }

    /// The machine's available parallelism (1 when unknown).
    #[must_use]
    pub fn auto() -> Self {
        Jobs(thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// Parses a `--jobs` argument: a positive integer or `auto`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for `0`, negatives, and junk.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "auto" {
            return Ok(Self::auto());
        }
        s.parse::<usize>()
            .ok()
            .and_then(Self::new)
            .ok_or_else(|| format!("--jobs needs a positive integer or `auto`, got `{s}`"))
    }

    /// The worker count.
    #[must_use]
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl Default for Jobs {
    fn default() -> Self {
        Self::serial()
    }
}

/// The contiguous index ranges the trial range `0..n` is cut into: exactly
/// `min(n, SHARDS)` non-empty shards, a pure function of `n`.
#[must_use]
pub fn shard_ranges(n: usize) -> Vec<Range<usize>> {
    let shards = n.min(SHARDS);
    (0..shards)
        .map(|s| {
            let start = s * n / shards;
            let end = (s + 1) * n / shards;
            start..end
        })
        .collect()
}

/// [`shard_ranges`] with each range paired with its shard index — the
/// enumeration every shard-indexed consumer wants (span ladders, progress
/// tables). Pure like `shard_ranges`: the plan for a given `n` is
/// identical on every run, at any worker count, before or after a resume,
/// which is what lets a supervisor emit per-shard telemetry *after* a
/// campaign returns and still describe exactly the work that happened.
#[must_use]
pub fn shard_plan(n: usize) -> Vec<(usize, Range<usize>)> {
    shard_ranges(n).into_iter().enumerate().collect()
}

/// Runs `worker` once per shard of `0..n` across `jobs` threads and
/// returns the per-shard results **in shard order**.
///
/// `worker(shard_index, trial_range)` folds the trials of one contiguous
/// range into whatever accumulator it likes; because the shard layout is a
/// pure function of `n` (see [`shard_ranges`]) and results are re-ordered
/// by shard index before being returned, the output is identical for any
/// `jobs` value.
///
/// A worker panic is **isolated per shard**: every other shard still runs
/// to completion, and only then is the panic re-raised — always the one
/// from the lowest-indexed panicking shard, so the surfaced panic is
/// independent of scheduling and worker count. Campaigns that must survive
/// a panicking trial should wrap the trial body in [`catch_trial`] so the
/// panic becomes a typed [`TrialPanic`] result instead of reaching this
/// propagation path at all.
///
/// This is [`run_sharded_cancellable`] under a token nobody cancels.
pub fn run_sharded<A, F>(jobs: Jobs, n: usize, worker: F) -> Vec<A>
where
    A: Send,
    F: Fn(usize, Range<usize>) -> A + Sync,
{
    match run_sharded_cancellable(jobs, n, &CancelToken::new(), |s, range| Ok(worker(s, range))) {
        Ok(accs) => accs,
        Err(_) => unreachable!("a private never-cancelled token cannot interrupt"),
    }
}

/// Per-shard outcome of a cancellable run.
enum ShardProgress<A> {
    /// The shard ran every trial and produced its accumulator.
    Completed(A),
    /// The worker observed cancellation after completing this many of the
    /// shard's trials; the partial accumulator was discarded.
    Partial(usize),
    /// The shard was never dispatched (cancellation observed first).
    NotRun,
}

/// [`run_sharded`] with cooperative cancellation: the harness checks
/// `token` before dispatching each shard, and the `worker` reports
/// mid-shard interruption by returning `Err(trials_completed_in_shard)`
/// (it is expected to call [`CancelToken::check`] at its own trial
/// boundaries).
///
/// Returns the shard accumulators in shard order when every shard
/// completed — cancellation requested *after* the last trial has no
/// effect, so a finished run is always delivered. Otherwise returns a
/// typed [`Interrupted`] carrying the reason and the number of trials
/// known complete; the partial accumulators are discarded (interrupted
/// campaigns persist progress through their own checkpoints, at shard
/// granularity, not through this return value).
///
/// Worker panics propagate exactly as in [`run_sharded`]: every
/// dispatched shard still runs (or observes cancellation), then the
/// lowest-indexed panicking shard's payload is re-raised.
///
/// # Errors
///
/// [`Interrupted`] when cancellation stopped at least one shard short.
pub fn run_sharded_cancellable<A, F>(
    jobs: Jobs,
    n: usize,
    token: &CancelToken,
    worker: F,
) -> Result<Vec<A>, Interrupted>
where
    A: Send,
    F: Fn(usize, Range<usize>) -> Result<A, usize> + Sync,
{
    type Caught<A> = Result<ShardProgress<A>, Box<dyn Any + Send>>;
    let ranges = shard_ranges(n);
    let next = AtomicUsize::new(0);
    // Worker `w` pulls shards until none are left; a panicking shard is
    // caught, so it takes down neither its worker nor the shards queued
    // behind it.
    let work = |w: usize| {
        let mut local: Vec<(usize, Caught<A>)> = Vec::new();
        // Lease arbitration: excess workers retire at shard boundaries
        // once the grant shrinks.
        while token.worker_allowed(w) {
            let s = next.fetch_add(1, Ordering::Relaxed);
            let Some(range) = ranges.get(s) else { break };
            let caught = if token.check().is_err() {
                Ok(ShardProgress::NotRun)
            } else {
                catch_unwind(AssertUnwindSafe(|| match worker(s, range.clone()) {
                    Ok(acc) => ShardProgress::Completed(acc),
                    Err(done) => ShardProgress::Partial(done),
                }))
            };
            local.push((s, caught));
        }
        local
    };
    let threads = jobs.get().min(ranges.len());
    let mut tagged = if threads <= 1 {
        work(0)
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let work = &work;
                    scope.spawn(move || work(w))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
                .collect()
        })
    };
    tagged.sort_by_key(|&(s, _)| s);
    // Deterministic panic propagation first: the lowest panicking shard.
    let mut outcomes = Vec::with_capacity(tagged.len());
    for (_, caught) in tagged {
        match caught {
            Ok(p) => outcomes.push(p),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    let complete = outcomes.iter().all(|p| matches!(p, ShardProgress::Completed(_)));
    if complete {
        return Ok(outcomes
            .into_iter()
            .map(|p| match p {
                ShardProgress::Completed(a) => a,
                _ => unreachable!("checked complete above"),
            })
            .collect());
    }
    let completed_trials = outcomes
        .iter()
        .zip(&ranges)
        .map(|(p, r)| match p {
            ShardProgress::Completed(_) => r.len(),
            ShardProgress::Partial(done) => *done,
            ShardProgress::NotRun => 0,
        })
        .sum();
    Err(Interrupted { reason: token.reason().unwrap_or(CancelReason::Cancelled), completed_trials })
}

/// The trial-count boundaries at which [`fold_sharded`] emits a merged
/// snapshot: every positive multiple of `cadence` below `n`, plus `n`
/// itself (`cadence == 0` means final-only).
#[must_use]
pub fn snapshot_boundaries(n: usize, cadence: usize) -> Vec<usize> {
    let mut b = Vec::new();
    if cadence > 0 {
        let mut t = cadence;
        while t < n {
            b.push(t);
            t += cadence;
        }
    }
    if n > 0 {
        b.push(n);
    }
    b
}

/// The most accumulators [`fold_sharded`] ever holds at once for `n`
/// trials on `jobs` workers at snapshot `cadence` — the figure admission
/// control multiplies by an accumulator's footprint.
///
/// The ordered fold keeps one running prefix plus at most one
/// accumulator per shard in its reorder window, and the window is the
/// worker count: `min(jobs, shards) + 1`. Snapshot boundaries that fall
/// *inside* a shard add a snapshot under construction and the boundary
/// clones parked by the shards running ahead of the fold. Boundaries on
/// shard edges (and `cadence == 0`) cost nothing extra: they snapshot the
/// prefix itself.
#[must_use]
pub fn peak_accumulators(jobs: Jobs, n: usize, cadence: usize) -> usize {
    let ranges = shard_ranges(n);
    let window = jobs.get().min(ranges.len());
    if window == 0 {
        return 0;
    }
    let boundaries = snapshot_boundaries(n, cadence);
    let inner = ranges
        .iter()
        .map(|r| boundaries.iter().filter(|&&b| r.start < b && b < r.end).count())
        .max()
        .unwrap_or(0);
    let snapshots = if inner > 0 { 1 + (window - 1) * inner } else { 0 };
    window + 1 + snapshots
}

/// The ordered streaming fold of a sharded run — the one driver every
/// accumulator campaign runs on: the trial-level `fold` applied to every
/// trial of `0..n` across `jobs` workers, with the shard accumulators
/// merged left to right as they complete, and a **merged snapshot of all
/// trials `0..b`** handed to `emit(b, &snapshot)` at every trial-count
/// boundary `b` (see [`snapshot_boundaries`]; `cadence == 0` emits the
/// final result only).
///
/// Each shard folds its contiguous trial range into a copy of `proto`.
/// Whenever shards `0..k` have all finished, they are merged into one
/// running prefix in that order — the bracketing of [`merge_shards`] over
/// [`run_sharded`], so the result is bit-identical to it and to itself at
/// any `jobs` count. A reorder window the size of the worker pool stops a
/// worker from starting shard `s` until `s < k + workers`, which bounds
/// the live accumulators at `min(jobs, shards) + 1` (see
/// [`peak_accumulators`]) instead of one per shard. A shard merged into
/// the prefix is not dropped: the next shard to start resets it with
/// [`Clone::clone_from`]`(proto)` and folds into it, so an accumulator
/// whose `clone_from` keeps its buffers is allocated once per worker
/// rather than once per shard.
///
/// A boundary on a shard edge snapshots the running prefix itself. A
/// boundary strictly inside shard `k` needs the prefix over shards
/// `0..k` merged with shard `k`'s accumulator as it stood at the
/// boundary: the worker running shard `k` builds that snapshot on the
/// spot when the prefix has just reached `k`, and otherwise parks a clone
/// of its accumulator until it has. Every ready boundary is emitted
/// *before* the next shard is folded into the prefix, so `emit` runs in
/// ascending boundary order, exactly once each, with the float bracketing
/// of the fixed shard-merge order. The stream is therefore
/// **bit-identical for any `jobs` count**, while still being *live*:
/// boundary `b` emits as soon as the shards below it are in. `emit` runs
/// under the fold's lock, so a slow `emit` (e.g. a full bounded event
/// bus) blocks the delivering worker — backpressure, by design, rather
/// than unbounded buffering.
///
/// The harness checks `token` **before every trial**, so a cancel,
/// deadline, or shutdown request stops the run at the next trial
/// boundary, and excess workers retire at shard boundaries when the
/// token's lease shrinks (worker 0 never does). On interruption no new
/// shard starts, the accumulators are discarded and a typed
/// [`Interrupted`] reports the trials folded so far; the snapshots
/// already emitted stand — they are complete prefixes of the
/// deterministic stream, so an interrupted run's emissions are a
/// byte-identical prefix of an uninterrupted run's. Cancellation
/// requested after the last trial has folded (e.g. a deadline expiring
/// during the final merge) has no effect: a finished run is always
/// delivered.
///
/// A panic in a shard stops new shards from starting, lets the running
/// ones finish, and is then re-raised — the lowest-indexed panicking
/// shard's payload, whatever the worker count.
///
/// Returns the final merged accumulator (`None` when `n == 0`); the last
/// emission, at boundary `n`, carries the same value.
///
/// # Errors
///
/// [`Interrupted`] when cancellation stopped at least one trial short.
#[allow(clippy::too_many_arguments)]
pub fn fold_sharded<A, F, M, E>(
    jobs: Jobs,
    n: usize,
    cadence: usize,
    token: &CancelToken,
    proto: &A,
    fold: F,
    merge: M,
    emit: E,
) -> Result<Option<A>, Interrupted>
where
    A: Clone + Send + Sync,
    F: Fn(&mut A, usize) + Sync,
    M: Fn(&mut A, &A) + Sync,
    E: Fn(usize, &A) + Sync,
{
    let ranges = shard_ranges(n);
    let boundaries = snapshot_boundaries(n, cadence);
    let workers = jobs.get().min(ranges.len()).max(1);
    let core = OrderedFold {
        ranges: &ranges,
        boundaries: &boundaries,
        window: workers,
        merge: &merge,
        emit: &emit,
        ledger: Mutex::new(Ledger::default()),
        turn: Condvar::new(),
    };
    // Trials known folded — operational progress accounting for the
    // `Interrupted` report, not part of any deterministic result.
    let done = AtomicUsize::new(0);
    let work = |w: usize| {
        while let Some((s, spare)) = core.claim(w, token) {
            let range = ranges[s].clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut acc = match spare {
                    Some(mut acc) => {
                        acc.clone_from(proto);
                        acc
                    }
                    None => proto.clone(),
                };
                // First boundary past the shard's start.
                let mut bi = boundaries.partition_point(|&b| b <= range.start);
                for i in range.clone() {
                    // The trial-boundary cancellation point: an
                    // interrupted shard discards its partial accumulator
                    // (resumable campaigns persist completed work
                    // through their own checkpoints).
                    if token.check().is_err() {
                        return None;
                    }
                    fold(&mut acc, i);
                    done.fetch_add(1, Ordering::Relaxed);
                    if boundaries.get(bi) == Some(&(i + 1)) && i + 1 < range.end {
                        core.offer_partial(bi, s, &acc);
                        bi += 1;
                    }
                }
                Some(acc)
            }));
            core.deliver(s, outcome);
        }
    };
    if workers == 1 {
        work(0);
    } else {
        thread::scope(|scope| {
            for w in 0..workers {
                let work = &work;
                scope.spawn(move || work(w));
            }
        });
    }
    let st = core.ledger.into_inner().unwrap_or_else(PoisonError::into_inner);
    // Deterministic propagation: the lowest panicking shard, for any jobs.
    if let Some((_, payload)) = st.panics.into_iter().next() {
        std::panic::resume_unwind(payload);
    }
    if st.intact && st.next == ranges.len() {
        return Ok(st.prefix);
    }
    Err(Interrupted {
        reason: token.reason().unwrap_or(CancelReason::Cancelled),
        completed_trials: done.load(Ordering::Relaxed),
    })
}

/// The shared state of an ordered fold, behind [`OrderedFold::ledger`].
struct Ledger<A> {
    /// Shards handed to workers so far: the next claim.
    claimed: usize,
    /// Every shard below this index has been folded into `prefix` (or,
    /// once the fold broke, passed over).
    next: usize,
    /// The merge of shards `0..next` in shard order; `None` before shard
    /// 0 lands.
    prefix: Option<A>,
    /// Whether `prefix` covers all of `0..next` — false from the first
    /// shard that stopped short.
    intact: bool,
    /// Delivered shards at or past `next`, waiting for their turn; `None`
    /// for a shard that stopped short (cancelled or panicked).
    pending: BTreeMap<usize, Option<A>>,
    /// Accumulator clones at mid-shard boundaries, parked by shards ahead
    /// of the fold: `(boundary index, shard)` → clone.
    partials: BTreeMap<(usize, usize), A>,
    /// Index into the boundary list of the next snapshot to emit.
    emitted: usize,
    /// Accumulators already merged into `prefix`, kept for the next
    /// shards to reset and reuse.
    spares: Vec<A>,
    /// Set once a shard stopped short: no further shard starts.
    stop: bool,
    /// Panic payloads by shard index.
    panics: BTreeMap<usize, Box<dyn Any + Send>>,
}

impl<A> Default for Ledger<A> {
    fn default() -> Self {
        Ledger {
            claimed: 0,
            next: 0,
            prefix: None,
            intact: true,
            pending: BTreeMap::new(),
            partials: BTreeMap::new(),
            emitted: 0,
            spares: Vec::new(),
            stop: false,
            panics: BTreeMap::new(),
        }
    }
}

/// One ordered fold in flight: the shard plan, the user's merge and emit,
/// and the ledger the workers deliver into.
struct OrderedFold<'a, A, M, E> {
    ranges: &'a [Range<usize>],
    boundaries: &'a [usize],
    /// The reorder window: shard `s` may start once `s < next + window`.
    window: usize,
    merge: &'a M,
    emit: &'a E,
    ledger: Mutex<Ledger<A>>,
    /// Signalled whenever `next` advances or `stop` is set.
    turn: Condvar,
}

impl<A: Clone, M: Fn(&mut A, &A), E: Fn(usize, &A)> OrderedFold<'_, A, M, E> {
    /// The ledger, even after a panic elsewhere: panics are caught and
    /// recorded, so a poisoned lock carries no extra information.
    fn lock(&self) -> MutexGuard<'_, Ledger<A>> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next shard for worker `w` to run, once it is inside the
    /// window, with a merged-away accumulator to reuse if one is spare;
    /// `None` when the worker should retire (lease shrunk, no shards left,
    /// or the run stopped).
    fn claim(&self, w: usize, token: &CancelToken) -> Option<(usize, Option<A>)> {
        // Lease arbitration: excess workers retire at shard boundaries
        // once the grant shrinks; worker 0 always proceeds.
        if !token.worker_allowed(w) {
            return None;
        }
        let mut st = self.lock();
        if st.stop || st.claimed == self.ranges.len() {
            return None;
        }
        let s = st.claimed;
        st.claimed += 1;
        // Shard `next` is claimed and not waiting (it is inside the
        // window), so it finishes and this wait ends.
        while s >= st.next + self.window && !st.stop {
            st = self.turn.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.stop {
            return None;
        }
        Some((s, st.spares.pop()))
    }

    /// Shard `s` reached mid-shard boundary `bi` with accumulator `acc`:
    /// snapshot now if the prefix has reached `s`, else park a clone.
    fn offer_partial(&self, bi: usize, s: usize, acc: &A) {
        let mut st = self.lock();
        if !st.intact {
            return;
        }
        if s == st.next && st.emitted == bi {
            self.emit_with(st.prefix.as_ref(), self.boundaries[bi], acc);
            st.emitted += 1;
        } else {
            st.partials.insert((bi, s), acc.clone());
        }
    }

    /// Hands in shard `s`'s outcome — its accumulator, `None` if it
    /// stopped short, or a panic payload — and folds every shard that is
    /// now next in line.
    fn deliver(&self, s: usize, outcome: thread::Result<Option<A>>) {
        let mut st = self.lock();
        let slot = outcome.unwrap_or_else(|payload| {
            st.panics.insert(s, payload);
            None
        });
        st.stop |= slot.is_none();
        st.pending.insert(s, slot);
        // A panicking merge or emit must not strand the workers waiting
        // on the window: record it against this shard and stop the run.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.advance(&mut st))) {
            st.panics.entry(s).or_insert(payload);
            st.stop = true;
        }
        drop(st);
        self.turn.notify_all();
    }

    /// Emits the ready snapshots, folds shard `next` if it is in, and
    /// repeats until the next shard in line is still running.
    fn advance(&self, st: &mut Ledger<A>) {
        loop {
            self.emit_ready(st);
            let next = st.next;
            let Some(slot) = st.pending.remove(&next) else { return };
            match (slot, &mut st.prefix) {
                (Some(acc), _) if !st.intact => drop(acc),
                (Some(acc), Some(prefix)) => {
                    (self.merge)(prefix, &acc);
                    // Each spare stands in for a window slot that has
                    // not started yet, so the jobs + 1 bound holds.
                    st.spares.push(acc);
                }
                (Some(acc), prefix @ None) => *prefix = Some(acc),
                (None, _) => {
                    // Everything from here on is discarded.
                    st.intact = false;
                    st.prefix = None;
                    st.partials.clear();
                }
            }
            st.next += 1;
        }
    }

    /// Emits, in order, every boundary the prefix over `0..next` can
    /// serve: the edge of shard `next`, and boundaries inside it whose
    /// clone is parked.
    fn emit_ready(&self, st: &mut Ledger<A>) {
        while st.intact && st.emitted < self.boundaries.len() {
            let (bi, b) = (st.emitted, self.boundaries[st.emitted]);
            // With every shard folded, only the final boundary is left.
            if self.ranges.get(st.next).is_none_or(|r| r.start == b) {
                if let Some(prefix) = &st.prefix {
                    (self.emit)(b, prefix);
                }
            } else if let Some(part) = st.partials.remove(&(bi, st.next)) {
                self.emit_with(st.prefix.as_ref(), b, &part);
            } else {
                return;
            }
            st.emitted += 1;
        }
    }

    /// Emits the snapshot at boundary `b`: `prefix` merged with the
    /// boundary shard's accumulator `part`, in that order.
    fn emit_with(&self, prefix: Option<&A>, b: usize, part: &A) {
        match prefix {
            None => (self.emit)(b, part),
            Some(prefix) => {
                let mut snapshot = prefix.clone();
                (self.merge)(&mut snapshot, part);
                (self.emit)(b, &snapshot);
            }
        }
    }
}

/// A trial that panicked inside [`catch_trial`], as data: the campaign
/// classifies it instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialPanic {
    /// The trial index that panicked.
    pub index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// preserved verbatim).
    pub message: String,
}

impl std::fmt::Display for TrialPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TrialPanic {}

/// Runs one trial body with panic isolation: a panic becomes a typed
/// [`TrialPanic`] carrying the trial index and the stringified payload,
/// instead of unwinding into the worker pool. The result is ordinary data,
/// so sharded merge order — and with it bit-identical campaign output —
/// is unaffected by whether a trial panicked.
pub fn catch_trial<T>(index: usize, f: impl FnOnce() -> T) -> Result<T, TrialPanic> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|payload| TrialPanic { index, message: panic_message(payload.as_ref()) })
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Parallel map over the trial indices `0..n`, returning the results in
/// index order. A convenience wrapper over [`run_sharded`] for trials
/// whose per-trial result is kept (campaign rows, collected traces).
pub fn par_map<T, F>(jobs: Jobs, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_sharded(jobs, n, |_, range| range.map(&f).collect::<Vec<T>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Folds the shard accumulators produced by [`run_sharded`] left-to-right
/// with `merge` — the fixed-order reduction that keeps floating-point
/// merges thread-count-invariant. Returns `None` for an empty shard list
/// (`n == 0`).
pub fn merge_shards<A>(accs: Vec<A>, mut merge: impl FnMut(&mut A, A)) -> Option<A> {
    let mut it = accs.into_iter();
    let mut first = it.next()?;
    for acc in it {
        merge(&mut first, acc);
    }
    Some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn shard_ranges_partition_the_trial_space() {
        for n in [0usize, 1, 2, 5, 31, 32, 33, 100, 1000] {
            let ranges = shard_ranges(n);
            assert_eq!(ranges.len(), n.min(SHARDS), "n = {n}");
            let covered: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n = {n}");
            assert!(ranges.iter().all(|r| !r.is_empty()) || n == 0);
        }
    }

    #[test]
    fn shard_plan_enumerates_the_ranges_in_order() {
        for n in [0usize, 1, 31, 32, 33, 400] {
            let plan = shard_plan(n);
            assert_eq!(plan.len(), shard_ranges(n).len(), "n = {n}");
            for (expect, (index, range)) in plan.iter().enumerate() {
                assert_eq!(*index, expect, "n = {n}");
                assert_eq!(*range, shard_ranges(n)[expect], "n = {n}");
            }
        }
        // Pure: two calls agree, which is what post-run telemetry relies on.
        assert_eq!(shard_plan(123), shard_plan(123));
    }

    #[test]
    fn shard_layout_ignores_the_worker_count() {
        // The layout is a pure function of n — nothing else to assert
        // beyond calling it twice, but make the contract explicit.
        assert_eq!(shard_ranges(77), shard_ranges(77));
    }

    #[test]
    fn par_map_is_identical_across_job_counts() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD;
        let serial: Vec<u64> = (0..250).map(f).collect();
        for jobs in [1usize, 2, 4, 7, 16] {
            let par = par_map(Jobs::new(jobs).expect("nonzero"), 250, f);
            assert_eq!(par, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn sharded_float_fold_is_bit_identical_across_job_counts() {
        // A deliberately non-associative fold: the classic case where a
        // thread-count-dependent reduction order would change the bits.
        let fold = |jobs: Jobs| {
            let accs = run_sharded(jobs, 10_000, |_, range| {
                let mut acc = 0.1f64;
                for i in range {
                    acc += (i as f64).sqrt() * 1e-3;
                    acc *= 1.000_000_1;
                }
                acc
            });
            merge_shards(accs, |a, b| *a = *a * 0.5 + b).expect("non-empty")
        };
        let one = fold(Jobs::serial());
        for jobs in [2usize, 3, 4, 7, 12] {
            let j = fold(Jobs::new(jobs).expect("nonzero"));
            assert_eq!(one.to_bits(), j.to_bits(), "jobs = {jobs}");
        }
    }

    #[test]
    fn all_workers_participate_given_enough_shards() {
        let seen = AtomicU64::new(0);
        let _ = run_sharded(Jobs::new(4).expect("nonzero"), 1_000, |_, range| {
            // Record a live thread via its address-free marker: count
            // distinct shard executions; with 32 shards and 4 workers every
            // worker pulls several.
            seen.fetch_add(1, Ordering::Relaxed);
            range.len()
        });
        assert_eq!(seen.load(Ordering::Relaxed), SHARDS as u64);
    }

    #[test]
    fn trial_seed_is_a_pure_well_spread_function() {
        let a = trial_seed(42, 7);
        assert_eq!(a, trial_seed(42, 7));
        // Distinct indices and distinct base seeds decorrelate.
        let seeds: BTreeSet<u64> = (0..1000).map(|i| trial_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(trial_seed(1, 0), trial_seed(2, 0));
        // Low bits are mixed too (SplitMix64 finalizer property).
        let low_bits: BTreeSet<u64> = (0..64).map(|i| trial_seed(0, i) & 0xFF).collect();
        assert!(low_bits.len() > 32, "low byte barely varies: {}", low_bits.len());
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(Jobs::parse("1").expect("parse 1").get(), 1);
        assert_eq!(Jobs::parse("8").expect("parse 8").get(), 8);
        assert!(Jobs::parse("auto").expect("parse auto").get() >= 1);
        assert!(Jobs::parse("0").is_err());
        assert!(Jobs::parse("-3").is_err());
        assert!(Jobs::parse("many").is_err());
        assert_eq!(Jobs::default(), Jobs::serial());
    }

    #[test]
    fn empty_trial_range_is_calm() {
        let out: Vec<u32> = par_map(Jobs::new(4).expect("nonzero"), 0, |_| unreachable!());
        assert!(out.is_empty());
        assert!(merge_shards(Vec::<f64>::new(), |_, _| unreachable!()).is_none());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = run_sharded(Jobs::new(2).expect("nonzero"), 100, |s, _| {
            if s == 3 {
                panic!("boom");
            }
            s
        });
    }

    #[test]
    fn all_shards_complete_before_a_panic_propagates() {
        // Shard 5 panics; every other shard must still execute (the panic
        // is re-raised only after the pool drains), serial runs included.
        for jobs in [1usize, 4] {
            let ran = AtomicU64::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_sharded(Jobs::new(jobs).expect("nonzero"), 1_000, |s, range| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if s == 5 {
                        panic!("shard 5 down");
                    }
                    range.len()
                })
            }));
            assert!(result.is_err(), "jobs = {jobs}");
            assert_eq!(ran.load(Ordering::Relaxed), SHARDS as u64, "jobs = {jobs}: shard skipped");
        }
    }

    #[test]
    fn lowest_panicking_shard_wins_regardless_of_jobs() {
        // Shards 7 and 3 both panic; the surfaced payload must be shard
        // 3's for any worker count — deterministic propagation.
        for jobs in [2usize, 4, 7] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                run_sharded(Jobs::new(jobs).expect("nonzero"), 1_000, |s, _| {
                    if s == 7 {
                        panic!("shard 7");
                    }
                    if s == 3 {
                        panic!("shard 3");
                    }
                    s
                })
            }))
            .expect_err("must panic");
            let msg = err.downcast_ref::<&str>().copied().expect("str payload");
            assert_eq!(msg, "shard 3", "jobs = {jobs}");
        }
    }

    #[test]
    fn snapshot_boundaries_are_cadence_multiples_plus_n() {
        assert_eq!(snapshot_boundaries(10, 3), vec![3, 6, 9, 10]);
        assert_eq!(snapshot_boundaries(9, 3), vec![3, 6, 9]);
        assert_eq!(snapshot_boundaries(10, 0), vec![10]);
        assert_eq!(snapshot_boundaries(10, 100), vec![10]);
        assert_eq!(snapshot_boundaries(0, 3), Vec::<usize>::new());
    }

    /// Runs the snapshotting fold and returns (snapshot stream, final).
    fn snapshotted_fold(jobs: Jobs, n: usize, cadence: usize) -> (Vec<(usize, u64)>, Option<f64>) {
        let stream = std::sync::Mutex::new(Vec::new());
        let result = fold_sharded(
            jobs,
            n,
            cadence,
            &CancelToken::new(),
            &0.1f64,
            |acc, i| {
                *acc += (i as f64).sqrt() * 1e-3;
                *acc *= 1.000_000_1;
            },
            |a, b| *a = *a * 0.5 + b,
            |b, snap: &f64| stream.lock().expect("stream").push((b, snap.to_bits())),
        )
        .expect("never cancelled");
        (stream.into_inner().expect("stream"), result)
    }

    #[test]
    fn snapshots_emit_in_ascending_boundary_order() {
        let (stream, result) = snapshotted_fold(Jobs::new(4).expect("nonzero"), 1000, 128);
        let boundaries: Vec<usize> = stream.iter().map(|&(b, _)| b).collect();
        assert_eq!(boundaries, snapshot_boundaries(1000, 128));
        // The last snapshot is the final result.
        let last = stream.last().expect("final snapshot").1;
        assert_eq!(result.expect("non-empty").to_bits(), last);
    }

    #[test]
    fn snapshot_stream_is_bit_identical_across_job_counts() {
        let (serial, serial_final) = snapshotted_fold(Jobs::serial(), 1000, 100);
        assert_eq!(serial.len(), 10);
        for jobs in [2usize, 4, 7] {
            let (par, par_final) = snapshotted_fold(Jobs::new(jobs).expect("nonzero"), 1000, 100);
            assert_eq!(par, serial, "jobs = {jobs}");
            assert_eq!(
                par_final.expect("non-empty").to_bits(),
                serial_final.expect("non-empty").to_bits(),
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn final_snapshot_matches_the_plain_sharded_fold() {
        // The snapshotting path must not change the end result: same
        // shard layout, same fold, same merge order as run_sharded +
        // merge_shards.
        let plain = {
            let accs = run_sharded(Jobs::new(3).expect("nonzero"), 500, |_, range| {
                let mut acc = 0.1f64;
                for i in range {
                    acc += (i as f64).sqrt() * 1e-3;
                    acc *= 1.000_000_1;
                }
                acc
            });
            merge_shards(accs, |a, b| *a = *a * 0.5 + b).expect("non-empty")
        };
        let (_, snapshotted) = snapshotted_fold(Jobs::new(3).expect("nonzero"), 500, 64);
        assert_eq!(snapshotted.expect("non-empty").to_bits(), plain.to_bits());
    }

    #[test]
    fn cadence_zero_emits_only_the_final_snapshot() {
        let (stream, result) = snapshotted_fold(Jobs::new(4).expect("nonzero"), 300, 0);
        assert_eq!(stream.len(), 1);
        assert_eq!(stream[0].0, 300);
        assert_eq!(stream[0].1, result.expect("non-empty").to_bits());
    }

    #[test]
    fn empty_snapshotted_range_is_calm() {
        let (stream, result) = snapshotted_fold(Jobs::new(4).expect("nonzero"), 0, 10);
        assert!(stream.is_empty());
        assert!(result.is_none());
    }

    #[test]
    fn every_snapshot_equals_a_fresh_prefix_run() {
        // Snapshot at boundary b must equal running the whole machinery
        // on just the trials 0..b — but only when b's shard layout
        // brackets identically, which holds trivially for the final
        // boundary. For intermediate boundaries the guarantee is the
        // weaker (and sufficient) one pinned above: identical across
        // job counts. Here we pin the *semantic* content instead: the
        // snapshot folds exactly the trials 0..b.
        let stream = std::sync::Mutex::new(Vec::new());
        fold_sharded(
            Jobs::new(4).expect("nonzero"),
            200,
            64,
            &CancelToken::new(),
            &Vec::new(),
            |acc: &mut Vec<usize>, i| acc.push(i),
            |a, b| a.extend_from_slice(b),
            |b, snap: &Vec<usize>| {
                let mut sorted = snap.clone();
                sorted.sort_unstable();
                stream.lock().expect("stream").push((b, sorted));
            },
        )
        .expect("never cancelled");
        let stream = stream.into_inner().expect("stream");
        assert_eq!(stream.len(), 4); // 64, 128, 192, 200
        for (b, trials) in stream {
            assert_eq!(trials, (0..b).collect::<Vec<_>>(), "boundary {b}");
        }
    }

    #[test]
    fn cancel_token_first_reason_wins() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.check(), Ok(()));
        t.cancel(CancelReason::DeadlineExceeded);
        t.cancel(CancelReason::Cancelled);
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        // Clones share the flag.
        let c = t.clone();
        assert!(c.is_cancelled());
        assert_eq!(CancelReason::Shutdown.name(), "shutdown");
    }

    #[test]
    fn expired_deadline_trips_the_token() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert_eq!(t.check(), Err(CancelReason::DeadlineExceeded));
        assert_eq!(t.reason(), Some(CancelReason::DeadlineExceeded));
        // A generous deadline does not trip.
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(t.check(), Ok(()));
    }

    #[test]
    fn uncancelled_cancellable_run_matches_run_sharded() {
        let worker = |_: usize, range: Range<usize>| range.map(|i| i * 3).sum::<usize>();
        let plain = run_sharded(Jobs::new(4).expect("jobs"), 500, worker);
        let token = CancelToken::new();
        let cancellable =
            run_sharded_cancellable(Jobs::new(4).expect("jobs"), 500, &token, |s, range| {
                for _ in range.clone() {
                    if token.check().is_err() {
                        return Err(0);
                    }
                }
                Ok(worker(s, range))
            })
            .expect("never cancelled");
        assert_eq!(cancellable, plain);
    }

    #[test]
    fn cancel_mid_shard_returns_a_typed_interrupt() {
        for jobs in [1usize, 4] {
            let token = CancelToken::new();
            let folded = AtomicU64::new(0);
            let err = run_sharded_cancellable(
                Jobs::new(jobs).expect("jobs"),
                1_000,
                &token,
                |_, range| {
                    let mut local = 0usize;
                    for _ in range {
                        if token.check().is_err() {
                            return Err(local);
                        }
                        local += 1;
                        // Trip the token partway through the campaign.
                        if folded.fetch_add(1, Ordering::Relaxed) == 99 {
                            token.cancel(CancelReason::Cancelled);
                        }
                    }
                    Ok(local)
                },
            )
            .expect_err("must interrupt");
            assert_eq!(err.reason, CancelReason::Cancelled, "jobs = {jobs}");
            assert!(err.completed_trials >= 100 && err.completed_trials < 1_000, "{err}");
            assert!(err.to_string().contains("cancelled"), "{err}");
        }
    }

    #[test]
    fn pre_cancelled_run_completes_zero_trials() {
        let token = CancelToken::new();
        token.cancel(CancelReason::Shutdown);
        let err = run_sharded_cancellable(
            Jobs::new(4).expect("jobs"),
            200,
            &token,
            |_, _| -> Result<usize, usize> { panic!("no shard may run") },
        )
        .expect_err("pre-cancelled");
        assert_eq!(err, Interrupted { reason: CancelReason::Shutdown, completed_trials: 0 });
    }

    #[test]
    fn snapshotted_cancel_mid_run_interrupts_with_a_prefix_stream() {
        // Reference: the full uninterrupted snapshot stream.
        let (full, _) = snapshotted_fold(Jobs::new(4).expect("jobs"), 1000, 100);
        for jobs in [1usize, 4] {
            let token = CancelToken::new();
            let stream = std::sync::Mutex::new(Vec::new());
            let err = fold_sharded(
                Jobs::new(jobs).expect("jobs"),
                1000,
                100,
                &token,
                &0.1f64,
                |acc, i| {
                    *acc += (i as f64).sqrt() * 1e-3;
                    *acc *= 1.000_000_1;
                },
                |a, b| *a = *a * 0.5 + b,
                |b, snap: &f64| {
                    stream.lock().expect("stream").push((b, snap.to_bits()));
                    // Cancel as soon as the first snapshot lands.
                    token.cancel(CancelReason::Cancelled);
                },
            )
            .expect_err("must interrupt");
            assert_eq!(err.reason, CancelReason::Cancelled);
            assert!(err.completed_trials < 1000, "jobs = {jobs}: {err}");
            // Whatever was emitted is a byte-identical prefix of the full
            // deterministic stream.
            let emitted = stream.into_inner().expect("stream");
            assert!(!emitted.is_empty(), "the first snapshot emitted before the cancel");
            assert_eq!(emitted[..], full[..emitted.len()], "jobs = {jobs}");
        }
    }

    #[test]
    fn cancel_during_merge_still_delivers_the_full_result() {
        // "Deadline during merge": cancellation that lands after the last
        // trial folded must not discard a complete run.
        let (_, reference) = snapshotted_fold(Jobs::new(3).expect("jobs"), 500, 0);
        let token = CancelToken::new();
        let merges = AtomicUsize::new(0);
        let result = fold_sharded(
            Jobs::new(3).expect("jobs"),
            500,
            0,
            &token,
            &0.1f64,
            |acc, i| {
                *acc += (i as f64).sqrt() * 1e-3;
                *acc *= 1.000_000_1;
            },
            |a, b| {
                // Shards merge in order as they complete, so the last of
                // the SHARDS - 1 merges folds the final shard: it runs
                // after every trial has folded.
                if merges.fetch_add(1, Ordering::SeqCst) == SHARDS - 2 {
                    token.cancel(CancelReason::DeadlineExceeded);
                }
                *a = *a * 0.5 + b
            },
            |_, _| {},
        )
        .expect("complete runs are always delivered");
        assert_eq!(result.expect("non-empty").to_bits(), reference.expect("non-empty").to_bits());
    }

    #[test]
    fn expired_deadline_interrupts_the_snapshotted_run() {
        let token = CancelToken::with_deadline(Duration::from_millis(0));
        let err = fold_sharded(
            Jobs::new(4).expect("jobs"),
            300,
            50,
            &token,
            &0u64,
            |acc, i| *acc += i as u64,
            |a, b| *a += b,
            |_, _| {},
        )
        .expect_err("expired deadline");
        assert_eq!(err.reason, CancelReason::DeadlineExceeded);
        assert_eq!(err.completed_trials, 0);
    }

    #[test]
    fn preempted_reason_round_trips() {
        let t = CancelToken::new();
        t.cancel(CancelReason::Preempted);
        assert_eq!(t.reason(), Some(CancelReason::Preempted));
        assert_eq!(CancelReason::Preempted.name(), "preempted");
        // First reason still wins over a later preempt.
        let t = CancelToken::new();
        t.cancel(CancelReason::Cancelled);
        t.cancel(CancelReason::Preempted);
        assert_eq!(t.reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn oversized_deadline_means_no_deadline() {
        // Duration::MAX past now() does not fit in an Instant; the token
        // must treat it as unreachable instead of panicking.
        let t = CancelToken::for_job(Some(Duration::MAX), None);
        assert_eq!(t.check(), Ok(()));
    }

    #[test]
    fn unleased_token_allows_every_worker() {
        let t = CancelToken::new();
        assert!(t.worker_allowed(0));
        assert!(t.worker_allowed(7));
        assert!(t.lease().is_none());
    }

    #[test]
    fn leased_token_bounds_active_workers() {
        let budget = ThreadBudget::new(8);
        let lease = budget.lease(2);
        let t = CancelToken::for_job(None, Some(lease));
        assert!(t.worker_allowed(0) && t.worker_allowed(1));
        assert!(!t.worker_allowed(2));
        t.lease().expect("leased").shrink(1);
        assert!(t.worker_allowed(0), "worker 0 survives any shrink");
        assert!(!t.worker_allowed(1));
        t.lease().expect("leased").release();
        assert!(t.worker_allowed(0), "worker 0 survives even release");
        assert_eq!(budget.available(), 8);
    }

    #[test]
    fn single_worker_lease_serializes_the_pool() {
        // With a grant of 1, at most one shard body runs at a time even
        // when the runner was asked for 4 threads.
        let budget = ThreadBudget::new(4);
        let token = CancelToken::for_job(None, Some(budget.lease(1)));
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = run_sharded_cancellable(Jobs::new(4).expect("jobs"), 200, &token, |_, range| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(1));
            active.fetch_sub(1, Ordering::SeqCst);
            Ok(range.len())
        })
        .expect("uncancelled");
        assert_eq!(out.iter().sum::<usize>(), 200, "every shard still ran");
        assert_eq!(peak.load(Ordering::SeqCst), 1, "grant of 1 means serial execution");
    }

    #[test]
    fn shrink_mid_run_keeps_results_byte_identical() {
        let worker = |_: usize, range: Range<usize>| range.map(|i| i * 31 + 7).sum::<usize>();
        let reference = run_sharded(Jobs::new(4).expect("jobs"), 1_000, worker);
        let budget = ThreadBudget::new(4);
        let lease = budget.lease(4);
        let token = CancelToken::for_job(None, Some(lease.clone()));
        let dispatched = AtomicUsize::new(0);
        let shrunk =
            run_sharded_cancellable(Jobs::new(4).expect("jobs"), 1_000, &token, |s, range| {
                // Take three workers back partway through the campaign.
                if dispatched.fetch_add(1, Ordering::SeqCst) == 5 {
                    lease.shrink(1);
                }
                Ok(worker(s, range))
            })
            .expect("a shrink never cancels the run");
        assert_eq!(shrunk, reference);
    }

    #[test]
    fn catch_trial_wraps_panics_as_data() {
        assert_eq!(catch_trial(4, || 42), Ok(42));
        let p = catch_trial(17, || -> u32 { panic!("boom {}", 17) }).expect_err("panics");
        assert_eq!(p.index, 17);
        assert_eq!(p.message, "boom 17");
        assert_eq!(p.to_string(), "trial 17 panicked: boom 17");
        // &str payloads are preserved too.
        let p = catch_trial(2, || -> u32 { panic!("plain") }).expect_err("panics");
        assert_eq!(p.message, "plain");
    }

    /// The non-associative float fold the bit-identity tests use.
    fn float_fold(acc: &mut f64, i: usize) {
        *acc += (i as f64).sqrt() * 1e-3;
        *acc *= 1.000_000_1;
    }

    fn float_merge(a: &mut f64, b: &f64) {
        *a = *a * 0.5 + b;
    }

    #[test]
    fn fold_sharded_is_bit_identical_to_merging_run_sharded() {
        for n in [0usize, 1, 31, 32, 33, 100] {
            let reference = merge_shards(
                run_sharded(Jobs::serial(), n, |_, range| {
                    let mut acc = 0.1f64;
                    range.for_each(|i| float_fold(&mut acc, i));
                    acc
                }),
                |a, b| float_merge(a, &b),
            );
            for jobs in [1usize, 2, 4, 7] {
                let folded = fold_sharded(
                    Jobs::new(jobs).expect("nonzero"),
                    n,
                    0,
                    &CancelToken::new(),
                    &0.1f64,
                    float_fold,
                    float_merge,
                    |_, _| {},
                )
                .expect("never cancelled");
                assert_eq!(
                    folded.map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "n {n} jobs {jobs}"
                );
            }
        }
    }

    /// Live, high-water and total instance counts of [`Counted`]
    /// accumulators.
    #[derive(Default)]
    struct Census {
        live: AtomicUsize,
        peak: AtomicUsize,
        births: AtomicUsize,
    }

    impl Census {
        fn born(&self) {
            self.births.fetch_add(1, Ordering::SeqCst);
            let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
        }
    }

    /// An accumulator that reports its births (new and cloned) and
    /// deaths; `clone_from` reuses the instance, as a buffer-keeping
    /// accumulator would.
    struct Counted<'a> {
        sum: u64,
        census: &'a Census,
    }

    impl<'a> Counted<'a> {
        fn new(census: &'a Census) -> Self {
            census.born();
            Counted { sum: 0, census }
        }
    }

    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            self.census.born();
            Counted { sum: self.sum, census: self.census }
        }

        fn clone_from(&mut self, source: &Self) {
            self.sum = source.sum;
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.census.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Uneven trial cost, so shards finish out of order.
    fn jitter(i: usize) {
        thread::sleep(Duration::from_micros(((i * 7919) % 13) as u64 * 40));
    }

    #[test]
    fn fold_holds_at_most_jobs_plus_one_accumulators() {
        for jobs in [1usize, 2, 3, 4, 7] {
            for cadence in [0usize, 16, 7] {
                let census = Census::default();
                let proto = Counted::new(&census);
                let jobs = Jobs::new(jobs).expect("nonzero");
                let snapshots = AtomicUsize::new(0);
                let result = fold_sharded(
                    jobs,
                    200,
                    cadence,
                    &CancelToken::new(),
                    &proto,
                    |acc, i| {
                        jitter(i);
                        acc.sum += i as u64;
                    },
                    |a, b| a.sum += b.sum,
                    |b, snap| {
                        assert_eq!(snap.sum, (0..b as u64).sum::<u64>(), "snapshot at {b}");
                        snapshots.fetch_add(1, Ordering::SeqCst);
                    },
                )
                .expect("never cancelled")
                .expect("non-empty");
                assert_eq!(result.sum, (0..200).sum::<u64>());
                drop(result);
                // The caller's prototype is not the fold's to count.
                let peak = census.peak.load(Ordering::SeqCst) - 1;
                drop(proto);
                assert!(
                    peak <= peak_accumulators(jobs, 200, cadence),
                    "{jobs:?} c{cadence}: {peak}"
                );
                if cadence == 0 {
                    assert!(peak <= jobs.get() + 1, "{jobs:?}: {peak} accumulators live");
                    // Merged-away accumulators are reused, not reallocated:
                    // the prototype plus one per window slot and the prefix.
                    let births = census.births.load(Ordering::SeqCst);
                    assert!(births <= 1 + jobs.get() + 1, "{jobs:?}: {births} allocated");
                }
                assert_eq!(census.live.load(Ordering::SeqCst), 0, "every accumulator dropped");
                assert_eq!(snapshots.into_inner(), snapshot_boundaries(200, cadence).len());
            }
        }
    }

    #[test]
    fn peak_accumulators_counts_the_window_and_mid_shard_snapshots() {
        let jobs = |n| Jobs::new(n).expect("nonzero");
        assert_eq!(peak_accumulators(jobs(2), 0, 0), 0);
        assert_eq!(peak_accumulators(jobs(2), 1, 0), 2);
        assert_eq!(peak_accumulators(jobs(1), 1000, 0), 2);
        assert_eq!(peak_accumulators(jobs(4), 1000, 0), 5);
        assert_eq!(peak_accumulators(jobs(64), 1000, 0), SHARDS + 1);
        // 32 one-trial shards: every boundary sits on a shard edge.
        assert_eq!(peak_accumulators(jobs(2), 32, 8), 3);
        // 1000 trials at cadence 10: up to 3 boundaries inside a 31- or
        // 32-trial shard, parked by the one shard running ahead.
        assert_eq!(peak_accumulators(jobs(2), 1000, 10), 3 + 1 + 3);
    }

    #[test]
    fn fold_reraises_the_lowest_panic_without_stranding_waiters() {
        for jobs in [1usize, 2, 4, 7] {
            let err = catch_unwind(AssertUnwindSafe(|| {
                fold_sharded(
                    Jobs::new(jobs).expect("nonzero"),
                    320,
                    0,
                    &CancelToken::new(),
                    &0u64,
                    |acc, i| {
                        // Shard 3 is slow, so later shards finish first
                        // and their workers wait on the window.
                        if i / 10 == 3 {
                            thread::sleep(Duration::from_millis(2));
                        }
                        if i == 35 {
                            panic!("shard 3");
                        }
                        if i == 95 {
                            panic!("shard 9");
                        }
                        *acc += i as u64;
                    },
                    |a, b| *a += b,
                    |_, _| {},
                )
            }))
            .expect_err("must panic");
            let msg = err.downcast_ref::<&str>().copied().expect("str payload");
            assert_eq!(msg, "shard 3", "jobs = {jobs}");
        }
    }

    #[test]
    fn fold_cancel_reports_the_trials_folded() {
        for jobs in [1usize, 2, 4] {
            let token = CancelToken::new();
            let folded = AtomicUsize::new(0);
            let err = fold_sharded(
                Jobs::new(jobs).expect("nonzero"),
                1_000,
                0,
                &token,
                &0u64,
                |acc, i| {
                    jitter(i);
                    *acc += i as u64;
                    if folded.fetch_add(1, Ordering::SeqCst) == 99 {
                        token.cancel(CancelReason::Cancelled);
                    }
                },
                |a, b| *a += b,
                |_, _| {},
            )
            .expect_err("must interrupt");
            assert_eq!(err.reason, CancelReason::Cancelled, "jobs = {jobs}");
            assert_eq!(err.completed_trials, folded.into_inner(), "jobs = {jobs}");
            assert!(err.completed_trials >= 100 && err.completed_trials < 1_000, "{err}");
        }
    }

    #[test]
    fn fold_survives_a_lease_shrunk_to_one() {
        let reference = fold_sharded(
            Jobs::serial(),
            1_000,
            0,
            &CancelToken::new(),
            &0.1f64,
            float_fold,
            float_merge,
            |_, _| {},
        )
        .expect("never cancelled");
        for jobs in [2usize, 4] {
            let budget = ThreadBudget::new(jobs);
            let lease = budget.lease(jobs);
            let token = CancelToken::for_job(None, Some(lease.clone()));
            let folded = AtomicUsize::new(0);
            let shrunk = fold_sharded(
                Jobs::new(jobs).expect("nonzero"),
                1_000,
                0,
                &token,
                &0.1f64,
                |acc, i| {
                    if folded.fetch_add(1, Ordering::SeqCst) == 150 {
                        lease.shrink(1);
                    }
                    float_fold(acc, i);
                },
                float_merge,
                |_, _| {},
            )
            .expect("a shrink never cancels the run");
            assert_eq!(shrunk.map(f64::to_bits), reference.map(f64::to_bits), "jobs = {jobs}");
        }
    }
}
