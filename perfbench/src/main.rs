//! The emask benchmark: runs one workload, checks its outputs, and
//! prints its metrics.
//!
//! ```text
//! perfbench --workload dpa-4r|tvla-16r|serve-mix --seed N --seconds S --trace 0|1 \
//!           --repro PATH
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced, the
//! per-layer metrics traced). The exit code is nonzero when an output
//! check fails or the run cannot complete. `perfbench/run.py` builds this
//! binary and `repro`, then runs it; see `perfbench/README.md`.

mod campaign;
mod serve;
mod stats;
mod sys;
mod trace;

use campaign::{
    dpa_campaign, dpa_csv, probe_layers, setup, tvla_campaign, tvla_csv, Device, Gauge,
};
use emask_attack::dpa::{plaintext_for, DpaConfig};
use emask_core::MaskPolicy;
use emask_par::Jobs;
use stats::{fnv1a, median, percentile, splitmix};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{SpanId, SpanRec, Tracer};

/// Worker threads of every in-process campaign: `repro dpa --jobs 2`.
const JOBS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Campaign repetitions a run makes even when `--seconds` is shorter.
const MIN_REPS: usize = 2;
/// Plaintexts of the per-layer probe (`Cpu::load`, bare pipeline,
/// pipeline + energy model).
const PROBE_TRIALS: u64 = 6;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        repro: PathBuf::from(".bench_build/release/repro"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repro" => args.repro = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["dpa-4r", "tvla-16r", "serve-mix"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be dpa-4r, tvla-16r or serve-mix, got `{}`",
            args.workload
        ));
    }
    Ok(args)
}

/// Counts output checks; a failed check fails the run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a workload run produced.
struct Outcome {
    checks: Checks,
    metrics: Vec<Metric>,
    /// Workload-specific host tags, as `"key":value` JSON pairs.
    tags: String,
    spans: Vec<SpanRec>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// The in-process campaign workloads.
#[derive(Clone, Copy)]
struct InProcess {
    tvla: bool,
    rounds: usize,
    /// DPA traces, or TVLA trials of one fixed- and one random-key trace.
    trials: usize,
    /// Simulated cycles of one encryption at `rounds`, which must repeat
    /// exactly.
    cycles: u64,
    /// Policies in campaign order, each with whether it must leak.
    policies: [(MaskPolicy, bool); 2],
}

impl InProcess {
    fn encryptions_per_campaign(&self) -> u64 {
        self.trials as u64 * if self.tvla { 2 } else { 1 }
    }
}

/// `repro dpa --samples 192 --jobs 2`: a 4-round device, round-1 window,
/// unmasked then selective. With 64 traces the unmasked attack misses the
/// subkey for some plaintext sets (2 of 5 seeds tried), with 128 for about
/// 1 in 160; 192 recovered it for every seed tried.
const DPA_4R: InProcess = InProcess {
    tvla: false,
    rounds: 4,
    trials: 192,
    cycles: 87_499,
    policies: [(MaskPolicy::None, true), (MaskPolicy::Selective, false)],
};

/// Fixed-vs-random-key TVLA on the full 16-round device, selective then
/// unmasked, key permutation through round 16.
const TVLA_16R: InProcess = InProcess {
    tvla: true,
    rounds: 16,
    trials: 12,
    cycles: 320_275,
    policies: [(MaskPolicy::Selective, false), (MaskPolicy::None, true)],
};

/// One campaign of `w` on `dev`: its result CSV and whether it leaked
/// (DPA recovered the subkey, or TVLA max |t| ≥ 4.5).
fn run_campaign(
    w: &InProcess,
    dev: &Device,
    seed: u64,
    jobs: Jobs,
    tr: &Tracer,
    parent: SpanId,
    live: &Gauge,
) -> (String, bool) {
    if w.tvla {
        let r = tvla_campaign(dev, &dev.kp_to_last, w.trials, seed, jobs, tr, parent, live);
        (tvla_csv(&r), r.max_t >= 4.5)
    } else {
        let cfg = DpaConfig { samples: w.trials, sbox: 0, bit: 0, seed };
        dpa_csv(&dpa_campaign(dev, &dev.round1, &cfg, jobs, tr, parent, live), 0)
    }
}

/// The root span name of every span, following parents upwards.
fn root_names(spans: &[SpanRec]) -> HashMap<u64, &'static str> {
    let by_id: HashMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .map(|s| {
            let mut cur = s;
            while let Some(p) = by_id.get(&cur.parent) {
                cur = p;
            }
            (s.id, cur.name)
        })
        .collect()
}

/// Span statistics for the per-layer metrics. A figure is taken from the
/// measured campaigns when they contain the span, else from the probes.
struct SpanStats<'a> {
    spans: &'a [SpanRec],
    roots: HashMap<u64, &'static str>,
}

impl<'a> SpanStats<'a> {
    fn new(spans: &'a [SpanRec]) -> Self {
        SpanStats { roots: root_names(spans), spans }
    }

    fn named(&self, name: &str) -> Vec<&'a SpanRec> {
        let all: Vec<&SpanRec> = self.spans.iter().filter(|s| s.name == name).collect();
        let measured: Vec<&SpanRec> =
            all.iter().copied().filter(|s| self.roots[&s.id] == "bench.campaign").collect();
        if measured.is_empty() {
            all
        } else {
            measured
        }
    }

    /// Median duration of the spans called `name`, in `unit_ns` units.
    fn median(&self, name: &str, unit_ns: f64) -> f64 {
        med(&self.named(name).iter().map(|s| s.dur_ns() as f64 / unit_ns).collect::<Vec<_>>())
    }

    /// Per `run_sharded` call: shard count, worker busy seconds (sum of
    /// shard spans) and idle seconds (workers × call duration − busy).
    fn sharding(&self) -> (f64, f64, f64) {
        let mut shards = Vec::new();
        let (mut busy, mut idle) = (Vec::new(), Vec::new());
        for rs in self.named("par.run_sharded") {
            let kids: Vec<&SpanRec> = self.spans.iter().filter(|s| s.parent == rs.id).collect();
            let threads: std::collections::BTreeSet<u64> = kids.iter().map(|s| s.thread).collect();
            let b: u64 = kids.iter().map(|s| s.dur_ns()).sum();
            shards.push(kids.len() as f64);
            busy.push(b as f64 / 1e9);
            idle.push((threads.len() as f64 * rs.dur_ns() as f64 - b as f64) / 1e9);
        }
        (med(&shards), med(&busy), med(&idle))
    }
}

/// Per-layer self time over the traced campaign roots, per campaign:
/// the wall-clock share (each instant split among the innermost spans
/// running then, so the column sums to the mean traced `campaign_s`) and
/// the thread time (span duration minus the part its children cover,
/// summed over every thread).
fn print_self_times(spans: &[SpanRec]) {
    let roots = root_names(spans);
    let tops: Vec<&SpanRec> = spans.iter().filter(|s| s.name == "bench.campaign").collect();
    if tops.is_empty() {
        return;
    }
    let n = tops.len() as f64;
    let mut rows: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for r in &tops {
        for (layer, ns) in trace::wall_by_layer(spans, r.id) {
            rows.entry(layer).or_default().0 += ns / 1e9 / n;
        }
    }
    let selfs = trace::self_times(spans);
    for s in spans.iter().filter(|s| roots[&s.id] == "bench.campaign") {
        rows.entry(s.layer()).or_default().1 += selfs[&s.id] as f64 / 1e9 / n;
    }
    let campaign = tops.iter().map(|r| r.dur_ns() as f64 / 1e9).sum::<f64>() / n;
    println!("# self time per traced campaign, s (mean of {n}; campaign_s {campaign:.6})");
    println!("#   {:<8} {:>10} {:>7} {:>10}", "layer", "wall", "share", "thread");
    for (layer, (wall, thread)) in &rows {
        println!("#   {layer:<8} {wall:>10.6} {:>6.1}% {thread:>10.6}", 100.0 * wall / campaign);
    }
    println!("#   {:<8} {:>10.6}", "sum", rows.values().map(|r| r.0).sum::<f64>());
}

/// The service-layer figures for a workload that does not use the
/// service: one pass over the serve-mix job list against a fresh server.
fn service_probe(args: &Args, run_dir: &Path, tr: &Tracer) -> Result<serve::ServeLayer, String> {
    let specs = serve::mix(args.seed);
    let (server, _) = serve::Server::start(&args.repro, &run_dir.join("srv"))?;
    let layer = tr.span("bench.service_probe", SpanId::NONE, None, |sp| {
        let lr = serve::closed_loop(&server, &specs, f64::INFINITY, specs.len(), tr, sp)?;
        serve::serve_layer(&server, &specs, &lr, &run_dir.join("ckpt"), tr, sp)
    })?;
    server.stop()?;
    Ok(layer)
}

fn serve_metrics(m: &mut Vec<Metric>, s: &serve::ServeLayer) {
    m.extend([
        ("serve.queue_wait_p50_ms", s.queue_wait_p50_ms, "ms"),
        ("serve.run_p50_ms", s.run_p50_ms, "ms"),
        ("serve.admit_estimate_mb", s.admit_estimate_mb, "MB"),
        ("serve.rss_over_estimate", s.rss_over_estimate, "ratio"),
        ("serve.rejected", s.rejected, "count"),
        ("serve.retries", s.retries, "count"),
        ("checkpoint.save_ms", s.checkpoint_save_ms, "ms"),
        ("checkpoint.bytes", s.checkpoint_bytes, "bytes"),
        ("telemetry.events", s.events_per_job, "count"),
        ("telemetry.event_bytes", s.event_bytes_per_job, "bytes"),
    ]);
}

/// The layer metrics every workload reports from its spans and probes.
fn layer_metrics(
    m: &mut Vec<Metric>,
    st: &SpanStats,
    dev: &Device,
    window_len: usize,
    accumulator_mb: f64,
    live_peak: i64,
) {
    let pipeline_ms = st.median("cpu.pipeline", 1e6);
    let (shards, busy, idle) = st.sharding();
    m.extend([
        ("cc.compile_ms", st.median("cc.compile", 1e6), "ms"),
        ("core.probe_ms", st.median("core.probe", 1e6), "ms"),
        ("core.encrypt_ms", st.median("core.encrypt", 1e6), "ms"),
        ("cpu.load_us", st.median("cpu.load", 1e3), "us"),
        ("cpu.pipeline_ms", pipeline_ms, "ms"),
        ("cpu.cycles_per_encryption", dev.stats.cycles as f64, "cycles"),
        ("cpu.ipc", dev.stats.ipc(), "ratio"),
        ("energy.observe_ms", st.median("energy.observe_run", 1e6) - pipeline_ms, "ms"),
        ("energy.window_copy_us", st.median("energy.window_copy", 1e3), "us"),
        ("energy.window_fraction", window_len as f64 / dev.trace_len as f64, "ratio"),
        ("attack.dpa_push_ms", st.median("attack.dpa_push", 1e6), "ms"),
        ("attack.welch_push_ms", st.median("attack.welch_push", 1e6), "ms"),
        ("attack.result_ms", st.median("attack.result", 1e6), "ms"),
        ("attack.accumulator_mb", accumulator_mb, "MB"),
        ("par.shards", shards, "count"),
        ("par.worker_busy_s", busy, "s"),
        ("par.worker_idle_s", idle, "s"),
        ("par.merge_ms", st.median("par.merge_shards", 1e6), "ms"),
        ("par.live_accumulators_peak", live_peak as f64, "count"),
    ]);
}

/// Bytes of one multi-bit DPA accumulator: the total plus 4 bits × 64
/// guesses of f64 sums per window sample.
fn dpa_accumulator_mb(window_len: usize) -> f64 {
    (1 + 4 * 64) as f64 * window_len as f64 * 8.0 / 1e6
}

/// Bytes of one two-group Welch accumulator: mean and M2 per group.
fn welch_accumulator_mb(window_len: usize) -> f64 {
    4.0 * window_len as f64 * 8.0 / 1e6
}

fn run_in_process(w: &InProcess, args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let on = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let mut checks = Checks::default();
    let seed = splitmix(args.seed);
    let jobs = Jobs::new(JOBS).expect("nonzero");

    let mut setup_s = Vec::new();
    let mut devs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        devs = on.span("bench.setup", SpanId::NONE, None, |sp| {
            w.policies
                .iter()
                .map(|&(p, _)| setup(p, w.rounds, &on, sp))
                .collect::<Result<Vec<_>, _>>()
        })?;
        setup_s.push(secs(t0));
    }
    for (d, (p, _)) in devs.iter().zip(&w.policies) {
        checks.check(
            d.stats.cycles == w.cycles,
            format!(
                "{p:?}/{}r: {} cycles per encryption, expected {}",
                w.rounds, d.stats.cycles, w.cycles
            ),
        );
    }

    let live = Gauge::default();
    let mut digests: [Option<u64>; 2] = [None; 2];
    let (mut traced_s, mut untraced_s, mut per_campaign) = (Vec::new(), Vec::new(), Vec::new());
    let (mut enc_rate, mut cyc_rate) = (Vec::new(), Vec::new());
    // CPU time is summed over the untraced repetitions: `/proc` counts it
    // in 10 ms ticks, too coarse to divide per repetition.
    let (mut cpu_total, mut enc_total) = (0.0, 0);
    let window = Instant::now();
    let mut rep = 0;
    while rep < MIN_REPS || secs(window) < args.seconds {
        // A traced run alternates traced and untraced repetitions, so the
        // difference of their medians is the tracing overhead.
        let tr = if args.trace && rep % 2 == 0 { &on } else { &off };
        let cpu0 = sys::cpu_seconds("self")?;
        let t0 = Instant::now();
        let outs = tr.span("bench.campaign", SpanId::NONE, Some(rep as u64), |root| {
            devs.iter()
                .map(|d| {
                    let t = Instant::now();
                    let out = run_campaign(w, d, seed, jobs, tr, root, &live);
                    per_campaign.push(secs(t));
                    out
                })
                .collect::<Vec<_>>()
        });
        let campaign_s = secs(t0);
        let cpu_s = sys::cpu_seconds("self")? - cpu0;
        for (i, ((csv, leaked), (p, leaks))) in outs.iter().zip(&w.policies).enumerate() {
            checks.check(leaked == leaks, format!("{p:?}: leaked = {leaked}, expected {leaks}"));
            let d = fnv1a(csv.as_bytes());
            checks.check(
                *digests[i].get_or_insert(d) == d,
                format!("{p:?}: result differs between reps"),
            );
        }
        let enc = 2 * w.encryptions_per_campaign();
        let cycles: u64 = devs.iter().map(|d| d.stats.cycles * w.encryptions_per_campaign()).sum();
        if tr.enabled() {
            traced_s.push(campaign_s);
        } else {
            untraced_s.push(campaign_s);
            enc_rate.push(enc as f64 / campaign_s);
            cyc_rate.push(cycles as f64 / 1e6 / campaign_s);
            cpu_total += cpu_s;
            enc_total += enc;
        }
        rep += 1;
    }
    let window_s = secs(window);
    let peak_rss = sys::peak_rss_mb("self")?;
    println!("# campaign seconds per repetition: {untraced_s:.3?} untraced, {traced_s:.3?} traced");

    // The same campaigns on one worker must produce the same bytes.
    for (i, (d, (p, _))) in devs.iter().zip(&w.policies).enumerate() {
        let csv = if w.tvla {
            tvla_csv(&emask_bench::experiments::tvla_par(
                *p,
                w.rounds,
                w.trials,
                seed,
                Jobs::serial(),
            ))
        } else {
            run_campaign(w, d, seed, Jobs::serial(), &off, SpanId::NONE, &Gauge::default()).0
        };
        checks.check(
            Some(fnv1a(csv.as_bytes())) == digests[i],
            format!("{p:?}: --jobs 1 differs from --jobs 2"),
        );
    }

    let mut m = Vec::new();
    if args.trace {
        let leaky = w.policies.iter().position(|&(_, l)| l).expect("one policy leaks");
        let dev = &devs[leaky];
        let plaintexts: Vec<u64> = (0..PROBE_TRIALS).map(|i| plaintext_for(seed, i)).collect();
        on.span("bench.probe", SpanId::NONE, None, |sp| {
            probe_layers(dev, &plaintexts, &on, sp);
            // The other attack engine, for its push and result costs on
            // this device.
            if w.tvla {
                let cfg = DpaConfig { samples: 4, sbox: 0, bit: 0, seed };
                dpa_campaign(dev, &dev.round1, &cfg, jobs, &on, sp, &Gauge::default());
            } else {
                tvla_campaign(dev, &dev.round1, 4, seed, jobs, &on, sp, &Gauge::default());
            }
        });
        let spans = on.spans();
        let st = SpanStats::new(&spans);
        let (window_len, acc_mb) = if w.tvla {
            (dev.kp_to_last.len(), welch_accumulator_mb(dev.kp_to_last.len()))
        } else {
            (dev.round1.len(), dpa_accumulator_mb(dev.round1.len()))
        };
        layer_metrics(&mut m, &st, dev, window_len, acc_mb, live.peak());
        serve_metrics(&mut m, &service_probe(args, run_dir, &on)?);
        let (t, u) = (med(&traced_s), med(&untraced_s));
        m.extend([
            ("trace.campaign_s", t, "s"),
            ("trace.untraced_campaign_s", u, "s"),
            ("trace.overhead_s", t - u, "s"),
        ]);
    } else {
        let n = per_campaign.len() as f64;
        m.extend([
            ("setup_s", med(&setup_s), "s"),
            ("campaign_s", med(&untraced_s), "s"),
            ("encryptions_per_s", med(&enc_rate), "1/s"),
            ("sim_mcycles_per_s", med(&cyc_rate), "Mcycles/s"),
            ("cpu_ms_per_encryption", cpu_total * 1e3 / enc_total as f64, "ms"),
            ("peak_rss_mb", peak_rss, "MB"),
            ("jobs_per_s", n / window_s, "1/s"),
            ("job_latency_p50_s", percentile(&per_campaign, 50.0).unwrap_or(f64::NAN), "s"),
            ("job_latency_p90_s", percentile(&per_campaign, 90.0).unwrap_or(f64::NAN), "s"),
        ]);
    }
    let tags = format!(
        "\"rounds\":{},\"trials_per_campaign\":{},\"campaigns\":{},\"jobs\":{JOBS},\"setup_reps\":{SETUP_REPS}",
        w.rounds,
        w.trials,
        per_campaign.len()
    );
    Ok(Outcome { checks, metrics: m, tags, spans: on.spans() })
}

fn run_serve_mix(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let on = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let mut checks = Checks::default();
    let specs = serve::mix(args.seed);
    let srv_dir = run_dir.join("srv");

    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..SETUP_REPS {
        let (s, t) = serve::Server::start(&args.repro, &srv_dir)?;
        setup_s.push(t);
        if i + 1 < SETUP_REPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("SETUP_REPS > 0");
    let pid = server.pid();
    let mut cycles: BTreeMap<usize, u64> = BTreeMap::new();
    for s in &specs {
        if let Entry::Vacant(slot) = cycles.entry(s.rounds) {
            slot.insert(setup(MaskPolicy::Selective, s.rounds, &off, SpanId::NONE)?.stats.cycles);
        }
    }

    let cpu0 = sys::cpu_seconds(&pid)?;
    // A traced run spends the first half untraced and the second traced,
    // so the difference is the tracing overhead.
    let halves: Vec<&Tracer> = if args.trace { vec![&off, &on] } else { vec![&off] };
    let seconds = args.seconds / halves.len() as f64;
    let mut loops = Vec::new();
    for tr in &halves {
        loops.push(tr.span("bench.campaign", SpanId::NONE, None, |root| {
            serve::closed_loop(&server, &specs, seconds, usize::MAX, tr, root)
        })?);
    }
    let cpu_s = sys::cpu_seconds(&pid)? - cpu0;
    let peak_rss = sys::peak_rss_mb(&pid)?;
    let layer = if args.trace {
        Some(serve::serve_layer(
            &server,
            &specs,
            &loops[1],
            &run_dir.join("ckpt"),
            &on,
            SpanId::NONE,
        )?)
    } else {
        None
    };
    server.stop()?;

    let jobs: Vec<serve::JobOutcome> = loops.iter().flat_map(|l| l.jobs.clone()).collect();
    let rejected: u64 = loops.iter().map(|l| l.rejected).sum();
    let bad = serve::verify(&srv_dir, &specs, &jobs, &run_dir.join("solo"))?;
    // One check per submission: accepted, completed, and equal to its
    // solo run.
    checks.attempted += jobs.len() as u64 + rejected;
    checks.failed += bad + rejected;
    if bad + rejected > 0 {
        eprintln!("perfbench: check failed: {rejected} jobs rejected, {bad} incomplete or wrong");
    }
    for (i, spec) in specs.iter().enumerate() {
        let lat: Vec<f64> = jobs.iter().filter(|j| j.spec == i).map(|j| j.latency_s).collect();
        println!(
            "# job {i}: {} {}r x{} jobs={} {} — {} runs, median latency {:.6} s",
            spec.experiment,
            spec.rounds,
            spec.trials,
            spec.jobs,
            spec.priority,
            lat.len(),
            med(&lat)
        );
    }
    let wall_s: f64 = loops.iter().map(|l| l.wall_s).sum();
    // Seconds per pass over the whole job list, from one loop.
    let per_pass =
        |l: &serve::LoopResult| l.wall_s * specs.len() as f64 / l.jobs.len().max(1) as f64;

    let mut m = Vec::new();
    if let Some(layer) = layer {
        let live = Gauge::default();
        let probe_dev =
            on.span("bench.probe", SpanId::NONE, None, |sp| -> Result<Device, String> {
                let mut dev = setup(MaskPolicy::Selective, 1, &on, sp)?;
                for _ in 1..SETUP_REPS {
                    dev = setup(MaskPolicy::Selective, 1, &on, sp)?;
                }
                let seed = splitmix(args.seed);
                let plaintexts: Vec<u64> =
                    (0..PROBE_TRIALS).map(|i| plaintext_for(seed, i)).collect();
                probe_layers(&dev, &plaintexts, &on, sp);
                // The mix's two attack engines at the size of its 1-round
                // dpa job.
                let jobs = Jobs::new(JOBS).expect("nonzero");
                let cfg = DpaConfig { samples: 12, sbox: 0, bit: 0, seed };
                dpa_campaign(&dev, &dev.round1, &cfg, jobs, &on, sp, &live);
                tvla_campaign(&dev, &dev.kp_to_last, 12, seed, jobs, &on, sp, &Gauge::default());
                Ok(dev)
            })?;
        let spans = on.spans();
        let st = SpanStats::new(&spans);
        let w = probe_dev.round1.len();
        layer_metrics(&mut m, &st, &probe_dev, w, dpa_accumulator_mb(w), live.peak());
        serve_metrics(&mut m, &layer);
        let (u, t) = (per_pass(&loops[0]), per_pass(&loops[1]));
        m.extend([
            ("trace.campaign_s", t, "s"),
            ("trace.untraced_campaign_s", u, "s"),
            ("trace.overhead_s", t - u, "s"),
        ]);
    } else {
        let done: Vec<&serve::JobOutcome> =
            jobs.iter().filter(|j| j.state == "completed").collect();
        let enc: u64 = done.iter().map(|j| serve::encryptions(&specs[j.spec])).sum();
        let cyc: u64 = done
            .iter()
            .map(|j| serve::encryptions(&specs[j.spec]) * cycles[&specs[j.spec].rounds])
            .sum();
        let lat: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
        m.extend([
            ("setup_s", med(&setup_s), "s"),
            ("campaign_s", per_pass(&loops[0]), "s"),
            ("encryptions_per_s", enc as f64 / wall_s, "1/s"),
            ("sim_mcycles_per_s", cyc as f64 / 1e6 / wall_s, "Mcycles/s"),
            ("cpu_ms_per_encryption", cpu_s * 1e3 / enc as f64, "ms"),
            ("peak_rss_mb", peak_rss, "MB"),
            ("jobs_per_s", done.len() as f64 / wall_s, "1/s"),
            ("job_latency_p50_s", percentile(&lat, 50.0).unwrap_or(f64::NAN), "s"),
            ("job_latency_p90_s", percentile(&lat, 90.0).unwrap_or(f64::NAN), "s"),
        ]);
    }
    let tags = format!(
        "\"rounds\":\"1-2\",\"clients\":2,\"executors\":2,\"thread_budget\":2,\"jobs_run\":{},\"mix\":[{}]",
        jobs.len(),
        specs.iter().map(emask_serve::JobSpec::to_json).collect::<Vec<_>>().join(",")
    );
    Ok(Outcome { checks, metrics: m, tags, spans: on.spans() })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir =
        PathBuf::from(".bench_run").join(format!("{}-{}", args.workload, std::process::id()));
    let result = match args.workload.as_str() {
        "dpa-4r" => run_in_process(&DPA_4R, &args, &run_dir),
        "tvla-16r" => run_in_process(&TVLA_16R, &args, &run_dir),
        _ => run_serve_mix(&args, &run_dir),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let ok_ratio =
        (out.checks.attempted - out.checks.failed) as f64 / out.checks.attempted.max(1) as f64;
    if !args.trace {
        out.metrics.push(("ok_ratio", ok_ratio, "ratio"));
    }
    if args.trace {
        if let Err(e) = trace::check_tree(&out.spans) {
            out.checks.check(false, format!("span tree: {e}"));
        }
        print_self_times(&out.spans);
        let path =
            PathBuf::from(".bench_run").join(format!("spans-{}-{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, trace::spans_json(&out.spans)) {
            eprintln!("perfbench: {}: {e}", path.display());
        } else {
            println!("# spans written to {}", path.display());
        }
    }
    for (name, value, unit) in &out.metrics {
        if !value.is_finite() {
            out.checks.check(false, format!("{name} was not measured"));
        }
        println!("# {name:<28} {value:>16.6} {unit}");
    }
    println!(
        "{{\"host\":{}}}",
        sys::host_json(&format!(
            "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{}",
            args.workload, args.seed, args.seconds, args.trace, out.tags
        ))
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { v.to_string() } else { "null".into() };
            format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted,
        out.checks.failed,
        metrics.join(",")
    );
    if out.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
