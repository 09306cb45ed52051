//! The campaign-service workload: a `repro serve` process driven in a
//! closed loop through the `emask_serve::client` calls.

use crate::stats::{median, splitmix};
use crate::sys;
use crate::trace::{SpanId, Tracer};
use emask_bench::checkpoint::CampaignCheckpoint;
use emask_bench::BenchRunner;
use emask_par::CancelToken;
use emask_serve::json::{parse, Json};
use emask_serve::{client, ExperimentRunner, JobCtx, JobSink, JobSpec, RunStatus};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Executors and pool threads of the server under test: one per CPU of
/// the 2-CPU reference host.
const EXECUTORS: &str = "2";
const THREAD_BUDGET: &str = "2";
/// Closed-loop client threads.
const CLIENTS: usize = 2;

/// A running `repro serve` process. Dropping it kills and reaps the
/// process, so no error path leaves a server behind.
pub struct Server {
    child: Child,
    pub socket: PathBuf,
    pub state_dir: PathBuf,
}

impl Server {
    /// Starts a server on a fresh state directory `dir`. Returns the
    /// server and its start-up time: spawn until its socket is bound. (The
    /// first reply can wait up to one 25 ms accept poll more; that wait
    /// shows in job latency, and would make start-up time bimodal.) The
    /// server must then answer `status`.
    pub fn start(repro: &Path, dir: &Path) -> Result<(Server, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("s.sock");
        let log = std::fs::File::create(dir.join("server.log")).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let child = Command::new(repro)
            .arg("serve")
            .arg("--state-dir")
            .arg(dir)
            .arg("--socket")
            .arg(&socket)
            .args(["--executors", EXECUTORS, "--thread-budget", THREAD_BUDGET])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
        let mut server = Server { child, socket, state_dir: dir.to_path_buf() };
        let mut bound = None;
        loop {
            if bound.is_none() && server.socket.exists() {
                bound = Some(t0.elapsed().as_secs_f64());
            }
            if let Some(t) = bound {
                if client::status(&server.socket).is_ok() {
                    return Ok((server, t));
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("server did not answer within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to drain and exit, and waits for it.
    pub fn stop(mut self) -> Result<(), String> {
        client::shutdown(&self.socket).map_err(|e| format!("shutdown: {e}"))?;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            match self.child.try_wait() {
                Ok(Some(s)) if s.success() => return Ok(()),
                Ok(Some(s)) => return Err(format!("server exited with {s}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("server did not exit within 30 s of shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The job list: ten small jobs at 1–2 rounds. Kinds, sizes, policies,
/// priorities and order are fixed, so every seed asks for the same work
/// in the same order; the seed picks each job's target S-box and
/// experiment seed. Sizes make three short jobs (≈0.1 s on a 2-vCPU
/// Xeon), five of ≈0.4 s and two of ≈0.9 s, so the median and the 90th
/// percentile latency each fall inside one group rather than in a gap
/// between groups. One job, the dpa job, dominates memory (32 shard
/// accumulators), so the server's peak RSS hardly depends on which other
/// job runs beside it.
pub fn mix(seed: u64) -> Vec<JobSpec> {
    // experiment, rounds, trials, policy, recover, jobs, priority
    let shapes: [(&str, usize, usize, &str, bool, usize, &str); 10] = [
        ("fault", 1, 48, "selective", true, 2, "normal"),
        ("tvla", 1, 8, "selective", false, 2, "high"),
        ("dpa", 1, 32, "none", false, 2, "normal"),
        ("leakage", 1, 8, "selective", false, 1, "batch"),
        ("fault", 2, 30, "selective", false, 2, "normal"),
        ("cpa", 1, 4, "none", false, 2, "normal"),
        ("tvla", 2, 20, "none", false, 1, "batch"),
        ("fault", 1, 48, "selective", true, 1, "high"),
        ("fault", 2, 90, "selective", false, 1, "normal"),
        ("leakage", 2, 18, "selective", false, 1, "normal"),
    ];
    let mut r = splitmix(seed);
    let mut next = || {
        r = splitmix(r);
        r
    };
    shapes
        .iter()
        .map(|&(experiment, rounds, trials, policy, recover, jobs, priority)| JobSpec {
            experiment: experiment.into(),
            rounds,
            trials,
            policy: policy.into(),
            recover,
            jobs,
            priority: priority.into(),
            sbox: (next() % 8) as usize,
            seed: next() % 1000,
            ..JobSpec::default()
        })
        .collect()
}

/// Encryptions a job performs by construction: the probe or clean
/// baseline run plus one per trace (two per TVLA trial, two policies for
/// leakage). Fault-recovery replays are not counted.
pub fn encryptions(spec: &JobSpec) -> u64 {
    let t = spec.trials as u64;
    match spec.experiment.as_str() {
        "tvla" => 1 + 2 * t,
        "leakage" => 2 * t.clamp(6, 48),
        _ => 1 + t,
    }
}

/// What one job did, seen from its client.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    pub spec: usize,
    pub id: u64,
    pub state: String,
    /// Submit to terminal state, seconds.
    pub latency_s: f64,
    /// Submit until `watch` delivered the job's `job_started` event.
    pub queue_wait_s: f64,
    pub events: u64,
    pub event_bytes: u64,
    pub retries: u64,
}

/// Counts the event lines `watch` streams for one job, and notes when
/// the first `job_started` arrived.
#[derive(Default)]
struct EventTally {
    events: u64,
    bytes: u64,
    retries: u64,
    started: Option<Instant>,
}

impl std::io::Write for EventTally {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        for line in buf.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            self.events += 1;
            if line.windows(13).any(|w| w == b"\"job_retried\"") {
                self.retries += 1;
            }
            if self.started.is_none() && line.windows(13).any(|w| w == b"\"job_started\"") {
                self.started = Some(Instant::now());
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What a closed loop saw.
pub struct LoopResult {
    pub jobs: Vec<JobOutcome>,
    pub rejected: u64,
    /// First submit to last terminal state, seconds.
    pub wall_s: f64,
}

/// Drives the server with [`CLIENTS`] closed-loop clients, each submitting
/// `specs[k % len]` for a shared running index `k`, watching it to its
/// terminal state, then submitting the next, until `seconds` have passed.
/// `max_jobs` caps the total submitted (the service probe uses it).
pub fn closed_loop(
    server: &Server,
    specs: &[JobSpec],
    seconds: f64,
    max_jobs: usize,
    tr: &Tracer,
    root: SpanId,
) -> Result<LoopResult, String> {
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let jobs = Mutex::new(Vec::new());
    let rejected = Mutex::new(0u64);
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                while t0.elapsed().as_secs_f64() < seconds {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= max_jobs {
                        break;
                    }
                    let spec = &specs[k % specs.len()];
                    let submitted = Instant::now();
                    let id = match tr.span("serve.submit", root, Some(k as u64), |_| {
                        client::submit(&server.socket, &spec.to_json())
                    }) {
                        Ok(id) => id,
                        Err(client::ClientError::Rejected(..)) => {
                            *rejected.lock().expect("tally poisoned") += 1;
                            std::thread::sleep(Duration::from_millis(10));
                            continue;
                        }
                        Err(e) => {
                            errors.lock().expect("tally poisoned").push(format!("submit: {e}"));
                            break;
                        }
                    };
                    let mut tally = EventTally::default();
                    let last = tr.span("serve.watch", root, Some(id), |_| {
                        client::watch(&server.socket, id, &mut tally)
                    });
                    let state = match last {
                        Ok(line) => parse(&line)
                            .ok()
                            .and_then(|d| d.get("state").and_then(Json::as_str).map(str::to_string))
                            .unwrap_or_else(|| "unknown".into()),
                        Err(e) => {
                            errors.lock().expect("tally poisoned").push(format!("watch {id}: {e}"));
                            break;
                        }
                    };
                    let started = tally.started.unwrap_or_else(Instant::now);
                    jobs.lock().expect("tally poisoned").push(JobOutcome {
                        spec: k % specs.len(),
                        id,
                        state,
                        latency_s: submitted.elapsed().as_secs_f64(),
                        queue_wait_s: started.duration_since(submitted).as_secs_f64(),
                        events: tally.events,
                        event_bytes: tally.bytes,
                        retries: tally.retries,
                    });
                }
            });
        }
    });
    let errors = errors.into_inner().expect("tally poisoned");
    if let Some(e) = errors.first() {
        return Err(e.clone());
    }
    Ok(LoopResult {
        jobs: jobs.into_inner().expect("tally poisoned"),
        rejected: rejected.into_inner().expect("tally poisoned"),
        wall_s: t0.elapsed().as_secs_f64(),
    })
}

/// Runs `spec` solo in this process (one worker, no scheduler) and
/// returns its CSV — the reference every service CSV must equal byte for
/// byte, as `repro loadgen --verify` checks.
pub fn solo_csv(spec: &JobSpec, work_dir: &Path) -> Result<String, String> {
    let _ = std::fs::remove_dir_all(work_dir);
    std::fs::create_dir_all(work_dir).map_err(|e| e.to_string())?;
    let sink = JobSink::open(&work_dir.join("events.jsonl")).map_err(|e| e.to_string())?;
    let token = CancelToken::new();
    let ctx = JobCtx {
        token: &token,
        sink: &sink,
        checkpoint: &work_dir.join("ckpt"),
        span: emask_telemetry::SpanId::ROOT,
        workers: 1,
    };
    let status = BenchRunner.run(spec, &ctx);
    let _ = std::fs::remove_dir_all(work_dir);
    match status {
        RunStatus::Done { csv } => Ok(csv),
        other => Err(format!("solo run of {} did not complete: {other:?}", spec.to_json())),
    }
}

/// Byte-compares every completed job's CSV with the solo run of its spec.
/// Returns how many jobs failed the check (not completed, unreadable CSV,
/// or different bytes).
pub fn verify(
    server_dir: &Path,
    specs: &[JobSpec],
    jobs: &[JobOutcome],
    work_dir: &Path,
) -> Result<u64, String> {
    let mut reference: BTreeMap<usize, String> = BTreeMap::new();
    let mut bad = 0;
    for job in jobs {
        if job.state != "completed" {
            bad += 1;
            continue;
        }
        if let Entry::Vacant(slot) = reference.entry(job.spec) {
            slot.insert(solo_csv(&specs[job.spec], work_dir)?);
        }
        let served = std::fs::read_to_string(server_dir.join(format!("job-{}.csv", job.id)))
            .unwrap_or_default();
        if served != reference[&job.spec] {
            eprintln!(
                "perfbench: job {} ({}) CSV differs from its solo run",
                job.id,
                specs[job.spec].to_json()
            );
            bad += 1;
        }
    }
    Ok(bad)
}

/// Per-layer figures of the service and what sits behind it.
pub struct ServeLayer {
    pub queue_wait_p50_ms: f64,
    pub run_p50_ms: f64,
    pub admit_estimate_mb: f64,
    pub rss_over_estimate: f64,
    pub rejected: f64,
    pub retries: f64,
    pub checkpoint_save_ms: f64,
    pub checkpoint_bytes: f64,
    pub events_per_job: f64,
    pub event_bytes_per_job: f64,
}

/// Times `CampaignCheckpoint::save` on the checkpoint a completed fault
/// job left behind, `reps` times. Returns (median save ms, file bytes).
pub fn checkpoint_timing(
    server_dir: &Path,
    specs: &[JobSpec],
    jobs: &[JobOutcome],
    work_dir: &Path,
    tr: &Tracer,
    parent: SpanId,
) -> Result<(f64, f64), String> {
    let job = jobs
        .iter()
        .find(|j| j.state == "completed" && specs[j.spec].experiment == "fault")
        .ok_or("no completed fault job left a checkpoint")?;
    let path = server_dir.join(format!("job-{}.ckpt", job.id));
    let ckpt = CampaignCheckpoint::load(&path)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("{}: missing or corrupt", path.display()))?;
    std::fs::create_dir_all(work_dir).map_err(|e| e.to_string())?;
    let copy = work_dir.join("copy.ckpt");
    let mut ms = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        tr.span("checkpoint.save", parent, Some(job.id), |_| ckpt.save(&copy))
            .map_err(|e| e.to_string())?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let bytes = std::fs::metadata(&copy).map_err(|e| e.to_string())?.len() as f64;
    Ok((median(&ms).unwrap_or(0.0), bytes))
}

/// Collects the service-layer figures once a loop has finished (the
/// server must still be running: its peak RSS is read here). Queue wait
/// and run time come from each job's `watch` stream: submit until its
/// `job_started` event, and from there to its terminal state.
pub fn serve_layer(
    server: &Server,
    specs: &[JobSpec],
    lr: &LoopResult,
    work_dir: &Path,
    tr: &Tracer,
    parent: SpanId,
) -> Result<ServeLayer, String> {
    let admit_mb = specs
        .iter()
        .map(|s| BenchRunner.admit(s).map(|b| b as f64 / 1e6))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .fold(0.0, f64::max);
    let rss = sys::peak_rss_mb(&server.pid())?;
    let (save_ms, bytes) =
        checkpoint_timing(&server.state_dir, specs, &lr.jobs, work_dir, tr, parent)?;
    let n = lr.jobs.len().max(1) as f64;
    let ms =
        |f: fn(&JobOutcome) -> f64| median(&lr.jobs.iter().map(|j| 1e3 * f(j)).collect::<Vec<_>>());
    Ok(ServeLayer {
        queue_wait_p50_ms: ms(|j| j.queue_wait_s).ok_or("no jobs ran")?,
        run_p50_ms: ms(|j| j.latency_s - j.queue_wait_s).ok_or("no jobs ran")?,
        admit_estimate_mb: admit_mb,
        rss_over_estimate: rss / admit_mb,
        rejected: lr.rejected as f64,
        retries: lr.jobs.iter().map(|j| j.retries).sum::<u64>() as f64,
        checkpoint_save_ms: save_ms,
        checkpoint_bytes: bytes,
        events_per_job: lr.jobs.iter().map(|j| j.events).sum::<u64>() as f64 / n,
        event_bytes_per_job: lr.jobs.iter().map(|j| j.event_bytes).sum::<u64>() as f64 / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_but_fixed_in_size() {
        let a = mix(1);
        assert_eq!(a, mix(1));
        let b = mix(2);
        assert_ne!(a, b);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (&x.experiment, x.rounds, x.trials, x.jobs),
                (&y.experiment, y.rounds, y.trials, y.jobs)
            );
        }
        for s in &a {
            BenchRunner.admit(s).unwrap();
        }
    }

    #[test]
    fn event_tally_counts_lines_and_retries() {
        use std::io::Write;
        let mut t = EventTally::default();
        t.write_all(b"{\"kind\":\"job_started\"}\n{\"kind\":\"job_retried\"}\n").unwrap();
        assert_eq!((t.events, t.retries, t.bytes), (2, 1, 46));
        assert!(t.started.is_some());
    }
}
