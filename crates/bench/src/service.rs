//! The bench-side [`ExperimentRunner`]: maps `emask-serve` job specs
//! onto the deterministic campaign drivers.
//!
//! This is the glue the `repro serve` subcommand installs. Every
//! experiment's driver takes the service's token, so it actually stops
//! work at trial boundaries; the fault campaign additionally persists its
//! resumable checkpoint at the job's private `.ckpt` path, which is what
//! makes
//! shutdown→restart→resume byte-identical for long campaigns. Result
//! CSVs are pure functions of the spec — the supervision history
//! (cancelled, retried, resumed) never changes a byte of them.

use crate::campaign::{run_campaign, CampaignConfig};
use crate::checkpoint::CampaignError;
use crate::experiments::{cpa_attack, dpa_attack, tvla, KEY, PLAINTEXT};
use crate::live;
use emask_attack::online::{OnlineCpa, OnlineDpa, OnlineWelch};
use emask_core::{DesProgramSpec, MaskPolicy, MaskedDes, RecoveryPolicy};
use emask_par::Jobs;
use emask_serve::{ExperimentRunner, JobCtx, JobSpec, RunStatus};
use emask_telemetry::{EventSink as _, Span};

/// The production runner behind `repro serve`.
#[derive(Debug, Default, Clone, Copy)]
pub struct BenchRunner;

/// The experiments the runner understands.
const EXPERIMENTS: [&str; 5] = ["dpa", "cpa", "tvla", "fault", "leakage"];

fn parse_policy(name: &str) -> Result<MaskPolicy, String> {
    Ok(match name {
        "none" => MaskPolicy::None,
        "selective" => MaskPolicy::Selective,
        "all-loads-stores" => MaskPolicy::AllLoadsStores,
        "all-instructions" => MaskPolicy::AllInstructions,
        other => {
            return Err(format!(
                "unknown policy '{other}' (none|selective|all-loads-stores|all-instructions)"
            ))
        }
    })
}

/// Simulated cycles of one DES round, rounded up: 19,383 for round 1 and
/// about 19,400 for each later one, under every masking policy.
const ROUND_CYCLES: usize = 19_456;

/// Simulated cycles outside the rounds (29,314 − 19,383 at one round),
/// rounded up.
const PROLOGUE_CYCLES: usize = 10_240;

/// Upper bound on the per-cycle trace length of a `rounds`-round
/// encryption (29,314 cycles at one round, 320,275 at sixteen).
fn trace_len_estimate(rounds: usize) -> usize {
    PROLOGUE_CYCLES + ROUND_CYCLES * rounds
}

/// The round count an experiment's device is compiled with: DPA and CPA
/// attack round 1, so four rounds suffice; TVLA and leakage attribution
/// stop at two.
fn device_rounds(experiment: &str, rounds: usize) -> usize {
    match experiment {
        "dpa" | "cpa" => rounds.min(4),
        "tvla" | "leakage" => rounds.min(2),
        _ => rounds,
    }
}

/// Heap bytes an encryption in flight holds per simulated cycle: its
/// energy trace (8-byte samples in a vector that may have doubled past
/// its length) plus the window copy folded into an accumulator.
const TRACE_BYTES_PER_CYCLE: usize = 24;

/// Heap bytes a fault campaign's simulated core holds per worker besides
/// its trace: 32 KiB of data memory plus the register file, pipeline
/// latches and fault hooks.
const CPU_BYTES: usize = 64 * 1024;

/// Heap bytes a recovering fault trial adds per worker: the rollback
/// checkpoint's full shadow copy of data memory and its bookkeeping.
const CHECKPOINT_BYTES: usize = 64 * 1024;

/// Heap bytes one fault trial's classified row costs: the report row,
/// its copy in the campaign checkpoint, and its line of the rendered
/// checkpoint text (about 400 B measured).
const ROW_BYTES: usize = 1024;

/// Heap bytes of the compiled device a fault campaign runs: the program
/// image and its cycle-limited clone (about 120 KB measured).
const DEVICE_BYTES: usize = 256 * 1024;

/// Heap bytes of the leakage study besides the trace in flight: the
/// compiled devices, two per-PC profiles of about 950 instructions each,
/// the profiler's working maps, and the combined CSV (about 130 KB) —
/// about 440 KB measured.
const PROFILE_BYTES: usize = 512 * 1024;

/// Upper bound on the width of the trace window an experiment folds into
/// its accumulators: round 1 for DPA and CPA, key permutation through the
/// last round for TVLA.
fn window_estimate(experiment: &str, rounds: usize) -> usize {
    match experiment {
        "tvla" => trace_len_estimate(device_rounds(experiment, rounds)),
        _ => ROUND_CYCLES,
    }
}

fn compile(policy: MaskPolicy, rounds: usize) -> Result<MaskedDes, String> {
    MaskedDes::compile_spec(policy, &DesProgramSpec { rounds })
        .map_err(|e| format!("device compile failed: {e}"))
}

/// The attack-result CSV shared by dpa and cpa: one row per subkey
/// guess, then the verdict block. Pure function of the result.
fn guesses_csv(
    metric: &str,
    peaks: &[f64; 64],
    peak_cycles: &[usize; 64],
    best_guess: u8,
    margin: f64,
    true_subkey: u8,
    recovered: bool,
) -> String {
    let mut csv = format!("guess,{metric},peak_cycle\n");
    for g in 0..64 {
        csv.push_str(&format!("{g},{},{}\n", peaks[g], peak_cycles[g]));
    }
    csv.push_str(&format!(
        "# best_guess,{best_guess}\n# margin,{margin}\n# true_subkey,{true_subkey}\n# recovered,{recovered}\n"
    ));
    csv
}

impl ExperimentRunner for BenchRunner {
    fn admit(&self, spec: &JobSpec) -> Result<u64, String> {
        if !EXPERIMENTS.contains(&spec.experiment.as_str()) {
            return Err(format!(
                "unknown experiment '{}' ({})",
                spec.experiment,
                EXPERIMENTS.join("|")
            ));
        }
        parse_policy(&spec.policy)?;
        if !(1..=16).contains(&spec.rounds) {
            return Err("rounds must be in 1..=16".into());
        }
        if spec.trials == 0 {
            return Err("trials must be positive".into());
        }
        if spec.sbox >= 8 {
            return Err("sbox must be in 0..=7".into());
        }
        // The accumulator campaigns hold at most `peak_accumulators` shard
        // accumulators at once (the ordered fold's prefix plus one per
        // worker, and snapshot clones at mid-shard boundaries), each of
        // its footprint at the experiment's window. Every worker also
        // holds the traces of the trial it is folding (TVLA's fixed and
        // random pair), and the campaign keeps its probe encryption's.
        // A fault worker holds one trial's trace and core (plus its
        // rollback checkpoint when recovering) and the campaign keeps
        // every classified row; the leakage study runs one encryption at
        // a time next to its profiles.
        let jobs = Jobs::new(spec.jobs).unwrap_or_else(Jobs::serial);
        let accumulators = emask_par::peak_accumulators(jobs, spec.trials, spec.cadence);
        let width = window_estimate(&spec.experiment, spec.rounds);
        let workers = spec.jobs.min(spec.trials);
        let per_trial = if spec.experiment == "tvla" { 2 } else { 1 };
        let traces = workers * per_trial + 1;
        let trace_bytes = TRACE_BYTES_PER_CYCLE
            * trace_len_estimate(device_rounds(&spec.experiment, spec.rounds));
        let campaign = |footprint: usize| accumulators * footprint + traces * trace_bytes;
        let bytes = match spec.experiment.as_str() {
            "dpa" => campaign(OnlineDpa::multibit(spec.sbox, 0).footprint(width)),
            "cpa" => campaign(OnlineCpa::new(spec.sbox).footprint(width)),
            "tvla" => campaign(OnlineWelch::new().footprint(width)),
            "fault" => {
                let checkpoint = if spec.recover { CHECKPOINT_BYTES } else { 0 };
                let per_worker = trace_bytes + CPU_BYTES + checkpoint;
                DEVICE_BYTES + workers * per_worker + spec.trials * ROW_BYTES
            }
            "leakage" => trace_bytes + PROFILE_BYTES,
            _ => unreachable!("filtered above"),
        };
        Ok(bytes as u64)
    }

    fn run(&self, spec: &JobSpec, ctx: &JobCtx<'_>) -> RunStatus {
        let status = run_experiment(spec, ctx);
        // A completed sharded campaign gets its shard ladder appended to
        // the replayable stream: one span per entry of the deterministic
        // shard plan, hung below the supervisor's attempt span. Emitted
        // here — after the merge, in shard order — rather than live from
        // workers, so the stream stays byte-identical at any worker
        // count; `items` is the shard's trial count. (`leakage` has no
        // trial sharding, so it gets no ladder.)
        if matches!(status, RunStatus::Done { .. }) && spec.experiment != "leakage" {
            for (index, range) in emask_par::shard_plan(spec.trials) {
                let shard = Span::below(ctx.span, "shard", index as u64);
                shard.open_on(ctx.sink);
                shard.close_on(ctx.sink, range.len() as u64);
            }
        }
        status
    }
}

fn run_experiment(spec: &JobSpec, ctx: &JobCtx<'_>) -> RunStatus {
    {
        let policy = match parse_policy(&spec.policy) {
            Ok(p) => p,
            Err(reason) => return RunStatus::Failed { reason, transient: false },
        };
        // The spec's worker count is an upper bound; the scheduler's
        // lease (ctx.workers) is the actual grant. Results are
        // byte-identical at any worker count, so the clamp is free.
        let jobs = Jobs::new(spec.jobs.clamp(1, ctx.workers.max(1))).unwrap_or_else(Jobs::serial);
        match spec.experiment.as_str() {
            "fault" => {
                let des = match compile(policy, spec.rounds) {
                    Ok(d) => d,
                    Err(reason) => return RunStatus::Failed { reason, transient: false },
                };
                let cfg = CampaignConfig {
                    trials: spec.trials,
                    plaintext: PLAINTEXT,
                    key: KEY,
                    recovery: spec.recover.then(RecoveryPolicy::default),
                    ..CampaignConfig::default()
                };
                match run_campaign(&des, &cfg, jobs, Some(ctx.checkpoint), ctx.token, ctx.sink) {
                    Ok(report) => RunStatus::Done { csv: report.csv() },
                    Err(CampaignError::Interrupted(i)) => RunStatus::Interrupted(i),
                    // A torn/corrupt checkpoint heals on retry (the
                    // campaign restarts from scratch deterministically);
                    // IO errors are worth another attempt too.
                    Err(e @ CampaignError::Io { .. }) => {
                        RunStatus::Failed { reason: e.to_string(), transient: true }
                    }
                    Err(e) => RunStatus::Failed { reason: e.to_string(), transient: false },
                }
            }
            "dpa" => {
                let rounds = device_rounds("dpa", spec.rounds);
                match dpa_attack(
                    policy,
                    rounds,
                    spec.trials,
                    spec.sbox,
                    jobs,
                    spec.cadence,
                    ctx.token,
                    ctx.sink,
                ) {
                    Ok(outcome) => RunStatus::Done {
                        csv: guesses_csv(
                            "peak_pj",
                            &outcome.result.peaks,
                            &outcome.result.peak_cycles,
                            outcome.result.best_guess,
                            outcome.result.margin,
                            outcome.true_subkey,
                            outcome.recovered,
                        ),
                    },
                    Err(i) => RunStatus::Interrupted(i),
                }
            }
            "cpa" => {
                let rounds = device_rounds("cpa", spec.rounds);
                match cpa_attack(policy, rounds, spec.trials, spec.sbox, jobs, ctx.token) {
                    Ok(outcome) => RunStatus::Done {
                        csv: guesses_csv(
                            "peak_r",
                            &outcome.result.peaks,
                            &outcome.result.peak_cycles,
                            outcome.result.best_guess,
                            outcome.result.margin,
                            outcome.true_subkey,
                            outcome.recovered,
                        ),
                    },
                    Err(i) => RunStatus::Interrupted(i),
                }
            }
            "tvla" => {
                let rounds = device_rounds("tvla", spec.rounds);
                match tvla(
                    policy,
                    rounds,
                    spec.trials,
                    spec.seed,
                    jobs,
                    spec.cadence,
                    ctx.token,
                    ctx.sink,
                ) {
                    Ok(report) => RunStatus::Done {
                        csv: format!(
                            "group_size,max_t,at_cycle,leaky_cycles,leaking\n{},{},{},{},{}\n",
                            report.group_size,
                            report.max_t,
                            report.at_cycle,
                            report.leaky_cycles,
                            report.max_t.abs() > 4.5,
                        ),
                    },
                    Err(i) => RunStatus::Interrupted(i),
                }
            }
            "leakage" => {
                // Attribution is short and has no trial loop; honor the
                // token at its one boundary (before the work).
                if let Err(reason) = ctx.token.check() {
                    return RunStatus::Interrupted(emask_par::Interrupted {
                        reason,
                        completed_trials: 0,
                    });
                }
                let rounds = device_rounds("leakage", spec.rounds);
                let traces = spec.trials.clamp(6, 48);
                let cmp = live::leakage_attribution(rounds, traces, spec.seed);
                ctx.sink.emit(emask_telemetry::Event::CampaignCompleted {
                    trials: traces as u64,
                    dropped_events: ctx.sink.dropped(),
                    dropped_by_kind: ctx.sink.dropped_by_kind(),
                });
                RunStatus::Done { csv: cmp.csv }
            }
            other => RunStatus::Failed {
                reason: format!("unknown experiment '{other}'"),
                transient: false,
            },
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_core::Phase;
    use emask_par::CancelToken;
    use emask_serve::JobSink;
    use emask_telemetry::NullSink;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("emask-bench-service-{}-{name}", std::process::id()))
    }

    fn run(spec: &JobSpec, tag: &str) -> RunStatus {
        let events = tmp(&format!("{tag}.events"));
        let ckpt = tmp(&format!("{tag}.ckpt"));
        let _ = std::fs::remove_file(&events);
        let _ = std::fs::remove_file(&ckpt);
        let sink = JobSink::open(&events).unwrap();
        let token = CancelToken::new();
        let status = BenchRunner.run(
            spec,
            &JobCtx {
                token: &token,
                sink: &sink,
                checkpoint: &ckpt,
                span: emask_telemetry::SpanId::ROOT,
                workers: 1,
            },
        );
        let _ = std::fs::remove_file(&events);
        let _ = std::fs::remove_file(&ckpt);
        status
    }

    #[test]
    fn admission_estimates_and_rejections() {
        let r = BenchRunner;
        assert!(r.admit(&JobSpec { experiment: "nope".into(), ..JobSpec::default() }).is_err());
        assert!(r
            .admit(&JobSpec {
                experiment: "dpa".into(),
                policy: "bogus".into(),
                ..JobSpec::default()
            })
            .is_err());
        assert!(r
            .admit(&JobSpec { experiment: "dpa".into(), sbox: 8, ..JobSpec::default() })
            .is_err());
        let small = r
            .admit(&JobSpec { experiment: "tvla".into(), rounds: 1, ..JobSpec::default() })
            .unwrap();
        let big = r
            .admit(&JobSpec { experiment: "dpa".into(), rounds: 16, jobs: 8, ..JobSpec::default() })
            .unwrap();
        assert!(big > small, "dpa at 16 rounds x 8 workers dwarfs a 1-round tvla");
    }

    #[test]
    fn window_estimates_cover_every_probe_window() {
        let policies = [
            MaskPolicy::None,
            MaskPolicy::Selective,
            MaskPolicy::AllLoadsStores,
            MaskPolicy::AllInstructions,
        ];
        for policy in policies {
            // Probe runs by device round count (1..=4 covers every spec).
            let probes: Vec<_> = (1..=4)
                .map(|rounds| compile(policy, rounds).unwrap().encrypt(PLAINTEXT, KEY).unwrap())
                .collect();
            for rounds in 1..=16 {
                for experiment in ["dpa", "cpa", "tvla"] {
                    let device = device_rounds(experiment, rounds);
                    let probe = &probes[device - 1];
                    let window = if experiment == "tvla" {
                        let start = probe.phase_window(Phase::KeyPermutation).unwrap().start;
                        start..probe.phase_window(Phase::Round(device as u8)).unwrap().end
                    } else {
                        probe.phase_window(Phase::Round(1)).unwrap()
                    };
                    let at = format!("{policy:?} {experiment} at {rounds} rounds");
                    assert!(window_estimate(experiment, rounds) >= window.len(), "{at}");
                    assert!(trace_len_estimate(device) >= probe.trace.len(), "{at}");
                }
            }
        }
    }

    #[test]
    fn serve_mix_sized_jobs_fit_the_default_budget() {
        // A 32-trial one-round DPA on two workers: the prefix plus two
        // in-window accumulators of about 40 MB each.
        let spec = JobSpec {
            experiment: "dpa".into(),
            trials: 32,
            rounds: 1,
            jobs: 2,
            ..JobSpec::default()
        };
        let mb = BenchRunner.admit(&spec).unwrap() / (1024 * 1024);
        assert!((115..=135).contains(&mb), "{mb} MB");
        assert!(mb < 512, "admitted under the default 512 MB budget");
    }

    #[test]
    fn fault_job_csv_matches_the_direct_campaign() {
        let spec = JobSpec {
            experiment: "fault".into(),
            trials: 64,
            rounds: 1,
            recover: true,
            ..JobSpec::default()
        };
        let RunStatus::Done { csv } = run(&spec, "fault") else {
            panic!("fault job should complete")
        };
        // The same campaign, driven directly.
        let des = compile(MaskPolicy::Selective, 1).unwrap();
        let cfg = CampaignConfig {
            trials: 64,
            plaintext: PLAINTEXT,
            key: KEY,
            recovery: Some(RecoveryPolicy::default()),
            ..CampaignConfig::default()
        };
        let report =
            run_campaign(&des, &cfg, Jobs::serial(), None, &CancelToken::new(), &NullSink).unwrap();
        assert_eq!(csv, report.csv(), "service supervision must not change a byte");
    }

    #[test]
    fn tvla_job_reports_the_unmasked_leak() {
        let spec = JobSpec {
            experiment: "tvla".into(),
            trials: 8,
            rounds: 1,
            policy: "none".into(),
            seed: 11,
            ..JobSpec::default()
        };
        let RunStatus::Done { csv } = run(&spec, "tvla") else {
            panic!("tvla job should complete")
        };
        assert!(csv.starts_with("group_size,max_t,"), "got: {csv}");
        assert!(csv.lines().count() == 2, "one header + one row: {csv}");
    }

    #[test]
    fn pre_cancelled_job_interrupts_without_output() {
        let events = tmp("cancelled.events");
        let ckpt = tmp("cancelled.ckpt");
        let _ = std::fs::remove_file(&events);
        let sink = JobSink::open(&events).unwrap();
        let token = CancelToken::new();
        token.cancel(emask_par::CancelReason::Cancelled);
        let spec =
            JobSpec { experiment: "dpa".into(), trials: 64, rounds: 1, ..JobSpec::default() };
        let status = BenchRunner.run(
            &spec,
            &JobCtx {
                token: &token,
                sink: &sink,
                checkpoint: &ckpt,
                span: emask_telemetry::SpanId::ROOT,
                workers: 1,
            },
        );
        assert!(matches!(status, RunStatus::Interrupted(i) if i.completed_trials == 0));
        let _ = std::fs::remove_file(&events);
    }
}
