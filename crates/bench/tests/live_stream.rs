//! End-to-end contract of the live observability layer: the replayable
//! JSONL stream must be schema-stable (golden test), byte-identical at
//! any `--jobs` count, and continuous across a kill + `--resume` of a
//! checkpointed fault campaign.

use emask_bench::campaign::{run_campaign, CampaignConfig, CampaignReport};
use emask_bench::checkpoint::CampaignCheckpoint;
use emask_bench::experiments::{dpa_attack, tvla};
use emask_core::desgen::DesProgramSpec;
use emask_core::{MaskPolicy, MaskedDes};
use emask_par::{CancelToken, Jobs};
use emask_telemetry::{Event, EventBus, EventSink, NullSink};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// An ordered in-memory sink.
struct Collect(Mutex<Vec<Event>>);

impl Collect {
    fn new() -> Self {
        Collect(Mutex::new(Vec::new()))
    }

    fn events(&self) -> Vec<Event> {
        self.0.lock().expect("collect sink").clone()
    }

    /// The replayable JSONL document this campaign would stream.
    fn replayable_jsonl(&self) -> String {
        self.events().iter().filter(|e| e.is_replayable()).map(|e| e.to_json() + "\n").collect()
    }
}

impl EventSink for Collect {
    fn emit(&self, event: Event) {
        self.0.lock().expect("collect sink").push(event);
    }
}

fn device() -> MaskedDes {
    MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
        .expect("compile 1-round selective device")
}

/// An uncancelled fault campaign streaming into `sink`.
fn fault<S: EventSink>(
    des: &MaskedDes,
    cfg: &CampaignConfig,
    jobs: Jobs,
    checkpoint: Option<&Path>,
    sink: &S,
) -> CampaignReport {
    run_campaign(des, cfg, jobs, checkpoint, &CancelToken::new(), sink).expect("fault campaign")
}

/// An uncancelled one-round DPA of `samples` traces streaming into `sink`.
fn dpa<S: EventSink>(samples: usize, jobs: Jobs, cadence: usize, sink: &S) {
    dpa_attack(MaskPolicy::None, 1, samples, 0, jobs, cadence, &CancelToken::new(), sink)
        .expect("dpa campaign");
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("emask-live-{}-{name}.ckpt", std::process::id()));
    p
}

#[test]
fn golden_dpa_jsonl_schema_is_stable() {
    let sink = Collect::new();
    dpa(48, Jobs::serial(), 16, &sink);
    let jsonl = sink.replayable_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    // Header, snapshots at 16/32/48, trailer.
    assert_eq!(lines.len(), 5, "{jsonl}");
    assert_eq!(
        lines[0],
        r#"{"event":"campaign_started","experiment":"dpa","trials":48,"seed":3855227614,"cadence":16}"#
    );
    for (i, trials) in [16, 32, 48].into_iter().enumerate() {
        let line = lines[1 + i];
        assert!(line.starts_with(r#"{"event":"dpa_convergence","trials":"#), "{line}");
        assert!(line.contains(&format!(r#""trials":{trials},"best_guess":"#)), "{line}");
        for field in ["best_peak", "margin", "peak_cycle", "ranks"] {
            assert!(line.contains(&format!(r#""{field}":"#)), "missing {field}: {line}");
        }
        // The rank vector covers all 64 guesses.
        let ranks = line.split("\"ranks\":[").nth(1).expect("ranks array");
        assert_eq!(ranks.trim_end_matches("]}").split(',').count(), 64, "{line}");
    }
    assert_eq!(
        lines[4],
        r#"{"event":"campaign_completed","trials":48,"dropped_events":0,"dropped_by_kind":{}}"#
    );
}

#[test]
fn replayable_streams_are_byte_identical_across_jobs() {
    let des = device();
    let cfg = CampaignConfig { trials: 60, ..CampaignConfig::default() };
    let streams: Vec<(String, String, String)> = [1, 4, 7]
        .into_iter()
        .map(|jobs| {
            let jobs = Jobs::new(jobs).unwrap();
            let fault_sink = Collect::new();
            fault(&des, &cfg, jobs, None, &fault_sink);
            let dpa_sink = Collect::new();
            dpa(48, jobs, 16, &dpa_sink);
            let tvla_sink = Collect::new();
            tvla(MaskPolicy::None, 1, 8, 3, jobs, 4, &CancelToken::new(), &tvla_sink)
                .expect("tvla campaign");
            (
                fault_sink.replayable_jsonl(),
                dpa_sink.replayable_jsonl(),
                tvla_sink.replayable_jsonl(),
            )
        })
        .collect();
    for s in &streams[1..] {
        assert_eq!(s.0, streams[0].0, "fault stream moved with jobs");
        assert_eq!(s.1, streams[0].1, "dpa stream moved with jobs");
        assert_eq!(s.2, streams[0].2, "tvla stream moved with jobs");
    }
    // The fault stream carries one outcome row per trial, in trial order.
    let outcomes: Vec<u64> = streams[0]
        .0
        .lines()
        .filter(|l| l.contains(r#""event":"fault_outcome""#))
        .map(|l| l.split(r#""trial":"#).nth(1).unwrap().split(',').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(outcomes, (0..60).collect::<Vec<u64>>());
}

#[test]
fn events_path_report_matches_the_plain_parallel_path() {
    let des = device();
    let cfg = CampaignConfig { trials: 40, ..CampaignConfig::default() };
    let sink = Collect::new();
    let evented = fault(&des, &cfg, Jobs::new(4).unwrap(), None, &sink);
    let plain = fault(&des, &cfg, Jobs::serial(), None, &NullSink);
    assert_eq!(evented.csv(), plain.csv(), "the sink must not change the report");
    assert_eq!(evented.counts, plain.counts);
}

#[test]
fn resumed_campaign_stream_is_identical_to_uninterrupted() {
    let des = device();
    let cfg = CampaignConfig { trials: 64, ..CampaignConfig::default() };
    let path = tmp_path("stream-resume");
    let _ = std::fs::remove_file(&path);

    let full_sink = Collect::new();
    let full = fault(&des, &cfg, Jobs::serial(), Some(&path), &full_sink);

    // Simulate a SIGKILL partway through: drop every other completed
    // shard from the snapshot, then resume with a fresh sink.
    let mut cp = CampaignCheckpoint::load(&path).expect("load").expect("present");
    let completed = cp.completed();
    assert!(completed.len() > 1, "need multiple shards to forget one");
    for s in completed.iter().filter(|s| *s % 2 == 1) {
        cp.forget(*s);
    }
    cp.save(&path).expect("save partial");

    let resumed_sink = Collect::new();
    let resumed = fault(&des, &cfg, Jobs::new(4).unwrap(), Some(&path), &resumed_sink);

    assert_eq!(resumed.csv(), full.csv());
    assert_eq!(
        resumed_sink.replayable_jsonl(),
        full_sink.replayable_jsonl(),
        "a kill + resume must not change the replayable stream"
    );
    // The resumed run recomputed only the forgotten shards, so it emitted
    // fewer operational trial heartbeats than the uninterrupted run.
    let heartbeats = |events: &[Event]| {
        events.iter().filter(|e| matches!(e, Event::TrialCompleted { .. })).count()
    };
    let full_beats = heartbeats(&full_sink.events());
    let resumed_beats = heartbeats(&resumed_sink.events());
    assert_eq!(full_beats, 64);
    assert!(
        resumed_beats < full_beats,
        "resume re-ran everything: {resumed_beats} vs {full_beats}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn event_bus_end_to_end_delivers_the_replayable_stream_in_order() {
    let des = device();
    let cfg = CampaignConfig { trials: 24, ..CampaignConfig::default() };
    let bus = EventBus::new(8); // small queue: exercises backpressure
    let (report, jsonl) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let mut out = String::new();
            let mut buf = Vec::new();
            while bus.drain_wait(&mut buf) {
                for e in buf.drain(..) {
                    if e.is_replayable() {
                        out.push_str(&e.to_json());
                        out.push('\n');
                    }
                }
            }
            out
        });
        let report = fault(&des, &cfg, Jobs::new(4).unwrap(), None, &bus);
        bus.close();
        (report, consumer.join().expect("consumer"))
    });
    let direct = Collect::new();
    fault(&des, &cfg, Jobs::new(2).unwrap(), None, &direct);
    assert_eq!(jsonl, direct.replayable_jsonl(), "bus transport must preserve the stream");
    assert_eq!(report.total(), 24);
}
