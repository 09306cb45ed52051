//! Resumable fault campaigns: periodic on-disk snapshots of completed
//! work, crash recovery, and byte-identical resumption.
//!
//! A long campaign (thousands of trials × a cycle-accurate core) should
//! survive being killed. Given a checkpoint path,
//! [`run_campaign`](crate::run_campaign) adds a persistence loop: every
//! time a worker finishes one of the fixed trial shards, the
//! campaign checkpoint — the completed shards' classified rows plus their
//! recovery counters — is atomically rewritten (`<path>.tmp` + rename).
//! A later invocation with the same configuration loads the snapshot,
//! returns the stored rows for completed shards, and runs only the rest;
//! because the trial lattice is a pure function of the trial index, the
//! resumed campaign's CSV and summary are **byte-identical** to an
//! uninterrupted run.
//!
//! The snapshot is a versioned, checksummed text file:
//!
//! ```text
//! emask-campaign-checkpoint v1
//! fingerprint <16-hex FNV-1a of the canonical config>
//! shard <idx> <rows> <runs> <checkpoints> <rollbacks> <pages-moved>
//! <one campaign CSV row per trial>
//! ...
//! checksum <16-hex FNV-1a of everything above>
//! ```
//!
//! * a **missing** file starts a fresh campaign;
//! * a **torn or corrupt** file (bad magic, bad checksum, unparseable
//!   row) is discarded and the campaign restarts from scratch — safe,
//!   because every row is recomputed deterministically;
//! * a **fingerprint mismatch** (resuming with a different configuration)
//!   is a hard, typed error ([`CampaignError::Mismatch`]) — silently
//!   mixing two campaigns' rows would corrupt the report.

use crate::campaign::{outcome_from_name, CampaignConfig};
use emask_core::RunError;
use emask_par::Interrupted;
use emask_telemetry::{CampaignTrial, RecoveryTotals};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Error type of the checkpointed campaign runner.
#[derive(Debug)]
pub enum CampaignError {
    /// The clean baseline run failed — the campaign cannot start.
    Run(RunError),
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The checkpoint path involved.
        path: PathBuf,
        /// The underlying IO error.
        source: std::io::Error,
    },
    /// The checkpoint on disk was written by a campaign with a different
    /// configuration; resuming would mix incompatible rows.
    Mismatch {
        /// The checkpoint path involved.
        path: PathBuf,
        /// Fingerprint of the requested configuration.
        expected: u64,
        /// Fingerprint stored in the file.
        found: u64,
    },
    /// A cooperative [`CancelToken`](emask_par::CancelToken) tripped mid-campaign (client cancel,
    /// deadline, shutdown). Completed shards are persisted in the
    /// checkpoint; rerunning with the same configuration resumes from
    /// them and still yields a byte-identical report.
    Interrupted(Interrupted),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Run(e) => write!(f, "clean baseline run failed: {e}"),
            CampaignError::Io { path, source } => {
                write!(f, "campaign checkpoint {}: {source}", path.display())
            }
            CampaignError::Mismatch { path, expected, found } => write!(
                f,
                "campaign checkpoint {} belongs to a different configuration \
                 (fingerprint {found:016x}, expected {expected:016x}); \
                 delete it or rerun with the original settings",
                path.display()
            ),
            CampaignError::Interrupted(i) => write!(f, "campaign {i}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Run(e) => Some(e),
            CampaignError::Io { source, .. } => Some(source),
            CampaignError::Mismatch { .. } => None,
            CampaignError::Interrupted(i) => Some(i),
        }
    }
}

impl From<Interrupted> for CampaignError {
    fn from(i: Interrupted) -> Self {
        CampaignError::Interrupted(i)
    }
}

impl From<RunError> for CampaignError {
    fn from(e: RunError) -> Self {
        CampaignError::Run(e)
    }
}

/// 64-bit FNV-1a — the dependency-free hash used for both the config
/// fingerprint and the file checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The canonical-config fingerprint: any field that changes the trial
/// lattice or its classification participates, so a stale checkpoint can
/// never be resumed under different settings. `clean_cycles` folds in the
/// compiled program itself (policy, rounds) without hashing the binary.
pub(crate) fn config_fingerprint(cfg: &CampaignConfig, clean_cycles: u64) -> u64 {
    let canon = format!(
        "v1|trials={}|bits={:?}|pt={:016x}|key={:016x}|recovery={:?}|limit={:?}|panic={:?}|clean={clean_cycles}",
        cfg.trials, cfg.bits, cfg.plaintext, cfg.key, cfg.recovery, cfg.cycle_limit, cfg.panic_trial
    );
    fnv1a(canon.as_bytes())
}

const MAGIC: &str = "emask-campaign-checkpoint v1";

/// One completed shard: its classified rows (trial order) plus the
/// aggregate recovery counters of those trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ShardRecord {
    pub(crate) trials: Vec<CampaignTrial>,
    pub(crate) recovery: RecoveryTotals,
}

/// The on-disk campaign snapshot: which shards are done and their rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCheckpoint {
    pub(crate) fingerprint: u64,
    pub(crate) shards: BTreeMap<usize, ShardRecord>,
}

impl CampaignCheckpoint {
    /// An empty checkpoint for the given config fingerprint.
    pub(crate) fn new(fingerprint: u64) -> Self {
        Self { fingerprint, shards: BTreeMap::new() }
    }

    /// Shard indices already completed, ascending.
    pub fn completed(&self) -> Vec<usize> {
        self.shards.keys().copied().collect()
    }

    /// Drops a completed shard, forcing it to be re-run on resume. Used
    /// by tests to simulate a campaign killed partway through.
    pub fn forget(&mut self, shard: usize) {
        self.shards.remove(&shard);
    }

    /// Loads a checkpoint from `path`.
    ///
    /// Returns `Ok(None)` when the file does not exist **or** fails
    /// validation (bad magic, bad checksum, unparseable row) — a torn or
    /// corrupt snapshot is discarded and the campaign restarts from
    /// scratch, which is always safe because every row is recomputed
    /// deterministically.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when an existing file cannot be read.
    pub fn load(path: &Path) -> Result<Option<Self>, CampaignError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CampaignError::Io { path: path.to_path_buf(), source: e }),
        };
        Ok(Self::parse(&text))
    }

    /// Parses and validates the snapshot text; `None` means corrupt.
    fn parse(text: &str) -> Option<Self> {
        // The checksum line covers every byte before it.
        let tail = text.rfind("checksum ")?;
        let (body, checksum_line) = text.split_at(tail);
        let stored: u64 =
            u64::from_str_radix(checksum_line.trim().strip_prefix("checksum ")?, 16).ok()?;
        if fnv1a(body.as_bytes()) != stored {
            return None;
        }
        let mut lines = body.lines();
        if lines.next()? != MAGIC {
            return None;
        }
        let fingerprint =
            u64::from_str_radix(lines.next()?.strip_prefix("fingerprint ")?, 16).ok()?;
        let mut shards = BTreeMap::new();
        while let Some(header) = lines.next() {
            let mut f = header.strip_prefix("shard ")?.split(' ');
            let idx: usize = f.next()?.parse().ok()?;
            let nrows: usize = f.next()?.parse().ok()?;
            let runs: u64 = f.next()?.parse().ok()?;
            let checkpoints: u64 = f.next()?.parse().ok()?;
            let rollbacks: u64 = f.next()?.parse().ok()?;
            let pages_moved: u64 = f.next()?.parse().ok()?;
            let mut trials = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                trials.push(parse_row(lines.next()?)?);
            }
            let recovery = RecoveryTotals { runs, checkpoints, rollbacks, pages_moved };
            shards.insert(idx, ShardRecord { trials, recovery });
        }
        Some(Self { fingerprint, shards })
    }

    /// Renders the snapshot text, checksum line included.
    fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "fingerprint {:016x}", self.fingerprint);
        for (idx, rec) in &self.shards {
            let r = rec.recovery;
            let _ = writeln!(
                out,
                "shard {idx} {} {} {} {} {}",
                rec.trials.len(),
                r.runs,
                r.checkpoints,
                r.rollbacks,
                r.pages_moved
            );
            for t in &rec.trials {
                let _ = writeln!(out, "{}", render_row(t));
            }
        }
        let checksum = fnv1a(out.as_bytes());
        let _ = writeln!(out, "checksum {checksum:016x}");
        out
    }

    /// Atomically writes the snapshot to `path` (`<path>.tmp` + rename),
    /// so a kill mid-save leaves the previous snapshot intact.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] when the temporary file cannot be written
    /// or renamed into place.
    pub fn save(&self, path: &Path) -> Result<(), CampaignError> {
        let io = |source| CampaignError::Io { path: path.to_path_buf(), source };
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.render()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }
}

/// One trial as a campaign CSV row — the same sanitized encoding as
/// [`emask_telemetry::campaign_csv`], so the stored detail round-trips
/// and the final document is byte-identical to an uninterrupted run's.
fn render_row(t: &CampaignTrial) -> String {
    let detail: String =
        t.detail.chars().map(|c| if c == ',' || c == '\n' { ';' } else { c }).collect();
    format!("{},{},{},{},{},{},{detail}", t.index, t.cycle, t.bit, t.target, t.model, t.outcome)
}

/// Parses one stored CSV row; `None` means corrupt.
fn parse_row(line: &str) -> Option<CampaignTrial> {
    let mut f = line.splitn(7, ',');
    let trial = CampaignTrial {
        index: f.next()?.parse().ok()?,
        cycle: f.next()?.parse().ok()?,
        bit: f.next()?.parse().ok()?,
        target: f.next()?.to_string(),
        model: f.next()?.to_string(),
        outcome: f.next()?.to_string(),
        detail: f.next()?.to_string(),
    };
    // An outcome name outside the known set can only come from file
    // damage; reject the snapshot rather than mis-count later.
    outcome_from_name(&trial.outcome)?;
    Some(trial)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignReport};
    use emask_cc::MaskPolicy;
    use emask_core::desgen::DesProgramSpec;
    use emask_core::{MaskedDes, RecoveryPolicy};
    use emask_par::{CancelToken, Jobs};
    use emask_telemetry::{Event, EventSink, NullSink};

    fn small_des() -> MaskedDes {
        MaskedDes::compile_spec(MaskPolicy::Selective, &DesProgramSpec { rounds: 1 })
            .expect("compile")
    }

    /// An uncancelled, unobserved campaign checkpointed at `path`.
    fn resumable(
        des: &MaskedDes,
        cfg: &CampaignConfig,
        jobs: Jobs,
        path: &Path,
    ) -> Result<CampaignReport, CampaignError> {
        run_campaign(des, cfg, jobs, Some(path), &CancelToken::new(), &NullSink)
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("emask-{}-{name}.ckpt", std::process::id()));
        p
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let des = small_des();
        let cfg = CampaignConfig {
            trials: 40,
            recovery: Some(RecoveryPolicy::default()),
            ..CampaignConfig::default()
        };
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let report = resumable(&des, &cfg, Jobs::serial(), &path).expect("campaign");
        let cp = CampaignCheckpoint::load(&path).expect("load").expect("present");
        assert!(!cp.completed().is_empty());
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.starts_with(MAGIC));
        let reparsed = CampaignCheckpoint::parse(&text).expect("parse");
        assert_eq!(reparsed, cp);
        // Totals stored per shard reassemble into the report's totals.
        let sum: u64 = cp.shards.values().map(|r| r.recovery.rollbacks).sum();
        assert_eq!(sum, report.recovery.rollbacks);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_after_partial_completion_is_byte_identical() {
        let des = small_des();
        let cfg = CampaignConfig {
            trials: 64,
            recovery: Some(RecoveryPolicy::default()),
            ..CampaignConfig::default()
        };
        let path = tmp_path("resume");
        let _ = std::fs::remove_file(&path);
        let full = resumable(&des, &cfg, Jobs::serial(), &path).expect("full run");

        // Simulate a kill partway through: drop every other completed
        // shard from the snapshot, then resume.
        let mut cp = CampaignCheckpoint::load(&path).expect("load").expect("present");
        for s in cp.completed().into_iter().filter(|s| s % 2 == 1) {
            cp.forget(s);
        }
        cp.save(&path).expect("save partial");
        let resumed = resumable(&des, &cfg, Jobs::new(4).expect("jobs"), &path).expect("resume");

        assert_eq!(resumed.csv(), full.csv());
        assert_eq!(resumed.summary(), full.summary());
        assert_eq!(resumed.counts, full.counts);
        assert_eq!(resumed.recovery, full.recovery);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_campaign_persists_and_resumes_byte_identically() {
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Trips the token after a fixed number of completed trials —
        /// a deterministic stand-in for a client cancel / deadline.
        struct CancelAfter<'a> {
            token: &'a CancelToken,
            seen: AtomicU64,
            after: u64,
        }
        impl EventSink for CancelAfter<'_> {
            fn emit(&self, event: Event) {
                if matches!(event, Event::TrialCompleted { .. })
                    && self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.after
                {
                    self.token.cancel(emask_par::CancelReason::Cancelled);
                }
            }
        }

        let des = small_des();
        let cfg = CampaignConfig {
            trials: 64,
            recovery: Some(RecoveryPolicy::default()),
            ..CampaignConfig::default()
        };

        // Reference: one uninterrupted run.
        let ref_path = tmp_path("interrupt-ref");
        let _ = std::fs::remove_file(&ref_path);
        let full = resumable(&des, &cfg, Jobs::serial(), &ref_path).expect("full run");
        let _ = std::fs::remove_file(&ref_path);

        // Interrupted run: cancel after 10 trials, serial so the trip
        // lands mid-campaign deterministically.
        let path = tmp_path("interrupt");
        let _ = std::fs::remove_file(&path);
        let token = CancelToken::new();
        let sink = CancelAfter { token: &token, seen: AtomicU64::new(0), after: 10 };
        let err = run_campaign(&des, &cfg, Jobs::serial(), Some(&path), &token, &sink)
            .expect_err("tripped token must interrupt");
        let CampaignError::Interrupted(i) = &err else {
            panic!("expected Interrupted, got {err}");
        };
        assert_eq!(i.reason, emask_par::CancelReason::Cancelled);
        assert!(i.completed_trials < cfg.trials, "the interrupt landed mid-campaign");

        // The checkpoint holds only fully completed shards…
        let cp = CampaignCheckpoint::load(&path).expect("load").expect("present");
        let persisted: usize = cp.shards.values().map(|r| r.trials.len()).sum();
        assert!(persisted <= i.completed_trials, "partial shards are never persisted");

        // …and a plain resume finishes the rest, byte-identically.
        let resumed = resumable(&des, &cfg, Jobs::new(4).expect("jobs"), &path).expect("resume");
        assert_eq!(resumed.csv(), full.csv());
        assert_eq!(resumed.summary(), full.summary());
        assert_eq!(resumed.recovery, full.recovery);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pre_expired_deadline_interrupts_before_any_work() {
        let des = small_des();
        let cfg = CampaignConfig { trials: 16, ..CampaignConfig::default() };
        let path = tmp_path("deadline");
        let _ = std::fs::remove_file(&path);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let err = run_campaign(&des, &cfg, Jobs::serial(), Some(&path), &token, &NullSink)
            .expect_err("expired deadline must interrupt");
        match err {
            CampaignError::Interrupted(i) => {
                assert_eq!(i.reason, emask_par::CancelReason::DeadlineExceeded);
                assert_eq!(i.completed_trials, 0);
            }
            other => panic!("expected Interrupted, got {other}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_restarts_cleanly() {
        let path = tmp_path("corrupt");
        std::fs::write(&path, "emask-campaign-checkpoint v1\ngarbage\n").expect("write");
        assert!(CampaignCheckpoint::load(&path).expect("load").is_none());
        // Flipping one byte of a valid snapshot breaks the checksum.
        let cp = CampaignCheckpoint::new(7);
        cp.save(&path).expect("save");
        let mut text = std::fs::read_to_string(&path).expect("read");
        text = text.replacen("fingerprint 0", "fingerprint 1", 1);
        std::fs::write(&path, text).expect("write");
        assert!(CampaignCheckpoint::load(&path).expect("load").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_config_is_a_hard_error() {
        let des = small_des();
        let cfg = CampaignConfig { trials: 16, ..CampaignConfig::default() };
        let path = tmp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        resumable(&des, &cfg, Jobs::serial(), &path).expect("first run");
        let other = CampaignConfig { trials: 17, ..CampaignConfig::default() };
        let err = resumable(&des, &other, Jobs::serial(), &path)
            .expect_err("config change must not resume");
        assert!(matches!(err, CampaignError::Mismatch { .. }), "{err}");
        assert!(err.to_string().contains("different configuration"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_checkpoint_path_is_a_typed_error() {
        let des = small_des();
        let cfg = CampaignConfig { trials: 4, ..CampaignConfig::default() };
        let path = PathBuf::from("/nonexistent-dir/never/campaign.ckpt");
        let err = resumable(&des, &cfg, Jobs::serial(), &path).expect_err("unwritable path");
        assert!(matches!(err, CampaignError::Io { .. }), "{err}");
    }
}
