//! Differential power analysis against round 1 of DES.
//!
//! Implements the attack the paper defends against (§1, after Kocher et
//! al. and Goubin & Patarin): collect traces for many random plaintexts
//! under a fixed unknown key; for each 6-bit guess of one S-box's round-1
//! subkey, predict an intermediate bit, split the traces into two groups
//! by that bit, and compute the difference of means. The correct guess
//! produces a genuine physical partition and hence a peak; wrong guesses
//! decorrelate and flatten; a masked implementation flattens *every*
//! guess.

use crate::online::OnlineDpa;
use crate::stats::{difference_of_means, peak, TraceMatrix};
use emask_des::bits::permute;
use emask_des::cipher::sbox_lookup;
use emask_des::tables::{E, IP};
use emask_par::{fold_sharded, par_map, trial_seed, CancelToken, Interrupted, Jobs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Mutex;

/// DPA campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpaConfig {
    /// Number of random plaintexts / traces.
    pub samples: usize,
    /// Which S-box to target (0-based, S1 = 0).
    pub sbox: usize,
    /// Which of the S-box's 4 output bits to predict (0 = MSB).
    pub bit: usize,
    /// RNG seed for plaintext sampling (reproducibility).
    pub seed: u64,
}

impl Default for DpaConfig {
    fn default() -> Self {
        Self { samples: 200, sbox: 0, bit: 0, seed: 0xD5A }
    }
}

/// Outcome of a DPA campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct DpaResult {
    /// Peak |difference-of-means| for each of the 64 subkey guesses.
    pub peaks: [f64; 64],
    /// The cycle index of each guess's peak.
    pub peak_cycles: [usize; 64],
    /// The guess with the highest peak.
    pub best_guess: u8,
    /// `best peak / second-best peak` — the attack's confidence; ≈1 means
    /// the attack found nothing.
    pub margin: f64,
}

impl DpaResult {
    /// True if the campaign singled out `subkey` with a margin of at least
    /// `min_margin`.
    pub fn recovered(&self, subkey: u8, min_margin: f64) -> bool {
        self.best_guess == subkey && self.margin >= min_margin
    }
}

impl fmt::Display for DpaResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DPA: best guess {:#04X} (peak {:.2} pJ, margin {:.2}x)",
            self.best_guess, self.peaks[self.best_guess as usize], self.margin
        )
    }
}

/// The selection function: the predicted value of output bit `bit` of
/// S-box `sbox` in round 1, for `plaintext` under 6-bit subkey `guess`.
///
/// This is pure DES structure — `IP`, then `E(R0)`, then the guessed
/// subkey XOR, then the S-box — exactly what an attacker computes.
///
/// # Panics
///
/// Panics if `sbox >= 8`, `bit >= 4`, or `guess >= 64`.
pub fn selection_bit(plaintext: u64, guess: u8, sbox: usize, bit: usize) -> bool {
    assert!(sbox < 8 && bit < 4 && guess < 64);
    let s_out = sbox_lookup(sbox, sbox_chunk(plaintext, sbox) ^ guess);
    (s_out >> (3 - bit)) & 1 == 1
}

/// The 6-bit S-box input chunk `E(R0)` feeds into S-box `sbox` in round 1,
/// before the subkey XOR — the plaintext-derived half of the selection
/// function. Computing it once per trace lets single-pass accumulators
/// evaluate all 64 guesses with one table lookup each instead of repeating
/// the permutations per guess.
///
/// # Panics
///
/// Panics if `sbox >= 8`.
pub fn sbox_chunk(plaintext: u64, sbox: usize) -> u8 {
    assert!(sbox < 8);
    let permuted = permute(plaintext, 64, &IP);
    let r0 = permuted as u32;
    let expanded = permute(u64::from(r0), 32, &E);
    ((expanded >> (42 - 6 * sbox)) & 0x3F) as u8
}

/// The plaintext of trial `index` in a seed-per-trial campaign: drawn from
/// an RNG seeded with [`trial_seed`]`(seed, index)`, so it is a pure
/// function of the pair — any worker can produce trial `index`'s input
/// without consuming a shared RNG stream, so every campaign's trace set is
/// identical across `--jobs` counts.
#[must_use]
pub fn plaintext_for(seed: u64, index: u64) -> u64 {
    StdRng::seed_from_u64(trial_seed(seed, index)).gen()
}

/// Collects the trace set of a campaign — `samples` plaintexts from
/// [`plaintext_for`] and their traces from `oracle` — sharding acquisition
/// across `jobs` workers. The returned vectors are in trial order and
/// identical for any `jobs` value. This is the input of the batch
/// [`analyze_bit`] reference; campaigns fold traces as they land instead.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn collect_traces_par<F>(
    oracle: &F,
    samples: usize,
    seed: u64,
    jobs: Jobs,
) -> (Vec<u64>, Vec<Vec<f64>>)
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    assert!(samples > 0, "need at least one sample");
    let pairs = par_map(jobs, samples, |i| {
        let p = plaintext_for(seed, i as u64);
        let t = oracle(p);
        (p, t)
    });
    pairs.into_iter().unzip()
}

/// Partition-and-difference analysis over an already-collected trace set:
/// the peak |difference of means| per guess for one selection bit — the
/// textbook two-pass form of the statistic [`OnlineDpa`] accumulates in
/// one pass, kept as its reference.
///
/// # Panics
///
/// Panics if `sbox >= 8` or `bit >= 4`.
pub fn analyze_bit(
    plaintexts: &[u64],
    traces: &[Vec<f64>],
    sbox: usize,
    bit: usize,
) -> ([f64; 64], [usize; 64]) {
    assert!(sbox < 8 && bit < 4);
    let mut peaks = [0.0f64; 64];
    let mut peak_cycles = [0usize; 64];
    for guess in 0..64u8 {
        let mut g0 = TraceMatrix::new();
        let mut g1 = TraceMatrix::new();
        for (p, t) in plaintexts.iter().zip(traces) {
            if selection_bit(*p, guess, sbox, bit) {
                g1.push(t.clone());
            } else {
                g0.push(t.clone());
            }
        }
        let dom = difference_of_means(&g0, &g1);
        let (cycle, magnitude) = peak(&dom);
        peaks[guess as usize] = magnitude;
        peak_cycles[guess as usize] = cycle;
    }
    (peaks, peak_cycles)
}

pub(crate) fn result_from_peaks(peaks: [f64; 64], peak_cycles: [usize; 64]) -> DpaResult {
    let best_guess = (0..64).max_by(|&a, &b| peaks[a].total_cmp(&peaks[b])).unwrap_or(0) as u8;
    let best = peaks[best_guess as usize];
    let second = peaks
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != best_guess as usize)
        .map(|(_, &v)| v)
        .fold(0.0f64, f64::max);
    let margin = if second > 1e-12 {
        best / second
    } else if best > 1e-12 {
        f64::INFINITY
    } else {
        1.0
    };
    DpaResult { peaks, peak_cycles, best_guess, margin }
}

/// Ranks the 64 subkey guesses by their peak statistic: `ranks[g]` is the
/// 0-based rank of guess `g`, with rank 0 the leading guess. Ties break
/// toward the *higher* guess index, matching the argmax the DPA verdict
/// uses, so rank 0 always names [`DpaResult::best_guess`]. The rank of the
/// true subkey over a campaign is the standard key-rank convergence curve.
#[must_use]
pub fn guess_ranks(peaks: &[f64; 64]) -> [u8; 64] {
    let mut order: [u8; 64] = std::array::from_fn(|i| i as u8);
    order.sort_by(|&a, &b| peaks[b as usize].total_cmp(&peaks[a as usize]).then_with(|| b.cmp(&a)));
    let mut ranks = [0u8; 64];
    for (rank, &guess) in order.iter().enumerate() {
        ranks[guess as usize] = rank as u8;
    }
    ranks
}

/// The DPA campaign driver: folds `samples` trials into copies of `proto`
/// across `jobs` workers through [`fold_sharded`], so memory stays
/// O((jobs + 1) × guesses × trace_len) whatever the sample count and the
/// result is bit-identical for any `jobs` value.
///
/// `trial(i)` acquires trial `i` and returns its `(plaintext, trace)`;
/// the entry points draw the plaintext from [`plaintext_for`]. Every
/// `cadence` trials (and once at the end; `cadence == 0` means final
/// only) the merged result over trials `0..b` is handed to
/// `on_snapshot(b, &result)` — the full 64-guess peak vector, in ascending
/// `b`, bit-identical at any `jobs` count. A slow `on_snapshot`
/// backpressures the delivering worker rather than buffering unboundedly.
///
/// `token` is checked at every trial boundary: a trip (client cancel,
/// deadline, shutdown) stops the campaign with a typed [`Interrupted`],
/// and the snapshots delivered before it are a bit-identical prefix of
/// the uninterrupted stream. A token that trips after the last trial has
/// folded has no effect: a completed run is always delivered.
///
/// # Errors
///
/// [`Interrupted`] if the token trips before every trial has been folded.
///
/// # Panics
///
/// Panics if `samples == 0`, or if traces of different widths arrive.
pub fn dpa_campaign<T, S>(
    proto: &OnlineDpa,
    samples: usize,
    jobs: Jobs,
    cadence: usize,
    token: &CancelToken,
    trial: T,
    on_snapshot: S,
) -> Result<DpaResult, Interrupted>
where
    T: Fn(usize) -> (u64, Vec<f64>) + Sync,
    S: Fn(usize, &DpaResult) + Sync,
{
    assert!(samples > 0, "need at least one sample");
    // The snapshot at the final boundary is the campaign's result, so it
    // is kept rather than finalized a second time.
    let last = Mutex::new(None);
    fold_sharded(
        jobs,
        samples,
        cadence,
        token,
        proto,
        |acc: &mut OnlineDpa, i| {
            let (p, trace) = trial(i);
            acc.push(p, &trace).expect("oracle produced a misaligned trace");
        },
        |a, b| a.merge(b).expect("shards saw traces of different widths"),
        |trials, acc| {
            let result = acc.result();
            on_snapshot(trials, &result);
            if trials == samples {
                *last.lock().expect("a snapshot panicked") = Some(result);
            }
        },
    )?;
    Ok(last
        .into_inner()
        .expect("a snapshot panicked")
        .expect("a completed fold emits its final boundary"))
}

/// [`dpa_campaign`] over `oracle` with per-trial plaintexts from
/// [`plaintext_for`]`(cfg.seed, i)`, uncancelled and without snapshots.
fn recover_with<F>(oracle: &F, cfg: &DpaConfig, jobs: Jobs, proto: &OnlineDpa) -> DpaResult
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    let trial = |i: usize| {
        let p = plaintext_for(cfg.seed, i as u64);
        (p, oracle(p))
    };
    match dpa_campaign(proto, cfg.samples, jobs, 0, &CancelToken::new(), trial, |_, _| {}) {
        Ok(result) => result,
        Err(_) => unreachable!("a private never-cancelled token cannot interrupt"),
    }
}

/// Runs a single-bit DPA campaign. `oracle` maps a plaintext to its power
/// trace — the physical measurement in the field, the simulator here.
/// Acquisition is sharded across `jobs` workers and each trace is folded
/// straight into an [`OnlineDpa`] accumulator (see [`dpa_campaign`]);
/// plaintexts come from [`plaintext_for`], so the result is bit-identical
/// for any `jobs` value.
///
/// # Panics
///
/// Panics if the configuration is out of range or `samples == 0`.
pub fn recover_subkey_par<F>(oracle: &F, cfg: &DpaConfig, jobs: Jobs) -> DpaResult
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    recover_with(oracle, cfg, jobs, &OnlineDpa::single(cfg.sbox, cfg.bit))
}

/// Multi-bit DPA: aggregates the difference-of-means peaks of **all four**
/// output bits of the targeted S-box per guess. DES single-bit DPA suffers
/// well-known ghost peaks (wrong guesses whose selection bit correlates
/// with the true one); the four bits decorrelate differently per guess, so
/// summing their peaks suppresses ghosts at the same trace budget. See
/// [`recover_subkey_par`] for the sharding and seeding contract.
///
/// # Panics
///
/// As for [`recover_subkey_par`].
pub fn recover_subkey_multibit_par<F>(oracle: &F, cfg: &DpaConfig, jobs: Jobs) -> DpaResult
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    recover_with(oracle, cfg, jobs, &OnlineDpa::multibit(cfg.sbox, cfg.bit))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use emask_des::KeySchedule;

    const KEY: u64 = 0x1334_5779_9BBC_DFF1;

    /// A leakage-model oracle: the trace has one sample whose energy is
    /// proportional to the true selection bit, plus deterministic "noise"
    /// elsewhere — the idealized physical device.
    fn leaky_oracle(sbox: usize, bit: usize) -> impl Fn(u64) -> Vec<f64> + Sync {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
        move |p: u64| {
            let b = selection_bit(p, subkey, sbox, bit);
            let filler = (p % 17) as f64; // plaintext-correlated clutter
            vec![100.0 + filler, 100.0 + if b { 25.0 } else { 0.0 }, 100.0 - filler]
        }
    }

    /// A perfectly masked oracle: constant energy regardless of data.
    fn flat_oracle(_p: u64) -> Vec<f64> {
        vec![150.0; 3]
    }

    #[test]
    fn selection_bit_matches_golden_first_round() {
        // Against the traced golden model: the selection function under
        // the *true* subkey must equal the actual S-box output bit.
        let ks = KeySchedule::new(KEY);
        let des = emask_des::Des::new(KEY);
        for p in [0u64, 0x0123_4567_89AB_CDEF, 0xFFFF_FFFF_0000_0000] {
            let (_, trace) = des.encrypt_block_traced(p);
            for sbox in 0..8 {
                let subkey = ks.round_key(1).sbox_slice(sbox);
                let sbox_in = ((trace.sbox_in[0] >> (42 - 6 * sbox)) & 0x3F) as u8;
                let s_out = sbox_lookup(sbox, sbox_in);
                for bit in 0..4 {
                    let expect = (s_out >> (3 - bit)) & 1 == 1;
                    assert_eq!(selection_bit(p, subkey, sbox, bit), expect);
                }
            }
        }
    }

    #[test]
    fn dpa_recovers_subkey_from_leaky_device() {
        for sbox in [0usize, 3, 7] {
            let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(sbox);
            let cfg = DpaConfig { samples: 400, sbox, bit: 0, seed: 42 };
            let result = recover_subkey_par(&leaky_oracle(sbox, 0), &cfg, Jobs::serial());
            assert!(
                result.recovered(subkey, 1.5),
                "S{} expected {subkey:#04X}: {result}",
                sbox + 1
            );
        }
    }

    #[test]
    fn dpa_finds_nothing_on_flat_traces() {
        let cfg = DpaConfig { samples: 200, ..DpaConfig::default() };
        let result = recover_subkey_par(&flat_oracle, &cfg, Jobs::serial());
        assert!(result.peaks.iter().all(|&p| p < 1e-9), "flat traces must not leak");
        assert!((result.margin - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dpa_peak_lands_on_the_leaky_cycle() {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
        let cfg = DpaConfig { samples: 400, sbox: 0, bit: 0, seed: 7 };
        let result = recover_subkey_par(&leaky_oracle(0, 0), &cfg, Jobs::serial());
        assert_eq!(result.peak_cycles[subkey as usize], 1, "leak injected at cycle 1");
    }

    #[test]
    fn margin_reflects_sample_count() {
        // More samples → cleaner partition → larger margin.
        let oracle = leaky_oracle(0, 0);
        let small = recover_subkey_par(
            &oracle,
            &DpaConfig { samples: 50, sbox: 0, bit: 0, seed: 3 },
            Jobs::serial(),
        );
        let large = recover_subkey_par(
            &oracle,
            &DpaConfig { samples: 800, sbox: 0, bit: 0, seed: 3 },
            Jobs::serial(),
        );
        assert!(
            large.margin >= small.margin * 0.8,
            "large {} small {}",
            large.margin,
            small.margin
        );
        assert!(large.margin > 1.5);
    }

    #[test]
    fn result_display_mentions_guess() {
        let cfg = DpaConfig { samples: 100, sbox: 0, bit: 0, seed: 9 };
        let r = recover_subkey_par(&leaky_oracle(0, 0), &cfg, Jobs::serial());
        assert!(r.to_string().contains("best guess"));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let cfg = DpaConfig { samples: 0, ..DpaConfig::default() };
        recover_subkey_par(&flat_oracle, &cfg, Jobs::serial());
    }

    #[test]
    fn parallel_dpa_recovers_subkey_and_ignores_job_count() {
        let subkey = KeySchedule::new(KEY).round_key(1).sbox_slice(0);
        let oracle = leaky_oracle(0, 0);
        let cfg = DpaConfig { samples: 400, sbox: 0, bit: 0, seed: 42 };
        let serial = recover_subkey_par(&oracle, &cfg, Jobs::serial());
        assert!(serial.recovered(subkey, 1.5), "{serial}");
        for jobs in [2usize, 4, 7] {
            let par = recover_subkey_par(&oracle, &cfg, Jobs::new(jobs).unwrap());
            assert_eq!(par, serial, "jobs = {jobs}");
        }
        // The multibit variant wants all four output bits leaking — give it
        // a Hamming-weight oracle and it singles the subkey out sharply.
        let hw_oracle = move |p: u64| {
            let hw: f64 = (0..4).map(|b| f64::from(selection_bit(p, subkey, 0, b))).sum();
            vec![100.0 + (p % 17) as f64, 100.0 + 10.0 * hw]
        };
        let multi = recover_subkey_multibit_par(&hw_oracle, &cfg, Jobs::new(4).unwrap());
        assert!(multi.recovered(subkey, 1.5), "{multi}");
        assert_eq!(multi, recover_subkey_multibit_par(&hw_oracle, &cfg, Jobs::new(7).unwrap()));
    }

    /// One snapshot as comparable bytes: `(trials, best_guess, margin
    /// bits, peak bits)`.
    type Snapshot = (usize, u8, u64, Vec<u64>);

    fn snapshot(trials: usize, r: &DpaResult) -> Snapshot {
        (trials, r.best_guess, r.margin.to_bits(), r.peaks.iter().map(|p| p.to_bits()).collect())
    }

    /// A multibit [`dpa_campaign`] over the leaky oracle, as the entry
    /// points drive it.
    fn campaign<S>(
        cfg: &DpaConfig,
        jobs: usize,
        cadence: usize,
        token: &CancelToken,
        on_snapshot: S,
    ) -> Result<DpaResult, Interrupted>
    where
        S: Fn(usize, &DpaResult) + Sync,
    {
        let oracle = leaky_oracle(0, 0);
        dpa_campaign(
            &OnlineDpa::multibit(cfg.sbox, cfg.bit),
            cfg.samples,
            Jobs::new(jobs).unwrap(),
            cadence,
            token,
            |i| {
                let p = plaintext_for(cfg.seed, i as u64);
                (p, oracle(p))
            },
            on_snapshot,
        )
    }

    /// The snapshot stream of an uncancelled multibit campaign.
    fn snapshot_stream(cfg: &DpaConfig, jobs: usize, cadence: usize) -> Vec<Snapshot> {
        let log = std::sync::Mutex::new(Vec::new());
        campaign(cfg, jobs, cadence, &CancelToken::new(), |trials, r| {
            log.lock().unwrap().push(snapshot(trials, r));
        })
        .unwrap();
        log.into_inner().unwrap()
    }

    #[test]
    fn snapshotted_dpa_matches_plain_parallel_run_and_any_job_count() {
        let oracle = leaky_oracle(0, 0);
        let cfg = DpaConfig { samples: 160, sbox: 0, bit: 0, seed: 42 };
        let plain = recover_subkey_multibit_par(&oracle, &cfg, Jobs::new(4).unwrap());
        let snapped = campaign(&cfg, 4, 50, &CancelToken::new(), |_, _| {}).unwrap();
        assert_eq!(snapped, plain, "snapshotting must not perturb the verdict");

        let serial = snapshot_stream(&cfg, 1, 50);
        // Boundaries 50, 100, 150, and the final 160, in ascending order.
        assert_eq!(serial.iter().map(|s| s.0).collect::<Vec<_>>(), vec![50, 100, 150, 160]);
        for jobs in [4usize, 7] {
            assert_eq!(snapshot_stream(&cfg, jobs, 50), serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn cancelled_snapshotted_dpa_streams_a_prefix_then_interrupts() {
        let cfg = DpaConfig { samples: 160, sbox: 0, bit: 0, seed: 42 };
        let full = snapshot_stream(&cfg, 1, 50);
        let token = CancelToken::new();
        let log = std::sync::Mutex::new(Vec::new());
        let err = campaign(&cfg, 1, 50, &token, |trials, r| {
            log.lock().unwrap().push(snapshot(trials, r));
            if trials == 50 {
                token.cancel(emask_par::CancelReason::Cancelled);
            }
        })
        .expect_err("a token tripped mid-run must interrupt");
        assert_eq!(err.reason, emask_par::CancelReason::Cancelled);
        let emitted = log.into_inner().unwrap();
        assert!(!emitted.is_empty());
        assert_eq!(
            emitted.as_slice(),
            &full[..emitted.len()],
            "interrupted stream must be a bit-identical prefix of the full one"
        );
    }

    #[test]
    fn snapshotted_dpa_last_snapshot_is_the_final_verdict() {
        let oracle = leaky_oracle(0, 0);
        let cfg = DpaConfig { samples: 120, sbox: 0, bit: 0, seed: 9 };
        let last = std::sync::Mutex::new(None);
        let trials_seen = std::sync::atomic::AtomicUsize::new(0);
        let result = dpa_campaign(
            &OnlineDpa::multibit(cfg.sbox, cfg.bit),
            cfg.samples,
            Jobs::new(2).unwrap(),
            0, // final-only cadence
            &CancelToken::new(),
            |i| {
                trials_seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let p = plaintext_for(cfg.seed, i as u64);
                (p, oracle(p))
            },
            |trials, r: &DpaResult| {
                *last.lock().unwrap() = Some((trials, r.clone()));
            },
        )
        .unwrap();
        let (trials, snap) = last.into_inner().unwrap().expect("final snapshot fired");
        assert_eq!(trials, 120);
        assert_eq!(snap, result);
        assert_eq!(trials_seen.into_inner(), 120, "every trial acquired once");
    }

    #[test]
    fn parallel_collection_is_in_trial_order_for_any_job_count() {
        let oracle = |p: u64| vec![(p % 251) as f64];
        let (p1, t1) = collect_traces_par(&oracle, 100, 7, Jobs::serial());
        let (p4, t4) = collect_traces_par(&oracle, 100, 7, Jobs::new(4).unwrap());
        assert_eq!(p1, p4);
        assert_eq!(t1, t4);
        assert_eq!(p1[3], plaintext_for(7, 3));
    }

    #[test]
    fn guess_ranks_orders_by_peak_descending() {
        let mut peaks = [0.0f64; 64];
        peaks[5] = 3.0;
        peaks[17] = 2.0;
        peaks[40] = 1.0;
        let ranks = guess_ranks(&peaks);
        assert_eq!(ranks[5], 0);
        assert_eq!(ranks[17], 1);
        assert_eq!(ranks[40], 2);
        // Every rank 0..64 appears exactly once.
        let mut seen = [false; 64];
        for &r in &ranks {
            assert!(!seen[r as usize], "rank {r} assigned twice");
            seen[r as usize] = true;
        }
    }

    #[test]
    fn guess_ranks_ties_break_toward_higher_guess() {
        // All-equal peaks: the verdict's `max_by` keeps the last maximum,
        // so rank 0 must be guess 63.
        let peaks = [1.0f64; 64];
        let ranks = guess_ranks(&peaks);
        assert_eq!(ranks[63], 0);
        assert_eq!(ranks[0], 63);
    }
}
