//! # emask-attack — the power-analysis attack suite
//!
//! The adversary's half of the evaluation: simple power analysis (SPA) and
//! differential power analysis (DPA) over per-cycle energy traces, built to
//! the descriptions in Kocher et al. and Goubin & Patarin that the paper
//! cites. These attacks are what the secure instructions must defeat —
//! the tests and benches run them against both unmasked and masked traces
//! and verify that the key falls out of the former and not the latter.
//!
//! * [`stats`] — trace statistics: means, difference-of-means, Welch's
//!   *t*, and the trace-matrix bookkeeping;
//! * [`spa`] — round-structure detection: the Figure 6 observation that
//!   "the energy profile can show what operations are being performed";
//! * [`dpa`] — the §1 attack: partition a sample of traces by a predicted
//!   intermediate bit (a round-1 S-box output bit under a 6-bit subkey
//!   guess) and look for a difference-of-means peak;
//! * [`cpa`] — correlation power analysis (an extension beyond the paper):
//!   Pearson correlation against a Hamming-weight leakage model, the
//!   stronger attack later literature standardized on.
//!
//! * [`online`] — single-pass (streaming) equivalents of the batch
//!   statistics: Welford mean/variance, online Welch-*t*, and
//!   O(guesses × trace_len) DPA/CPA accumulators that never retain the
//!   trace set — the memory- and merge-friendly core of the parallel
//!   entry points.
//!
//! The attack code is generic over a *trace oracle* — any
//! `Fn(u64 plaintext) -> Vec<f64> + Sync` — so it runs identically against
//! the cycle-accurate simulator and against synthetic leakage models used
//! in unit tests. Every campaign ([`dpa_campaign`] behind
//! [`recover_subkey_par`] and [`recover_subkey_multibit_par`], and
//! [`cpa_recover_subkey_par`]) shards trace acquisition across an
//! `emask-par` worker pool and folds each trace into a single-pass
//! accumulator; results are bit-identical for any `--jobs` count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod cpa;
pub mod dpa;
pub mod online;
pub mod spa;
pub mod stats;

pub use cpa::{cpa_recover_subkey_par, predicted_hamming_weight, CpaConfig, CpaResult};
pub use dpa::{
    analyze_bit, collect_traces_par, dpa_campaign, guess_ranks, plaintext_for,
    recover_subkey_multibit_par, recover_subkey_par, sbox_chunk, selection_bit, DpaConfig,
    DpaResult,
};
pub use online::{OnlineCpa, OnlineDpa, OnlineWelch, Welford};
pub use spa::{detect_rounds, SpaReport};
pub use stats::{
    difference_of_means, difference_of_means_checked, mean_trace, welch_t, welch_t_checked,
    StatsError, TraceMatrix,
};
