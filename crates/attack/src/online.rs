//! Single-pass (online) attack statistics.
//!
//! The batch pipeline in [`crate::stats`] buffers every trace in a
//! [`crate::stats::TraceMatrix`] — O(samples × trace_len) memory — and
//! then re-walks the whole set per subkey guess. Everything the attacks
//! actually need (pointwise means, variances, difference-of-means,
//! Welch's *t*, Pearson correlation) is expressible as running sums, so
//! this module provides streaming accumulators that see each trace
//! **once** and then drop it:
//!
//! * [`Welford`] — pointwise mean/variance via Welford's recurrence, with
//!   the Chan et al. pairwise `merge` for combining per-thread partials;
//! * [`OnlineWelch`] — a two-group [`Welford`] pair yielding the TVLA
//!   Welch-*t* statistic;
//! * [`OnlineDpa`] — the per-guess difference-of-means engine behind
//!   [`crate::dpa`], at O(guesses × trace_len) memory independent of the
//!   sample count;
//! * [`OnlineCpa`] — the per-guess Pearson-correlation sums behind
//!   [`crate::cpa`], same memory bound.
//!
//! Every accumulator supports `merge`, and merging is deterministic: the
//! parallel drivers in `emask-par` fold shard accumulators in fixed shard
//! order, so results are bit-identical for any worker count.

use crate::cpa::CpaResult;
use crate::dpa::{result_from_peaks, sbox_chunk, DpaResult};
use crate::stats::{peak, StatsError};
use emask_des::cipher::sbox_lookup;
use std::mem::size_of;

/// Pointwise streaming mean/variance over equal-length traces
/// (Welford's algorithm, one accumulator per cycle).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl Welford {
    /// An empty accumulator; the first pushed trace sets the width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of traces folded in.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when nothing was folded in yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Trace width (0 until the first push).
    pub fn width(&self) -> usize {
        self.mean.len()
    }

    /// Folds one trace in.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when the trace length differs from
    /// the established width; the accumulator is left unchanged.
    pub fn push(&mut self, trace: &[f64]) -> Result<(), StatsError> {
        if self.n == 0 {
            self.mean = vec![0.0; trace.len()];
            self.m2 = vec![0.0; trace.len()];
        } else if trace.len() != self.mean.len() {
            return Err(StatsError::WidthMismatch { expected: self.mean.len(), got: trace.len() });
        }
        self.n += 1;
        let n = self.n as f64;
        for ((mean, m2), &v) in self.mean.iter_mut().zip(&mut self.m2).zip(trace) {
            let d = v - *mean;
            *mean += d / n;
            *m2 += d * (v - *mean);
        }
        Ok(())
    }

    /// Absorbs another accumulator (Chan et al. pairwise combination).
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when both accumulators are non-empty
    /// with different widths.
    pub fn merge(&mut self, other: &Welford) -> Result<(), StatsError> {
        if other.n == 0 {
            return Ok(());
        }
        if self.n == 0 {
            *self = other.clone();
            return Ok(());
        }
        if self.mean.len() != other.mean.len() {
            return Err(StatsError::WidthMismatch {
                expected: self.mean.len(),
                got: other.mean.len(),
            });
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        for i in 0..self.mean.len() {
            let delta = other.mean[i] - self.mean[i];
            self.mean[i] += delta * nb / n;
            self.m2[i] += other.m2[i] + delta * delta * na * nb / n;
        }
        self.n += other.n;
        Ok(())
    }

    /// The pointwise mean (empty before the first push).
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The pointwise population variance (matches
    /// [`crate::stats::variance_trace`]; empty before the first push).
    pub fn variance(&self) -> Vec<f64> {
        if self.n == 0 {
            return Vec::new();
        }
        let n = self.n as f64;
        self.m2.iter().map(|m2| m2 / n).collect()
    }
}

/// Streaming two-group Welch-*t*: the online equivalent of
/// [`crate::stats::welch_t`] for TVLA-style fixed-vs-random assessments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineWelch {
    /// Group 0 (e.g. the fixed-key traces).
    pub g0: Welford,
    /// Group 1 (e.g. the random-key traces).
    pub g1: Welford,
}

impl OnlineWelch {
    /// An empty two-group accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs another accumulator, group by group.
    ///
    /// # Errors
    ///
    /// As for [`Welford::merge`].
    pub fn merge(&mut self, other: &OnlineWelch) -> Result<(), StatsError> {
        self.g0.merge(&other.g0)?;
        self.g1.merge(&other.g1)
    }

    /// Bytes this accumulator holds once both groups have folded traces
    /// of `width` samples: a mean and an `m2` vector per group. Admission
    /// control budgets one of these per live shard accumulator.
    pub fn footprint(&self, width: usize) -> usize {
        size_of::<Self>() + 4 * width * size_of::<f64>()
    }

    /// The pointwise Welch *t* statistic, with the same guards as the
    /// batch [`crate::stats::welch_t`]: zeros unless both groups have at
    /// least two traces, zero where the pooled deviation vanishes.
    pub fn welch_t(&self) -> Vec<f64> {
        if self.g0.len() < 2 || self.g1.len() < 2 {
            return vec![0.0; self.g0.width().max(self.g1.width())];
        }
        let (n0, n1) = (self.g0.len() as f64, self.g1.len() as f64);
        let v0 = self.g0.variance();
        let v1 = self.g1.variance();
        self.g0
            .mean()
            .iter()
            .zip(self.g1.mean())
            .zip(v0.iter().zip(&v1))
            .map(|((mu0, mu1), (s0, s1))| {
                let denom = (s0 / n0 + s1 / n1).sqrt();
                if denom < 1e-15 {
                    0.0
                } else {
                    (mu1 - mu0) / denom
                }
            })
            .collect()
    }
}

/// Single-pass difference-of-means DPA over one S-box.
///
/// For every trace, the selection bit of each of the 64 subkey guesses is
/// computed once (one S-box lookup per guess) and the trace is folded
/// into that guess's group-1 sum; the group-0 mean falls out of the
/// shared total sum. Memory is O(bits × guesses × trace_len) — one sum
/// vector per (bit, guess) plus the total — and **independent of the
/// sample count**, unlike the batch [`crate::dpa::analyze_bit`] path that
/// retains the full trace matrix.
#[derive(Debug, PartialEq)]
pub struct OnlineDpa {
    sbox: usize,
    /// The bit whose per-guess peak cycles the result reports (matches
    /// the batch multibit convention).
    report_bit: usize,
    /// The analyzed output bits: `[report_bit]` or all four.
    bits: Vec<usize>,
    n: u64,
    /// Sum over *all* traces (shared by every guess's group 0).
    total: Vec<f64>,
    /// Per (bit, guess): group-1 trace count, row-major `[bit][guess]`.
    n1: Vec<u64>,
    /// Per (bit, guess): group-1 sum vector, row-major `[bit][guess]`.
    sum1: Vec<Vec<f64>>,
}

impl OnlineDpa {
    /// Single-bit DPA on output `bit` of `sbox` — the streaming
    /// equivalent of [`crate::dpa::analyze_bit`].
    ///
    /// # Panics
    ///
    /// Panics if `sbox >= 8` or `bit >= 4`.
    pub fn single(sbox: usize, bit: usize) -> Self {
        Self::with_bits(sbox, bit, vec![bit])
    }

    /// Multi-bit DPA aggregating all four output bits of `sbox`, with
    /// peak cycles reported for `report_bit` — the streaming equivalent
    /// of [`crate::dpa::analyze_bit`] summed over the four bits.
    ///
    /// # Panics
    ///
    /// Panics if `sbox >= 8` or `report_bit >= 4`.
    pub fn multibit(sbox: usize, report_bit: usize) -> Self {
        Self::with_bits(sbox, report_bit, vec![0, 1, 2, 3])
    }

    fn with_bits(sbox: usize, report_bit: usize, bits: Vec<usize>) -> Self {
        assert!(sbox < 8 && report_bit < 4);
        let slots = bits.len() * 64;
        OnlineDpa {
            sbox,
            report_bit,
            bits,
            n: 0,
            total: Vec::new(),
            n1: vec![0; slots],
            sum1: vec![Vec::new(); slots],
        }
    }

    /// Number of traces folded in.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when nothing was folded in yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bytes this accumulator holds once it has folded traces of `width`
    /// samples and every (bit, guess) group is populated: the shared total
    /// plus one sum vector and count per slot — about 40 MB for the
    /// multi-bit attack on the 19,383-cycle round-1 window. Admission
    /// control budgets one of these per live shard accumulator.
    pub fn footprint(&self, width: usize) -> usize {
        let slot = size_of::<u64>() + size_of::<Vec<f64>>() + width * size_of::<f64>();
        size_of::<Self>()
            + self.bits.len() * size_of::<usize>()
            + width * size_of::<f64>()
            + self.n1.len() * slot
    }

    /// Folds one `(plaintext, trace)` observation in.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when the trace length differs from
    /// the established width; the accumulator is left unchanged.
    pub fn push(&mut self, plaintext: u64, trace: &[f64]) -> Result<(), StatsError> {
        if self.n == 0 {
            self.total.clear();
            self.total.resize(trace.len(), 0.0);
        } else if trace.len() != self.total.len() {
            return Err(StatsError::WidthMismatch { expected: self.total.len(), got: trace.len() });
        }
        self.n += 1;
        for (t, &v) in self.total.iter_mut().zip(trace) {
            *t += v;
        }
        let chunk = sbox_chunk(plaintext, self.sbox);
        for guess in 0..64u8 {
            let s_out = sbox_lookup(self.sbox, chunk ^ guess);
            for (bi, &bit) in self.bits.iter().enumerate() {
                if (s_out >> (3 - bit)) & 1 == 1 {
                    let slot = bi * 64 + guess as usize;
                    self.n1[slot] += 1;
                    let sum = &mut self.sum1[slot];
                    if sum.is_empty() {
                        sum.extend_from_slice(trace);
                    } else {
                        for (s, &v) in sum.iter_mut().zip(trace) {
                            *s += v;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Absorbs another accumulator of the same configuration.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when both accumulators are non-empty
    /// with different trace widths.
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators target different S-boxes or bits —
    /// that is a driver bug, not a data condition.
    pub fn merge(&mut self, other: &OnlineDpa) -> Result<(), StatsError> {
        assert!(
            self.sbox == other.sbox && self.bits == other.bits,
            "merging differently-configured DPA accumulators"
        );
        if other.n == 0 {
            return Ok(());
        }
        if self.n == 0 {
            self.clone_from(other);
            return Ok(());
        }
        if self.total.len() != other.total.len() {
            return Err(StatsError::WidthMismatch {
                expected: self.total.len(),
                got: other.total.len(),
            });
        }
        self.n += other.n;
        for (t, &v) in self.total.iter_mut().zip(&other.total) {
            *t += v;
        }
        for slot in 0..self.n1.len() {
            self.n1[slot] += other.n1[slot];
            if other.sum1[slot].is_empty() {
                continue;
            }
            if self.sum1[slot].is_empty() {
                self.sum1[slot].extend_from_slice(&other.sum1[slot]);
            } else {
                for (s, &v) in self.sum1[slot].iter_mut().zip(&other.sum1[slot]) {
                    *s += v;
                }
            }
        }
        Ok(())
    }

    /// The per-guess difference-of-means trace for one analyzed bit slot,
    /// mirroring the batch semantics: zeros when either group is empty.
    fn dom(&self, slot: usize) -> Vec<f64> {
        let n1 = self.n1[slot];
        let n0 = self.n - n1;
        if n1 == 0 || n0 == 0 {
            return vec![0.0; self.total.len()];
        }
        let sum1 = &self.sum1[slot];
        let (n0, n1) = (n0 as f64, n1 as f64);
        self.total.iter().zip(sum1).map(|(&tot, &s1)| s1 / n1 - (tot - s1) / n0).collect()
    }

    /// Finalizes the accumulated statistics into a [`DpaResult`]
    /// (per-guess peaks, best guess, margin).
    pub fn result(&self) -> DpaResult {
        let mut peaks = [0.0f64; 64];
        let mut peak_cycles = [0usize; 64];
        for (bi, &bit) in self.bits.iter().enumerate() {
            for guess in 0..64 {
                let (cycle, magnitude) = peak(&self.dom(bi * 64 + guess));
                peaks[guess] += magnitude;
                if bit == self.report_bit {
                    peak_cycles[guess] = cycle;
                }
            }
        }
        result_from_peaks(peaks, peak_cycles)
    }
}

impl Clone for OnlineDpa {
    fn clone(&self) -> Self {
        OnlineDpa {
            sbox: self.sbox,
            report_bit: self.report_bit,
            bits: self.bits.clone(),
            n: self.n,
            total: self.total.clone(),
            n1: self.n1.clone(),
            sum1: self.sum1.clone(),
        }
    }

    /// Keeps every buffer's allocation, so a sharded campaign can reset a
    /// merged-away accumulator from an empty prototype instead of
    /// allocating (and page-faulting) a fresh ~40 MB one per shard.
    fn clone_from(&mut self, source: &Self) {
        self.sbox = source.sbox;
        self.report_bit = source.report_bit;
        self.bits.clone_from(&source.bits);
        self.n = source.n;
        self.total.clone_from(&source.total);
        self.n1.clone_from(&source.n1);
        self.sum1.clone_from(&source.sum1);
    }
}

/// Single-pass Hamming-weight CPA over one S-box.
///
/// Keeps the per-cycle trace sums shared across guesses and one
/// cross-moment vector per guess — O(guesses × trace_len), independent of
/// the sample count. Finalizing evaluates the same Pearson-correlation
/// formula as the textbook two-pass computation over a trace matrix.
#[derive(Debug, PartialEq)]
pub struct OnlineCpa {
    sbox: usize,
    n: u64,
    sum_t: Vec<f64>,
    sum_t2: Vec<f64>,
    /// Per guess: Σh, Σh², Σh·t (the model moments and cross-moments).
    sum_h: [f64; 64],
    sum_h2: [f64; 64],
    sum_ht: Vec<Vec<f64>>,
}

impl Clone for OnlineCpa {
    fn clone(&self) -> Self {
        OnlineCpa {
            sbox: self.sbox,
            n: self.n,
            sum_t: self.sum_t.clone(),
            sum_t2: self.sum_t2.clone(),
            sum_h: self.sum_h,
            sum_h2: self.sum_h2,
            sum_ht: self.sum_ht.clone(),
        }
    }

    /// Keeps every buffer's allocation; see [`OnlineDpa`]'s `clone_from`.
    fn clone_from(&mut self, source: &Self) {
        self.sbox = source.sbox;
        self.n = source.n;
        self.sum_t.clone_from(&source.sum_t);
        self.sum_t2.clone_from(&source.sum_t2);
        self.sum_h = source.sum_h;
        self.sum_h2 = source.sum_h2;
        self.sum_ht.clone_from(&source.sum_ht);
    }
}

impl OnlineCpa {
    /// An empty accumulator targeting `sbox`.
    ///
    /// # Panics
    ///
    /// Panics if `sbox >= 8`.
    pub fn new(sbox: usize) -> Self {
        assert!(sbox < 8);
        OnlineCpa {
            sbox,
            n: 0,
            sum_t: Vec::new(),
            sum_t2: Vec::new(),
            sum_h: [0.0; 64],
            sum_h2: [0.0; 64],
            sum_ht: vec![Vec::new(); 64],
        }
    }

    /// Number of traces folded in.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when nothing was folded in yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bytes this accumulator holds once it has folded traces of `width`
    /// samples: Σt and Σt² plus one Σh·t vector per guess. Admission
    /// control budgets one of these per live shard accumulator.
    pub fn footprint(&self, width: usize) -> usize {
        let per_guess = size_of::<Vec<f64>>() + width * size_of::<f64>();
        size_of::<Self>() + 2 * width * size_of::<f64>() + self.sum_ht.len() * per_guess
    }

    /// Folds one `(plaintext, trace)` observation in.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when the trace length differs from
    /// the established width; the accumulator is left unchanged.
    pub fn push(&mut self, plaintext: u64, trace: &[f64]) -> Result<(), StatsError> {
        if self.n == 0 {
            for s in [&mut self.sum_t, &mut self.sum_t2].into_iter().chain(&mut self.sum_ht) {
                s.clear();
                s.resize(trace.len(), 0.0);
            }
        } else if trace.len() != self.sum_t.len() {
            return Err(StatsError::WidthMismatch { expected: self.sum_t.len(), got: trace.len() });
        }
        self.n += 1;
        for ((st, st2), &v) in self.sum_t.iter_mut().zip(&mut self.sum_t2).zip(trace) {
            *st += v;
            *st2 += v * v;
        }
        let chunk = sbox_chunk(plaintext, self.sbox);
        for guess in 0..64u8 {
            let h = f64::from(sbox_lookup(self.sbox, chunk ^ guess).count_ones());
            let g = guess as usize;
            self.sum_h[g] += h;
            self.sum_h2[g] += h * h;
            if h != 0.0 {
                for (s, &v) in self.sum_ht[g].iter_mut().zip(trace) {
                    *s += h * v;
                }
            }
        }
        Ok(())
    }

    /// Absorbs another accumulator of the same configuration.
    ///
    /// # Errors
    ///
    /// [`StatsError::WidthMismatch`] when both accumulators are non-empty
    /// with different trace widths.
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators target different S-boxes.
    pub fn merge(&mut self, other: &OnlineCpa) -> Result<(), StatsError> {
        assert!(self.sbox == other.sbox, "merging differently-configured CPA accumulators");
        if other.n == 0 {
            return Ok(());
        }
        if self.n == 0 {
            self.clone_from(other);
            return Ok(());
        }
        if self.sum_t.len() != other.sum_t.len() {
            return Err(StatsError::WidthMismatch {
                expected: self.sum_t.len(),
                got: other.sum_t.len(),
            });
        }
        self.n += other.n;
        for (s, &v) in self.sum_t.iter_mut().zip(&other.sum_t) {
            *s += v;
        }
        for (s, &v) in self.sum_t2.iter_mut().zip(&other.sum_t2) {
            *s += v;
        }
        for g in 0..64 {
            self.sum_h[g] += other.sum_h[g];
            self.sum_h2[g] += other.sum_h2[g];
            for (s, &v) in self.sum_ht[g].iter_mut().zip(&other.sum_ht[g]) {
                *s += v;
            }
        }
        Ok(())
    }

    /// Finalizes the accumulated sums into a [`CpaResult`] via the same
    /// Pearson formula and guards as the batch path.
    pub fn result(&self) -> CpaResult {
        let n = self.n as f64;
        let width = self.sum_t.len();
        let mut peaks = [0.0f64; 64];
        let mut peak_cycles = [0usize; 64];
        for g in 0..64 {
            let var_h = self.sum_h2[g] - self.sum_h[g] * self.sum_h[g] / n;
            if var_h < 1e-12 {
                continue; // degenerate model (all predictions equal)
            }
            let mut best = (0usize, 0.0f64);
            for j in 0..width {
                let cov = self.sum_ht[g][j] - self.sum_h[g] * self.sum_t[j] / n;
                let var_t = self.sum_t2[j] - self.sum_t[j] * self.sum_t[j] / n;
                if var_t < 1e-12 {
                    continue;
                }
                let r = (cov / (var_h * var_t).sqrt()).abs();
                if r > best.1 {
                    best = (j, r);
                }
            }
            peaks[g] = best.1;
            peak_cycles[g] = best.0;
        }
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
        CpaResult { peaks, peak_cycles, best_guess, margin }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::stats::{mean_trace, variance_trace, welch_t, TraceMatrix};

    fn matrix(rows: &[&[f64]]) -> TraceMatrix {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    /// Heap bytes held by a vector of vectors of `f64`.
    fn nested_bytes(v: &[Vec<f64>]) -> usize {
        v.iter().map(|x| size_of::<Vec<f64>>() + x.capacity() * size_of::<f64>()).sum()
    }

    #[test]
    fn footprints_cover_fully_populated_accumulators() {
        let width = 100;
        let traces: Vec<(u64, Vec<f64>)> = (0..64u64)
            .map(|p| (p.wrapping_mul(0x9E37_79B9_7F4A_7C15), vec![p as f64; width]))
            .collect();
        let mut dpa = OnlineDpa::multibit(0, 0);
        let mut cpa = OnlineCpa::new(0);
        let mut welch = OnlineWelch::new();
        for (p, t) in &traces {
            dpa.push(*p, t).unwrap();
            cpa.push(*p, t).unwrap();
            welch.g0.push(t).unwrap();
            welch.g1.push(t).unwrap();
        }
        assert!(dpa.sum1.iter().all(|s| s.len() == width), "every group populated");
        let f64s = |v: &Vec<f64>| v.capacity() * size_of::<f64>();
        let dpa_heap = f64s(&dpa.total)
            + nested_bytes(&dpa.sum1)
            + dpa.n1.capacity() * size_of::<u64>()
            + dpa.bits.capacity() * size_of::<usize>();
        let cpa_heap = f64s(&cpa.sum_t) + f64s(&cpa.sum_t2) + nested_bytes(&cpa.sum_ht);
        let welch_heap: usize =
            [&welch.g0, &welch.g1].iter().map(|g| f64s(&g.mean) + f64s(&g.m2)).sum();
        for (name, footprint, heap, inline) in [
            ("dpa", dpa.footprint(width), dpa_heap, size_of::<OnlineDpa>()),
            ("cpa", cpa.footprint(width), cpa_heap, size_of::<OnlineCpa>()),
            ("welch", welch.footprint(width), welch_heap, size_of::<OnlineWelch>()),
        ] {
            assert_eq!(footprint, heap + inline, "{name}");
        }
        // The paper-scale figure: 4 bits x 64 guesses over round 1.
        let mb = OnlineDpa::multibit(0, 0).footprint(19_383) as f64 / 1e6;
        assert!((39.0..41.0).contains(&mb), "{mb} MB");
    }

    #[test]
    fn recycled_accumulators_keep_their_buffers_and_fold_identically() {
        let traces: Vec<(u64, Vec<f64>)> = (0..40u64)
            .map(|p| {
                let p = p.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (p, (0..50).map(|j| ((p >> (j % 60)) & 0xFF) as f64 * 0.37).collect())
            })
            .collect();
        let fold_dpa = |acc: &mut OnlineDpa, ts: &[(u64, Vec<f64>)]| {
            ts.iter().for_each(|(p, t)| acc.push(*p, t).unwrap())
        };
        let fold_cpa = |acc: &mut OnlineCpa, ts: &[(u64, Vec<f64>)]| {
            ts.iter().for_each(|(p, t)| acc.push(*p, t).unwrap())
        };
        let (dpa_proto, cpa_proto) = (OnlineDpa::multibit(3, 1), OnlineCpa::new(3));
        let (mut dpa, mut cpa) = (dpa_proto.clone(), cpa_proto.clone());
        fold_dpa(&mut dpa, &traces[..20]);
        fold_cpa(&mut cpa, &traces[..20]);
        let dpa_buffer = dpa.sum1.iter().find(|s| !s.is_empty()).unwrap().as_ptr();
        let cpa_buffer = cpa.sum_ht[5].as_ptr();
        dpa.clone_from(&dpa_proto);
        cpa.clone_from(&cpa_proto);
        assert_eq!((&dpa, &cpa), (&dpa_proto, &cpa_proto), "reset to the prototype");
        fold_dpa(&mut dpa, &traces[20..]);
        fold_cpa(&mut cpa, &traces[20..]);
        assert!(dpa.sum1.iter().any(|s| s.as_ptr() == dpa_buffer), "dpa buffers reused");
        assert_eq!(cpa.sum_ht[5].as_ptr(), cpa_buffer, "cpa buffers reused");
        let (mut fresh_dpa, mut fresh_cpa) = (dpa_proto.clone(), cpa_proto.clone());
        fold_dpa(&mut fresh_dpa, &traces[20..]);
        fold_cpa(&mut fresh_cpa, &traces[20..]);
        assert_eq!(dpa.result(), fresh_dpa.result());
        assert_eq!(cpa.result(), fresh_cpa.result());
        assert_eq!(dpa, fresh_dpa);
        assert_eq!(cpa, fresh_cpa);
    }

    #[test]
    fn welford_matches_batch_mean_and_variance() {
        let rows: Vec<Vec<f64>> =
            vec![vec![1.0, -2.0, 3.5], vec![0.5, 7.0, -1.0], vec![2.5, 0.0, 4.0]];
        let batch: TraceMatrix = rows.iter().cloned().collect();
        let mut w = Welford::new();
        for r in &rows {
            w.push(r).unwrap();
        }
        assert_eq!(w.len(), 3);
        assert!(close(w.mean(), &mean_trace(&batch), 1e-12));
        assert!(close(&w.variance(), &variance_trace(&batch), 1e-12));
    }

    #[test]
    fn welford_merge_equals_single_stream() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, (i * i) as f64 * 0.1]).collect();
        let mut whole = Welford::new();
        for r in &rows {
            whole.push(r).unwrap();
        }
        let (mut a, mut b) = (Welford::new(), Welford::new());
        for r in &rows[..3] {
            a.push(r).unwrap();
        }
        for r in &rows[3..] {
            b.push(r).unwrap();
        }
        a.merge(&b).unwrap();
        assert_eq!(a.len(), whole.len());
        assert!(close(a.mean(), whole.mean(), 1e-9));
        assert!(close(&a.variance(), &whole.variance(), 1e-9));
        // Merging into/from empty is the identity.
        let mut empty = Welford::new();
        empty.merge(&whole).unwrap();
        assert_eq!(empty, whole);
        whole.merge(&Welford::new()).unwrap();
        assert_eq!(empty, whole);
    }

    #[test]
    fn welford_width_mismatch_is_typed() {
        let mut w = Welford::new();
        w.push(&[1.0, 2.0]).unwrap();
        assert_eq!(w.push(&[1.0]), Err(StatsError::WidthMismatch { expected: 2, got: 1 }));
        let mut other = Welford::new();
        other.push(&[1.0]).unwrap();
        assert!(w.merge(&other).is_err());
    }

    #[test]
    fn online_welch_matches_batch() {
        let g0 = matrix(&[&[0.0, 1.0], &[0.1, 2.0], &[-0.1, 3.0], &[0.05, 4.0]]);
        let g1 = matrix(&[&[10.0, 2.0], &[10.1, 3.0], &[9.9, 1.0], &[10.05, 4.0]]);
        let mut ow = OnlineWelch::new();
        for r in g0.rows() {
            ow.g0.push(r).unwrap();
        }
        for r in g1.rows() {
            ow.g1.push(r).unwrap();
        }
        assert!(close(&ow.welch_t(), &welch_t(&g0, &g1), 1e-9));
    }

    #[test]
    fn online_welch_small_group_guard_matches_batch() {
        let mut ow = OnlineWelch::new();
        ow.g0.push(&[1.0, 2.0]).unwrap();
        ow.g1.push(&[3.0, 4.0]).unwrap();
        assert_eq!(ow.welch_t(), vec![0.0, 0.0]);
    }

    #[test]
    fn online_dpa_single_bit_matches_batch_analysis() {
        use crate::dpa::{analyze_bit, selection_bit};
        let plaintexts: Vec<u64> =
            (0..40u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let traces: Vec<Vec<f64>> = plaintexts
            .iter()
            .map(|&p| {
                let b = selection_bit(p, 0x2A, 2, 1);
                vec![(p % 11) as f64, 100.0 + if b { 7.0 } else { 0.0 }]
            })
            .collect();
        let (peaks, cycles) = analyze_bit(&plaintexts, &traces, 2, 1);
        let mut acc = OnlineDpa::single(2, 1);
        for (p, t) in plaintexts.iter().zip(&traces) {
            acc.push(*p, t).unwrap();
        }
        let r = acc.result();
        for g in 0..64 {
            assert!((r.peaks[g] - peaks[g]).abs() < 1e-9, "guess {g}");
            assert_eq!(r.peak_cycles[g], cycles[g], "guess {g}");
        }
    }

    #[test]
    fn online_dpa_merge_is_order_of_shards() {
        let plaintexts: Vec<u64> =
            (0..30u64).map(|i| i.wrapping_mul(0xABCD_EF12_3456_789B)).collect();
        let trace = |p: u64| vec![(p % 13) as f64, (p % 7) as f64];
        let mut whole = OnlineDpa::multibit(0, 0);
        for &p in &plaintexts {
            whole.push(p, &trace(p)).unwrap();
        }
        let (mut a, mut b) = (OnlineDpa::multibit(0, 0), OnlineDpa::multibit(0, 0));
        for &p in &plaintexts[..11] {
            a.push(p, &trace(p)).unwrap();
        }
        for &p in &plaintexts[11..] {
            b.push(p, &trace(p)).unwrap();
        }
        a.merge(&b).unwrap();
        assert_eq!(a.len(), whole.len());
        let (ra, rw) = (a.result(), whole.result());
        assert_eq!(ra.best_guess, rw.best_guess);
        for g in 0..64 {
            assert!((ra.peaks[g] - rw.peaks[g]).abs() < 1e-9);
        }
    }

    #[test]
    fn online_cpa_matches_batch_result() {
        use crate::cpa::batch_cpa;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let plaintexts: Vec<u64> = (0..64).map(|_| rng.gen()).collect();
        let oracle = |p: u64| {
            let chunk = sbox_chunk(p, 3);
            let h = f64::from(sbox_lookup(3, chunk ^ 0x15).count_ones());
            vec![50.0 + (p % 9) as f64, 100.0 + 4.0 * h]
        };
        let traces: Vec<Vec<f64>> = plaintexts.iter().map(|&p| oracle(p)).collect();
        let batch = batch_cpa(&plaintexts, &traces, 3);
        let mut acc = OnlineCpa::new(3);
        for &p in &plaintexts {
            acc.push(p, &oracle(p)).unwrap();
        }
        let online = acc.result();
        assert_eq!(online.best_guess, batch.best_guess);
        for g in 0..64 {
            assert!((online.peaks[g] - batch.peaks[g]).abs() < 1e-9, "guess {g}");
            assert_eq!(online.peak_cycles[g], batch.peak_cycles[g], "guess {g}");
        }
        assert!((online.margin - batch.margin).abs() < 1e-9);
    }

    #[test]
    fn online_accumulators_report_width_mismatches() {
        let mut dpa = OnlineDpa::single(0, 0);
        dpa.push(1, &[1.0, 2.0]).unwrap();
        assert_eq!(dpa.push(2, &[1.0]), Err(StatsError::WidthMismatch { expected: 2, got: 1 }));
        let mut cpa = OnlineCpa::new(0);
        cpa.push(1, &[1.0, 2.0]).unwrap();
        assert_eq!(cpa.push(2, &[1.0]), Err(StatsError::WidthMismatch { expected: 2, got: 1 }));
    }

    #[test]
    fn empty_accumulators_finalize_calmly() {
        let dpa = OnlineDpa::multibit(0, 0);
        assert!(dpa.is_empty());
        let r = dpa.result();
        assert!(r.peaks.iter().all(|&p| p == 0.0));
        assert!((r.margin - 1.0).abs() < 1e-12);
        let cpa = OnlineCpa::new(0);
        assert!(cpa.is_empty());
        let r = cpa.result();
        assert!(r.peaks.iter().all(|&p| p == 0.0));
    }
}
